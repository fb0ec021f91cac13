from __future__ import annotations

import os
from pathlib import Path

import pytest

from diracq.chart import Chart, KForm, KVector
from diracq.dirac import graph_presymplectic, graph_poisson
from diracq.expr import Expr

# ``pythonpath`` in pyproject.toml puts the source tree on this process's
# path; the CLI processes that some tests start find it here.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture
def r2() -> Chart:
    return Chart("M", ("q", "p"))


@pytest.fixture
def standard_dirac(r2):
    omega = r2.basis_covector(0).wedge(r2.basis_covector(1))
    return graph_presymplectic(omega)


@pytest.fixture
def r4() -> Chart:
    return Chart("R4", ("x1", "x2", "x3", "x4"), ("k",))


@pytest.fixture
def presymplectic_r4(r4):
    omega = KForm(r4, 2, {(0, 1): 1, (0, 3): 1})
    return graph_presymplectic(omega)


@pytest.fixture
def g_chart() -> Chart:
    return Chart("P", ("x1", "x2"))


@pytest.fixture
def g_poisson(g_chart):
    x1, x2 = (Expr(s) for s in g_chart.coords)
    big_g = x1 ** 2 + x2 ** 2
    return graph_poisson(KVector(g_chart, 2, {(0, 1): big_g}))
