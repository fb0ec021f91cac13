"""Layered benchmark for diracq.

    python3 perfbench/run.py --workload corpus-cli|rational-families|cech-atlases|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/diracq``, ``models/``).  The
program under test always runs in child processes, one at a time: the CLI
for ``corpus-cli``, ``perfbench/worker.py`` (library path) for the
generated workloads.  Every report is judged against ``oracle.py``, which
never imports diracq.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  ``failed`` counts operations whose
report differs from the oracle; each names its fault on stderr.  ``correct``
is false when an operation fails for a reason other than a known fault, when
the traced and untraced reports differ, or when the planted wrong verdict is
not caught.  See README.md for the workloads, metrics and faults.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import families
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
PROGRAM_SEED = 7            # the CLI's --seed and run_checks' seed
CLI_TRIALS = 20             # the CLI's default --trials
TRIALS = 6                  # run_checks' trials on generated structures
SETUP_SAMPLES = 10          # minimum set-ups timed per run
CHILD_TIMEOUT = 170         # seconds; one child never runs longer
WORKLOAD_TIMEOUT = 900      # seconds; one workload of --workload all
WORKLOADS = ("corpus-cli", "rational-families", "cech-atlases")
SUITES = ("dirac", "poisson", "prequant", "polarize", "quantize", "poincare")
FAULTS = {
    "F1": "quantize reports ERROR IntegralityError on an obstructed atlas",
    "F2": "the dirac suite reports ERROR on a non-Dirac input",
    "F3": "prequant reports ERROR AtlasError on an incompatible atlas",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# children


def _child(argv: list[str], stdin: str | None = None,
           timeout: float = CHILD_TIMEOUT) -> tuple:
    """Run one child to completion: (stdout, stderr, returncode, spawn
    time on the monotonic clock, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{argv[1:3]} exceeded {timeout} s") from err
    return (proc.stdout, proc.stderr, proc.returncode, spawn,
            time.monotonic() - spawn)


def worker(mode: str, ops: list[dict], trace: bool = False) -> tuple:
    """(worker output, set-up seconds, wall seconds)."""
    job = {"mode": mode, "trace": trace, "seed": PROGRAM_SEED,
           "src": str(SRC),
           "ops": [{k: op[k] for k in ("name", "text", "suites", "trials")}
                   for op in ops]}
    out, err, code, spawn, wall = _child(
        [sys.executable, str(HERE / "worker.py")], json.dumps(job))
    if code != 0:
        raise BenchError(f"worker failed ({code}): {err.strip()[-2000:]}")
    result = json.loads(out)
    return result, result["ready"] - spawn, wall


def cli(path: Path, traced: bool = False) -> tuple:
    """(report text, seconds, trace aggregate or None) for one model."""
    args = ["check", str(path.relative_to(ROOT)), "--suite", "all",
            "--seed", str(PROGRAM_SEED), "--json"]
    if traced:
        argv = [sys.executable, str(HERE / "cli_shim.py"), str(SRC), *args]
    else:
        argv = [sys.executable, "-m", "diracq.cli", *args]
    out, err, code, _spawn, wall = _child(argv)
    if code not in (0, 1):
        raise BenchError(f"diracq check {path.name} exited {code}: "
                         f"{err.strip()[-2000:]}")
    summary = json.loads(err.strip().splitlines()[-1]) if traced else None
    return out, wall, summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# judging


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.live = False

    def judge(self, op: dict, report: str) -> bool:
        """Judge one operation; True when its report matches the oracle.
        A tagged operation that differs must differ exactly as its fault
        does, or the run is not correct."""
        name, fault, expected = op["name"], op.get("fault"), expected_for(op)
        self.attempted += 1
        data = json.loads(report)
        if data["seed"] != PROGRAM_SEED:
            self.problem(f"{name}: report seed {data['seed']}")
        reason = oracle.judge(data["checks"], expected)
        if reason is None:
            if not self.live:
                self.plant(data["checks"], expected)
            return True
        self.failed += 1
        if fault is None:
            self.problem(f"{name}: unexpected verdict: {reason}")
        elif oracle.judge(data["checks"], oracle.under_fault(
                fault, expected, op.get("spec", {}).get("frame", False))):
            self.problem(f"{name}: differs other than by {fault}: {reason}")
        else:
            log(f"failed {name} ({fault}: {FAULTS[fault]}): {reason}")
        return False

    def plant(self, checks, expected) -> None:
        """A wrong expected verdict must come out as a failed operation."""
        first = expected[0]
        wrong = ("fail",) if "fail" not in first.statuses else ("pass",)
        planted = [oracle.Expect(first.name, wrong, first.witness),
                   *expected[1:]]
        if oracle.judge(checks, planted) is None:
            self.problem("a planted wrong verdict was accepted")
        self.live = True

    def problem(self, message: str) -> None:
        log(f"INCORRECT: {message}")
        self.correct = False


def corpus_ops() -> list[dict]:
    paths = sorted(MODELS.glob("*.dq"))
    names = {p.stem for p in paths}
    if names != set(oracle.CORPUS):
        raise BenchError(f"models/ holds {sorted(names)}, the oracle table "
                         f"covers {sorted(oracle.CORPUS)}")
    return [{"name": p.stem, "path": p, "text": p.read_text(),
             "suites": list(SUITES), "trials": CLI_TRIALS,
             "fault": oracle.CORPUS_FAULTS.get(p.stem)}
            for p in paths]


def expected_for(op: dict):
    if "path" in op:
        return oracle.CORPUS[op["name"]]
    if "expected" not in op:
        op["expected"] = oracle.expect_generated(op)
    return op["expected"]


GENERATORS = {"rational-families": families.rational_round,
              "cech-atlases": families.cech_round}


def round_ops(workload: str, seed: int, index: int) -> list[dict]:
    if workload == "corpus-cli":
        ops = corpus_ops()
        random.Random(f"corpus-cli:{seed}:{index}").shuffle(ops)
        return ops
    ops = GENERATORS[workload](seed, index)
    for op in ops:
        op["trials"] = TRIALS
    return ops


def run_round(workload: str, ops: list[dict], traced: bool = False):
    """(reports, per-op seconds, set-up samples, wall, trace aggregates)."""
    if workload == "corpus-cli":
        reports, seconds, traces = [], [], []
        for op in ops:
            report, wall, summary = cli(op["path"], traced)
            reports.append(report)
            seconds.append(wall)
            traces.append(summary)
        return reports, seconds, [], sum(seconds), traces
    out, setup, wall = worker("check", ops, traced)
    return ([o["report"] for o in out["ops"]],
            [o["seconds"] for o in out["ops"]], [setup], wall,
            [out.get("trace")])


def setup_probe(workload: str, ops: list[dict], count: int) -> list[float]:
    """Interpreter start until diracq is imported and the inputs parsed;
    a corpus probe parses one model, as one CLI process does."""
    samples = []
    for i in range(count):
        chunk = [ops[i % len(ops)]] if workload == "corpus-cli" else ops
        samples.append(worker("setup", chunk)[1])
    return samples


# ---------------------------------------------------------------------------
# runs


def measure(workload: str, seed: int, seconds: float) -> dict:
    tally = Tally()
    round_walls, op_seconds, setups = [], [], []
    spent, index = 0.0, 0
    while True:
        ops = round_ops(workload, seed, index)
        reports, times, setup, wall, _ = run_round(workload, ops)
        for op, report, op_s in zip(ops, reports, times):
            op_seconds.append((op_s, tally.judge(op, report)))
        round_walls.append(sum(times))
        setups += setup
        spent += wall
        index += 1
        if spent + wall > seconds:
            break
    setups += setup_probe(workload, round_ops(workload, seed, 0),
                          max(0, SETUP_SAMPLES - len(setups)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(round_walls), "s"),
        "verdict_s_p50": (verdict_p50(op_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    log(f"{workload}: {index} round(s), {len(op_seconds)} operations, "
        f"{len(setups)} set-ups")
    return result(tally, metrics)


def verdict_p50(op_seconds: list[tuple[float, bool]]) -> float:
    """Median time to a correct verdict.  A failed operation gave none, so
    it counts as missing any latency limit: it ranks with the slowest
    correct verdict of the run."""
    slowest = max((t for t, ok in op_seconds if ok),
                  default=max(t for t, _ in op_seconds))
    return statistics.median(t if ok else slowest for t, ok in op_seconds)


def _add(total: dict, summary: dict | None) -> None:
    for name, entry in (summary or {}).items():
        slot = total.setdefault(name, {})
        for key, value in entry.items():
            slot[key] = slot.get(key, 0) + value


LAYER_SELF = ("expr.normalize", "expr.diff", "linalg.echelon",
              "linalg.solve", "chart.exterior_derivative",
              "chart.contravariant_derivative", "chart.lie_derivative_form",
              "hamiltonian.hamiltonian_H",
              "hamiltonian.admissible_vector_field", "algebroid.d_A",
              "prequant.prequant_operator")
SELF_ONLY = ("dirac.verify_dirac", "algebroid.homotopy_S",
             "prequant.build_prequantization", "prequant.atlas_validate",
             "quantize.polarization_check", "quantize.lemma51_residual")

# inclusive time too: what factor-once-solve-many would cut
INCLUSIVE = ("linalg.solve", "hamiltonian.hamiltonian_H")


def layer_metrics(trace: dict, suites: dict, overhead: float) -> dict:
    def get(name, key):
        return trace.get(name, {}).get(key, 0)

    plain, trans = "expr.equal", "expr.equal.transcendental"
    m = {
        "expr.equal.calls": (get(plain, "calls") + get(trans, "calls"),
                             "count"),
        "expr.equal.self_s": (get(plain, "self_s") + get(trans, "self_s"),
                              "s"),
        "expr.equal.transcendental.calls": (get(trans, "calls"), "count"),
        "expr.equal.transcendental.s": (get(trans, "s"), "s"),
        "expr.equal.transcendental.self_s": (get(trans, "self_s"), "s"),
        "expr.sampled_equal.calls": (get("expr.sampled_equal", "calls"),
                                     "count"),
        "expr.sampled_equal.s": (get("expr.sampled_equal", "s"), "s"),
        "expr.cancel.calls": (get("expr.cancel", "calls"), "count"),
        "expr.cancel.s": (get("expr.cancel", "s"), "s"),
    }
    for name in LAYER_SELF:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in INCLUSIVE:
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["dirac.membership.calls"] = (get("dirac.membership", "calls"), "count")
    blocks = trace.get("linalg.echelon.blocks", {})
    m["linalg.echelon.distinct_ratio"] = (
        blocks.get("distinct", 0) / blocks["calls"]
        if blocks.get("calls") else 1.0, "ratio")
    for suite in SUITES:
        m[f"checks.suite.{suite}.s"] = (suites.get(suite, 0.0), "s")
    m["dsl.parse_model.s"] = (get("dsl.parse_model", "s"), "s")
    m["trace.spans"] = (get("spans", "count"), "count")
    m["trace.overhead_pct"] = (overhead, "%")
    return m


def measure_traced(workload: str, seed: int) -> dict:
    """One round untraced, the same round traced (reports must be
    byte-identical), then each suite alone in a fresh worker."""
    tally = Tally()
    ops = round_ops(workload, seed, 0)
    plain, plain_times, _, _, _ = run_round(workload, ops)
    traced, traced_times, _, _, traces = run_round(workload, ops, True)
    for op, a, b in zip(ops, plain, traced):
        if a != b:
            tally.problem(f"{op['name']}: traced report differs")
        tally.judge(op, a)
    suites = worker("suites", ops)[0]["suites"]
    total: dict = {}
    for summary in traces:
        _add(total, summary)
    overhead = 100.0 * (sum(traced_times) / sum(plain_times) - 1.0)
    log(f"{workload}: tracing overhead {overhead:.1f}% "
        f"({sum(plain_times):.2f} s untraced, {sum(traced_times):.2f} s "
        f"traced), {total.get('spans', {}).get('count', 0)} spans")
    return result(tally, layer_metrics(total, suites, overhead))


def result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "diracq" / "__init__.py").is_file():
            raise BenchError(f"no diracq sources under {SRC}")
        if not MODELS.is_dir():
            raise BenchError(f"no model corpus at {MODELS}")
        if args.workload != "all":
            print(json.dumps(measure_traced(args.workload, args.seed)
                             if args.trace else
                             measure(args.workload, args.seed, args.seconds)))
            return 0
        results = {}
        for workload in WORKLOADS:
            r = results[workload] = workload_process(workload, args)
            print(f"{workload}: attempted {r['attempted']}, failed "
                  f"{r['failed']}, correct {r['correct']}")
            for name, m in r["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    except BenchError as err:
        log(f"error: {err}")
        return 2
    print(json.dumps(results))
    return 0


def workload_process(workload: str, args) -> dict:
    """One workload's result from a run.py process of its own, so that
    ``peak_rss_mb`` covers only that workload's children."""
    out, err, code, _spawn, _wall = _child(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)], timeout=WORKLOAD_TIMEOUT)
    sys.stderr.write(err)
    if code != 0:
        raise BenchError(f"{workload} exited {code}")
    return json.loads(out.strip().splitlines()[-1])


if __name__ == "__main__":
    raise SystemExit(main())
