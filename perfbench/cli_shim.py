"""``python -m diracq.cli`` with the span tracer installed.

    python3 perfbench/cli_shim.py <src dir> check <model> --suite all ...

Runs ``diracq.cli.main`` on the remaining arguments, so stdout carries the
CLI's own report, then writes the tracer's aggregate as the last line of
stderr.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    import diracq.cli
    code = diracq.cli.main(sys.argv[2:])
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
