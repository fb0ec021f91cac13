"""The program under test, in a process of its own.

Reads a job (JSON on stdin), imports diracq from the given source tree,
parses every input, then runs the requested suites through the library path
(``parse_model`` then ``run_checks``).  Writes one JSON object to stdout:

* ``ready``: ``time.monotonic()`` once diracq is imported and every input
  is parsed (the parent subtracts its spawn time, same clock);
* ``ops``: per operation the report JSON (``Report.to_json()``, the CLI's
  bytes) and the seconds ``run_checks`` took;
* ``suites``: with ``"mode": "suites"``, seconds per suite when each suite
  runs alone through ``run_checks`` (a fresh ``Resolver`` each);
* ``trace``: with ``"trace": true``, the tracer's aggregate.

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from diracq.checks import run_checks
    from diracq.dsl import parse_model

    models = [parse_model(op["text"], name=op["name"]) for op in job["ops"]]
    ready = time.monotonic()
    out = {"ready": ready, "ops": [], "suites": {}}
    mode = job["mode"]
    if mode == "check":
        for op, model in zip(job["ops"], models):
            start = time.perf_counter()
            report = run_checks(model, suites=op["suites"], seed=job["seed"],
                                trials=op["trials"])
            seconds = time.perf_counter() - start
            out["ops"].append({"name": op["name"], "seconds": seconds,
                               "report": report.to_json()})
    elif mode == "suites":
        for op in job["ops"]:
            for suite in op["suites"]:
                model = parse_model(op["text"], name=op["name"])
                start = time.perf_counter()
                run_checks(model, suites=[suite], seed=job["seed"],
                           trials=op["trials"])
                out["suites"][suite] = out["suites"].get(suite, 0.0) + \
                    time.perf_counter() - start
    if tracer is not None:
        out["trace"] = tracer.summary()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
