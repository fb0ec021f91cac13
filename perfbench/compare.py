"""Run two sets of benchmark runs of one checkout and compare them.

    python3 perfbench/compare.py --workload rational-families

Each set is ten runs, one seed each: seeds 1-10, then 11-20.  For every
end-to-end metric it prints the median, quartiles and spread (interquartile
range over the median) of each set, then checks what a regression gate
checks between a parent and a change: the spread of each set within the
metric's bound, the two medians apart by no more than the bound (either
way), and the same share of failed operations in both sets.  ``setup_s``
is held to its median only: it exists to show work moved into set-up, and
a set-up of half a second follows the host's load from minute to minute.  Exit code 1
when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (range(1, 11), range(11, 21))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run failed (seed {seed}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = []
    for s, seeds in enumerate(SEEDS):
        runs = []
        for seed in seeds:
            runs.append(one_run(args.workload, seed, spec["run_seconds"]))
            print(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{m['name']}={runs[-1]['metrics'][m['name']]['value']:.4f}"
                for m in metrics), flush=True)
        sets.append(runs)
    ok = True
    for runs in sets:
        if not all(r["correct"] for r in runs):
            print("FAIL: a run reported correct = false")
            ok = False
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    print(f"failed shares: {[sorted(s) for s in shares]}")
    if len(set().union(*shares)) != 1:
        print("FAIL: the share of failed operations differs between runs")
        ok = False
    for m in metrics:
        name, bound = m["name"], m["bound"]
        stats = [spread([r["metrics"][name]["value"] for r in runs])
                 for runs in sets]
        for i, (q1, med, q3, sp) in enumerate(stats):
            flag, gated = "", name != "setup_s"
            if gated and sp > bound:
                flag, ok = "  FAIL: spread above bound", False
            elif gated and sp > bound / 3:
                flag = "  (spread above a third of the bound)"
            print(f"{name:15s} set {i + 1}: median {med:.4f} "
                  f"[{q1:.4f}, {q3:.4f}] spread {sp:.3f} "
                  f"bound {bound}{flag}")
        first, second = stats[0][1], stats[1][1]
        if abs(second - first) / first > bound:
            print(f"FAIL: {name} medians {first:.4f} and {second:.4f} "
                  f"differ by more than the bound")
            ok = False
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
