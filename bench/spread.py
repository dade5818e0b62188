"""Run one workload over several seeds and print each metric's quartile spread.

Usage (from the repository root):

    python3 bench/spread.py --workload retrieval-5k --seeds 1 2 3 4 5 [--trace 0]

Runs are sequential. For each metric it prints the median, the
interquartile distance as a share of the median, and that spread against
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for name, series in values.items():
        spread = quartile_spread(series)
        bound = bounds.get(name)
        verdict = "" if bound is None else f"bound {bound}  spread/bound {spread / bound:.2f}"
        print(f"{name:<40} median {statistics.median(series):<12.6g} spread {spread:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
