"""Offline benchmark for adagate: one workload per run, result as a JSON last line.

Usage (from the repository root):

    python3 bench/run.py --workload retrieval-5k --seed 7 --seconds 15 --trace 0

``--trace 0`` is the timed pass and prints the end-to-end metrics;
``--trace 1`` is the traced pass and prints the per-layer metrics. Every
metric is printed as ``name value unit`` before the final JSON line. The
program under test is imported from ``src/`` next to this directory; the
run fails without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("retrieval-5k", "distractor-pools", "cli-sweep")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="default for both seeds below")
    parser.add_argument("--world-seed", type=int, default=None, help="synthetic world seed (default: --seed)")
    parser.add_argument("--perturb-seed", type=int, default=None, help="perturbation seed (default: --seed)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "adagate" / "__init__.py").is_file():
        print(f"error: the program is missing: no {src / 'adagate'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # needs the program on sys.path

    config = workloads.RunConfig(
        root=ROOT,
        seconds=args.seconds,
        world_seed=args.seed if args.world_seed is None else args.world_seed,
        perturb_seed=args.seed if args.perturb_seed is None else args.perturb_seed,
        trace=bool(args.trace),
    )
    outcome, sizes = workloads.WORKLOADS[args.workload](config)
    specs = workloads.PER_LAYER if config.trace else workloads.END_TO_END
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "world_seed": config.world_seed,
        "perturb_seed": config.perturb_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "world": sizes,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(outcome.info, sort_keys=True))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"checks {'passed' if outcome.correct else 'FAILED'} ({outcome.failed}/{outcome.attempted} questions failed)")
    for name, unit, _better in specs:
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
