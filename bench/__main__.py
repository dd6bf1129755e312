"""Command line of the benchmark; run from the repository root.

    python -m bench run [--seed S] [--reps N] [--out DIR]   every workload
    python -m bench run --check       pinned tiny-size smoke run
    python -m bench compare OLD NEW   BENCH file or directory each
    python -m bench measure --workload W --seed S --seconds T --trace 0|1
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"bench: no repro package at {package}")
    sys.path.insert(0, SRC)
    import repro

    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != package:
        sys.exit(f"bench: imported repro from {found}, expected {package}")


def _parser(workloads) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--out", default=None,
                     help="directory for BENCH_*.json (default "
                          "bench/results)")
    run.add_argument("--check", action="store_true",
                     help="tiny fixed sizes against pinned outputs")
    compare = sub.add_parser("compare", help="compare two result sets")
    compare.add_argument("old")
    compare.add_argument("new")
    for name in ("measure", "setup"):
        one = sub.add_parser(name)
        one.add_argument("--workload", choices=workloads, required=True)
        one.add_argument("--seed", type=int, required=True)
        if name == "measure":
            one.add_argument("--seconds", type=float, required=True)
            one.add_argument("--trace", type=int, choices=(0, 1),
                             required=True)
    return parser


def main(argv=None) -> int:
    _use_checkout_sources()
    from . import harness
    from .workloads import WORKLOADS

    args = _parser(list(WORKLOADS)).parse_args(argv)

    if args.command == "run":
        if args.check:
            return harness.check()
        if args.reps < 1:
            sys.exit("bench: --reps must be at least 1")
        return harness.run_all(
            args.seed, args.reps, args.out or harness.RESULTS
        )
    if args.command == "compare":
        return harness.compare(args.old, args.new)
    if args.command == "setup":
        harness.setup_probe(args.workload, args.seed)
        return 0
    return harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )


if __name__ == "__main__":
    sys.exit(main())
