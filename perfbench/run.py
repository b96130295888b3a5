#!/usr/bin/env python3
"""uapaudio benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload craft --seed 0 --seconds 15 --trace 0

Run from the repository root. The package is imported from `src/` beside this
directory, so nothing needs installing. One client in one process drives the
library in a closed loop; BLAS is pinned to one thread. The allocator and
every other setting are left at their defaults, as a user runs the program.

--trace 0 sets the workload up, times the set-up, then repeats the timed
iteration until --seconds have passed (at least twice), timing a fixed
reference computation between its steps, and reports medians of the
end-to-end metrics. --trace 1 wraps the library's public functions,
traces one set-up, then alternates traced and untraced iterations (wrappers
removed for the untraced ones) for the overhead figure, and reports the
per-layer metrics.

Everything the run writes goes under `.perfbench/` in the repository root.
The last line of standard output is the result; the line before it holds the
workload-specific figures and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
# read by the BLAS library when NumPy loads it, so set before `bench` is imported
BLAS_ENVIRONMENT = {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
                    "MKL_NUM_THREADS": str(BLAS_THREADS)}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "craft", "cli-eval"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "uapaudio" / "__init__.py").is_file():
        print(f"error: uapaudio sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENVIRONMENT)
    sys.path.insert(0, str(SRC))
    import bench  # noqa: E402  (imports uapaudio from SRC)

    result, details = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                work_root=ROOT / ".perfbench")
    details["machine"]["blas_threads"] = BLAS_THREADS
    print(json.dumps({"details": details}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
