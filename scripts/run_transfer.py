#!/usr/bin/env python3
"""Cross-architecture transferability of untargeted universal perturbations.

Trains one victim per registered architecture on the same dataset, crafts a
penalty perturbation against each, and scores every perturbation against
every other victim. Each source's line says whether its craft converged: a
row whose source did not scores a perturbation that does not fool its own
victim either. The resulting matrix is descriptive (toy victims say little
about transfer between real networks) and is written as CSV.
"""

from __future__ import annotations

import time
from pathlib import Path

import _desk
from uapaudio import (
    ARCHITECTURES,
    PenaltyConfig,
    accuracy,
    penalty_uap,
    transfer_matrix,
    transfer_to_csv,
)


def main() -> None:
    ap = _desk.parser(__doc__)
    ap.add_argument("--out", type=Path, default=Path("transfer_out"))
    ap.add_argument("--c", type=float, default=10.0)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    ds = _desk.dataset(args)
    x, y = ds.arrays("train")
    testset = ds.arrays("test")

    models, perts = [], []
    for arch in ARCHITECTURES:
        model, _ = _desk.victim(args, ds, arch)
        result = penalty_uap(model, x, y, PenaltyConfig(c=args.c, seed=args.seed))
        models.append(model)
        perts.append(result.perturbation)
        print(f"{arch:10s} test acc {accuracy(model, *testset):.3f}  "
              f"train asr {result.perturbation.train_asr:.3f}  "
              f"converged {'yes' if result.converged else 'no'}")

    matrix = transfer_matrix(models, perts, testset)
    print("source \\ victim:", "  ".join(matrix.labels))
    for i, name in enumerate(matrix.labels):
        cells = ["  .  " if i == j else f"{matrix.values[i, j]:.3f}"
                 for j in range(len(matrix.labels))]
        print(f"{name:12s} {'  '.join(cells)}")

    transfer_to_csv(matrix, args.out / "transfer.csv")
    print(f"done in {time.perf_counter() - t0:.1f}s; CSV in {args.out}/")


if __name__ == "__main__":
    main()
