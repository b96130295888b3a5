#!/usr/bin/env python3
"""Hyperparameter sweeps: hinge confidence (kappa) and crafting-set size (m).

Trains one victim, then
  * sweeps kappa over the standard grid with the penalty method, and
  * sweeps the number of crafting samples for both methods,
evaluating every perturbation on the held-out test split. Two CSVs are
written to --out. Expect a few minutes at the default scale.
"""

from __future__ import annotations

import time
from pathlib import Path

import _desk
from uapaudio import (
    DATACOUNT_GRID,
    KAPPA_GRID,
    GreedyConfig,
    PenaltyConfig,
    accuracy,
    rows_to_csv,
    sweep_confidence,
    sweep_datacount,
)


def main() -> None:
    ap = _desk.parser(__doc__)
    ap.add_argument("--out", type=Path, default=Path("sweep_out"))
    ap.add_argument("--c", type=float, default=5.0,
                    help="penalty coefficient (desk victims need ~5-20)")
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    ds = _desk.dataset(args)
    x = ds.arrays("train")[0]
    testset = ds.arrays("test")
    model, _ = _desk.victim(args, ds)
    print(f"victim test acc {accuracy(model, *testset):.3f}")

    print(f"== kappa sweep over {KAPPA_GRID} ==")
    conf = sweep_confidence(model, x, testset,
                            cfg=PenaltyConfig(c=args.c, seed=args.seed))
    for row in conf:
        print(f"kappa {row['kappa']:5.1f}  test {row['test_asr']:.3f}  "
              f"snr {row['mean_snr_db']:.1f} dB")
    rows_to_csv(conf, args.out / "confidence_sweep.csv")

    print(f"== data-count sweep over {DATACOUNT_GRID} ==")
    counts = sweep_datacount(
        model, x, testset,
        greedy_cfg=GreedyConfig(seed=args.seed),
        penalty_cfg=PenaltyConfig(c=args.c, kappa=90.0, min_iters=19, seed=args.seed),
        seed=args.seed,
    )
    for row in counts:
        print(f"{row['method']:8s} m={row['m']:4d}  test {row['test_asr']:.3f}  "
              f"snr {row['mean_snr_db']:.1f} dB")
    rows_to_csv(counts, args.out / "datacount_sweep.csv")

    print(f"done in {time.perf_counter() - t0:.1f}s; CSVs in {args.out}/")


if __name__ == "__main__":
    main()
