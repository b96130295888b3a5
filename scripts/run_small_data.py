#!/usr/bin/env python3
"""Few-sample crafting: penalty vs greedy at m=1 and m=5, plus significance.

Repeats the comparison over several disjoint seeds, reports per-seed and
median test ASR for each method, and runs the two-proportion Z test on the
median pair at each m. With one sample per class it also runs the
single-sample protocol (fixed 19-iteration budget, high-confidence hinge).
"""

from __future__ import annotations

import statistics

import numpy as np

import _desk
from uapaudio import (
    GreedyConfig,
    PenaltyConfig,
    accuracy,
    single_sample_attack,
    sweep_datacount,
    two_proportion_z,
)


def main() -> None:
    ap = _desk.parser(__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    ds = _desk.dataset(args)
    x, y = ds.arrays("train")
    testset = ds.arrays("test")
    model, _ = _desk.victim(args, ds)
    print(f"victim test acc {accuracy(model, *testset):.3f}")

    m_test = testset[0].shape[0]
    rows = [row for s in range(args.seeds)
            for row in sweep_datacount(model, x, testset, (1, 5), GreedyConfig(seed=s),
                                       PenaltyConfig(c=5.0, kappa=90.0, min_iters=19, seed=s), seed=1000 + s)]
    for m in (1, 5):
        greedy_scores = [r["test_asr"] for r in rows if r["m"] == m and r["method"] == "greedy"]
        penalty_scores = [r["test_asr"] for r in rows if r["m"] == m and r["method"] == "penalty"]
        g_med = statistics.median(greedy_scores)
        p_med = statistics.median(penalty_scores)
        print(f"m={m}: greedy {[f'{v:.2f}' for v in greedy_scores]} median {g_med:.3f}")
        print(f"m={m}: penalty {[f'{v:.2f}' for v in penalty_scores]} median {p_med:.3f}")
        zt = two_proportion_z(min(g_med, p_med), max(g_med, p_med), m_test)
        print(f"m={m}: Z {zt.z:.3f} vs -z_alpha {-zt.z_alpha:.3f} "
              f"-> {'different' if zt.reject else 'no significant difference'}")

    print("== single-sample protocol (one crafting sample per class) ==")
    sel = np.array([int(np.flatnonzero(y == k)[0]) for k in range(args.classes)])
    runs = single_sample_attack(model, x[sel], y[sel], testset,
                                cfg=PenaltyConfig(c=5.0, kappa=90.0, batch_size=1,
                                                  min_iters=19, max_iters=19))
    scores = [r.test_asr for _, r in runs]
    for (label, report) in runs:
        print(f"class {label}: test asr {report.test_asr:.3f}  "
              f"snr {report.mean_snr_db:.1f} dB")
    print(f"mean test asr {float(np.mean(scores)):.3f} "
          f"(chance flip rate would be ~{1.0 / args.classes:.3f})")


if __name__ == "__main__":
    main()
