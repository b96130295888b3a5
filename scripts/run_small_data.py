#!/usr/bin/env python3
"""Few-sample crafting: penalty vs greedy at m=1 and m=5, plus significance.

Repeats the comparison over several disjoint seeds, reports per-seed and
median test ASR for each method, and runs the two-proportion Z test on the
median pair at each m (undefined, and said so, when both medians are 0 or
both 1). It then runs the single-sample protocol: one penalty_uap craft from
each class's first training sample, in label order, at a fixed 19-update
budget with a high-confidence hinge, each scored by evaluate_uap.
"""

from __future__ import annotations

import statistics

import numpy as np

import _desk
from uapaudio import (
    DegenerateVarianceError,
    GreedyConfig,
    PenaltyConfig,
    accuracy,
    evaluate_uap,
    penalty_uap,
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
            for row in sweep_datacount(model, x, testset, (1, 5), greedy_cfg=GreedyConfig(seed=s),
                                       penalty_cfg=PenaltyConfig(c=5.0, kappa=90.0, min_iters=19, seed=s),
                                       seed=1000 + s)]
    for m in (1, 5):
        greedy_scores = [r["test_asr"] for r in rows if r["m"] == m and r["method"] == "greedy"]
        penalty_scores = [r["test_asr"] for r in rows if r["m"] == m and r["method"] == "penalty"]
        g_med = statistics.median(greedy_scores)
        p_med = statistics.median(penalty_scores)
        print(f"m={m}: greedy {[f'{v:.2f}' for v in greedy_scores]} median {g_med:.3f}")
        print(f"m={m}: penalty {[f'{v:.2f}' for v in penalty_scores]} median {p_med:.3f}")
        try:
            zt = two_proportion_z(min(g_med, p_med), max(g_med, p_med), m_test)
        except DegenerateVarianceError:
            print(f"m={m}: Z undefined: both medians sit at {g_med:.0f}, so the pooled variance is 0")
            continue
        print(f"m={m}: Z {zt.z:.3f} vs -z_alpha {-zt.z_alpha:.3f} "
              f"-> {'different' if zt.reject else 'no significant difference'}")

    print("== single-sample protocol (one crafting sample per class) ==")
    cfg = PenaltyConfig(c=5.0, kappa=90.0, batch_size=1, min_iters=19, max_iters=19)
    scores = []
    for k in range(args.classes):
        i = int(np.flatnonzero(y == k)[0])  # the class's first training sample
        report = evaluate_uap(model, testset, penalty_uap(model, x[i : i + 1], None, cfg).perturbation)
        scores.append(report.test_asr)
        print(f"class {k}: test asr {report.test_asr:.3f}  "
              f"snr {report.mean_snr_db:.1f} dB")
    print(f"mean test asr {float(np.mean(scores)):.3f} "
          f"(chance flip rate would be ~{1.0 / args.classes:.3f})")


if __name__ == "__main__":
    main()
