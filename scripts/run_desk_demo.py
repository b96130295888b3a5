#!/usr/bin/env python3
"""End-to-end desk-scale demo: data -> victim -> UAPs -> evaluation.

Generates the synthetic AM-tone dataset, trains a small convolutional victim,
crafts universal perturbations with both the greedy and the penalty method
(untargeted, plus one targeted penalty run per class), and prints a summary
table. Artifacts land under --out.

Note on the penalty coefficient: the library default (c=0.2) is calibrated
for victims whose logit gradients are much louder than these toy models'.
On the desk-scale victims the loudness term dominates at that setting, so
this script passes c explicitly (10 untargeted, 5 targeted).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import _desk
from uapaudio import (
    GreedyConfig,
    PenaltyConfig,
    accuracy,
    evaluate_uap,
    greedy_uap,
    penalty_uap,
    report_summary,
    rows_to_csv,
    save_model,
    save_perturbation,
)


def main() -> None:
    ap = _desk.parser(__doc__)
    ap.add_argument("--out", type=Path, default=Path("demo_out"))
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    print("== dataset ==")
    ds = _desk.dataset(args)
    x_train, y_train = ds.arrays("train")
    testset = ds.arrays("test")
    print(f"train {x_train.shape}, test {testset[0].shape}")

    print("== victim (rand-cnn) ==")
    model, train_acc = _desk.victim(args, ds)
    test_acc = accuracy(model, *testset)
    print(f"train acc {train_acc:.3f}  test acc {test_acc:.3f}")
    save_model(model, args.out / "victim.npz")

    summaries = []

    def run(tag, pert):
        report = evaluate_uap(model, testset, pert)
        save_perturbation(pert, args.out / f"{tag}.npz")
        rows_to_csv(report.rows, args.out / f"{tag}.csv")
        summaries.append((tag, report))
        print(f"{tag:28s} train {pert.train_asr:.3f}  test {report.test_asr:.3f}  "
              f"snr {report.mean_snr_db:.1f} dB")

    print("== untargeted ==")
    run("greedy-untargeted", greedy_uap(model, x_train, GreedyConfig(seed=args.seed)).perturbation)
    run("penalty-untargeted",
        penalty_uap(model, x_train, y_train, PenaltyConfig(c=10.0, seed=args.seed)).perturbation)

    print("== targeted (penalty, one run per class) ==")
    for k in range(args.classes):
        cfg = PenaltyConfig(mode="targeted", target=k, c=5.0, seed=args.seed)
        run(f"penalty-targeted-{k}", penalty_uap(model, x_train, y_train, cfg).perturbation)

    summary = {
        "test_accuracy": test_acc,
        "reports": {tag: report_summary(r) for tag, r in summaries},
    }
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"done in {time.perf_counter() - t0:.1f}s; artifacts in {args.out}/")


if __name__ == "__main__":
    main()
