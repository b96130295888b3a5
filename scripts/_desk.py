"""Set-up shared by the desk-scale scripts: flags, dataset and trained victims."""

from __future__ import annotations

import argparse

from uapaudio import SyntheticDataset, VictimModel, build_victim, generate_synthetic_dataset, train


def parser(doc: str) -> argparse.ArgumentParser:
    """A parser described by doc's first line, holding the six desk flags."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--classes", type=int, default=3)
    ap.add_argument("--per-class", type=int, default=200)
    ap.add_argument("--test-per-class", type=int, default=100)
    ap.add_argument("--dim", type=int, default=4096)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    return ap


def dataset(args: argparse.Namespace) -> SyntheticDataset:
    return generate_synthetic_dataset(args.classes, args.per_class, args.dim,
                                      seed=args.seed, test_per_class=args.test_per_class)


def victim(args: argparse.Namespace, ds: SyntheticDataset,
           arch: str = "rand-cnn") -> tuple[VictimModel, float]:
    """Build and train a victim; return it with its train accuracy."""
    model = build_victim(arch, args.dim, args.classes, seed=args.seed)
    return model, train(model, ds, epochs=args.epochs, seed=args.seed)["train_accuracy"]
