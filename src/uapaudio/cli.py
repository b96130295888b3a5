"""Command-line front end.

Every artifact-producing command drops a run manifest (canonical JSON, no
timestamps) beside the artifact so runs can be replayed and diffed; with a
fixed seed, two invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio import DEFAULT_SAMPLE_RATE
from .container import canonical_json
from .data import generate_synthetic_dataset, load_dataset_dir, save_dataset_dir
from .evaluation import (
    DATACOUNT_GRID,
    DEFAULT_ALPHA,
    KAPPA_GRID,
    _seeded_subset,
    evaluate_uap,
    report_summary,
    report_to_csv,
    sweep_confidence,
    sweep_datacount,
    sweep_to_csv,
    transfer_matrix,
    transfer_to_csv,
    two_proportion_z,
)
from .exceptions import InvalidInputError, UapAudioError
from .greedy import GreedyConfig, greedy_uap
from .models import ARCHITECTURES, accuracy, build_victim, load_model, save_model, train
from .penalty import PenaltyConfig, penalty_uap
from .perturbation import load_perturbation, save_perturbation


def _jsonable(value):
    """Best-effort conversion to something canonical_json accepts."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):  # np.float64 too
        value = float(value)
        return value if np.isfinite(value) else repr(value)  # canonical JSON refuses inf/nan
    return value


# path arguments; "models" is a comma-separated list of paths
_PATH_ARGS = ("data", "model", "models", "out", "pert", "report")


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_version() -> dict:
    """The name and version of NumPy's BLAS, without its install paths."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older NumPy's show_config takes no mode; a build may lack BLAS
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_run_manifest(artifact: Path, command: str, args: argparse.Namespace,
                        extra: dict | None = None) -> None:
    target = artifact / "run.json" if artifact.is_dir() else Path(str(artifact) + ".run.json")
    recorded = {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k != "func"}
    for k in _PATH_ARGS:
        if recorded.get(k) is not None:
            # relative to the manifest, so the same run elsewhere writes the same bytes
            recorded[k] = ",".join(os.path.relpath(p, target.parent) for p in recorded[k].split(",") if p)
    manifest = {
        "command": command,
        "args": recorded,
        "versions": {"uapaudio": __version__, "numpy": np.__version__,
                     "python": platform.python_version(), "blas": _blas_version()},
        # desk training gives the same bytes at 1 and 2 BLAS threads; the rest of a run was not checked
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }
    if extra:
        manifest["result"] = _jsonable(extra)
    target.write_bytes(canonical_json(manifest) + b"\n")


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad grid {text!r}") from exc


# command-line flag -> config field; a flag that a command lacks or leaves unset keeps the config default
_CONFIG_FLAGS = {
    GreedyConfig: {"mode": "mode", "target": "target", "xi": "xi", "delta": "delta",
                   "iters": "max_epochs", "seed": "seed"},
    PenaltyConfig: {"mode": "mode", "target": "target", "c": "c", "kappa": "kappa", "delta": "delta",
                    "batch": "batch_size", "iters": "max_iters", "seed": "seed"},
}


def _config(cls: type, args: argparse.Namespace, **fields):
    flags = _CONFIG_FLAGS[cls]
    fields.update({field: getattr(args, flag) for flag, field in flags.items()
                   if getattr(args, flag, None) is not None})
    return cls(**fields)


def _crafting_sets(args: argparse.Namespace):
    """--data's train split, or its seeded subset of --m samples, and its test split, as (x, y) pairs."""
    dataset = load_dataset_dir(args.data)
    x, y = dataset.arrays("train")
    if args.m is not None and args.m < x.shape[0]:
        if args.m < 1:
            raise InvalidInputError("crafting subset size must be >= 1")
        idx = _seeded_subset(x.shape[0], args.m, args.seed)
        x, y = x[idx], y[idx]
    return (x, y), dataset.arrays("test")


def _craft(args: argparse.Namespace, model, x: np.ndarray, y: np.ndarray, model_path: str, **fields):
    """Craft on (x, y) by --method, its config from _config and fields, and warn when the
    craft did not converge. Returns the config and the CraftResult."""
    greedy = args.method == "greedy"
    cfg = _config(GreedyConfig if greedy else PenaltyConfig, args, **fields)
    result = greedy_uap(model, x, cfg) if greedy else penalty_uap(model, x, y, cfg)
    if not result.converged:
        print(f"warning: {args.method} craft on {model_path} did not converge "
              f"(train_asr={result.perturbation.train_asr:.4f})", file=sys.stderr)
    return cfg, result


# -- subcommands -------------------------------------------------------------


def _cmd_gen_data(args: argparse.Namespace) -> int:
    dataset = generate_synthetic_dataset(
        args.classes, args.per_class, args.dim, noise_level=args.noise, seed=args.seed,
        val_per_class=args.val_per_class, test_per_class=args.test_per_class,
        sample_rate=args.rate)
    out = Path(args.out)
    save_dataset_dir(dataset, out)
    _write_run_manifest(out, "gen-data", args)
    print(f"wrote {out}: classes={args.classes} dim={args.dim} "
          f"train={len(dataset.train)} val={len(dataset.val)} test={len(dataset.test)}")
    return 0


def _cmd_train_victim(args: argparse.Namespace) -> int:
    if args.epochs < 1:
        raise InvalidInputError("train-victim needs --epochs >= 1")
    dataset = load_dataset_dir(args.data)
    model = build_victim(args.arch, dataset.dim, dataset.num_classes, seed=args.seed,
                         sample_rate=dataset.sample_rate)
    train_acc = train(model, dataset, epochs=args.epochs, lr=args.lr,
                      batch_size=args.batch, seed=args.seed)["train_accuracy"]
    test_x, test_y = dataset.arrays("test")
    test_acc = accuracy(model, test_x, test_y) if len(test_y) else float("nan")
    out = Path(args.out)
    save_model(model, out)
    _write_run_manifest(out, "train-victim", args,
                        extra={"train_accuracy": train_acc,
                               "test_accuracy": test_acc})
    print(f"wrote {out}: arch={args.arch} "
          f"train_acc={train_acc:.4f} test_acc={test_acc:.4f}")
    return 0


def _cmd_craft(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    (x, y), _ = _crafting_sets(args)
    fields = ({"p": float(args.p)} if args.method == "greedy"  # "inf" parses to inf
              else {"project": (2.0, args.project_l2) if args.project_l2 is not None else None})
    cfg, result = _craft(args, model, x, y, args.model, **fields)

    out = Path(args.out)
    save_perturbation(result.perturbation, out)
    _write_run_manifest(out, "craft", args, extra={
        "config": _jsonable(cfg), "converged": result.converged,
        "train_asr": result.perturbation.train_asr, "iterations": result.iterations})
    print(f"wrote {out}: method={args.method} mode={args.mode} "
          f"train_asr={result.perturbation.train_asr:.4f} converged={result.converged}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = load_dataset_dir(args.data)
    pert = load_perturbation(args.pert)
    report = evaluate_uap(model, dataset.arrays(args.split), pert)
    out = Path(args.report)
    report_to_csv(report, out)
    _write_run_manifest(out, "evaluate", args, extra=report_summary(report))
    mean_l = f"{report.mean_l_db:.3f}" if np.isfinite(report.mean_l_db) else "nan"
    print(f"wrote {out}: asr={report.test_asr:.4f} "
          f"mean_snr_db={report.mean_snr_db:.3f} mean_l_db={mean_l}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    (x, _), testset = _crafting_sets(args)
    out = Path(args.out)

    if args.what == "confidence":
        grid = _parse_grid(args.grid) if args.grid else list(KAPPA_GRID)
        rows = sweep_confidence(model, x, testset, grid, _config(PenaltyConfig, args))
    else:
        grid = _parse_grid(args.grid) if args.grid else list(DATACOUNT_GRID)
        rows = sweep_datacount(
            model, x, testset, grid, _config(GreedyConfig, args), _config(PenaltyConfig, args),
            seed=args.seed)

    sweep_to_csv(rows, out)
    _write_run_manifest(out, f"sweep-{args.what}", args, extra={"rows": len(rows)})
    print(f"wrote {out}: {len(rows)} rows")
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    paths = [p for p in args.models.split(",") if p]
    if len(paths) < 2:
        raise InvalidInputError("transfer needs at least 2 model paths")
    models = [load_model(p) for p in paths]
    (x, y), testset = _crafting_sets(args)
    perts = [_craft(args, model, x, y, path)[1].perturbation for model, path in zip(models, paths)]

    labels = [Path(p).stem for p in paths]
    if len(set(labels)) != len(labels):  # stems may collide; fall back to full paths
        labels = [str(p) for p in paths]
    matrix = transfer_matrix(models, perts, testset, labels=labels)
    out = Path(args.out)
    transfer_to_csv(matrix, out)
    _write_run_manifest(out, "transfer", args)
    print(f"wrote {out}: {len(models)}x{len(models)} matrix")
    return 0


def _cmd_ztest(args: argparse.Namespace) -> int:
    result = two_proportion_z(args.pl, args.ph, args.m, alpha=args.alpha)
    verdict = "reject" if result.reject else "accept"
    print(f"Z={result.z:.4f} z_alpha={result.z_alpha:.4f} "
          f"alpha={result.alpha} H0:{verdict}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uapaudio",
        description="Craft and evaluate universal adversarial audio perturbations.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled audio dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True, help="training samples per class")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-per-class", type=int, default=None)
    p.add_argument("--val-per-class", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--rate", type=int, default=DEFAULT_SAMPLE_RATE)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-victim", help="train a registry model on a dataset")
    p.add_argument("--arch", choices=ARCHITECTURES, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train_victim)

    # flags that craft, sweep and transfer share, with the same defaults
    crafting = argparse.ArgumentParser(add_help=False)
    crafting.add_argument("--data", required=True)
    crafting.add_argument("--out", required=True)
    crafting.add_argument("--target", type=int, default=None)
    crafting.add_argument("--c", type=float, default=None)
    crafting.add_argument("--batch", type=int, default=100)
    crafting.add_argument("--seed", type=int, default=0)
    crafting.add_argument("--m", type=int, default=None,
                          help="craft from a seeded subset of this many training samples")

    p = sub.add_parser("craft", parents=[crafting], help="craft a universal perturbation")
    p.add_argument("--method", choices=("greedy", "penalty"), required=True)
    p.add_argument("--mode", choices=("untargeted", "targeted"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--p", choices=("2", "inf"), default="inf")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--project-l2", type=float, default=None,
                   help="penalty only: project the rendering onto an l2 ball of this radius")
    p.set_defaults(func=_cmd_craft)

    p = sub.add_parser("evaluate", help="score a perturbation against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pert", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", parents=[crafting], help="parameter sweeps emitting one CSV")
    p.add_argument("what", choices=("confidence", "datacount"))
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("untargeted", "targeted"), default="untargeted")
    p.add_argument("--grid", default=None, help="comma-separated values")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("transfer", parents=[crafting], help="cross-model transfer matrix")
    p.add_argument("--models", required=True, help="comma-separated model paths")
    p.add_argument("--method", choices=("greedy", "penalty"), default="penalty")
    p.add_argument("--mode", choices=("untargeted", "targeted"), default="untargeted")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("ztest", help="two-proportion significance test")
    p.add_argument("--pl", type=float, required=True, help="lower success rate")
    p.add_argument("--ph", type=float, required=True, help="higher success rate")
    p.add_argument("--m", type=int, required=True, help="evaluation set size")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.set_defaults(func=_cmd_ztest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UapAudioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
