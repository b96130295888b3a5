"""The benchmark's workloads: what each sets up, times, checks and reports.

Each workload has a set-up, run before timing, and an iteration, the timed
unit of work, which the runner repeats. An iteration calls `pace()` between
its steps, where a timed run measures the machine's speed (see
`bench.reference_s`). An iteration returns an `Outcome`:
its stage timings, the gated operations it attempted and which failed, and a
fingerprint of every deterministic result. The runner requires the
fingerprints of all iterations of one run to be equal.

Why these workloads (see README.md for the layer -> metric map):

* train    - the only workload where parameter gradients and Adam on model
             weights do the work; batch-32 forward/backward and per-epoch
             full-set accuracy. No batch-1 or tanh-space code runs.
* craft    - time to a converged attack: greedy (batch-1 DDN forward and
             input gradients) and four penalty crafts (batch-100 input
             gradients, batch-600 ASR checks, tanh space). No parameter
             gradients in the timed part.
* cli-eval - inference and file I/O through the command line: WAV import,
             container reads, batch predict, per-row SNR and loudness, CSV
             and manifest writes. No backward pass at all.

Seeds: `--seed` is the dataset, victim and shuffle seed of `train`, the
craft seed of every craft, and the seed of the `cli-eval` WAV split. The
victim that `craft` and `cli-eval` attack is the fixed desk victim of
acceptance criterion 5 (dataset and victim seed 0, 30 epochs): victims
trained from other seeds change the crafting work by up to 100x (greedy
needed 14 to over 1,300 DDN calls across victim seeds 1-8), so timings
across seeds would measure convergence luck rather than speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uapaudio import (
    GreedyConfig,
    PenaltyConfig,
    accuracy,
    build_victim,
    evaluate_uap,
    generate_synthetic_dataset,
    greedy_uap,
    load_dataset_dir,
    load_model,
    load_perturbation,
    penalty_uap,
    save_model,
    save_perturbation,
    train,
)
from uapaudio.cli import main as cli_main

DESK_SEED = 0

# Gates of acceptance criterion 5.
MIN_VICTIM_ACC = 0.95
MIN_TRAIN_ASR = 0.9
MIN_UNTARGETED_TEST_ASR = 0.8
MIN_TARGETED_TEST_ASR = 0.7
MIN_SNR_DB = 10.0

# Untargeted penalty coefficient of the timed craft. The desk demo's c=10
# either converges in about 9 iterations or stalls at the 100-iteration cap
# (4 of 14 craft seeds of the desk victim), ten times slower, so a timed craft
# at c=10 could not be timed steadily across seeds; c=50 converged on all 20
# seeds probed, in 8-10 iterations. The c=10 craft is still run, untimed, by
# the traced run (`CraftWorkload.probe`), so the stall stays visible.
UNTARGETED_C = 50.0
PROBE_C = 10.0
TARGETED_C = 5.0


@dataclass(frozen=True)
class Sizes:
    classes: int = 3
    per_class: int = 200
    test_per_class: int = 100
    dim: int = 4096
    victim_epochs: int = 30  # the desk victim attacked by craft and cli-eval
    # train: epochs per architecture; rand-cnn needed up to 10 epochs to
    # reach the accuracy gate over seeds 0-15, gamma-cnn is timed only
    train_epochs: tuple[tuple[str, int], ...] = (("rand-cnn", 15), ("gamma-cnn", 5))
    cli_test_per_class: int = 500  # 1,500 WAVs per evaluate


TINY = Sizes(classes=3, per_class=8, test_per_class=4, dim=1024, victim_epochs=2,
             train_epochs=(("rand-cnn", 2), ("gamma-cnn", 1)), cli_test_per_class=5)


@dataclass
class Outcome:
    timings: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def desk_dataset(sizes: Sizes, seed: int):
    return generate_synthetic_dataset(sizes.classes, sizes.per_class, sizes.dim, seed=seed,
                                      test_per_class=sizes.test_per_class)


def desk_victim(sizes: Sizes):
    ds = desk_dataset(sizes, DESK_SEED)
    model = build_victim("rand-cnn", sizes.dim, sizes.classes, seed=DESK_SEED)
    train(model, ds, epochs=sizes.victim_epochs, seed=DESK_SEED)
    return ds, model


def craft_specs(classes: int, seed: int) -> list[tuple[str, object]]:
    specs = [("greedy-untargeted", GreedyConfig(seed=seed)),
             ("penalty-untargeted", PenaltyConfig(c=UNTARGETED_C, seed=seed))]
    specs += [(f"penalty-targeted-{k}", PenaltyConfig(mode="targeted", target=k, c=TARGETED_C,
                                                      seed=seed))
              for k in range(classes)]
    return specs


def run_craft(model, x, y, cfg):
    if isinstance(cfg, GreedyConfig):
        return greedy_uap(model, x, cfg)
    return penalty_uap(model, x, y, cfg)


def gate_craft(out: Outcome, tag: str, result, report) -> None:
    pert = result.perturbation
    out.gate(result.converged and pert.train_asr >= MIN_TRAIN_ASR,
             f"{tag}: train ASR {pert.train_asr:.3f}, converged={result.converged}")
    floor = MIN_TARGETED_TEST_ASR if pert.mode == "targeted" else MIN_UNTARGETED_TEST_ASR
    out.gate(report.test_asr >= floor, f"{tag}: test ASR {report.test_asr:.3f} < {floor}")
    out.gate(report.mean_snr_db > MIN_SNR_DB, f"{tag}: SNR {report.mean_snr_db:.2f} dB")


class Workload:
    name = ""
    # set-ups per run; setup_s is their median. The craft and cli-eval
    # set-ups are a 30-epoch training each, too long to repeat in budget.
    setup_repeats = 1

    def setup(self, out: Outcome) -> None:
        raise NotImplementedError

    def iteration(self, pace: Callable[[], None] = lambda: None) -> Outcome:
        raise NotImplementedError

    def verify(self, out: Outcome) -> None:
        """Untimed, untraced checks after an iteration."""

    def probe(self) -> dict[str, float]:
        """Figures of an untimed, untraced extra run, reported by a traced run."""
        return {}


class TrainWorkload(Workload):
    """Set-up generates the desk dataset; each iteration trains fresh victims."""

    name = "train"
    setup_repeats = 9  # ~0.1 s each

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed = sizes, seed

    def setup(self, out: Outcome) -> None:
        self.ds = None  # free the previous set-up's dataset first: steadier peak RSS
        self.ds = desk_dataset(self.sizes, self.seed)
        self.n_train = len(self.ds.train)
        out.gate(self.n_train == self.sizes.classes * self.sizes.per_class, "dataset size")

    def iteration(self, pace: Callable[[], None] = lambda: None) -> Outcome:
        out = Outcome()
        test_x, test_y = self.ds.arrays("test")
        train_s, sample_epochs = 0.0, 0
        for i, (arch, epochs) in enumerate(self.sizes.train_epochs):
            if i:
                pace()
            model = build_victim(arch, self.sizes.dim, self.sizes.classes, seed=self.seed)
            history, seconds = _timed(lambda: train(model, self.ds, epochs=epochs, seed=self.seed))
            train_s += seconds
            sample_epochs += self.n_train * epochs
            acc = accuracy(model, test_x, test_y)
            out.fingerprint[arch] = [_digest(model.parameter_vector()),
                                     history["train_accuracy"], acc]
            if arch == "rand-cnn":
                # gamma-cnn stays below the gate even after 30 desk epochs
                # (0.94 at seed 0), so it is timed but not gated
                out.gate(acc >= MIN_VICTIM_ACC, f"rand-cnn test accuracy {acc:.3f}")
                out.quality["victim_test_acc"] = acc
        out.timings["train_s"] = train_s
        out.timings["train_samples_per_s"] = sample_epochs / train_s
        return out


class CraftWorkload(Workload):
    """Set-up trains the desk victim; each iteration runs five crafts + evaluations."""

    name = "craft"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed = sizes, seed

    def setup(self, out: Outcome) -> None:
        self.ds, self.model = desk_victim(self.sizes)
        self.test = self.ds.arrays("test")
        self.victim_acc = accuracy(self.model, *self.test)
        out.gate(self.victim_acc >= MIN_VICTIM_ACC, f"desk victim accuracy {self.victim_acc:.3f}")

    def iteration(self, pace: Callable[[], None] = lambda: None) -> Outcome:
        out = Outcome(quality={"victim_test_acc": self.victim_acc})
        x, y = self.ds.arrays("train")
        greedy_s = penalty_s = 0.0
        asrs, snrs = [], []
        for i, (tag, cfg) in enumerate(craft_specs(self.sizes.classes, self.seed)):
            if i:
                pace()
            result, seconds = _timed(run_craft, self.model, x, y, cfg)
            if isinstance(cfg, GreedyConfig):
                greedy_s += seconds
                work = result.inner_calls
            else:
                penalty_s += seconds
                work = result.iterations
            report = evaluate_uap(self.model, self.test, result.perturbation)
            gate_craft(out, tag, result, report)
            asrs.append(report.test_asr)
            snrs.append(report.mean_snr_db)
            pert = result.perturbation
            out.fingerprint[tag] = [work, pert.train_asr, report.test_asr, report.mean_snr_db,
                                    _digest(pert.v_signal)]
        out.timings.update(greedy_s=greedy_s, penalty_s=penalty_s)
        out.quality.update(test_asr=float(np.mean(asrs)), mean_snr_db=float(np.mean(snrs)))
        return out

    def probe(self) -> dict[str, float]:
        """The desk demo's untargeted craft at c=10, which stalls at its cap on
        some craft seeds (ROADMAP item 4): reported, not gated."""
        x, y = self.ds.arrays("train")
        result, seconds = _timed(penalty_uap, self.model, x, y,
                                 PenaltyConfig(c=PROBE_C, seed=self.seed))
        return {"probe.penalty_c10.iterations": float(result.iterations),
                "probe.penalty_c10.train_asr": result.perturbation.train_asr,
                "probe.penalty_c10.s": seconds}


class CliEvalWorkload(Workload):
    """Set-up saves the desk victim and two perturbations and runs `gen-data`;
    each iteration runs one `evaluate` per perturbation through
    `uapaudio.cli.main`.

    `gen-data` belongs to the set-up because writing 1,500 WAV files is
    dominated by kernel time that varied from 0.2 to 1.4 s between runs on
    the baseline VM's disk, which made an iteration's wall time spread by
    more than the widest bound; its cost still shows in `setup_s`.
    """

    name = "cli-eval"
    PERTS = ("greedy-untargeted", "penalty-untargeted")

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.data_dir = workdir / "wavs"
        self.verified = False

    def setup(self, out: Outcome) -> None:
        ds, model = desk_victim(self.sizes)
        self.victim_acc = accuracy(model, *ds.arrays("test"))
        out.gate(self.victim_acc >= MIN_VICTIM_ACC, f"desk victim accuracy {self.victim_acc:.3f}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.model_path = self.workdir / "victim.uapc"
        save_model(model, self.model_path)
        x, y = ds.arrays("train")
        specs = dict(craft_specs(self.sizes.classes, self.seed))
        self.pert_paths = {}
        for tag in self.PERTS:
            result = run_craft(model, x, y, specs[tag])
            gate_craft(out, tag, result, evaluate_uap(model, ds.arrays("test"), result.perturbation))
            self.pert_paths[tag] = self.workdir / f"{tag}.uapc"
            save_perturbation(result.perturbation, self.pert_paths[tag])
        self._cli(out, ["gen-data", "--classes", str(self.sizes.classes), "--per-class", "1",
                        "--dim", str(self.sizes.dim),
                        "--test-per-class", str(self.sizes.cli_test_per_class),
                        "--seed", str(self.seed), "--out", str(self.data_dir)])

    def _cli(self, out: Outcome, argv: list[str]) -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            rc, seconds = _timed(cli_main, argv)
        out.gate(rc == 0, f"uapaudio {argv[0]} exit code {rc}")
        return seconds

    def reports(self) -> dict[str, Path]:
        return {tag: self.workdir / f"{tag}.csv" for tag in self.PERTS}

    def iteration(self, pace: Callable[[], None] = lambda: None) -> Outcome:
        # two one-second steps: no pace between them
        out = Outcome(quality={"victim_test_acc": self.victim_acc})
        reports = self.reports()
        eval_s = 0.0
        for tag in self.PERTS:
            eval_s += self._cli(out, ["evaluate", "--model", str(self.model_path),
                                      "--data", str(self.data_dir),
                                      "--pert", str(self.pert_paths[tag]),
                                      "--report", str(reports[tag])])

        n_test = self.sizes.classes * self.sizes.cli_test_per_class
        results = {tag: json.loads(Path(f"{path}.run.json").read_text())["result"]
                   for tag, path in reports.items()}
        h = hashlib.sha256()
        for tag, res in results.items():
            out.gate(res["samples"] == n_test, f"{tag}: {res['samples']} rows")
            out.gate(res["test_asr"] >= MIN_UNTARGETED_TEST_ASR, f"{tag}: CLI test ASR {res['test_asr']}")
            out.gate(res["mean_snr_db"] > MIN_SNR_DB, f"{tag}: CLI SNR {res['mean_snr_db']}")
            for path in (reports[tag], Path(f"{reports[tag]}.run.json")):
                h.update(path.read_bytes())
        out.fingerprint["reports_sha256"] = h.hexdigest()
        out.timings.update(wall_s=eval_s, eval_samples_per_s=len(self.PERTS) * n_test / eval_s)
        out.quality.update(test_asr=float(np.mean([r["test_asr"] for r in results.values()])),
                           mean_snr_db=float(np.mean([r["mean_snr_db"] for r in results.values()])))
        return out

    def verify(self, out: Outcome) -> None:
        """The CLI must agree exactly with the library on the same arrays.

        Run once, untimed and untraced; later iterations are held to the same
        bytes by the fingerprint.
        """
        if self.verified:
            return
        self.verified = True
        model = load_model(self.model_path)
        arrays = load_dataset_dir(self.data_dir).arrays("test")
        for tag, path in self.reports().items():
            res = json.loads(Path(f"{path}.run.json").read_text())["result"]
            lib = evaluate_uap(model, arrays, load_perturbation(self.pert_paths[tag]))
            out.gate(lib.test_asr == res["test_asr"] and lib.mean_snr_db == res["mean_snr_db"],
                     f"{tag}: CLI ({res['test_asr']}, {res['mean_snr_db']}) != library "
                     f"({lib.test_asr}, {lib.mean_snr_db})")


WORKLOADS = {w.name: w for w in (TrainWorkload, CraftWorkload, CliEvalWorkload)}
