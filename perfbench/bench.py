"""Runs one workload and turns its outcomes into the benchmark's metrics."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Outcome, Sizes

MIN_ITERATIONS = 2
TRACED_ITERATIONS = 2
# largest share of a traced iteration, and the time above which that share
# counts, that may pass outside every traced call (`bench.self_s`); more
# means the per-layer map misses real work
UNTRACED_SHARE_LIMIT = 0.1
UNTRACED_FLOOR_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB",
                    "pass_ratio": "ratio", "victim_test_acc": "ratio"}
# reported beside the result, per workload, by name and unit
DETAIL_UNITS = {"wall_s": "s", "reference_s": "s",
                "train_samples_per_s": "samples*epochs/s", "greedy_s": "s", "penalty_s": "s",
                "eval_samples_per_s": "samples/s", "test_asr": "ratio", "mean_snr_db": "dB",
                "fail_ratio": "ratio"}
COUNT_UNITS = {"calls": "count", "samples": "count", "bytes": "bytes", "visits": "count",
               "iterations": "count", "rows": "count"}


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in COUNT_UNITS:
        return COUNT_UNITS[stat]
    if stat in ("success_ratio", "inner_per_visit", "asr_check_share", "train_asr"):
        return "ratio"
    return "s"


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _timed_iteration(wl, pacer: Pacer | None = None) -> Outcome:
    """One untraced iteration; with a pacer, its wall time leaves out the
    reference runs."""
    t0 = time.perf_counter()
    if pacer is None:
        out = wl.iteration()
        wall = time.perf_counter() - t0
    else:
        out = wl.iteration(pacer)
        pacer()
        wall = sum(pacer.steps)
        out.timings.update(wall_ref=pacer.wall_ref(),
                           reference_s=statistics.median(pacer.references))
    out.timings["iteration_wall_s"] = wall
    out.timings.setdefault("wall_s", wall)
    wl.verify(out)
    return out


_REFERENCE_INPUT = np.random.default_rng(0).standard_normal((100, 4096))
_REFERENCE_KERNEL = np.random.default_rng(1).standard_normal((64, 16))


REFERENCE_SAMPLES = 3


def reference_s() -> float:
    """Median time of REFERENCE_SAMPLES runs of a fixed NumPy computation
    that runs no uapaudio code. The machine's speed drifts by up to half
    within minutes when it is shared; timing this beside the workload and
    dividing by it takes most of that drift out of the end-to-end times.

    It mixes what the library spends its time on (a strided im2col copy, a
    GEMM, elementwise maxima, a pooling reduction and a pure-Python loop) on
    arrays of the library's sizes, so its time follows the machine's current
    speed. It runs between the steps of every timed iteration (`Pacer`).
    """
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        started = time.perf_counter()
        for _ in range(4):
            windows = np.lib.stride_tricks.sliding_window_view(_REFERENCE_INPUT, 64, axis=1)[:, ::4]
            conv = np.ascontiguousarray(windows).reshape(-1, 64) @ _REFERENCE_KERNEL
            np.maximum(conv, 0.0).reshape(100, -1, 16).max(axis=1).sum()
            total = 0.0
            for i in range(2000):
                total += i * 0.5
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Pacer:
    """The `pace` of one iteration: each call ends a step and runs the
    reference computation. Keeps each step's wall time, reference runs
    excluded, and the reference times around the steps."""

    def __init__(self, before: float):
        self.references = [before]
        self.steps: list[float] = []
        self.mark = time.perf_counter()

    def __call__(self) -> None:
        self.steps.append(time.perf_counter() - self.mark)
        self.references.append(reference_s())
        self.mark = time.perf_counter()

    def wall_ref(self) -> float:
        """Each step's wall time over the mean reference time around it, summed."""
        refs = self.references
        return sum(step / ((a + b) / 2) for step, a, b in zip(self.steps, refs, refs[1:]))


def _iterate(wl, seconds: float, started: float, minimum: int) -> list[Outcome]:
    """Closed loop: the next iteration starts when the last one ends, until
    `seconds` have passed since `started` or would be passed by one more.
    The reference computation runs before the first iteration, between the
    steps of each and after each."""
    outcomes: list[Outcome] = []
    before = reference_s()
    while True:
        pacer = Pacer(before)
        out = _timed_iteration(wl, pacer)
        before = pacer.references[-1]
        outcomes.append(out)
        elapsed = time.perf_counter() - started
        if len(outcomes) >= minimum and elapsed + out.timings["iteration_wall_s"] > seconds:
            return outcomes


def _divergences(fingerprints: list[dict]) -> tuple[int, list[str]]:
    """(comparisons made, divergences found) between the first fingerprint and the others."""
    first = fingerprints[0]
    found = [f"iteration {i}: {key} {fp.get(key)!r} != {first[key]!r}"
             for i, fp in enumerate(fingerprints[1:], 1) for key in first if fp.get(key) != first[key]]
    return len(first) * (len(fingerprints) - 1), found


@dataclass
class Measured:
    metrics: dict[str, float]
    outcomes: list[Outcome]
    problems: list[str] = field(default_factory=list)
    # exact work counts of each traced iteration, which must agree
    counts: list[dict] = field(default_factory=list)
    # traced targets the package no longer has
    untraced_targets: list[str] = field(default_factory=list)


def run(workload: str, seed: int, seconds: float, trace: bool, *, work_root: Path,
        sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run one workload; return (result line, details)."""
    load_before = loadavg()
    workdir = work_root / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = WORKLOADS[workload](sizes, seed, workdir)
    setup = Outcome()
    try:
        measured = (_traced(wl, setup, seconds, work_root, seed) if trace
                    else _untraced(wl, setup, seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, outcomes, problems = measured.metrics, measured.outcomes, measured.problems

    attempted = setup.attempted + sum(o.attempted for o in outcomes)
    failures = setup.failures + [f for o in outcomes for f in o.failures]
    # each comparison of fingerprints, or of a traced iteration's exact work
    # counts, is one gated operation; a divergence fails it
    for series in ([o.fingerprint for o in outcomes], measured.counts):
        if series:
            compared, diverged = _divergences(series)
            attempted += compared
            failures += diverged
    if not trace:
        metrics["pass_ratio"] = 1.0 - len(failures) / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["victim_test_acc"] = outcomes[0].quality["victim_test_acc"]
        units = END_TO_END_UNITS
        metrics = {k: metrics[k] for k in units}
    else:
        units = {name: per_layer_unit(name) for name in spans.PER_LAYER}

    details = _details(outcomes, len(failures), attempted)
    details.update(workload=workload, seed=seed, iterations=len(outcomes),
                   iteration_walls=[o.timings["iteration_wall_s"] for o in outcomes],
                   failures=failures, problems=problems, work=outcomes[0].fingerprint,
                   untraced_targets=measured.untraced_targets,
                   machine=dict(machine_facts(), loadavg_before=load_before,
                                loadavg_after=loadavg()))
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    return result, details


def _details(outcomes: list[Outcome], failed: int, attempted: int) -> dict:
    figures = {"fail_ratio": failed / attempted}
    for key in DETAIL_UNITS:
        values = [o.timings.get(key, o.quality.get(key)) for o in outcomes]
        if values and values[0] is not None:
            figures[key] = statistics.median(values)
    return {k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in figures.items()}


def _untraced(wl, setup: Outcome, seconds: float):
    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup(setup)
        setup_times.append(time.perf_counter() - t0)
    outcomes = _iterate(wl, seconds, time.perf_counter(), MIN_ITERATIONS)
    metrics = {"setup_s": statistics.median(setup_times),
               "wall_ref": statistics.median(o.timings["wall_ref"] for o in outcomes)}
    return Measured(metrics, outcomes)


def _traced(wl, setup: Outcome, seconds: float, work_root: Path, seed: int):
    """Trace the set-up, then alternate traced and untraced iterations in
    ABBA order (traced, untraced, untraced, traced, ...) so that drift in the
    machine's speed cancels out of `trace.overhead_s`."""
    tracer = spans.Tracer()
    missing: set[str] = set()

    def traced_call(name, fn, *args):
        installation = spans.install(tracer)
        missing.update(installation.missing)
        try:
            with tracer.root(name) as root:
                result = fn(*args)
        finally:
            installation.uninstall()
        return root, result

    setup_root, _ = traced_call("bench.setup", wl.setup, setup)
    traced: list[tuple[spans.Root, Outcome]] = []
    untraced: list[Outcome] = []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        for traced_first in (len(traced) % 2 == 0, len(traced) % 2 == 1):
            if traced_first:
                root, out = traced_call("bench.iteration", wl.iteration)
                out.timings["iteration_wall_s"] = root.wall
                wl.verify(out)
                traced.append((root, out))
            else:
                untraced.append(_timed_iteration(wl))
        elapsed = time.perf_counter() - started
        if len(traced) >= TRACED_ITERATIONS and elapsed + time.perf_counter() - pair_started > seconds:
            break
    problems = [f"wrapper left installed: {w}" for w in spans.installed_wrappers()]

    per_iter = [spans.aggregate(tracer, [root]) for root, _ in traced]
    counts = [{k: v for k, v in spans.layer_metrics(a, 1).items() if k in spans.EXACT_COUNTS}
              for a in per_iter]
    metrics = spans.layer_metrics(spans.aggregate(tracer, [r for r, _ in traced]), len(traced))
    metrics.update(spans.setup_metrics(spans.aggregate(tracer, [setup_root])))
    traced_wall = statistics.median(r.wall for r, _ in traced)
    untraced_wall = statistics.median(o.timings["iteration_wall_s"] for o in untraced)
    metrics.update({"trace.iteration_s": traced_wall, "trace.untraced_iteration_s": untraced_wall,
                    "trace.overhead_s": traced_wall - untraced_wall})
    share = metrics["bench.self_s"] / (sum(r.wall for r, _ in traced) / len(traced))
    if share > UNTRACED_SHARE_LIMIT and metrics["bench.self_s"] > UNTRACED_FLOOR_S:
        problems.append(f"{share:.1%} of a traced iteration is outside every traced call")
    metrics.update(dict.fromkeys(spans.PROBES, 0.0))
    metrics.update(wl.probe())

    work_root.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(work_root / f"trace-{wl.name}-seed{seed}.jsonl"))
    return Measured(metrics, [o for _, o in traced] + untraced, problems, counts, sorted(missing))
