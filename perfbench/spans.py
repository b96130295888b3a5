"""Span tracing of uapaudio from outside the package.

`install(tracer)` replaces selected public functions and methods of the
uapaudio modules with wrappers that record one span per call: name, start,
end, parent and an optional amount (samples, bytes, rows, successes).
Functions are replaced in every module that holds a reference to them,
because `from .x import f` binds a second name the caller looks up instead
of `x.f`. `uninstall` puts every original back; the benchmark calls it
before any untraced timing.

Spans stay in memory; `Tracer.dump` writes them out once the run is over.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
import weakref
from dataclasses import dataclass, field

import numpy as np


class Tracer:
    """Append-only span store; a span's parent is the span open when it began."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.amounts: list[float] = []
        self._stack = [-1]
        self._layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1])
        self.amounts.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int, amount: float = 0.0) -> None:
        self.ends[i] = self.clock()
        self.amounts[i] = float(amount)
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def root(self, name: str) -> "Root":
        return Root(self, name)

    def layer_name(self, layer) -> str:
        return self._layer_names.get(layer, "unknown")

    def name_layers(self, model) -> None:
        """Label a model's layers conv1, conv2, pool1, pool2, relu, dense."""
        if model.layers and model.layers[0] in self._layer_names:
            return
        seen: dict[str, int] = {}
        for layer in model.layers:
            kind = type(layer).__name__
            base = {"Conv1D": "conv", "MaxPool1D": "pool"}.get(kind)
            if base is None:
                self._layer_names[layer] = kind.lower()
            else:
                seen[base] = seen.get(base, 0) + 1
                self._layer_names[layer] = f"{base}{seen[base]}"

    def dump(self, path: str) -> None:
        """One JSON array per line: [id, parent, name, start, end, amount]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, self.parents[i], name, self.starts[i],
                                     self.ends[i], self.amounts[i]]) + "\n")


class Root:
    """Context manager for a top-level span; records the index range it covers."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.first = -1
        self.stop = -1

    def __enter__(self) -> "Root":
        self.first = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.first)
        self.stop = len(self.tracer.names)

    @property
    def wall(self) -> float:
        return self.tracer.ends[self.first] - self.tracer.starts[self.first]


@dataclass
class Aggregate:
    """Per-name totals over a set of span index ranges."""

    calls: dict[str, int] = field(default_factory=dict)
    total: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    amount: dict[str, float] = field(default_factory=dict)
    # (name, parent name) -> [calls, inclusive seconds, amount]
    by_parent: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    wall: float = 0.0


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    `parents` holds indices into the same arrays, or -1 for a span whose
    parent lies outside them.
    """
    dur = ends - starts
    covered = np.zeros_like(dur)
    inside = parents >= 0
    np.add.at(covered, parents[inside], dur[inside])
    return dur - covered


def aggregate(tracer: Tracer, roots: list[Root]) -> Aggregate:
    agg = Aggregate()
    for root in roots:
        lo, hi = root.first, root.stop
        names = tracer.names[lo:hi]
        parents = np.asarray(tracer.parents[lo:hi], dtype=np.int64) - lo
        parents[0] = -1
        starts = np.asarray(tracer.starts[lo:hi])
        ends = np.asarray(tracer.ends[lo:hi])
        selfs = self_times(starts, ends, parents)
        agg.wall += float(ends[0] - starts[0])
        for k, name in enumerate(names):
            dur = float(ends[k] - starts[k])
            amount = tracer.amounts[lo + k]
            agg.calls[name] = agg.calls.get(name, 0) + 1
            agg.total[name] = agg.total.get(name, 0.0) + dur
            agg.self_time[name] = agg.self_time.get(name, 0.0) + float(selfs[k])
            agg.amount[name] = agg.amount.get(name, 0.0) + amount
            parent = names[parents[k]] if parents[k] >= 0 else ""
            entry = agg.by_parent.setdefault((name, parent), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += amount
    return agg


# -- wrappers ----------------------------------------------------------------


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _batch_tag(x) -> str:
    return "b1" if _rows(x) == 1 else "bN"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Each target: (module, attribute, span name or a function of the call
# arguments giving it, amount function of (args, result) or None).
# Class methods are given as "Class.method".
def _targets(tracer: Tracer) -> list[tuple]:
    def layer(direction):
        def name(args):
            layer_obj, first = args[0], args[1] if direction == "fwd" else args[2]
            return f"models.{tracer.layer_name(layer_obj)}.{direction}.{_batch_tag(first)}"
        return name

    def model_call(base):
        def name(args):
            tracer.name_layers(args[0])
            return f"models.{base}.{_batch_tag(args[1])}"
        return name

    def model_plain(base):
        def name(args):
            tracer.name_layers(args[0])
            return f"models.{base}"
        return name

    rows_of_input = lambda args, result: _rows(args[1])  # noqa: E731
    targets = [
        ("models", "VictimModel.forward_cached", model_call("forward"), rows_of_input),
        ("models", "VictimModel.predict", model_call("predict"), rows_of_input),
        ("models", "VictimModel.backward_input", model_plain("backward_input"), None),
        ("models", "VictimModel.backward_params", model_plain("backward_params"), None),
        ("models", "train", "models.train", None),
        ("models", "accuracy", "models.accuracy", None),
        ("ddn", "ddn_minimal_perturbation", "ddn", lambda a, r: float(r.success)),
        ("greedy", "greedy_uap", "greedy", None),
        ("greedy", "asr", "greedy.asr", None),
        ("greedy", "project_lp", "greedy.project_lp", None),
        ("penalty", "penalty_uap", "penalty", lambda a, r: r.iterations),
        ("penalty", "_asr_tanh", "penalty.asr_check", None),
        ("tanhspace", "perturbed_sample", "tanhspace.perturbed_sample", None),
        ("tanhspace", "to_tanh_space", "tanhspace.to_tanh_space", None),
        ("tanhspace", "render_signal_v", "tanhspace.render_signal_v", None),
        ("optim", "adam_update", "optim.adam_update", None),
        ("evaluation", "evaluate_uap", "evaluation.evaluate_uap", lambda a, r: len(r.rows)),
        ("evaluation", "applied_perturbation", "evaluation.applied_perturbation", None),
        ("audio", "snr", "audio.snr", None),
        ("audio", "rel_loudness", "audio.rel_loudness", None),
        ("audio", "save_wav", "audio.save_wav", None),
        ("audio", "load_wav", "audio.load_wav", None),
        ("data", "generate_synthetic_dataset", "data.generate", None),
        ("data", "save_dataset_dir", "data.save_dir", None),
        ("data", "load_dataset_dir", "data.load_dir", None),
        ("data", "SyntheticDataset.arrays", "data.arrays", None),
        ("container", "write_container", "container.write", lambda a, r: _file_size(a[0])),
        ("container", "read_container", "container.read", lambda a, r: _file_size(a[0])),
        ("cli", "_cmd_gen_data", "cli.gen-data", None),
        ("cli", "_cmd_evaluate", "cli.evaluate", None),
    ]
    for kind in ("Conv1D", "MaxPool1D", "ReLU", "Dense"):
        targets.append(("models", f"{kind}.forward", layer("fwd"), None))
        targets.append(("models", f"{kind}.backward", layer("bwd"), None))
    return targets


def _wrap(tracer: Tracer, fn, name, amount):
    def wrapper(*args, **kwargs):
        span = tracer.open(name if isinstance(name, str) else name(args))
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span, amount(args, result) if amount and result is not None else 0.0)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.traced_span = name
    return wrapper


class Installation:
    """The patches made by `install`; `uninstall` reverts them."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # targets the package no longer has

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every target, in every loaded module that binds it."""
    import uapaudio  # noqa: F401  (loads every submodule)

    modules = [m for _, m in sorted(sys.modules.items()) if m is not None]
    done = Installation()
    try:
        for module_name, attr, name, amount in _targets(tracer):
            home = sys.modules.get(f"uapaudio.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                original = vars(getattr(home, cls_name, object)).get(method)
            else:
                original = getattr(home, attr, None)
            if not callable(original):
                done.missing.append(f"uapaudio.{module_name}.{attr}")
                continue
            if "." in attr:
                cls = getattr(home, cls_name)
                done.patches.append((cls, method, original))
                setattr(cls, method, _wrap(tracer, original, name, amount))
                continue
            wrapper = _wrap(tracer, original, name, amount)
            for module in modules:
                if getattr(module, "__dict__", {}).get(attr) is original:
                    done.patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    except BaseException:
        done.uninstall()
        raise
    return done


def installed_wrappers() -> list[str]:
    """Module attributes and class methods that still hold a trace wrapper."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if _is_wrapper(value):
                found.append(f"{module_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == module_name:
                found += [f"{module_name}.{attr}.{m}" for m, fn in vars(value).items()
                          if _is_wrapper(fn)]
    return found


def _is_wrapper(value) -> bool:
    return isinstance(value, types.FunctionType) and "traced_span" in value.__dict__


# -- per-layer metrics -------------------------------------------------------

LAYERS = ("conv1", "conv2", "pool1", "pool2", "relu", "dense")
PENALTY_GRAD_STEP = ("models.forward.bN", "models.forward.b1", "models.backward_input",
                     "tanhspace.perturbed_sample", "optim.adam_update")
SETUP_PARTS = ("data.generate", "models.train", "greedy", "penalty", "container.write",
               "cli.gen-data")


def _per_layer_names() -> list[str]:
    names = [f"models.{layer}.{d}.{b}.self_s" for layer in LAYERS
             for d in ("fwd", "bwd") for b in ("b1", "bN")]
    names += [f"models.{call}.{b}.{stat}" for call in ("forward", "predict")
              for b in ("b1", "bN") for stat in ("calls", "samples")]
    names += ["models.backward_input.calls", "models.backward_params.calls",
              "models.train.self_s", "models.accuracy.s",
              "ddn.calls", "ddn.s", "ddn.self_s", "ddn.success_ratio",
              "greedy.visits", "greedy.inner_per_visit", "greedy.asr_check_s",
              "greedy.project_s", "greedy.self_s",
              "penalty.iterations", "penalty.asr_check_s", "penalty.asr_check_share",
              "penalty.grad_step_s", "penalty.self_s",
              "tanhspace.perturbed_sample.calls", "tanhspace.perturbed_sample.self_s",
              "tanhspace.to_tanh_space.self_s", "tanhspace.render_signal_v.self_s",
              "optim.adam_update.calls", "optim.adam_update.self_s",
              "evaluation.evaluate_uap.self_s", "evaluation.applied_perturbation.self_s",
              "evaluation.rows", "audio.snr.self_s", "audio.rel_loudness.self_s",
              "data.generate.self_s", "data.save_dir.self_s", "data.load_dir.self_s",
              "data.arrays.calls", "data.arrays.self_s",
              "audio.save_wav.calls", "audio.save_wav.self_s",
              "audio.load_wav.calls", "audio.load_wav.self_s",
              "container.read.calls", "container.read.self_s", "container.read.bytes",
              "container.write.calls", "container.write.self_s", "container.write.bytes",
              "cli.gen-data.s", "cli.evaluate.s",
              "bench.self_s", "trace.iteration_s", "trace.untraced_iteration_s",
              "trace.overhead_s", "setup.s"]
    names += [f"setup.{part}.s" for part in SETUP_PARTS]
    return names + list(PROBES)


# figures of an untimed, untraced extra run, measured by the workload itself
PROBES = ("probe.penalty_c10.iterations", "probe.penalty_c10.train_asr", "probe.penalty_c10.s")
PER_LAYER = tuple(_per_layer_names())

# counts that must repeat exactly between iterations of one run
EXACT_COUNTS = tuple(n for n in PER_LAYER if n.endswith((".calls", ".samples", ".bytes"))
                     or n in ("greedy.visits", "penalty.iterations", "evaluation.rows"))


def layer_metrics(agg: Aggregate, iterations: int) -> dict[str, float]:
    """Per-iteration values of every per-layer metric except the trace.*,
    setup.* and probe.* ones, from the spans of `iterations` traced iterations."""
    k = float(iterations)
    out: dict[str, float] = {}

    def child(name: str, parent: str, stat: int) -> float:
        return agg.by_parent.get((name, parent), [0, 0.0, 0.0])[stat]

    for name in PER_LAYER:
        if name.startswith(("trace.", "setup.", "probe.")):
            continue
        span, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = agg.self_time.get(span, 0.0) / k
        elif stat == "s":
            out[name] = agg.total.get(span, 0.0) / k
        elif stat == "calls":
            out[name] = agg.calls.get(span, 0) / k
        elif stat in ("samples", "bytes"):
            out[name] = agg.amount.get(span, 0.0) / k

    ddn_calls = agg.calls.get("ddn", 0)
    visits = child("models.predict.b1", "greedy", 0)
    penalty_s = agg.total.get("penalty", 0.0)
    penalty_asr = child("penalty.asr_check", "penalty", 1)
    out.update({
        "ddn.success_ratio": agg.amount.get("ddn", 0.0) / ddn_calls if ddn_calls else 0.0,
        "greedy.visits": visits / k,
        "greedy.inner_per_visit": child("ddn", "greedy", 0) / visits if visits else 0.0,
        "greedy.asr_check_s": child("greedy.asr", "greedy", 1) / k,
        "greedy.project_s": child("greedy.project_lp", "greedy", 1) / k,
        "penalty.iterations": agg.amount.get("penalty", 0.0) / k,
        "penalty.asr_check_s": penalty_asr / k,
        "penalty.asr_check_share": penalty_asr / penalty_s if penalty_s else 0.0,
        "penalty.grad_step_s": sum(child(n, "penalty", 1) for n in PENALTY_GRAD_STEP) / k,
        "evaluation.rows": agg.amount.get("evaluation.evaluate_uap", 0.0) / k,
        "bench.self_s": agg.self_time.get("bench.iteration", 0.0) / k,
    })
    return out


def setup_metrics(agg: Aggregate) -> dict[str, float]:
    """Inclusive time of the set-up's main calls (outermost call of each name)."""
    out = {"setup.s": agg.wall}
    for part in SETUP_PARTS:
        out[f"setup.{part}.s"] = sum(v[1] for (name, parent), v in agg.by_parent.items()
                                     if name == part and parent != part)
    return out
