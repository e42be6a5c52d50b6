"""Spans recorded from outside the program, and the per-layer figures made
from them.

A Tracer replaces public functions of the program's modules with wrappers
that record one span per call: (name, parent, start, end, extra). Spans stay
in memory; the launcher writes them out when its command ends. Layer
figures are computed here from the spans alone, so they can be checked
without the program.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time

import numpy as np

# Entry points that bound the training loop and scoring. They are wrapped in
# every run, traced or not: the end-to-end set-up time ends where `train`
# starts, and the scoring rate is timed around `predict_scores`.
BOUNDS = (
    ("contextnet.training", "train"),
    ("contextnet.model", "predict_scores"),
)

# Public functions wrapped only in the traced run.
LAYERS = (
    ("contextnet.data", "load_records"),
    ("contextnet.data", "split_dataset"),
    ("contextnet.data", "split_indices"),
    ("contextnet.data", "build_vocabulary"),
    ("contextnet.data", "encode_dataset"),
    ("contextnet.data", "batch_iter"),
    ("contextnet.model", "init_params"),
    ("contextnet.model", "predict"),
    ("contextnet.model", "loss_and_grads"),
    ("contextnet.model", "embed"),
    ("contextnet.ops", "layer_norm"),
    ("contextnet.ops", "layer_norm_backward"),
    ("contextnet.training", "adam_step"),
    ("contextnet.metrics", "auc"),
    ("contextnet.metrics", "logloss"),
    ("contextnet.checkpoint", "save_checkpoint"),
    ("contextnet.checkpoint", "load_checkpoint"),
    ("contextnet.interpret", "corpus_feature_importance"),
)


def span_name(module: str, attr: str) -> str:
    """'contextnet.data', 'load_records' -> 'data.load_records'."""
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _array_roots(obj, seen: set, out: dict) -> None:
    """Collect the base buffers of every ndarray reachable from obj."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        out[id(root)] = root.nbytes
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _array_roots(item, seen, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _array_roots(item, seen, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for item in vars(obj).values():
            _array_roots(item, seen, out)


def built_bytes(result, inputs) -> int:
    """Bytes of the arrays in result that are not buffers of the inputs."""
    made: dict = {}
    given: dict = {}
    _array_roots(result, set(), made)
    _array_roots(inputs, set(), given)
    return sum(n for key, n in made.items() if key not in given)


class Tracer:
    """Wraps functions and records one span per call (or per generator step)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, extra]
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def stepped(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item
            return stepped

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name in ("data.encode_dataset", "model.predict_scores"):
                rec[4] = len(out) if hasattr(out, "__len__") else None
            elif name == "model.predict" and not self._inside("model.loss_and_grads"):
                rec[4] = built_bytes(out, (args, kwargs))
            return out

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (module, attr) wherever a contextnet module holds it.

        A target that cannot be found is listed in self.absent.
        """
        for module, attr in targets:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(span_name(module, attr), original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "contextnet" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


# ---------------------------------------------------------------- figures


def _ancestors(spans, i):
    parent = spans[i][1]
    while parent >= 0:
        yield parent
        parent = spans[parent][1]


def _duration(span) -> float:
    return span[3] - span[2]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [_duration(s) for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= _duration(s)
    return out


def outermost_time(spans, names) -> float:
    """Total time in spans named in `names` that have no such ancestor."""
    names = set(names)
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] in names and not any(spans[a][0] in names for a in _ancestors(spans, i)):
            total += _duration(s)
    return total


def _under(spans, i, name) -> bool:
    return any(spans[a][0] == name for a in _ancestors(spans, i))


def layer_figures(spans) -> dict[str, float]:
    """Per-layer figures of one command, keyed '<module>.<what>'."""
    self_t = self_times(spans)
    fig = {
        "data.load_records_s": outermost_time(spans, ["data.load_records"]),
        "data.split_s": outermost_time(spans, ["data.split_dataset", "data.split_indices"]),
        "data.build_vocabulary_s": outermost_time(spans, ["data.build_vocabulary"]),
        "data.encode_dataset_s": outermost_time(spans, ["data.encode_dataset"]),
        "data.batch_iter_s": outermost_time(spans, ["data.batch_iter"]),
        "model.init_params_s": outermost_time(spans, ["model.init_params"]),
        "model.embed_s": outermost_time(spans, ["model.embed"]),
        "model.predict_scores_s": outermost_time(spans, ["model.predict_scores"]),
        "ops.layer_norm_s": outermost_time(spans, ["ops.layer_norm"]),
        "ops.layer_norm_backward_s": outermost_time(spans, ["ops.layer_norm_backward"]),
        "training.adam_step_s": outermost_time(spans, ["training.adam_step"]),
        "metrics.auc_s": outermost_time(spans, ["metrics.auc"]),
        "checkpoint.save_s": outermost_time(spans, ["checkpoint.save_checkpoint"]),
        "checkpoint.load_s": outermost_time(spans, ["checkpoint.load_checkpoint"]),
        "interpret.corpus_importance_s": outermost_time(
            spans, ["interpret.corpus_feature_importance"]
        ),
    }
    rows_encoded = rows_scored = 0
    forward = backward = validation = 0.0
    tape_bytes = 0
    steps = 0
    for i, s in enumerate(spans):
        name = s[0]
        if name == "data.encode_dataset" and not _under(spans, i, name):
            rows_encoded += s[4] or 0
        elif name == "model.predict_scores" and not _under(spans, i, name):
            rows_scored += s[4] or 0
        elif name == "model.predict":
            if _under(spans, i, "model.loss_and_grads"):
                forward += _duration(s)
            else:
                tape_bytes += s[4] or 0
        elif name == "model.loss_and_grads":
            backward += self_t[i]
        elif name == "training.adam_step":
            steps += 1
        if (
            name in ("model.predict_scores", "metrics.auc", "metrics.logloss")
            and s[1] >= 0
            and spans[s[1]][0] == "training.train"
        ):
            validation += _duration(s)
    fig["data.rows_encoded"] = float(rows_encoded)
    fig["model.rows_scored"] = float(rows_scored)
    fig["model.forward_s"] = forward
    fig["model.backward_s"] = backward
    fig["model.score_tape_mb"] = tape_bytes / 1e6
    fig["training.steps"] = float(steps)
    fig["training.validation_s"] = validation
    fig["traced_s"] = sum(_duration(s) for s in spans if s[1] < 0)
    return fig
