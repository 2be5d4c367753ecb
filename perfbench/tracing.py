"""Span tracing of dynhd from outside the package.

``Tracer.install`` wraps every public function of each dynhd module, and the
public methods of the classes each module defines, then rebinds every
reference to them across the package: names a module imported from another
module (``trainer.encode_batch``, ``cli.load_csv``) and function tables
(``cli.COMMANDS``).  Private helpers such as ``trainer._adaptive_pass`` are
not wrapped; their cost shows as self time of the public caller and in the
wall times the CLI already records.

A span is (name, start, end, parent index, work).  ``work`` is the size of
the call where one is defined (rows encoded, entries re-encoded, CSV cells
parsed, dimensions planned), so counts are taken where the work happens.
Spans stay in memory; ``layer_metrics`` derives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time

LAYERS = ("cli", "data", "rng", "encoder", "trainer", "analysis",
          "inference", "model")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Work extracted per call: f(args, kwargs, result) -> number or tuple.
WORK = {
    "data.load_csv": lambda a, k, r: r.features.size,
    "encoder.encode_batch": lambda a, k, r: r.shape[0],
    "encoder.regenerate_dims": lambda a, k, r: _arg(a, k, 1, "plan").indices.size,
    "encoder.reencode_dims": lambda a, k, r: _arg(a, k, 3, "plan").indices.size,
    "trainer.train": lambda a, k, r: len(_arg(a, k, 1, "train_ds")),
    "inference.topk_accuracy": lambda a, k, r: len(_arg(a, k, 2, "test")),
    **{f"analysis.{name}": (lambda a, k, r: (
        r.indices.size, math.floor(r.rate * r.scores.shape[0])))
       for name in ("select_insignificant", "select_misleading",
                    "select_domain_variant")},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into dynhd."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, None)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start, work) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, work)

    def _wrap(self, name: str, fn):
        extract = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            work = None
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    work = extract(args, kwargs, result)
                return result
            finally:
                self._close(idx, name, start, work)

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions and rebind every reference."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, attr, self._wrap(
                                f"{layer}.{name}.{attr}", fn), setattr)
        for namespace in [vars(package)] + [vars(m) for m in modules]:
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(namespace, name, wrapped[obj], _setitem)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._set(obj, key, wrapped[value], _setitem)

    def _set(self, container, key, value, setter) -> None:
        original = (getattr(container, key) if setter is setattr
                    else container[key])
        self._undo.append((container, key, original, setter))
        setter(container, key, value)

    def uninstall(self) -> None:
        for container, key, original, setter in reversed(self._undo):
            setter(container, key, original)
        self._undo.clear()


def _setitem(container, key, value) -> None:
    container[key] = value


def layer_metrics(spans: list, info: dict) -> dict:
    """Per-layer metrics of one traced train + eval pair.

    ``info`` carries what spans cannot: the traced and untraced CLI records
    (``traced_train_records``, ``untraced_epoch_s``, ``untraced_round_s``),
    the model file size in bytes, its draw counter, n and D, and the median
    untraced train and eval times.
    """
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    by_name: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            child_time[parent] += end - start

    def select(name=None, layer=None, in_root=None, parent_name=None):
        names = ([name] if name is not None else
                 [k for k in by_name if k.startswith(layer + ".")])
        for key in names:
            for i in by_name.get(key, ()):
                span = spans[i]
                if in_root is not None and spans[root[i]][0] != in_root:
                    continue
                if parent_name is not None and (
                        span[3] < 0 or spans[span[3]][0] != parent_name):
                    continue
                yield i, span

    def total(**kw) -> float:
        return sum(s[2] - s[1] for _, s in select(**kw))

    def self_time(**kw) -> float:
        return sum(s[2] - s[1] - child_time[i] for i, s in select(**kw))

    def work(**kw) -> list:
        return [s[4] for _, s in select(**kw)]

    n, dim = info["n"], info["dim"]
    model_mb = info["model_bytes"] / 1e6
    train_span = "bench.train"
    eval_span = "bench.eval"

    rows = sum(work(name="encoder.encode_batch"))
    encode_s = total(name="encoder.encode_batch")
    n_train = work(name="trainer.train")[0]
    records = info["traced_train_records"]
    epochs = [r for r in records if r.get("type") == "epoch"]
    visits = len(epochs) * n_train
    updates = sum(round((1.0 - r["train_accuracy"]) * n_train) for r in epochs)
    epoch_s = info["untraced_epoch_s"]

    # Planning is the detector's public calls made by train; for
    # domain_variant that includes building the per-domain models.
    plan_s = (total(layer="analysis", parent_name="trainer.train")
              + total(name="trainer.domain_models",
                      parent_name="trainer.train"))
    plans = [w for selector in ("select_insignificant", "select_misleading",
                                "select_domain_variant")
             for w in work(name=f"analysis.{selector}", in_root=train_span)]
    planned = sum(p for p, _ in plans)
    capacity = sum(c for _, c in plans)
    regenerate_s = total(name="encoder.regenerate_dims", in_root=train_span)
    reencode_s = total(name="encoder.reencode_dims", in_root=train_span)
    traced_round_s = sum(r["wall_ms"] for r in records
                         if r.get("type") == "round") / 1e3

    query_rows = work(name="inference.topk_accuracy")[0]
    eval_rows = sum(work(name="encoder.encode_batch", in_root=eval_span))
    save_s = total(name="model.save_model")
    load_s = total(name="model.load_model", in_root=eval_span)

    metrics = {
        "cli.train.self_s": (self_time(layer="cli", in_root=train_span), "s"),
        "cli.eval.self_s": (self_time(layer="cli", in_root=eval_span), "s"),
        "data.load_csv_s": (total(name="data.load_csv"), "s"),
        "data.load_csv_cells": (sum(work(name="data.load_csv")), "count"),
        "data.split_s": (total(name="data.split"), "s"),
        "data.normalize_s": (total(name="data.fit_normalizer")
                             + total(name="data.apply_normalizer"), "s"),
        "rng.normals_s": (total(name="rng.UniformStream.normals"), "s"),
        "rng.draws": (info["draw_counter"], "count"),
        "encoder.init_s": (total(name="encoder.init_encoder"), "s"),
        "encoder.encode_batch_s": (encode_s, "s"),
        "encoder.encode_rows": (rows, "count"),
        "encoder.encode_rows_per_s": (rows / encode_s, "rows/s"),
        "encoder.project_gflop": (2.0 * rows * n * dim / 1e9, "GFLOP"),
        "encoder.regenerate_s": (regenerate_s, "s"),
        "encoder.regenerated_dims": (
            sum(work(name="encoder.regenerate_dims")), "count"),
        "encoder.reencode_s": (reencode_s, "s"),
        "encoder.reencode_calls": (
            len(work(name="encoder.reencode_dims")), "count"),
        "encoder.reencoded_entries": (
            sum(work(name="encoder.reencode_dims")), "count"),
        "trainer.train_s": (total(name="trainer.train"), "s"),
        "trainer.epoch_s": (epoch_s, "s"),
        "trainer.sample_visits": (visits, "count"),
        "trainer.visit_us": (epoch_s / visits * 1e6, "us"),
        "trainer.updates": (updates, "count"),
        "trainer.update_ratio": (updates / visits, "fraction"),
        "trainer.round_s": (info["untraced_round_s"], "s"),
        "trainer.round_self_s": (
            traced_round_s - plan_s - regenerate_s - reencode_s, "s"),
        "analysis.plan_s": (plan_s, "s"),
        "analysis.planned_dims": (planned, "count"),
        "analysis.plan_fill": (planned / capacity if capacity else 0.0,
                               "fraction"),
        "inference.topk_s": (total(name="inference.topk_accuracy",
                                   in_root=eval_span), "s"),
        "inference.topk_encode_s": (
            total(name="encoder.encode_batch", in_root=eval_span,
                  parent_name="inference.topk_accuracy"), "s"),
        "inference.score_s": (self_time(layer="inference",
                                        in_root=eval_span), "s"),
        "inference.encodes_per_query": (eval_rows / query_rows, "count"),
        "model.save_s": (save_s, "s"),
        "model.load_s": (load_s, "s"),
        "model.save_mb_per_s": (model_mb / save_s, "MB/s"),
        "model.load_mb_per_s": (model_mb / load_s, "MB/s"),
        "trace.train_overhead_s": (
            total(name=train_span) - info["untraced_train_s"], "s"),
        "trace.eval_overhead_s": (
            total(name=eval_span) - info["untraced_eval_s"], "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def span_table(spans: list) -> list[tuple]:
    """(name, calls, total s, self s) per span name, by descending self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, tot, own = table.get(name, (0, 0.0, 0.0))
        table[name] = (calls + 1, tot + end - start,
                       own + end - start - child_time[i])
    return sorted(((name,) + row for name, row in table.items()),
                  key=lambda r: -r[3])
