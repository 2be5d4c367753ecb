"""Command-line interface and experiment drivers.

Every subcommand takes its settings from an optional JSON config file
(--config) overlaid with command-line flags; flags win.  SETTINGS declares
each command's settings once: their defaults, their flags and the JSON kind
every value is checked against.  The fully materialized settings, defaults
included, are echoed into each emitted record, so any record can be
reproduced by feeding its config echo back.
Machine output is JSON-lines on stdout; diagnostics go to stderr.

Exit codes: 0 ok, 2 config or validation error, 3 I/O error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .analysis import plan_regeneration, variance_over_classes
from .data import (SyntheticSpec, apply_normalizer, fit_normalizer, load_csv,
                   make_blobs, remap_labels, split, write_csv)
from .encoder import encode_batch
from .inference import (model_scores, perturb_model, row_norms, score_queries,
                        topk_accuracy, topk_hits)
from .model import (Dataset, atomic_write_text, check_json_kind, load_model,
                    save_model, validate_dataset)
from .trainer import TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

DROP_ORDERS = ("lowest", "highest", "both")


class Emitter:
    """Prints JSON records to stdout, mirrors them to an optional file, and
    routes diagnostics to stderr (silenced by --quiet)."""

    def __init__(self, quiet: bool, mirror_path: Optional[str] = None):
        self.quiet = quiet
        self.mirror_path = mirror_path
        self.lines: list[str] = []

    def record(self, obj: dict) -> None:
        line = json.dumps(obj)
        print(line)
        self.lines.append(line)

    def diag(self, msg: str) -> None:
        if not self.quiet:
            print(msg, file=sys.stderr)

    def close(self) -> None:
        if self.mirror_path is not None:
            atomic_write_text(self.mirror_path, "\n".join(self.lines) + "\n")


def _read_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


REQUIRED = object()  # the default of a setting that must be given


def _dataclass_settings(cls, **defaults) -> dict:
    """The settings table of a dataclass's fields.  A field without a default
    is REQUIRED unless ``defaults`` names it.  Field types are the annotation
    strings that postponed annotations leave."""
    kinds = {"bool": "boolean", "int": "integer", "float": "number",
             "str": "string"}
    table = {}
    for f in dataclasses.fields(cls):
        default = REQUIRED if f.default is dataclasses.MISSING else f.default
        table[f.name] = (defaults.get(f.name, default), kinds[f.type])
    return table


def _construct(cls, merged: dict):
    return cls(**{f.name: merged[f.name] for f in dataclasses.fields(cls)})


# The columns of a CSV dataset; see data.load_csv.
COLUMN_SETTINGS = {"label_column": ("label", "string"),
                   "domain_column": (None, "string")}
DATA_CSV_SETTINGS = {"csv": (REQUIRED, "string"), **COLUMN_SETTINGS}
SYNTHETIC_SETTINGS = _dataclass_settings(SyntheticSpec, domains=1)
QUERY_SETTINGS = {"model": (REQUIRED, "string"), "data": (REQUIRED, "string"),
                  **COLUMN_SETTINGS}

# Each command's settings table maps each config key, in echo order, to
# (default, JSON kind), with the kinds of model.check_json_kind.  It gives
# the command its defaults, its flags and its type checks.  Only a setting
# whose default is None may be null.
SETTINGS = {
    "train": {**_dataclass_settings(TrainConfig),
              "normalize": (False, "boolean"),
              "valid_fraction": (0.2, "number"),
              "split_seed": (None, "integer"), "data": (REQUIRED, "object"),
              "out": ("model.json", "string")},
    "eval": {**QUERY_SETTINGS, "k_list": ([1], "integer array")},
    "analyze": {"model": (REQUIRED, "string"),
                "strategy": (REQUIRED, "string"),
                "rate": (REQUIRED, "number"), "data": (None, "string"),
                **COLUMN_SETTINGS},
    "dropsweep": {**QUERY_SETTINGS,
                  "fractions": ([0.0, 0.25, 0.5, 0.75, 1.0], "number array"),
                  "order": ("both", "string")},
    "noisesweep": {**QUERY_SETTINGS,
                   "q_list": ([0.0, 0.05, 0.1, 0.2], "number array"),
                   "magnitude": (1.0, "number"), "seed": (0, "integer")},
    "synth": {**SYNTHETIC_SETTINGS, "out": (REQUIRED, "string")},
}


def _materialize(command: str, settings: dict, config: dict, args=None,
                 prefix: str = "") -> dict:
    """Merge defaults <- config file <- flags, rejecting unknown keys,
    checking that required settings ended up present, and checking each
    value's JSON kind.  Errors name keys as ``prefix + key``."""
    unknown = sorted(prefix + k for k in set(config) - set(settings))
    if unknown:
        raise ValueError(f"{command}: unknown config key(s) {unknown}; "
                         f"expected a subset of {sorted(settings)}")
    merged = {key: default for key, (default, _) in settings.items()}
    merged.update(config)
    merged.update({key: getattr(args, key) for key in settings
                   if getattr(args, key, None) is not None})
    missing = [prefix + k for k, v in merged.items() if v is REQUIRED]
    if missing:
        raise ValueError(f"{command}: missing required setting(s) {missing}")
    for key, (default, kind) in settings.items():
        if merged[key] is not None or default is not None:
            check_json_kind(f"{command}: {prefix}{key}", merged[key], kind)
    return merged


def _ints_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _floats_arg(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _check_dataset(ds: Dataset, source: str) -> Dataset:
    report = validate_dataset(ds)
    if not report.ok:
        raise ValueError(f"{source}: " + "; ".join(report.failures))
    return ds


def _load_queries(cfg: dict):
    """Load a query CSV and the model that scores it.  The model's ``n`` is
    checked against the CSV's feature count before its encoder is replayed;
    the labels are then remapped into the model's order and its stored
    normalization, if any, applied.  Returns (encoder, model, dataset,
    seconds the model load took)."""
    ds = _check_dataset(load_csv(cfg["data"], cfg["label_column"],
                                 cfg["domain_column"]), cfg["data"])
    t0 = time.perf_counter()
    enc, model, normalizer = load_model(cfg["model"], n_features=ds.n)
    load_s = time.perf_counter() - t0
    ds = remap_labels(ds, model.labels)
    if normalizer is not None:
        ds = apply_normalizer(normalizer, ds)
    return enc, model, ds, load_s


# --------------------------------------------------------------------------
# train


def _load_train_data(data_cfg) -> tuple[Dataset, dict]:
    """Resolve the train config's data object into a Dataset plus its fully
    materialized echo."""
    if ("csv" in data_cfg) == ("synthetic" in data_cfg):
        raise ValueError("data must hold exactly one of 'csv' or 'synthetic'")
    if "csv" in data_cfg:
        sub = _materialize("train", DATA_CSV_SETTINGS, data_cfg,
                           prefix="data.")
        ds = load_csv(sub["csv"], sub["label_column"], sub["domain_column"])
        return _check_dataset(ds, sub["csv"]), sub
    check_json_kind("train: data.synthetic", data_cfg["synthetic"], "object")
    sub = _materialize("train", SYNTHETIC_SETTINGS, data_cfg["synthetic"],
                       prefix="data.synthetic.")
    ds = make_blobs(_construct(SyntheticSpec, sub))
    return _check_dataset(ds, "synthetic"), {"synthetic": sub}


def cmd_train(merged: dict, emitter: Emitter) -> int:
    """train a model from a JSON config"""
    if merged["split_seed"] is None:
        merged["split_seed"] = merged["seed"]
    ds, merged["data"] = _load_train_data(merged["data"])

    vf = merged["valid_fraction"]
    if not 0.0 < vf < 1.0:
        raise ValueError("valid_fraction must lie strictly between 0 and 1")
    train_ds, valid_ds = split(ds, [1.0 - vf, vf], merged["split_seed"])
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise ValueError("split produced an empty train or validation set")

    stats = None
    if merged["normalize"]:
        stats = fit_normalizer(train_ds)
        train_ds = apply_normalizer(stats, train_ds)
        valid_ds = apply_normalizer(stats, valid_ds)

    cfg = _construct(TrainConfig, merged)
    cfg.validate()

    emitter.record({"type": "config", "command": "train", "config": merged})
    emitter.diag(f"training on {len(train_ds)} samples, "
                 f"validating on {len(valid_ds)}")
    enc, model, report = train(cfg, train_ds, valid_ds)
    if not np.isfinite(model.classes).all():
        raise ArithmeticError("training produced non-finite class values")
    for rec in report.records():
        emitter.record(rec)
    save_model(merged["out"], enc, model, normalizer=stats)
    emitter.diag(f"wrote model to {merged['out']}")
    return EXIT_OK


# --------------------------------------------------------------------------
# eval


def cmd_eval(merged: dict, emitter: Emitter) -> int:
    """top-k accuracy of a model on a CSV"""
    enc, model, ds, load_s = _load_queries(merged)
    k_list = merged["k_list"]
    if not k_list:
        raise ValueError("k_list must be non-empty")
    # The model is loaded (its encoder replayed) and the query set encoded
    # and scored once; each k only ranks and counts, which is what its
    # wall_ms times.
    scores, encode_s, score_s = score_queries(model, enc, ds, k_list)
    for k in k_list:
        t0 = time.perf_counter()
        acc = topk_accuracy(model, enc, ds, k, scores=scores)
        emitter.record({
            "experiment": "eval", "metric": f"top{k}_accuracy",
            "value": acc, "k": k, "n_samples": len(ds), "D": model.dim,
            "seed": enc.seed, "load_ms": load_s * 1e3,
            "encode_ms": encode_s * 1e3,
            "score_ms": score_s * 1e3,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "config": merged})
    return EXIT_OK


# --------------------------------------------------------------------------
# analyze


def cmd_analyze(merged: dict, emitter: Emitter) -> int:
    """score dimensions and list the regeneration candidates"""
    strategy, rate = merged["strategy"], merged["rate"]
    t0 = time.perf_counter()
    if merged["data"] is None:
        enc, model, _ = load_model(merged["model"])
        ds = None
    else:
        enc, model, ds, _ = _load_queries(merged)
    plan = plan_regeneration(strategy, rate, model, enc, ds)
    # insignificant plans score by negated variance; report the variances
    scores = -plan.scores if strategy == "insignificant" else plan.scores
    emitter.record({
        "experiment": "analyze", "strategy": strategy, "R": rate,
        "selected_indices": plan.indices.tolist(),
        "score_summary": {"min": float(scores.min()),
                          "max": float(scores.max()),
                          "mean": float(scores.mean())},
        "D": model.dim, "seed": enc.seed,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
        "config": merged})
    return EXIT_OK


# --------------------------------------------------------------------------
# dropsweep


def cmd_dropsweep(merged: dict, emitter: Emitter) -> int:
    """accuracy after zeroing dimension fractions by variance order"""
    if merged["order"] not in DROP_ORDERS:
        raise ValueError(f"order must be one of {DROP_ORDERS}")
    fractions = merged["fractions"]
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    orders = (["lowest", "highest"] if merged["order"] == "both"
              else [merged["order"]])

    enc, model, ds, _ = _load_queries(merged)
    encodings = encode_batch(enc, ds.features)
    variances = variance_over_classes(model)
    dim = model.dim
    by_variance = {
        "lowest": np.lexsort((np.arange(dim), variances)),
        "highest": np.lexsort((np.arange(dim), -variances)),
    }
    for order in orders:
        for fraction in fractions:
            t0 = time.perf_counter()
            count = int(np.floor(fraction * dim))
            idx = np.sort(by_variance[order][:count])
            classes = model.classes.copy()
            queries = encodings.copy()
            classes[:, idx] = 0.0
            queries[:, idx] = 0.0
            scores = model_scores(classes, row_norms(classes), queries,
                                  row_norms(queries)[:, None])
            acc = topk_hits(scores, ds.labels, 1) / len(ds)
            emitter.record({
                "experiment": "dropsweep", "order": order,
                "fraction": fraction, "dropped": count,
                "metric": "top1_accuracy", "value": acc,
                "n_samples": len(ds), "D": dim, "seed": enc.seed,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "config": merged})
    return EXIT_OK


# --------------------------------------------------------------------------
# noisesweep


def cmd_noisesweep(merged: dict, emitter: Emitter) -> int:
    """accuracy after seeded noise on model entries"""
    q_list, magnitude = merged["q_list"], merged["magnitude"]
    base_seed = merged["seed"]

    enc, model, ds, _ = _load_queries(merged)
    encodings = encode_batch(enc, ds.features)
    query_norms = row_norms(encodings)[:, None]
    for i, q in enumerate(q_list):
        t0 = time.perf_counter()
        noisy = perturb_model(model, q, magnitude, base_seed + i)
        scores = model_scores(noisy.classes, row_norms(noisy.classes),
                              encodings, query_norms)
        acc = topk_hits(scores, ds.labels, 1) / len(ds)
        emitter.record({
            "experiment": "noisesweep", "q": q, "magnitude": magnitude,
            "noise_seed": base_seed + i, "metric": "top1_accuracy",
            "value": acc, "n_samples": len(ds), "D": model.dim,
            "seed": enc.seed,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "config": merged})
    return EXIT_OK


# --------------------------------------------------------------------------
# synth


def cmd_synth(merged: dict, emitter: Emitter) -> int:
    """emit a synthetic blob dataset as CSV"""
    spec = _construct(SyntheticSpec, merged)
    ds = make_blobs(spec)
    if spec.domains == 1:
        # a constant domain column would force --domain-column downstream
        ds = Dataset(ds.features, ds.labels, list(ds.label_names))
    write_csv(merged["out"], ds)
    emitter.record({
        "experiment": "synth", "path": merged["out"], "samples": len(ds),
        "n": ds.n, "classes": ds.n_classes, "domains": spec.domains,
        "seed": spec.seed, "config": merged})
    emitter.diag(f"wrote {len(ds)} samples to {merged['out']}")
    return EXIT_OK


# --------------------------------------------------------------------------
# wiring


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "dropsweep": cmd_dropsweep,
    "noisesweep": cmd_noisesweep,
    "synth": cmd_synth,
}

# Flags are --<key> with dashes, except these; train takes its other
# settings only from its config file.
FLAG_NAMES = {"k_list": "--k", "q_list": "--q",
              "samples_per_class_per_domain": "--samples"}
TRAIN_FLAGS = ("seed", "out")
FLAG_TYPES = {"integer": int, "number": float, "string": str,
              "integer array": _ints_arg, "number array": _floats_arg}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynhd",
        description="Hyperdimensional classifier with dynamic encoder "
                    "dimension regeneration")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, fn in COMMANDS.items():  # a docstring is its command's help
        sub = subs.add_parser(command, help=fn.__doc__)
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress stderr diagnostics")
        settings = SETTINGS[command]
        if "out" not in settings:
            sub.add_argument("--out", help="also write the records here")
        for key in TRAIN_FLAGS if command == "train" else settings:
            kind = settings[key][1]
            array = ", comma-separated" * kind.endswith(" array")
            sub.add_argument(FLAG_NAMES.get(key, "--" + key.replace("_", "-")),
                             dest=key, type=FLAG_TYPES[kind],
                             help=f"sets {key}, a JSON {kind}{array}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # train and synth use --out for their primary artifact; the other
    # commands use it to mirror their stdout records to a file.
    mirror = None if "out" in SETTINGS[args.command] else args.out
    emitter = Emitter(args.quiet, mirror)
    try:
        merged = _materialize(args.command, SETTINGS[args.command],
                              _read_config(args.config), args)
        # Numeric faults are reported by the commands' own finiteness checks
        # (exit 4), so numpy's floating-point warnings would only repeat
        # them on stderr.
        with np.errstate(all="ignore"):
            code = COMMANDS[args.command](merged, emitter)
        emitter.close()
        return code
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
