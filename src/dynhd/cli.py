"""Command-line interface and experiment drivers.

Every subcommand takes its settings from an optional JSON config file
(--config) overlaid with command-line flags; flags win.  The fully
materialized settings, defaults included, are echoed into each emitted
record, so any record can be reproduced by feeding its config echo back.
Machine output is JSON-lines on stdout; diagnostics go to stderr.

Exit codes: 0 ok, 2 config or validation error, 3 I/O error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .analysis import (domain_variance, misleading_scores,
                       select_domain_variant, select_insignificant,
                       select_misleading, variance_over_classes)
from .data import (SyntheticSpec, apply_normalizer, fit_normalizer, load_csv,
                   make_blobs, remap_labels, split, write_csv)
from .encoder import encode_batch, init_encoder
from .inference import (model_scores, perturb_model, row_norms, score_queries,
                        topk_accuracy, topk_hits)
from .model import (REGEN_STRATEGIES, ClassModel, Dataset, atomic_write_text,
                    load_model, save_model, validate_dataset)
from .trainer import TrainConfig, domain_models, train

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
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


def _materialize(command: str, schema: dict, required: Sequence[str],
                 config: dict, overrides: dict) -> dict:
    """Merge defaults <- config file <- flags, rejecting unknown keys and
    checking that required settings ended up present."""
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise ValueError(f"{command}: unknown config key(s) {unknown}; "
                         f"expected a subset of {sorted(schema)}")
    merged = dict(schema)
    merged.update(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    missing = [k for k in required if merged[k] is None]
    if missing:
        raise ValueError(f"{command}: missing required setting(s) {missing}")
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


def _load_eval_data(cfg: dict, model: ClassModel,
                    normalizer) -> Dataset:
    """Load a CSV against a trained model: remap labels into the model's
    order and apply its stored normalization, if any."""
    ds = _check_dataset(load_csv(cfg["data"], cfg["label_column"],
                                 cfg["domain_column"]), cfg["data"])
    ds = remap_labels(ds, model.labels)
    if normalizer is not None:
        ds = apply_normalizer(normalizer, ds)
    return ds


# --------------------------------------------------------------------------
# train


TRAIN_SCHEMA = {
    "dim": None, "eta": 0.05, "epochs_per_round": 1, "rounds": 0,
    "regen_rate": 0.0, "strategy": "none", "patience": 0, "seed": 0,
    "shuffle": False, "normalize": False, "valid_fraction": 0.2,
    "split_seed": None, "data": None, "out": "model.json",
}

# JSON types the train settings must have, checked by exact Python type,
# so a JSON boolean is neither an integer nor a number.
JSON_TYPES = {"boolean": (bool,), "integer": (int,), "number": (int, float),
              "string": (str,)}
TRAIN_TYPES = {"shuffle": "boolean", "normalize": "boolean",
               "strategy": "string",
               **dict.fromkeys(("dim", "epochs_per_round", "rounds",
                                "patience", "seed", "split_seed"), "integer"),
               **dict.fromkeys(("eta", "regen_rate", "valid_fraction"),
                               "number")}

DATA_CSV_SCHEMA = {"csv": None, "label_column": "label",
                   "domain_column": None}

DATA_SYNTH_SCHEMA = {
    "n": None, "classes": None, "domains": 1,
    "samples_per_class_per_domain": None, "separation": 4.0,
    "intra_std": 1.0, "domain_offset_std": 0.0, "seed": 0,
}


def _load_train_data(data_cfg) -> tuple[Dataset, dict]:
    """Resolve the train config's data object into a Dataset plus its fully
    materialized echo."""
    if not isinstance(data_cfg, dict):
        raise ValueError("data must be a JSON object")
    if ("csv" in data_cfg) == ("synthetic" in data_cfg):
        raise ValueError("data must hold exactly one of 'csv' or 'synthetic'")
    if "csv" in data_cfg:
        sub = _materialize("data", DATA_CSV_SCHEMA, ("csv",), data_cfg, {})
        ds = load_csv(sub["csv"], sub["label_column"], sub["domain_column"])
        return _check_dataset(ds, sub["csv"]), sub
    synth = data_cfg["synthetic"]
    if not isinstance(synth, dict):
        raise ValueError("data.synthetic must be a JSON object")
    sub = _materialize("data.synthetic", DATA_SYNTH_SCHEMA,
                       ("n", "classes", "samples_per_class_per_domain"),
                       synth, {})
    spec = SyntheticSpec(
        n=int(sub["n"]), classes=int(sub["classes"]),
        domains=int(sub["domains"]),
        samples_per_class_per_domain=int(sub["samples_per_class_per_domain"]),
        separation=float(sub["separation"]),
        intra_std=float(sub["intra_std"]),
        domain_offset_std=float(sub["domain_offset_std"]),
        seed=int(sub["seed"]))
    return _check_dataset(make_blobs(spec), "synthetic"), {"synthetic": sub}


def cmd_train(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize("train", TRAIN_SCHEMA, ("dim", "data"), config,
                          {"seed": args.seed, "out": args.out})
    if merged["split_seed"] is None:
        merged["split_seed"] = merged["seed"]
    for key, kind in TRAIN_TYPES.items():
        if type(merged[key]) not in JSON_TYPES[kind]:
            raise ValueError(f"train: {key} must be a JSON {kind}, "
                             f"got {merged[key]!r}")
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

    cfg = TrainConfig(
        dim=merged["dim"], eta=merged["eta"],
        epochs_per_round=merged["epochs_per_round"], rounds=merged["rounds"],
        regen_rate=merged["regen_rate"],
        strategy=merged["strategy"], patience=merged["patience"],
        seed=merged["seed"], shuffle=merged["shuffle"])
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


EVAL_SCHEMA = {"model": None, "data": None, "label_column": "label",
               "domain_column": None, "k_list": [1]}


def cmd_eval(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize("eval", EVAL_SCHEMA, ("model", "data"), config,
                          {"model": args.model, "data": args.data,
                           "label_column": args.label_column,
                           "domain_column": args.domain_column,
                           "k_list": args.k})
    enc, model, stats = load_model(merged["model"])
    ds = _load_eval_data(merged, model, stats)
    k_list = [int(k) for k in merged["k_list"]]
    if not k_list:
        raise ValueError("k_list must be non-empty")
    # The query set is encoded and scored once; each k only ranks and
    # counts, which is what its wall_ms times.
    scores, encode_s, score_s = score_queries(model, enc, ds, k_list)
    for k in k_list:
        t0 = time.perf_counter()
        acc = topk_accuracy(model, enc, ds, k, scores=scores)
        emitter.record({
            "experiment": "eval", "metric": f"top{k}_accuracy",
            "value": acc, "k": k, "n_samples": len(ds), "D": model.dim,
            "seed": enc.seed, "encode_ms": encode_s * 1e3,
            "score_ms": score_s * 1e3,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "config": merged})
    return EXIT_OK


# --------------------------------------------------------------------------
# analyze


ANALYZE_SCHEMA = {"model": None, "strategy": None, "rate": None,
                  "data": None, "label_column": "label",
                  "domain_column": None}


def cmd_analyze(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize("analyze", ANALYZE_SCHEMA,
                          ("model", "strategy", "rate"), config,
                          {"model": args.model, "strategy": args.strategy,
                           "rate": args.rate, "data": args.data,
                           "label_column": args.label_column,
                           "domain_column": args.domain_column})
    strategy = merged["strategy"]
    rate = float(merged["rate"])
    if strategy not in REGEN_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                         f"{REGEN_STRATEGIES}")
    enc, model, stats = load_model(merged["model"])

    t0 = time.perf_counter()
    if strategy == "insignificant":
        scores = variance_over_classes(model)
        plan = select_insignificant(model, rate)
    else:
        if merged["data"] is None:
            raise ValueError(f"strategy={strategy} needs --data")
        ds = _load_eval_data(merged, model, stats)
        if strategy == "misleading":
            scores = misleading_scores(model, enc, ds)
            plan = select_misleading(scores, rate)
        else:
            if ds.domains is None:
                raise ValueError("strategy=domain_variant needs a "
                                 "domain column")
            scores = domain_variance(domain_models(enc, ds))
            plan = select_domain_variant(scores, rate)
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


DROP_SCHEMA = {"model": None, "data": None, "label_column": "label",
               "domain_column": None,
               "fractions": [0.0, 0.25, 0.5, 0.75, 1.0], "order": "both"}


def cmd_dropsweep(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize("dropsweep", DROP_SCHEMA, ("model", "data"),
                          config,
                          {"model": args.model, "data": args.data,
                           "label_column": args.label_column,
                           "domain_column": args.domain_column,
                           "fractions": args.fractions,
                           "order": args.order})
    if merged["order"] not in DROP_ORDERS:
        raise ValueError(f"order must be one of {DROP_ORDERS}")
    fractions = [float(f) for f in merged["fractions"]]
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    orders = (["lowest", "highest"] if merged["order"] == "both"
              else [merged["order"]])

    enc, model, stats = load_model(merged["model"])
    ds = _load_eval_data(merged, model, stats)
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


NOISE_SCHEMA = {"model": None, "data": None, "label_column": "label",
                "domain_column": None, "q_list": [0.0, 0.05, 0.1, 0.2],
                "magnitude": 1.0, "seed": 0}


def cmd_noisesweep(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize("noisesweep", NOISE_SCHEMA, ("model", "data"),
                          config,
                          {"model": args.model, "data": args.data,
                           "label_column": args.label_column,
                           "domain_column": args.domain_column,
                           "q_list": args.q, "magnitude": args.magnitude,
                           "seed": args.seed})
    q_list = [float(q) for q in merged["q_list"]]
    magnitude = float(merged["magnitude"])
    base_seed = int(merged["seed"])

    enc, model, stats = load_model(merged["model"])
    ds = _load_eval_data(merged, model, stats)
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
# bench


BENCH_SCHEMA = {"n": 16, "dim": 2048, "batch": 1000, "classes": 16,
                "reps": 3, "seed": 0}


def cmd_bench(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize("bench", BENCH_SCHEMA, (), config,
                          {"n": args.n, "dim": args.dim,
                           "batch": args.batch, "classes": args.classes,
                           "reps": args.reps, "seed": args.seed})
    n, dim = int(merged["n"]), int(merged["dim"])
    batch, n_classes = int(merged["batch"]), int(merged["classes"])
    reps, seed = int(merged["reps"]), int(merged["seed"])
    if min(n, dim, batch, n_classes) < 1:
        raise ValueError("n, dim, batch, and classes must be positive")
    if reps < 3:
        raise ValueError("reps must be at least 3")

    t_start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=seed))
    features = rng.standard_normal((batch, n))
    classes = rng.standard_normal((n_classes, dim))
    enc = init_encoder(seed, n, dim)

    encode_times = []
    encodings = None
    for _ in range(reps):
        t0 = time.perf_counter()
        encodings = encode_batch(enc, features)
        encode_times.append(time.perf_counter() - t0)

    class_norms = row_norms(classes)
    query_norms = row_norms(encodings)[:, None]
    score_times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        model_scores(classes, class_norms, encodings, query_norms)
        score_times.append(time.perf_counter() - t0)

    emitter.record({
        "experiment": "bench",
        "encodes_per_sec": batch / statistics.median(encode_times),
        "scores_per_sec": batch * n_classes / statistics.median(score_times),
        "reps": reps, "n": n, "D": dim, "batch": batch,
        "classes": n_classes, "seed": seed,
        "wall_ms": (time.perf_counter() - t_start) * 1e3,
        "config": merged})
    return EXIT_OK


# --------------------------------------------------------------------------
# synth


SYNTH_SCHEMA = dict(DATA_SYNTH_SCHEMA, out=None)


def cmd_synth(args, config: dict, emitter: Emitter) -> int:
    merged = _materialize(
        "synth", SYNTH_SCHEMA,
        ("n", "classes", "samples_per_class_per_domain", "out"), config,
        {"n": args.n, "classes": args.classes, "domains": args.domains,
         "samples_per_class_per_domain": args.samples,
         "separation": args.separation, "intra_std": args.intra_std,
         "domain_offset_std": args.domain_offset_std, "seed": args.seed,
         "out": args.out})
    spec = SyntheticSpec(
        n=int(merged["n"]), classes=int(merged["classes"]),
        domains=int(merged["domains"]),
        samples_per_class_per_domain=int(
            merged["samples_per_class_per_domain"]),
        separation=float(merged["separation"]),
        intra_std=float(merged["intra_std"]),
        domain_offset_std=float(merged["domain_offset_std"]),
        seed=int(merged["seed"]))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynhd",
        description="Hyperdimensional classifier with dynamic encoder "
                    "dimension regeneration")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, seed=True):
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--out", help="output path")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress stderr diagnostics")
        if seed:
            sub.add_argument("--seed", type=int)

    def data_flags(sub):
        sub.add_argument("--model", help="model JSON file")
        sub.add_argument("--data", help="CSV dataset")
        sub.add_argument("--label-column", dest="label_column")
        sub.add_argument("--domain-column", dest="domain_column")

    p = subs.add_parser("train", help="train a model from a JSON config")
    common(p)

    p = subs.add_parser("eval", help="top-k accuracy of a model on a CSV")
    common(p, seed=False)
    data_flags(p)
    p.add_argument("--k", type=_ints_arg, help="comma-separated k values")

    p = subs.add_parser("analyze",
                        help="score dimensions and list the regeneration "
                             "candidates")
    common(p, seed=False)
    data_flags(p)
    p.add_argument("--strategy", choices=REGEN_STRATEGIES)
    p.add_argument("--rate", type=float,
                   help="fraction of dimensions to select")

    p = subs.add_parser("dropsweep",
                        help="accuracy after zeroing dimension fractions by "
                             "variance order")
    common(p, seed=False)
    data_flags(p)
    p.add_argument("--fractions", type=_floats_arg,
                   help="comma-separated fractions in [0, 1]")
    p.add_argument("--order", choices=DROP_ORDERS)

    p = subs.add_parser("noisesweep",
                        help="accuracy after seeded noise on model entries")
    common(p)
    data_flags(p)
    p.add_argument("--q", type=_floats_arg,
                   help="comma-separated fractions of entries to perturb")
    p.add_argument("--magnitude", type=float)

    p = subs.add_parser("bench", help="encode and scoring throughput")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--reps", type=int)

    p = subs.add_parser("synth", help="emit a synthetic blob dataset as CSV")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--domains", type=int)
    p.add_argument("--samples", type=int,
                   help="samples per class per domain")
    p.add_argument("--separation", type=float)
    p.add_argument("--intra-std", dest="intra_std", type=float)
    p.add_argument("--domain-offset-std", dest="domain_offset_std",
                   type=float)
    return parser


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "dropsweep": cmd_dropsweep,
    "noisesweep": cmd_noisesweep,
    "bench": cmd_bench,
    "synth": cmd_synth,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # train and synth use --out for their primary artifact; the other
    # commands use it to mirror their stdout records to a file.
    mirror = args.out if args.command not in ("train", "synth") else None
    emitter = Emitter(args.quiet, mirror)
    try:
        config = _read_config(args.config)
        code = COMMANDS[args.command](args, config, emitter)
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
