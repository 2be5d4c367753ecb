"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` reads each call's work through its ``WORK`` table,
which names package functions and the positions of their arguments.  A
rename or a reordered signature breaks the benchmark; these checks notice
it in the test suite rather than in a benchmark run, as does a traced
train and eval pair whose spans ``layer_metrics`` must read.
"""

import importlib.util
import inspect
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import dynhd
import dynhd.cli
from dynhd.data import SyntheticSpec, make_blobs, write_csv
from dynhd.model import ClassModel, Dataset, load_model

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def work_table(tracing):
    return tracing.WORK


def resolve(name):
    layer, func = name.split(".")
    return getattr(getattr(dynhd, layer), func)


def test_every_traced_function_exists(work_table):
    assert work_table
    for name in work_table:
        assert inspect.isfunction(resolve(name)), name


@pytest.mark.parametrize("name, position, parameter", [
    ("encoder.regenerate_dims", 1, "plan"),
    ("encoder.reencode_dims", 3, "plan"),
    ("trainer.train", 1, "train_ds"),
    ("inference.topk_accuracy", 2, "test")])
def test_traced_arguments_keep_their_positions(work_table, name, position,
                                               parameter):
    assert name in work_table
    params = list(inspect.signature(resolve(name)).parameters)
    assert params[position] == parameter


@pytest.mark.parametrize("name, args", [
    ("select_insignificant",
     (ClassModel(np.arange(12.0).reshape(3, 4) ** 2, ["a", "b", "c"]), 0.5)),
    ("select_misleading", (np.array([0.0, 2.0, 1.0, -1.0, 3.0]), 0.6)),
    ("select_domain_variant", (np.array([1.0, 0.0, 2.0]), 1.0))])
def test_selectors_return_what_the_tracer_reads(work_table, name, args):
    plan = resolve(f"analysis.{name}")(*args)
    for attr in ("indices", "scores", "rate"):
        assert hasattr(plan, attr)
    planned, capacity = work_table[f"analysis.{name}"](args, {}, plan)
    assert planned == plan.indices.size
    assert capacity == math.floor(plan.rate * plan.scores.shape[0])


def test_traced_train_and_eval_give_every_layer_metric(tracing, tmp_path,
                                                       capsys):
    """A traced train and eval pair, as a ``--trace 1`` benchmark run makes
    one, yields every per-layer metric BENCHMARK.json declares:
    ``layer_metrics`` reads spans, such as the first ``topk_accuracy``
    call, that a change to the package can stop making."""
    synthetic = {"n": 4, "classes": 3, "samples_per_class_per_domain": 20,
                 "separation": 2.0, "seed": 3}
    blobs = make_blobs(SyntheticSpec(domains=1, **synthetic))
    query = tmp_path / "query.csv"
    write_csv(str(query), Dataset(blobs.features, blobs.labels,
                                  list(blobs.label_names)))
    out = tmp_path / "model.json"
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "dim": 64, "epochs_per_round": 2, "rounds": 1, "regen_rate": 0.1,
        "strategy": "insignificant", "seed": 5,
        "data": {"synthetic": synthetic}}))

    tracer = tracing.Tracer()
    tracer.install(dynhd)
    try:
        with tracer.span("bench.train"):
            assert dynhd.cli.main(["train", "--config", str(config),
                                   "--out", str(out), "--quiet"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        with tracer.span("bench.eval"):
            assert dynhd.cli.main(["eval", "--model", str(out), "--data",
                                   str(query), "--k", "1,2",
                                   "--quiet"]) == 0
    finally:
        tracer.uninstall()
    rounds = [r for r in records if r.get("type") == "round"]
    assert rounds[0]["planned"] > 0  # one non-empty insignificant round

    def record_s(kind):
        return sum(r["wall_ms"] for r in records
                   if r.get("type") == kind) / 1e3

    metrics = tracing.layer_metrics(tracer.spans, {
        "n": synthetic["n"], "dim": 64,
        "model_bytes": os.path.getsize(out),
        "draw_counter": load_model(str(out))[0].draw_counter,
        "traced_train_records": records,
        "untraced_epoch_s": record_s("epoch"),
        "untraced_round_s": record_s("round"),
        "untraced_train_s": 0.0, "untraced_eval_s": 0.0})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]
