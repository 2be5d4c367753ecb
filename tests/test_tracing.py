"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` reads each call's work through its ``WORK`` table,
which names package functions and the positions of their arguments.  A
rename or a reordered signature breaks the benchmark; these checks notice
it in the test suite rather than in a benchmark run.
"""

import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import dynhd
from dynhd.model import ClassModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def work_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORK


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
