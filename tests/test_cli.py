"""CLI behavior: config overlay and echo, record schemas, exit codes, and
the cross-command consistency contracts (dropsweep/noisesweep baselines)."""

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import dynhd.cli
import dynhd.encoder
from dynhd.analysis import (domain_variance, misleading_scores,
                            variance_over_classes)
from dynhd.cli import _build_parser, main
from dynhd.data import apply_normalizer, load_csv, remap_labels
from dynhd.inference import topk_accuracy
from dynhd.model import load_model
from dynhd.trainer import domain_models
from test_model import edit_field, write_v1_model


def run(argv):
    """Drive the CLI in-process; returns (exit_code, records, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    records = [json.loads(line) for line in out.getvalue().splitlines()
               if line.strip()]
    return code, records, err.getvalue()


def count_encoded_rows(monkeypatch):
    """Record the row count of every call into the encoder's kernel."""
    rows = []
    kernel = dynhd.encoder._encode_block

    def counting(block, *args, **kwargs):
        rows.append(block.shape[0])
        return kernel(block, *args, **kwargs)

    monkeypatch.setattr(dynhd.encoder, "_encode_block", counting)
    return rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synth CSV, a multi-domain CSV, a train config, and a trained model."""
    root = tmp_path_factory.mktemp("cli")
    data_csv = root / "data.csv"
    code, _, _ = run(["synth", "--n", "6", "--classes", "3", "--samples",
                      "30", "--separation", "5.0", "--seed", "21",
                      "--out", str(data_csv)])
    assert code == 0

    dom_csv = root / "domains.csv"
    code, _, _ = run(["synth", "--n", "6", "--classes", "3", "--domains",
                      "3", "--samples", "10", "--separation", "5.0",
                      "--domain-offset-std", "1.0", "--seed", "22",
                      "--out", str(dom_csv)])
    assert code == 0

    config = root / "train.json"
    config.write_text(json.dumps({
        "dim": 256, "epochs_per_round": 3, "seed": 7, "normalize": True,
        "data": {"csv": str(data_csv)},
    }))
    model = root / "model.json"
    code, records, _ = run(["train", "--config", str(config),
                            "--out", str(model)])
    assert code == 0
    return {"root": root, "data_csv": data_csv, "dom_csv": dom_csv,
            "config": config, "model": model, "train_records": records}


class TestTrain:
    def test_smoke_artifacts(self, workdir):
        assert workdir["model"].exists()
        records = workdir["train_records"]
        assert len(records) > 2
        assert records[0]["type"] == "config"
        assert records[-1]["type"] == "summary"

    def test_config_echo_materializes_defaults(self, workdir):
        echo = workdir["train_records"][0]["config"]
        assert echo["eta"] == 0.05
        assert echo["patience"] == 0
        assert echo["strategy"] == "none"
        assert echo["split_seed"] == 7  # defaults to seed
        assert echo["data"]["label_column"] == "label"
        assert echo["out"] == str(workdir["model"])

    def test_reruns_are_byte_identical(self, workdir):
        again = workdir["root"] / "model_again.json"
        code, records, _ = run(["train", "--config",
                                str(workdir["config"]), "--out", str(again)])
        assert code == 0
        assert again.read_bytes() == workdir["model"].read_bytes()
        strip = lambda recs: [{k: v for k, v in rec.items()
                               if k not in ("wall_ms", "config")}
                              for rec in recs]
        assert strip(records) == strip(workdir["train_records"])

    def test_record_schemas(self, workdir):
        schemas = {
            "config": {"type", "command", "config"},
            "epoch": {"type", "segment", "epoch", "train_accuracy",
                      "updates", "wall_ms"},
            "round": {"type", "round", "val_accuracy", "regen_indices",
                      "planned", "target", "wall_ms"},
            "timing": {"type", "round", "step", "wall_ms"},
            "summary": {"type", "total_epochs", "stopped_early"},
        }
        records = workdir["train_records"]
        assert {rec["type"] for rec in records} == set(schemas)
        for rec in records:
            assert set(rec) == schemas[rec["type"]]
            if rec["type"] == "epoch":
                assert type(rec["updates"]) is int and rec["updates"] >= 0

    @pytest.mark.parametrize("rate, target", [(0.3, 38), (0.005, 0)])
    def test_round_records_time_each_step(self, workdir, tmp_path, rate,
                                          target):
        config = tmp_path / "regen.json"
        config.write_text(json.dumps({
            "dim": 128, "rounds": 2, "regen_rate": rate,
            "strategy": "insignificant", "seed": 3,
            "data": {"csv": str(workdir["data_csv"])}}))
        code, records, _ = run(["train", "--config", str(config),
                                "--out", str(tmp_path / "m.json")])
        assert code == 0
        rounds = [rec for rec in records if rec["type"] == "round"]
        # the insignificant selector always fills floor(rate * D)
        assert [r["planned"] for r in rounds] == [target, target, None]
        assert [r["target"] for r in rounds] == [target, target, None]
        assert [len(r["regen_indices"]) for r in rounds[:-1]] == [target] * 2
        # an empty plan re-encodes nothing
        steps = ["validate", "plan", "regenerate"] + ["reencode"] * (
            target > 0)
        timings = [rec for rec in records if rec["type"] == "timing"]
        assert [(t["round"], t["step"]) for t in timings] == (
            [(0, step) for step in steps] + [(1, step) for step in steps]
            + [(2, "validate")])
        for r in rounds:
            spent = sum(t["wall_ms"] for t in timings
                        if t["round"] == r["round"])
            assert 0.0 < spent <= r["wall_ms"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_class_norm_overflow_exits_numeric(self, tmp_path):
        # eta=1e300 keeps the class entries finite but not their norms
        config = tmp_path / "huge_eta.json"
        config.write_text(json.dumps({
            "dim": 64, "eta": 1e300,
            "data": {"synthetic": {"n": 4, "classes": 3, "separation": 0.5,
                                    "samples_per_class_per_domain": 20}},
        }))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 4
        assert [rec["type"] for rec in records] == ["config"]
        assert not out.exists()
        assert "numeric error: segment 0, epoch 0: non-finite class norm" in err

    def test_numeric_error_is_the_only_stderr_line(self, tmp_path):
        # numpy's overflow warnings must not leak ahead of the diagnosis
        config = tmp_path / "huge_eta.json"
        config.write_text(json.dumps({
            "dim": 64, "eta": 1e300,
            "data": {"synthetic": {"n": 4, "classes": 3, "separation": 0.5,
                                    "samples_per_class_per_domain": 20}},
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "dynhd", "train", "--quiet", "--config",
             str(config), "--out", str(tmp_path / "never.json")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            "numeric error: segment 0, epoch 0: non-finite class norm at "
            "update 1"]

    def test_flag_overrides_config(self, workdir):
        moved = workdir["root"] / "model_seed9.json"
        code, records, _ = run(["train", "--config", str(workdir["config"]),
                                "--seed", "9", "--out", str(moved)])
        assert code == 0
        assert records[0]["config"]["seed"] == 9
        assert moved.read_bytes() != workdir["model"].read_bytes()

    def test_domain_variant_without_domains_fails_before_training(
            self, workdir, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "dim": 64, "rounds": 2, "regen_rate": 0.2,
            "strategy": "domain_variant",
            "data": {"csv": str(workdir["data_csv"])},
        }))
        out = tmp_path / "never.json"
        code, _, err = run(["train", "--config", str(config),
                            "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "domain" in err

    def test_unknown_config_key_rejected(self, workdir, tmp_path):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({
            "dim": 64, "learning_rate": 0.1,
            "data": {"csv": str(workdir["data_csv"])},
        }))
        code, _, err = run(["train", "--config", str(config)])
        assert code == 2
        assert "learning_rate" in err

    def test_missing_config_file_is_io_error(self, tmp_path):
        code, _, _ = run(["train", "--config",
                          str(tmp_path / "absent.json")])
        assert code == 3

    def test_malformed_config_json_rejected(self, tmp_path):
        config = tmp_path / "broken.json"
        for content in [b"{not json", b'{"dim": 64,', b'{"strategy": "\xff"}']:
            config.write_bytes(content)
            code, records, err = run(["train", "--config", str(config)])
            assert code == 2
            assert records == []
            assert err.startswith(f"error: {config}: ")

    @pytest.mark.parametrize("key, value", [
        ("shuffle", "false"), ("normalize", 1), ("dim", 16.7),
        ("epochs_per_round", "2"), ("rounds", 1.0), ("patience", True),
        ("seed", 3.5), ("split_seed", "7"), ("eta", "0.5"),
        ("regen_rate", "0"), ("valid_fraction", True), ("strategy", 3),
        ("data", 5), ("data.csv", 5), ("data.domain_column", 1),
        ("data.synthetic", 4), ("data.synthetic.n", 3.7),
        ("data.synthetic.seed", None),
    ])
    def test_wrongly_typed_value_rejected(self, workdir, tmp_path, key,
                                          value):
        doc = {"dim": 64, "data": {"csv": str(workdir["data_csv"])}}
        if key.startswith("data.synthetic"):
            doc["data"] = {"synthetic": {
                "n": 4, "classes": 2, "samples_per_class_per_domain": 10}}
        *parents, leaf = key.split(".")  # a dotted key sets a nested value
        node = doc
        for part in parents:
            node = node[part]
        node[leaf] = value
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert f"train: {key} must be" in err

    def test_synthetic_inline_data(self, tmp_path):
        config = tmp_path / "synth_train.json"
        config.write_text(json.dumps({
            "dim": 64, "normalize": True,
            "data": {"synthetic": {"n": 4, "classes": 2,
                                    "samples_per_class_per_domain": 10}},
        }))
        out = tmp_path / "m.json"
        code, records, _ = run(["train", "--config", str(config),
                                "--out", str(out)])
        assert code == 0
        assert out.exists()
        echo = records[0]["config"]["data"]["synthetic"]
        assert echo["separation"] == 4.0  # default materialized


class TestEval:
    def test_topk_records_monotone(self, workdir):
        code, records, _ = run(["eval", "--model", str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--k", "1,2,3"])
        assert code == 0
        assert [rec["k"] for rec in records] == [1, 2, 3]
        assert [rec["metric"] for rec in records] == [
            "top1_accuracy", "top2_accuracy", "top3_accuracy"]
        values = [rec["value"] for rec in records]
        assert values[0] <= values[1] <= values[2]

    def test_record_schema(self, workdir):
        code, records, _ = run(["eval", "--model", str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--k", "1,2"])
        assert code == 0
        for rec in records:
            assert set(rec) == {"experiment", "metric", "value", "k",
                                "n_samples", "D", "seed", "load_ms",
                                "encode_ms", "score_ms", "wall_ms", "config"}
        # the model is loaded and the query set encoded and scored once,
        # for every k
        assert records[0]["load_ms"] == records[1]["load_ms"] > 0.0
        assert records[0]["encode_ms"] == records[1]["encode_ms"] > 0.0
        assert records[0]["score_ms"] == records[1]["score_ms"] > 0.0

    def test_each_query_encoded_once_and_equal_to_library(self, workdir,
                                                          monkeypatch):
        rows = count_encoded_rows(monkeypatch)
        code, records, _ = run(["eval", "--model", str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--k", "1,2,3"])
        assert code == 0
        assert sum(rows) == 90  # the query set has 90 rows
        enc, model, stats = load_model(str(workdir["model"]))
        ds = apply_normalizer(stats, remap_labels(
            load_csv(str(workdir["data_csv"])), model.labels))
        for rec in records:
            assert rec["value"] == topk_accuracy(model, enc, ds, rec["k"])

    @pytest.mark.parametrize("k_arg", ["0", "99", "1,2,0"])
    def test_bad_k_rejected_before_encoding(self, workdir, monkeypatch,
                                            k_arg):
        rows = count_encoded_rows(monkeypatch)
        code, records, err = run(["eval", "--model", str(workdir["model"]),
                                  "--data", str(workdir["data_csv"]),
                                  "--k", k_arg])
        assert code == 2
        assert records == [] and rows == []
        assert "k must be in [1, 3]" in err

    def test_converged_toy_run_is_accurate(self, workdir):
        code, records, _ = run(["eval", "--model", str(workdir["model"]),
                                "--data", str(workdir["data_csv"])])
        assert code == 0
        assert records[0]["value"] >= 0.95
        assert records[0]["n_samples"] == 90
        assert records[0]["D"] == 256
        assert records[0]["seed"] == 7

    def test_rerun_reproduces_metric_exactly(self, workdir):
        argv = ["eval", "--model", str(workdir["model"]),
                "--data", str(workdir["data_csv"]), "--k", "1,2"]
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert ([rec["value"] for rec in first]
                == [rec["value"] for rec in second])

    def test_k_beyond_class_count_rejected(self, workdir):
        code, _, _ = run(["eval", "--model", str(workdir["model"]),
                          "--data", str(workdir["data_csv"]), "--k", "4"])
        assert code == 2

    def test_missing_model_file_is_io_error(self, workdir, tmp_path):
        code, _, _ = run(["eval", "--model", str(tmp_path / "no.json"),
                          "--data", str(workdir["data_csv"])])
        assert code == 3

    def test_label_set_mismatch_rejected(self, workdir, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("f0,f1,f2,f3,f4,f5,label\n0,0,0,0,0,0,zebra\n")
        code, _, _ = run(["eval", "--model", str(workdir["model"]),
                          "--data", str(other)])
        assert code == 2

    @pytest.mark.parametrize("mangle", [
        lambda doc: doc[:21], lambda doc: doc[:-2],
        lambda doc: b'{"version": "\xff"}'],
        ids=["truncated-head", "truncated-tail", "not-utf8"])
    def test_unparsable_model_file_named(self, workdir, tmp_path, mangle):
        mangled = tmp_path / "mangled.json"
        mangled.write_bytes(mangle(workdir["model"].read_bytes()))
        code, records, err = run(["eval", "--model", str(mangled),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.startswith(f"error: malformed model file {mangled}: ")

    @pytest.mark.parametrize("edit", [
        {"mean": [0.0] * 5, "std": [1.0] * 5},
        {"std": [1.0] * 5 + [float("nan")]},
        {"std": [1.0] * 5 + [0.0]},
    ])
    def test_inconsistent_normalizer_rejected(self, workdir, tmp_path, edit):
        doc = json.loads(workdir["model"].read_text())
        doc["normalizer"].update(edit)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert f"malformed model file {edited}: normalizer" in err

    @pytest.mark.parametrize("field, entry", [
        ("bases", "0.5"), ("phases", True), ("classes", "0.5"),
        ("normalizer.mean", True), ("normalizer.std", "0.5"),
    ])
    def test_non_number_model_entry_rejected(self, workdir, tmp_path, field,
                                             entry):
        enc, model, stats = load_model(str(workdir["model"]))
        edited = tmp_path / "edited.json"
        write_v1_model(str(edited), enc, model, stats)
        doc = json.loads(edited.read_text())
        edit_field(doc, field,
                   lambda node, leaf: node[leaf].__setitem__(0, entry))
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert f"malformed model file {edited}: {field} must be" in err

    @pytest.mark.parametrize("field, entry", [
        ("classes", "0.5"), ("normalizer.mean", True),
        ("normalizer.std", "0.5"),
    ])
    def test_non_number_v2_model_entry_rejected(self, workdir, tmp_path,
                                                field, entry):
        doc = json.loads(workdir["model"].read_text())
        edit_field(doc, field,
                   lambda node, leaf: node[leaf].__setitem__(0, entry))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert f"malformed model file {edited}: {field} must be" in err

    @pytest.mark.parametrize("history, message", [
        ({"0": [1]}, "regen_history must be a JSON array"),
        ([[3, 1]], "regen_history[0] must be a non-empty, strictly "
                   "increasing list of integers in [0, 256), got [3, 1]"),
        ([[2, 2]], "regen_history[0] must be a non-empty, strictly "
                   "increasing list of integers in [0, 256), got [2, 2]"),
        ([[-1]], "regen_history[0] must be a non-empty, strictly "
                 "increasing list of integers in [0, 256), got [-1]"),
        ([[256]], "regen_history[0] must be a non-empty, strictly "
                  "increasing list of integers in [0, 256), got [256]"),
        ([[1.0]], "regen_history[0] must be a JSON integer array"),
        ([[True]], "regen_history[0] must be a JSON integer array"),
        ([["1"]], "regen_history[0] must be a JSON integer array"),
    ])
    def test_corrupt_regen_history_rejected(self, workdir, tmp_path, history,
                                            message):
        doc = json.loads(workdir["model"].read_text())
        doc["regen_history"] = history
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert f"error: malformed model file {edited}: {message}" in err

    def test_replay_out_of_memory_exits_two(self, workdir, monkeypatch):
        def out_of_memory(seed, n, dim):
            raise MemoryError

        monkeypatch.setattr(dynhd.encoder, "init_encoder", out_of_memory)
        code, records, err = run(["eval", "--model", str(workdir["model"]),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {workdir['model']}: n=6 and D=256 "
            "need more memory than is available"]

    @pytest.mark.parametrize("command", [
        ["eval"], ["analyze", "--strategy", "misleading", "--rate", "0.1"],
        ["dropsweep"], ["noisesweep"]])
    def test_feature_count_checked_before_replay(self, workdir, tmp_path,
                                                 monkeypatch, command):
        def never(seed, n, dim):
            raise AssertionError("the encoder was replayed")

        doc = json.loads(workdir["model"].read_text())
        doc["n"], doc["D"] = 2000000, 4
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        monkeypatch.setattr(dynhd.encoder, "init_encoder", never)
        code, records, err = run(command + ["--model", str(edited),
                                            "--data",
                                            str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: model file {edited} has n=2000000, but the data has 6 "
            "features"]

    def test_version_1_model_evaluates_identically(self, workdir, tmp_path):
        enc, model, stats = load_model(str(workdir["model"]))
        v1 = tmp_path / "v1.json"
        write_v1_model(str(v1), enc, model, stats)
        argv = ["--data", str(workdir["data_csv"]), "--k", "1,2,3"]
        _, from_v2, _ = run(["eval", "--model", str(workdir["model"])] + argv)
        code, from_v1, _ = run(["eval", "--model", str(v1)] + argv)
        assert code == 0
        assert ([rec["value"] for rec in from_v1]
                == [rec["value"] for rec in from_v2])

    def test_mirror_writes_record_stream(self, workdir, tmp_path):
        mirror = tmp_path / "records.jsonl"
        _, records, _ = run(["eval", "--model", str(workdir["model"]),
                             "--data", str(workdir["data_csv"]),
                             "--k", "1,2", "--out", str(mirror)])
        lines = mirror.read_text().splitlines()
        assert [json.loads(line) for line in lines] == records


class TestAnalyze:
    def test_insignificant_needs_only_the_model(self, workdir):
        code, records, _ = run(["analyze", "--model", str(workdir["model"]),
                                "--strategy", "insignificant",
                                "--rate", "0.25"])
        assert code == 0
        rec = records[0]
        assert rec["strategy"] == "insignificant"
        assert rec["R"] == 0.25
        assert len(rec["selected_indices"]) == 64  # floor(0.25 * 256)
        assert set(rec["score_summary"]) == {"min", "max", "mean"}
        assert rec["score_summary"]["min"] <= rec["score_summary"]["mean"]

    def test_misleading_needs_data(self, workdir):
        code, _, err = run(["analyze", "--model", str(workdir["model"]),
                            "--strategy", "misleading", "--rate", "0.1"])
        assert code == 2
        assert "data" in err
        code, records, _ = run(["analyze", "--model", str(workdir["model"]),
                                "--strategy", "misleading", "--rate", "0.1",
                                "--data", str(workdir["data_csv"])])
        assert code == 0
        assert records[0]["strategy"] == "misleading"
        # evidence-driven: selection may be smaller than floor(R*D)
        assert len(records[0]["selected_indices"]) <= 25

    def test_domain_variant_full_path(self, workdir, tmp_path):
        config = tmp_path / "dom_train.json"
        config.write_text(json.dumps({
            "dim": 128, "seed": 3, "normalize": True,
            "data": {"csv": str(workdir["dom_csv"]),
                     "domain_column": "domain"},
        }))
        model = tmp_path / "dom_model.json"
        code, _, _ = run(["train", "--config", str(config),
                          "--out", str(model)])
        assert code == 0
        code, records, _ = run(["analyze", "--model", str(model),
                                "--strategy", "domain_variant",
                                "--rate", "0.2",
                                "--data", str(workdir["dom_csv"]),
                                "--domain-column", "domain"])
        assert code == 0
        assert records[0]["strategy"] == "domain_variant"
        assert 0 < len(records[0]["selected_indices"]) <= 25

    def test_domain_variant_without_domain_column_rejected(self, workdir):
        code, _, _ = run(["analyze", "--model", str(workdir["model"]),
                          "--strategy", "domain_variant", "--rate", "0.2",
                          "--data", str(workdir["data_csv"])])
        assert code == 2

    def test_rate_out_of_range_rejected(self, workdir):
        code, _, _ = run(["analyze", "--model", str(workdir["model"]),
                          "--strategy", "insignificant", "--rate", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("strategy", ["insignificant", "misleading",
                                          "domain_variant"])
    def test_score_summary_is_the_detector_scores(self, workdir, strategy):
        code, records, _ = run(["analyze", "--model", str(workdir["model"]),
                                "--strategy", strategy, "--rate", "0.2",
                                "--data", str(workdir["dom_csv"]),
                                "--domain-column", "domain"])
        assert code == 0
        enc, model, stats = load_model(str(workdir["model"]))
        ds = apply_normalizer(stats, remap_labels(
            load_csv(str(workdir["dom_csv"]), domain_column="domain"),
            model.labels))
        # the raw variances for insignificant, not the plan's negated scores
        scores = {"insignificant": lambda: variance_over_classes(model),
                  "misleading": lambda: misleading_scores(model, enc, ds),
                  "domain_variant": lambda: domain_variance(
                      domain_models(enc, ds))}[strategy]()
        assert scores.max() > 0.0
        assert records[0]["score_summary"] == {
            "min": float(scores.min()), "max": float(scores.max()),
            "mean": float(scores.mean())}


class TestDropsweep:
    def baseline(self, workdir):
        _, records, _ = run(["eval", "--model", str(workdir["model"]),
                             "--data", str(workdir["data_csv"])])
        return records[0]["value"]

    def test_fraction_zero_equals_eval_baseline(self, workdir):
        code, records, _ = run(["dropsweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--fractions", "0", "--order", "lowest"])
        assert code == 0
        assert records[0]["value"] == self.baseline(workdir)
        assert records[0]["dropped"] == 0

    def test_fraction_one_hits_class_zero_prevalence(self, workdir):
        ds = load_csv(str(workdir["data_csv"]))
        prevalence = float(np.mean(ds.labels == 0))
        code, records, _ = run(["dropsweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--fractions", "1", "--order", "highest"])
        assert code == 0
        assert records[0]["value"] == prevalence
        assert records[0]["dropped"] == 256

    def test_both_orders_emit_paired_curves(self, workdir):
        code, records, _ = run(["dropsweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--fractions", "0,0.5"])
        assert code == 0
        assert [(rec["order"], rec["fraction"]) for rec in records] == [
            ("lowest", 0.0), ("lowest", 0.5),
            ("highest", 0.0), ("highest", 0.5)]

    def test_low_variance_drops_hurt_less(self, workdir):
        code, records, _ = run(["dropsweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--fractions", "0.5"])
        assert code == 0
        by_order = {rec["order"]: rec["value"] for rec in records}
        assert by_order["lowest"] >= by_order["highest"]

    def test_invalid_fraction_rejected(self, workdir):
        code, _, _ = run(["dropsweep", "--model", str(workdir["model"]),
                          "--data", str(workdir["data_csv"]),
                          "--fractions", "0.2,1.5"])
        assert code == 2


class TestNoisesweep:
    def test_q_zero_equals_baseline(self, workdir):
        _, base, _ = run(["eval", "--model", str(workdir["model"]),
                          "--data", str(workdir["data_csv"])])
        code, records, _ = run(["noisesweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--q", "0"])
        assert code == 0
        assert records[0]["value"] == base[0]["value"]

    def test_points_emitted_in_order_with_seeds(self, workdir):
        code, records, _ = run(["noisesweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--q", "0,0.05,0.2", "--seed", "40"])
        assert code == 0
        assert [rec["q"] for rec in records] == [0.0, 0.05, 0.2]
        assert [rec["noise_seed"] for rec in records] == [40, 41, 42]

    @pytest.mark.parametrize("magnitude", ["nan", "inf"])
    def test_non_finite_magnitude_rejected(self, workdir, magnitude):
        code, records, err = run(["noisesweep", "--model",
                                  str(workdir["model"]),
                                  "--data", str(workdir["data_csv"]),
                                  "--q", "0,0.1", "--magnitude", magnitude])
        assert code == 2
        assert records == []
        assert "magnitude" in err

    def test_deterministic_across_runs(self, workdir):
        argv = ["noisesweep", "--model", str(workdir["model"]),
                "--data", str(workdir["data_csv"]), "--q", "0.1,0.3",
                "--seed", "11"]
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert ([rec["value"] for rec in first]
                == [rec["value"] for rec in second])


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--n", "3", "--classes", "2", "--samples", "5",
                "--seed", "31"]
        assert run(argv + ["--out", str(a)])[0] == 0
        assert run(argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_emitted_csv_loads(self, workdir):
        ds = load_csv(str(workdir["dom_csv"]), domain_column="domain")
        assert len(ds) == 90
        assert ds.n == 6
        assert ds.label_names == ["c0", "c1", "c2"]
        assert ds.domain_names == ["d0", "d1", "d2"]

    def test_single_domain_csv_has_no_domain_column(self, workdir):
        header = workdir["data_csv"].read_text().splitlines()[0]
        assert "domain" not in header.split(",")
        header = workdir["dom_csv"].read_text().splitlines()[0]
        assert "domain" in header.split(",")

    def test_missing_out_rejected(self):
        code, _, _ = run(["synth", "--n", "3", "--classes", "2",
                          "--samples", "5"])
        assert code == 2


class TestTypedSettings:
    """Every command checks the JSON kind of every setting before it reads
    a model or writes an output."""

    @pytest.mark.parametrize("command, key, value", [
        ("eval", "k_list", "12"), ("eval", "k_list", [1.9, True]),
        ("eval", "model", 0), ("eval", "data", None),
        ("eval", "label_column", 1),
        ("analyze", "rate", "0.25"), ("analyze", "strategy", 2),
        ("dropsweep", "fractions", "01"), ("dropsweep", "order", ["both"]),
        ("noisesweep", "seed", 3.5), ("noisesweep", "magnitude", "1"),
        ("noisesweep", "q_list", [0.1, None]),
        ("synth", "n", 3.7), ("synth", "separation", "4"),
    ])
    def test_wrongly_typed_value_rejected(self, workdir, tmp_path,
                                          monkeypatch, command, key, value):
        def never(path):
            raise AssertionError(f"{command} read the model {path!r}")

        monkeypatch.setattr(dynhd.cli, "load_model", never)
        out = tmp_path / "never.csv"
        doc = {
            "synth": {"n": 3, "classes": 2, "samples_per_class_per_domain": 5,
                      "out": str(out)},
            "analyze": {"model": str(workdir["model"]),
                        "strategy": "insignificant", "rate": 0.25},
        }.get(command, {"model": str(workdir["model"]),
                        "data": str(workdir["data_csv"])})
        doc[key] = value
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(doc))
        code, records, err = run([command, "--config", str(config)])
        assert code == 2
        assert records == [] and not out.exists()
        assert f"{command}: {key} must be a JSON " in err


class TestFlags:
    def test_each_command_has_its_flags(self):
        common = {"-h", "--help", "--config", "--quiet", "--out"}
        scored = common | {"--model", "--data", "--label-column",
                           "--domain-column"}
        expected = {
            "train": common | {"--seed"},
            "eval": scored | {"--k"},
            "analyze": scored | {"--strategy", "--rate"},
            "dropsweep": scored | {"--fractions", "--order"},
            "noisesweep": scored | {"--q", "--magnitude", "--seed"},
            "synth": common | {"--n", "--classes", "--domains", "--samples",
                               "--separation", "--intra-std",
                               "--domain-offset-std", "--seed"},
        }
        subs = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        flags = {command: {flag for action in sub._actions
                           for flag in action.option_strings}
                 for command, sub in subs.choices.items()}
        assert flags == expected

    def test_retired_bench_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestQuietFlag:
    def test_quiet_silences_diagnostics(self, workdir, tmp_path):
        out = tmp_path / "q.csv"
        _, _, loud = run(["synth", "--n", "2", "--classes", "2",
                          "--samples", "3", "--out", str(out)])
        _, _, quiet = run(["synth", "--n", "2", "--classes", "2",
                           "--samples", "3", "--out", str(out), "--quiet"])
        assert loud != ""
        assert quiet == ""


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "blobs.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dynhd", "synth", "--n", "2", "--classes",
             "2", "--samples", "3", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0])["experiment"] == "synth"
        assert out.exists()

    def test_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "dynhd", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "train" in proc.stdout

    @pytest.mark.parametrize("command", ["train", "eval", "analyze",
                                         "dropsweep", "noisesweep", "synth"])
    def test_command_help_exits_zero(self, command):
        proc = subprocess.run([sys.executable, "-m", "dynhd", command,
                               "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert f"usage: dynhd {command}" in proc.stdout


class TestReadme:
    def test_cli_block_lists_exactly_the_commands(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = {line.split()[1] for line in block.splitlines()
                    if line.startswith("dynhd ")}
        assert commands == set(dynhd.cli.COMMANDS)
