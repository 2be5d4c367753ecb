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
import dynhd.trainer
from dynhd.analysis import (domain_models, domain_variance,
                            misleading_scores, variance_over_classes)
from dynhd.cli import _build_parser, main
from dynhd.data import (apply_normalizer, fit_normalizer, load_csv,
                        remap_labels, split, write_csv)
from dynhd.encoder import init_encoder
from dynhd.inference import topk_accuracy
from dynhd.model import ClassModel, Dataset, load_model, save_model
from dynhd.trainer import TrainConfig, train
from test_analysis import TIED_VARIANCE_CLASSES
from test_model import (NORMALIZER_RANGE, REPR_CHARS, b64, edit_field, pack,
                        unpack)


def run_raw(argv):
    """Drive the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv):
    """Drive the CLI in-process; returns (exit_code, records, stderr)."""
    code, out, err = run_raw(argv)
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records, err


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

    def test_records_are_what_train_returns(self, workdir):
        # the workdir config, split and normalized as the CLI does
        ds = load_csv(str(workdir["data_csv"]))
        train_ds, valid_ds = split(ds, [0.8, 0.2], seed=7)
        stats = fit_normalizer(train_ds)
        _, _, records = train(TrainConfig(dim=256, epochs_per_round=3, seed=7),
                              apply_normalizer(stats, train_ds),
                              apply_normalizer(stats, valid_ds))
        for rec in records:
            assert json.loads(json.dumps(rec)) == rec
        strip = lambda recs: [{k: v for k, v in rec.items() if k != "wall_ms"}
                              for rec in recs]
        assert strip(records) == strip(workdir["train_records"][1:])

    def test_record_schemas(self, workdir):
        schemas = {
            "config": {"type", "command", "config"},
            "epoch": {"type", "segment", "epoch", "train_accuracy",
                      "updates", "scored", "wall_ms"},
            "round": {"type", "round", "val_accuracy", "regen_indices",
                      "planned", "target", "scored", "wall_ms"},
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

    @pytest.mark.parametrize("key, value, message", [
        ("dim", 0, "dim must be at least 1"),
        ("valid_fraction", 1.5,
         "valid_fraction must lie strictly between 0 and 1"),
        ("split_seed", -1, "split_seed must be in [0, 2**64): got -1")],
        ids=["dim", "valid_fraction", "split_seed"])
    def test_settings_checked_before_data_is_read(self, tmp_path, key, value,
                                                  message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "dim": 64, key: value,
            "data": {"csv": str(tmp_path / "absent.csv")}}))
        code, records, err = run(["train", "--config", str(config)])
        assert code == 2
        assert records == []
        assert err.splitlines() == [f"error: {message}"]

    def test_label_column_as_domain_column_rejected(self, workdir, tmp_path):
        config = tmp_path / "same_column.json"
        config.write_text(json.dumps({
            "dim": 16, "data": {"csv": str(workdir["data_csv"]),
                                "domain_column": "label"}}))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert err.splitlines() == [
            f"error: {workdir['data_csv']}: column 'label' cannot be both "
            "the label and the domain column"]

    def test_header_only_csv_rejected(self, tmp_path):
        empty = tmp_path / "header_only.csv"
        empty.write_text("f0,f1,label\n")
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dim": 16,
                                      "data": {"csv": str(empty)}}))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert err.splitlines() == [f"error: {empty}: no data rows"]

    @pytest.mark.parametrize("cell, message", [
        ("1_000", "non-numeric value '1_000' in column 'f1'"),
        ("inf", "non-finite value in column 'f1'")])
    def test_bad_csv_cell_named(self, tmp_path, cell, message):
        data = tmp_path / "bad.csv"
        data.write_text(f'f0,f1,label\n1,2,"a\nb"\n3,{cell},c\n')
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dim": 16,
                                      "data": {"csv": str(data)}}))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert err.splitlines() == [f"error: {data} line 4: {message}"]

    def test_unknown_config_key_rejected(self, workdir, tmp_path):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({
            "dim": 64, "learning_rate": 0.1,
            "data": {"csv": str(workdir["data_csv"])},
        }))
        code, _, err = run(["train", "--config", str(config)])
        assert code == 2
        assert "learning_rate" in err

    @pytest.mark.parametrize("where, expected", [
        ("", ["data", "dim", "epochs_per_round", "eta", "normalize", "out",
              "patience", "regen_rate", "rounds", "seed", "shuffle",
              "split_seed", "strategy", "valid_fraction"]),
        ("data.", ["data.csv", "data.domain_column", "data.label_column"]),
        ("data.synthetic.", [
            "data.synthetic.classes", "data.synthetic.domain_offset_std",
            "data.synthetic.domains", "data.synthetic.intra_std",
            "data.synthetic.n", "data.synthetic.samples_per_class_per_domain",
            "data.synthetic.seed", "data.synthetic.separation"])])
    def test_unknown_key_message_prefixes_every_key(self, workdir, tmp_path,
                                                    where, expected):
        doc = {"dim": 64, "data": {"csv": str(workdir["data_csv"])}}
        if where == "data.synthetic.":
            doc["data"] = {"synthetic": {"n": 4, "classes": 2,
                                         "samples_per_class_per_domain": 5}}
        {"": doc, "data.": doc["data"],
         "data.synthetic.": doc["data"].get("synthetic")}[where]["bogus"] = 1
        config = tmp_path / "bogus.json"
        config.write_text(json.dumps(doc))
        code, records, err = run(["train", "--config", str(config)])
        assert code == 2 and records == []
        assert err.splitlines() == [
            f"error: train: unknown config key(s) ['{where}bogus']; "
            f"expected a subset of {expected}"]

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

    def test_config_array_rejected(self, tmp_path):
        config = tmp_path / "array.json"
        config.write_text(json.dumps([{"dim": 64}]))
        code, records, err = run(["train", "--config", str(config)])
        assert code == 2
        assert records == []
        assert err == f"error: {config}: config must be a JSON object\n"

    @pytest.mark.parametrize("data", [
        {"csv": "data.csv", "synthetic": {}}, {}], ids=["both", "neither"])
    def test_data_must_hold_one_source(self, tmp_path, data):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dim": 64, "data": data}))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert err == ("error: data must hold exactly one of 'csv' or "
                       "'synthetic'\n")

    def test_one_row_csv_splits_to_an_empty_set(self, tmp_path):
        data = tmp_path / "one_row.csv"
        data.write_text("f0,f1,label\n1,2,a\n")
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dim": 16, "data": {"csv": str(data)}}))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert err == ("error: split produced an empty train or validation "
                       "set\n")

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

    def test_synthetic_data_rejects_unknown_keys(self, tmp_path):
        config = tmp_path / "synth_typo.json"
        config.write_text(json.dumps({
            "dim": 64,
            "data": {"synthetic": {"n": 4, "classes": 2,
                                   "samples_per_class_per_domain": 10},
                     "typo_key": 1, "label_column": 5},
        }))
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(config),
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert "data.typo_key" in err and "data.label_column" in err

    def test_missing_output_directory_fails_before_training(
            self, workdir, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(dynhd.cli, "load_csv", never)
        absent = tmp_path / "absent"
        code, records, err = run(["train", "--config", str(workdir["config"]),
                                  "--out", str(absent / "model.json")])
        assert code == 3
        assert records == [] and not absent.exists()
        assert err == f"I/O error: output directory {absent} does not exist\n"

    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("case", ["missing_directory", "directory"])
    def test_unwritable_output_fails_before_any_work(
            self, workdir, tmp_path, capsys, monkeypatch, command, case):
        def never(*args, **kwargs):
            raise AssertionError("the data was read or made")

        monkeypatch.setattr(dynhd.cli, "load_csv", never)
        monkeypatch.setattr(dynhd.cli, "make_blobs", never)
        absent = tmp_path / "absent"
        out = absent / "out.csv" if case == "missing_directory" else tmp_path
        argv = (["train", "--config", str(workdir["config"])]
                if command == "train" else
                ["synth", "--n", "3", "--classes", "2", "--samples", "5"])
        code = main(argv + ["--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 3
        assert stdout == "" and not absent.exists()
        assert err == ("I/O error: " + (
            f"output directory {absent} does not exist\n"
            if case == "missing_directory" else
            f"output {tmp_path} is a directory\n"))

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 72.8 TiB"),
         "error: train: out of memory (Unable to allocate 72.8 TiB)"),
        (MemoryError(), "error: train: out of memory")])
    def test_out_of_memory_exits_two(self, workdir, tmp_path, monkeypatch,
                                     error, line):
        def out_of_memory(seed, n, dim):
            raise error

        monkeypatch.setattr(dynhd.trainer, "init_encoder", out_of_memory)
        out = tmp_path / "never.json"
        code, records, err = run(["train", "--config", str(workdir["config"]),
                                  "--out", str(out), "--quiet"])
        assert code == 2
        assert [rec["type"] for rec in records] == ["config"]
        assert err.splitlines() == [line]
        assert not out.exists()


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
        other.write_text("f0,f1,f2,f3,f4,f5,label\n0,0,0,0,0,0,zebra\n"
                         "1,1,1,1,1,1,c0\n")
        code, records, err = run(["eval", "--model", str(workdir["model"]),
                                  "--data", str(other)])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: {other}: label(s) ['zebra'] not among the 3 labels of "
            f"model {workdir['model']}"]

    @pytest.mark.parametrize("mangle", [
        lambda doc: doc[:21], lambda doc: doc[:-2],
        lambda doc: b'{"version": "\xff"}',
        lambda doc: doc.replace(b'"version": 4', b'"version": 1')],
        ids=["truncated-head", "truncated-tail", "not-utf8", "version-1"])
    def test_unparsable_model_file_named(self, workdir, tmp_path, mangle):
        mangled = tmp_path / "mangled.json"
        mangled.write_bytes(mangle(workdir["model"].read_bytes()))
        code, records, err = run(["eval", "--model", str(mangled),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.startswith(f"error: malformed model file {mangled}: ")
        assert len(err.splitlines()) == 1

    def test_v2_model_file_exits_two(self, workdir, tmp_path):
        # the retired layout: the same fields, float arrays as number lists
        doc = json.loads(workdir["model"].read_text())
        doc["version"] = 2
        doc["classes"] = unpack(doc["classes"]).tolist()
        for key in ("mean", "std"):
            doc["normalizer"][key] = unpack(doc["normalizer"][key]).tolist()
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(v2),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {v2}: unsupported model file "
            "version 2"]

    def test_v3_model_file_exits_two(self, workdir, tmp_path):
        # the retired layout: the history as lists of JSON integers
        doc = json.loads(workdir["model"].read_text())
        doc["version"] = 3
        doc["regen_history"] = [[1, 5], [0, 5, 7]]
        v3 = tmp_path / "v3.json"
        v3.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(v3),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {v3}: unsupported model file "
            "version 3"]

    def test_unknown_model_key_exits_two(self, workdir, tmp_path):
        doc = json.loads(workdir["model"].read_text())
        doc["bases"] = []
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.startswith(f"error: malformed model file {edited}: "
                              "unknown key(s) ['bases']; ")
        assert len(err.splitlines()) == 1

    def test_normalizer_missing_key_exits_two(self, workdir, tmp_path):
        doc = json.loads(workdir["model"].read_text())
        del doc["normalizer"]["std"]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {edited}: missing key(s) "
            "['normalizer.std']"]

    def test_list_valued_classes_echo_is_short(self, workdir, tmp_path):
        """A v2-style class list of 768 numbers prints one short line that
        still names ``classes``."""
        doc = json.loads(workdir["model"].read_text())
        doc["classes"] = unpack(doc["classes"]).tolist()
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {edited}: classes must be a JSON "
            f"string, got {repr(doc['classes'])[:REPR_CHARS]}..."]

    def test_overflowing_class_norms_exit_two(self, workdir, tmp_path):
        """Finite class entries whose norms overflow would score every
        query 0 (chance accuracy) if the model were accepted."""
        doc = json.loads(workdir["model"].read_text())
        doc["classes"] = pack(unpack(doc["classes"]) * 1e200)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {edited}: class row(s) [0, 1, 2] "
            "have non-finite norms"]

    # Each edit is (arrays to pack into the normalizer, the check's message).
    @pytest.mark.parametrize("edit", [
        ({"mean": [0.0] * 5, "std": [1.0] * 5},
         "normalizer.mean must hold 6 float64 values (48 bytes), got 40 "
         "bytes"),
        ({"std": [1.0] * 5 + [float("nan")]}, NORMALIZER_RANGE),
        ({"std": [1.0] * 5 + [0.0]}, NORMALIZER_RANGE),
        ({"std": [1.0] * 5 + [1e-320]}, NORMALIZER_RANGE),
    ])
    def test_inconsistent_normalizer_rejected(self, workdir, tmp_path, edit):
        arrays, message = edit
        doc = json.loads(workdir["model"].read_text())
        doc["normalizer"].update({k: pack(v) for k, v in arrays.items()})
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {edited}: {message}"]

    @pytest.mark.parametrize("field, entry", [
        ("classes", "0.5"), ("normalizer.mean", True),
        ("normalizer.std", "0.5"),
    ])
    def test_non_number_v2_model_entry_rejected(self, workdir, tmp_path,
                                                field, entry):
        """A float array written as a v2 number list is not a packed
        string, whatever its entries."""
        doc = json.loads(workdir["model"].read_text())
        values = [entry, 1.0]
        edit_field(doc, field, lambda node, leaf: node.update({leaf: values}))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        code, records, err = run(["eval", "--model", str(edited),
                                  "--data", str(workdir["data_csv"])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: malformed model file {edited}: {field} must be a JSON "
            f"string, got {values!r}"]

    # At D=256 a mask is 32 bytes with no padding bits.
    @pytest.mark.parametrize("history, message", [
        ({"0": [1]}, "regen_history must be a JSON array"),
        ([b64(*[0xff] * 31)], "regen_history[0] must be a non-empty 256-bit "
                              "mask (32 bytes), got 31 bytes"),
        ([b64(*[0] * 32)], "regen_history[0] must be a non-empty 256-bit "
                           "mask (32 bytes), got no bit set"),
        ([b64(*[0x01] * 33)], "regen_history[0] must be a non-empty 256-bit "
                              "mask (32 bytes), got 33 bytes"),
        ([""], "regen_history[0] must be a non-empty 256-bit mask (32 bytes), "
               "got 0 bytes"),
        ([[1, 5]], "regen_history[0] must be a JSON string, got [1, 5]"),
        ([True], "regen_history[0] must be a JSON string, got True"),
        ([3], "regen_history[0] must be a JSON string, got 3"),
        (["AAA"], "regen_history[0] is not base64: "),
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
        assert err.startswith(
            f"error: malformed model file {edited}: {message}")
        assert len(err.splitlines()) == 1

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

    def test_query_csv_may_hold_a_subset_of_classes(self, workdir,
                                                     tmp_path):
        header, *rows = workdir["data_csv"].read_text().splitlines()
        subset = tmp_path / "two_classes.csv"
        subset.write_text("\n".join(
            [header] + [row for row in rows
                        if not row.endswith(",c1")]) + "\n")
        code, records, _ = run(["eval", "--model", str(workdir["model"]),
                                "--data", str(subset)])
        assert code == 0
        assert records[0]["n_samples"] == 60
        enc, model, stats = load_model(str(workdir["model"]))
        ds = apply_normalizer(stats, remap_labels(load_csv(str(subset)),
                                                  model.labels))
        assert ds.label_names == model.labels
        assert records[0]["value"] == topk_accuracy(model, enc, ds, 1)

    @pytest.mark.parametrize("command, extra", [
        ("eval", []), ("analyze", ["--strategy", "misleading", "--rate",
                                   "0.1"]),
        ("dropsweep", []), ("noisesweep", [])],
        ids=["eval", "analyze", "dropsweep", "noisesweep"])
    def test_header_only_csv_rejected_before_loading(
            self, workdir, tmp_path, monkeypatch, command, extra):
        def never(*args, **kwargs):
            raise AssertionError(f"{command} read the model")

        monkeypatch.setattr(dynhd.cli, "load_model", never)
        empty = tmp_path / "header_only.csv"
        empty.write_text("f0,f1,f2,f3,f4,f5,label\n")
        code, records, err = run([command, "--model", str(workdir["model"]),
                                  "--data", str(empty)] + extra)
        assert code == 2
        assert records == []
        assert err.splitlines() == [f"error: {empty}: no data rows"]

    def test_repeated_header_name_rejected(self, workdir, tmp_path):
        lines = workdir["data_csv"].read_text().splitlines(keepends=True)
        assert lines[0] == "f0,f1,f2,f3,f4,f5,label\n"
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("f0,f1,f2,f3,f4,f1,label\n" + "".join(lines[1:]))
        code, records, err = run(["eval", "--model", str(workdir["model"]),
                                  "--data", str(repeated)])
        assert code == 2
        assert records == []
        assert err.splitlines() == [
            f"error: {repeated}: header names column 'f1' more than once, "
            "at columns 2, 6"]


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
        assert err.splitlines() == [
            "error: analyze: strategy=misleading needs data"]
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

    def test_domain_variant_without_domain_column_rejected(self, workdir,
                                                            monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("analyze read a file")

        monkeypatch.setattr(dynhd.cli, "load_model", never)
        monkeypatch.setattr(dynhd.cli, "load_csv", never)
        for given, missing in [(["--data", str(workdir["data_csv"])],
                                "domain_column"),
                               (["--domain-column", "domain"], "data")]:
            code, records, err = run(["analyze", "--model",
                                      str(workdir["model"]), "--strategy",
                                      "domain_variant", "--rate", "0.2"]
                                     + given)
            assert code == 2
            assert records == []
            assert err.splitlines() == [
                f"error: analyze: strategy=domain_variant needs {missing}"]

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

    @pytest.mark.parametrize("order, dropped", [
        ("lowest", [[0, 2], [0, 2, 4, 7], [0, 1, 2, 4, 7]]),
        ("highest", [[1, 5], [1, 3, 5, 6], [0, 1, 3, 5, 6]])])
    def test_variance_ties_drop_the_lower_index_first(
            self, tmp_path, monkeypatch, order, dropped):
        # Column variances: 0 at 0, 2, 4 and 7 (negated, -0.0 for the
        # lowest order), 2/3 at 1, 3 and 6, and 6 at 5.
        classes = np.array(TIED_VARIANCE_CLASSES)
        model, data = tmp_path / "tied.json", tmp_path / "tied.csv"
        save_model(str(model), init_encoder(1, 2, 8),
                   ClassModel(classes, ["a", "b", "c"]))
        write_csv(str(data), Dataset(np.ones((3, 2)), [0, 1, 2],
                                     ["a", "b", "c"]))
        zeroed = []
        scorer = dynhd.cli.model_scores

        def recording(classes, *args):
            zeroed.append(np.flatnonzero(~classes.any(axis=0)).tolist())
            return scorer(classes, *args)

        monkeypatch.setattr(dynhd.cli, "model_scores", recording)
        code, _, _ = run(["dropsweep", "--model", str(model), "--data",
                          str(data), "--order", order,
                          "--fractions", "0.25,0.5,0.625"])
        assert code == 0
        assert zeroed == dropped

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

    def test_unknown_order_rejected(self, workdir, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr(dynhd.cli, "load_model", never)
        code, records, err = run(["dropsweep", "--model",
                                  str(workdir["model"]), "--data",
                                  str(workdir["data_csv"]),
                                  "--order", "sideways"])
        assert code == 2
        assert records == []
        assert err == ("error: order must be one of ('lowest', 'highest', "
                       "'both')\n")

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

    @pytest.mark.parametrize("seed, q_list, message", [
        ("-1", "0.1", "seed must be in [0, 2**64 - 1] (q_list[i] uses "
                      "seed + i): got -1"),
        (str(2**64 - 1), "0.1,0.2",
         f"seed must be in [0, 2**64 - 2] (q_list[i] uses seed + i): "
         f"got {2**64 - 1}")])
    def test_out_of_range_noise_seed_rejected_before_loading(
            self, workdir, monkeypatch, seed, q_list, message):
        def never(*args, **kwargs):
            raise AssertionError("noisesweep read the model")

        monkeypatch.setattr(dynhd.cli, "load_model", never)
        code, records, err = run(["noisesweep", "--model",
                                  str(workdir["model"]),
                                  "--data", str(workdir["data_csv"]),
                                  "--q", q_list, "--seed", seed])
        assert code == 2
        assert records == []
        assert err.splitlines() == [f"error: {message}"]

    def test_last_noise_seed_may_be_the_max_seed(self, workdir):
        code, records, _ = run(["noisesweep", "--model",
                                str(workdir["model"]),
                                "--data", str(workdir["data_csv"]),
                                "--q", "0.1,0.2", "--seed", str(2**64 - 2)])
        assert code == 0
        assert [rec["noise_seed"] for rec in records] == [2**64 - 2,
                                                          2**64 - 1]

    @pytest.mark.parametrize("magnitude", ["nan", "inf"])
    def test_non_finite_magnitude_rejected(self, workdir, magnitude):
        code, records, err = run(["noisesweep", "--model",
                                  str(workdir["model"]),
                                  "--data", str(workdir["data_csv"]),
                                  "--q", "0,0.1", "--magnitude", magnitude])
        assert code == 2
        assert records == []
        assert "magnitude" in err

    @pytest.mark.parametrize("magnitude", ["1e305", "1e308"])
    def test_norm_overflow_exits_numeric_without_its_record(
            self, workdir, magnitude):
        code, records, err = run(["noisesweep", "--model",
                                  str(workdir["model"]),
                                  "--data", str(workdir["data_csv"]),
                                  "--q", "0,0.1,0.2",
                                  "--magnitude", magnitude])
        assert code == 4
        assert [rec["q"] for rec in records] == [0.0]
        assert err.splitlines() == [
            f"numeric error: noise at q=0.1, magnitude={float(magnitude)!r} "
            "makes a class norm non-finite"]

    def test_entries_whose_squares_overflow_keep_a_finite_rms(self,
                                                               tmp_path):
        # every row norm is finite (12e153), the sum of all squares is not
        model = tmp_path / "big.json"
        save_model(str(model), init_encoder(0, 2, 4),
                   ClassModel(np.full((4, 4), 6e153), ["a", "b", "c", "d"]))
        queries = tmp_path / "queries.csv"
        write_csv(str(queries), Dataset(np.eye(4)[:, :2], np.arange(4),
                                        ["a", "b", "c", "d"]))
        code, records, err = run(["noisesweep", "--model", str(model),
                                  "--data", str(queries), "--q", "0,0.5",
                                  "--magnitude", "1e-9"])
        assert code == 0, err
        assert [rec["q"] for rec in records] == [0.0, 0.5]

    def test_deterministic_across_runs(self, workdir):
        argv = ["noisesweep", "--model", str(workdir["model"]),
                "--data", str(workdir["data_csv"]), "--q", "0.1,0.3",
                "--seed", "11"]
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert ([rec["value"] for rec in first]
                == [rec["value"] for rec in second])


class TestOverflowingProjection:
    """Finite features whose projection overflows exit 2 naming the first
    such sample; their NaN encodings would score 0 against every class."""

    ERROR = ("error: sample 0: encoding is not finite (the projection of "
             "its features overflows)")

    @pytest.fixture
    def csvs(self, tmp_path):
        clean = tmp_path / "clean.csv"
        code, _, _ = run(["synth", "--n", "4", "--classes", "3", "--samples",
                          "10", "--seed", "3", "--out", str(clean)])
        assert code == 0
        ds = load_csv(str(clean))
        features = ds.features.copy()
        features[:, 0] = 1.5e308  # load_csv accepts it: it is finite
        huge = tmp_path / "huge.csv"
        write_csv(str(huge), Dataset(features, ds.labels, ds.label_names))
        return clean, huge

    def train(self, tmp_path, csv):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dim": 256, "data": {"csv": str(csv)}}))
        out = tmp_path / "model.json"
        return out, run(["train", "--quiet", "--config", str(config),
                         "--out", str(out)])

    def test_train_exits_two(self, tmp_path, csvs):
        out, (code, records, err) = self.train(tmp_path, csvs[1])
        assert code == 2
        assert [rec["type"] for rec in records] == ["config"]
        assert not out.exists()
        assert err.splitlines() == [self.ERROR]

    def test_eval_exits_two(self, tmp_path, csvs):
        model, (code, _, _) = self.train(tmp_path, csvs[0])
        assert code == 0
        code, records, err = run(["eval", "--model", str(model),
                                  "--data", str(csvs[1])])
        assert code == 2
        assert records == []
        assert err.splitlines() == [self.ERROR]


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

    @pytest.mark.parametrize("setting", ["separation", "intra_std",
                                         "domain_offset_std"])
    def test_non_finite_draws_rejected(self, tmp_path, setting):
        out = tmp_path / "huge.csv"
        code, records, err = run(["synth", "--n", "16", "--classes", "4",
                                  "--samples", "2",
                                  "--" + setting.replace("_", "-"), "1e308",
                                  "--out", str(out)])
        assert code == 2
        assert records == [] and not out.exists()
        assert err == (f"error: synthetic features overflow at "
                       f"{setting}=1e+308\n")


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

    @pytest.mark.parametrize("command, key, flag", [
        ("eval", "k_list", "--k"), ("dropsweep", "fractions", "--fractions"),
        ("noisesweep", "q_list", "--q")])
    def test_empty_list_rejected(self, workdir, tmp_path, monkeypatch,
                                 command, key, flag):
        def never(*args, **kwargs):
            raise AssertionError(f"{command} read a file")

        monkeypatch.setattr(dynhd.cli, "load_model", never)
        monkeypatch.setattr(dynhd.cli, "load_csv", never)
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({key: []}))
        scored = ["--model", str(workdir["model"]),
                  "--data", str(workdir["data_csv"])]
        for argv in ([command, "--config", str(config)] + scored,
                     [command, flag, ""] + scored):
            code, records, err = run(argv)
            assert code == 2
            assert records == []
            assert err.splitlines() == [
                f"error: {command}: {key} must be non-empty"]


class TestFlags:
    def test_each_command_has_its_flags(self):
        common = {"-h", "--help", "--config", "--quiet"}
        scored = common | {"--model", "--data", "--label-column",
                           "--domain-column"}
        expected = {
            "train": common | {"--seed", "--out"},
            "eval": scored | {"--k"},
            "analyze": scored | {"--strategy", "--rate"},
            "dropsweep": scored | {"--fractions", "--order"},
            "noisesweep": scored | {"--q", "--magnitude", "--seed"},
            "synth": common | {"--n", "--classes", "--domains", "--samples",
                               "--separation", "--intra-std",
                               "--domain-offset-std", "--seed", "--out"},
        }
        subs = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        flags = {command: {flag for action in sub._actions
                           for flag in action.option_strings}
                 for command, sub in subs.choices.items()}
        assert flags == expected

    def test_retired_bench_command_exits_two(self, capsys):
        # the bench command and the --out record mirror of the query
        # commands are both gone
        for argv, message in [
                (["bench"], "invalid choice: 'bench'"),
                (["eval", "--model", "m.json", "--data", "d.csv", "--out",
                  "x"], "unrecognized arguments: --out x")]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


class TestQuietFlag:
    """Records go to stdout, one JSON object a line, whatever --quiet says;
    diagnostics go to stderr unless --quiet."""

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_quiet_silences_diagnostics(self, workdir, tmp_path, command):
        out = tmp_path / "out"
        argv, diagnostics = {
            "train": (["train", "--config", str(workdir["config"])],
                      ["training on 72 samples, validating on 18",
                       f"wrote model to {out}"]),
            "synth": (["synth", "--n", "2", "--classes", "2", "--samples",
                       "3"], [f"wrote 6 samples to {out}"]),
        }[command]
        streams = []
        for quiet in ([], ["--quiet"]):
            code, stdout, stderr = run_raw(argv + ["--out", str(out)] + quiet)
            assert code == 0
            records = [{k: v for k, v in json.loads(line).items()
                        if not k.endswith("_ms")}
                       for line in stdout.splitlines()]
            streams.append((records, stderr.splitlines()))
        (loud, loud_err), (quiet, quiet_err) = streams
        assert loud_err == diagnostics
        assert quiet_err == []
        assert loud == quiet and loud

    @pytest.mark.parametrize("command", ["train", "eval", "analyze",
                                         "dropsweep", "noisesweep", "synth"])
    def test_every_stdout_line_is_a_json_object(self, workdir, tmp_path,
                                                command):
        scored = ["--model", str(workdir["model"]),
                  "--data", str(workdir["data_csv"])]
        argv = {
            "train": ["--config", str(workdir["config"]),
                      "--out", str(tmp_path / "m.json")],
            "eval": ["--k", "1,2"] + scored,
            "analyze": ["--strategy", "misleading", "--rate", "0.1"] + scored,
            "dropsweep": scored,
            "noisesweep": scored,
            "synth": ["--n", "2", "--classes", "2", "--samples", "3",
                      "--out", str(tmp_path / "s.csv")],
        }[command]
        code, stdout, _ = run_raw([command] + argv)
        assert code == 0
        lines = stdout.splitlines()
        assert lines
        assert all(isinstance(json.loads(line), dict) for line in lines)


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
