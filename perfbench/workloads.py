"""Workload definitions and their seeded inputs.

A workload is a synthetic blob dataset shape plus a train config.  The
inputs the program sees are, per dataset, two CSV files (train and query,
the same size) and a train config JSON.  A run draws ``datasets``
independent datasets (and model seeds) from the benchmark seed and cycles
its train + eval pairs through them, so one run's accuracy and cost average
over several draws instead of resting on one.  Inputs come only from the
workload and the seed, through a generator that is independent of the
program under test: a change to dynhd's own synthetic data code cannot
change them.

Run as a script, this module is one set-up: it imports the dynhd CLI (the
start-up a user pays on every ``dynhd`` call), then generates and writes the
inputs.  ``run.py`` times several such processes and reports the median as
``setup_s``.

    python3 perfbench/workloads.py <spec-json> <seed> <out-dir>
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

# Shared train settings of every workload.
COMMON_TRAIN = {"eta": 0.5, "normalize": True, "valid_fraction": 0.2}

SMALL_DATA = {"n": 16, "classes": 16, "domains": 1, "samples": 125,
              "separation": 4.0, "domain_offset_std": 0.0}

WORKLOADS = {
    "small_misleading": {
        "data": SMALL_DATA, "datasets": 8,
        "train": {"dim": 2048, "strategy": "misleading", "rounds": 3,
                  "epochs_per_round": 8, "regen_rate": 0.2,
                  "shuffle": False},
    },
    "small_regen": {
        "data": SMALL_DATA, "datasets": 8,
        "train": {"dim": 2048, "strategy": "insignificant", "rounds": 10,
                  "epochs_per_round": 1, "regen_rate": 0.3,
                  "shuffle": True},
    },
    # ISOLET's shape (n=617, L=26) at D=10000 over 4 domains, with the row
    # count scaled down from 15 samples per class per domain.  The per-row
    # encode cost, the 617-column CSVs and the D*n model file keep it bound
    # by projection and I/O.  One pair takes about 30 s on 2 vCPUs, so it
    # is run by name and left out of BENCHMARK.json (see README.md).
    "isolet_domain": {
        "datasets": 1,
        "data": {"n": 617, "classes": 26, "domains": 4, "samples": 4,
                 "separation": 30.0, "domain_offset_std": 3.0},
        "train": {"dim": 10000, "strategy": "domain_variant", "rounds": 2,
                  "epochs_per_round": 2, "regen_rate": 0.1,
                  "shuffle": False},
    },
}


def rows_of(spec: dict) -> int:
    """Rows in each of the train and query CSVs."""
    d = spec["data"]
    return d["domains"] * d["classes"] * d["samples"]


def has_domains(spec: dict) -> bool:
    return spec["data"]["domains"] > 1


def generate(spec: dict, seed: int, dataset: int):
    """Train and query sets of one dataset as (features, labels, domains)
    triples.

    Each row is center[class] + offset[domain] + N(0, 1) noise, laid out
    domain-major, then class, then repetition; the query set shares the
    centers and offsets and draws fresh noise.
    """
    d = spec["data"]
    n, L, M, S = d["n"], d["classes"], d["domains"], d["samples"]
    rng = np.random.default_rng([seed, dataset, 0xB1B5])
    centers = rng.standard_normal((L, n)) * d["separation"]
    offsets = rng.standard_normal((M, n)) * d["domain_offset_std"]
    labels = np.tile(np.repeat(np.arange(L), S), M)
    domains = np.repeat(np.arange(M), L * S)
    sets = []
    for _ in range(2):
        noise = rng.standard_normal((M * L * S, n))
        sets.append((centers[labels] + offsets[domains] + noise,
                     labels, domains))
    return sets


def write_csv(path: str, features, labels, domains, with_domain: bool) -> None:
    n = features.shape[1]
    header = [f"f{i}" for i in range(n)] + ["label"]
    if with_domain:
        header.append("domain")
    lines = [",".join(header)]
    for row, label, domain in zip(features.tolist(), labels.tolist(),
                                  domains.tolist()):
        cells = [repr(v) for v in row]
        cells.append(f"c{label}")
        if with_domain:
            cells.append(f"d{domain}")
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def model_seed(seed: int, dataset: int) -> int:
    return int(np.random.SeedSequence([seed, dataset]).generate_state(
        1, np.uint64)[0])


def input_paths(spec: dict, out_dir: str) -> list[dict]:
    """Paths of each dataset's train CSV, query CSV and train config."""
    paths = []
    for j in range(spec["datasets"]):
        base = os.path.join(out_dir, f"d{j}")
        paths.append({"train_csv": os.path.join(base, "train.csv"),
                      "query_csv": os.path.join(base, "query.csv"),
                      "config": os.path.join(base, "train.json")})
    return paths


def write_inputs(spec: dict, seed: int, out_dir: str) -> None:
    with_domain = has_domains(spec)
    for j, paths in enumerate(input_paths(spec, out_dir)):
        os.makedirs(os.path.dirname(paths["config"]))
        train_set, query_set = generate(spec, seed, j)
        write_csv(paths["train_csv"], *train_set, with_domain)
        write_csv(paths["query_csv"], *query_set, with_domain)
        data = {"csv": paths["train_csv"]}
        if with_domain:
            data["domain_column"] = "domain"
        config = dict(COMMON_TRAIN, **spec["train"],
                      seed=model_seed(seed, j), data=data)
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)


if __name__ == "__main__":
    spec_json, seed_arg, out = sys.argv[1:4]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import dynhd.cli  # noqa: F401  (start-up cost of a dynhd call)

    write_inputs(json.loads(spec_json), int(seed_arg), out)
