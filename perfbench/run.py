"""The dynhd benchmark: ``dynhd train`` then ``dynhd eval --k 1,2,3``.

    python3 perfbench/run.py --workload small_misleading --seed 1 \\
        --seconds 40 --trace 0

Run it from the root of a source checkout; it measures the dynhd package
under ``src/``.  One run is one process, which generates all the load:

1. Set-up, repeated SETUP_REPEATS times, each in a fresh interpreter
   (``workloads.py``): start-up and import of the dynhd CLI, then each
   seeded dataset's train CSV, query CSV and train config.
2. ``dynhd.cli.main(["train", ...])`` then ``main(["eval", ...])`` in this
   process, cycling through the workload's datasets until ``--seconds``
   have passed and every dataset ran once.  ``top1_accuracy`` and
   ``model_file_mb`` are means over the datasets.

Times are CPU seconds at reference speed.  The host is a few shared vCPUs
whose speed drifts by tens of percent within and between runs, and wall
time also counts time stolen by the hypervisor.  So each set-up and each
CLI call is timed in CPU seconds (all threads of its process), and a fixed
reference loop (``ReferenceLoop``) runs before the first of them and after
each one.  An operation's CPU time is multiplied by ``REF_CPU_S`` / (mean
CPU time of the two loops around it): it reads as CPU seconds on a host
where the loop takes ``REF_CPU_S``.  ``setup_s``, ``train_s`` and
``eval_s`` are medians of these over the set-ups and over the pairs.  The
summary record keeps the raw wall and CPU times.

Prints an environment record, a summary record (wall, CPU and scaled
times of every set-up and call, the reference-loop times, accuracies and
the failure rate with its base), and last the result line.  Exits 0 when every operation passed, 1 when a CLI call or a
check failed, 2 when the checkout holds no dynhd sources or set-up failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Must precede the first numpy import, here and in the set-up processes.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import (WORKLOADS, has_domains, input_paths,  # noqa: E402
                       rows_of)

SETUP_REPEATS = 7
K_LIST = (1, 2, 3)
SETUP_TIMEOUT_S = 120
# Median CPU seconds of one ReferenceLoop.run() on the host the bounds were
# set on (2 vCPUs of an Intel Xeon); it fixes the unit of the times only.
REF_CPU_S = 0.175


class Gate:
    """Operations attempted (CLI calls and correctness checks) and the
    ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class ReferenceLoop:
    """A fixed computation shaped like dynhd's hot paths, from fixed inputs:
    per sample, a 2048x16 projection, cos and sin, cosine scores against 16
    class rows, argmax, ranking and a class update on a miss.  It uses numpy
    only, so no change to dynhd changes its cost; its CPU time measures the
    speed of the host at that moment."""

    SAMPLES = 400
    PASSES = 2

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self.bases = rng.standard_normal((2048, 16))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, 2048)
        self.features = rng.standard_normal((self.SAMPLES, 16))
        self.labels = rng.integers(0, 16, self.SAMPLES).tolist()
        self.classes = rng.standard_normal((16, 2048))

    def run(self) -> float:
        """Run the loop once; returns its CPU seconds."""
        classes = self.classes.copy()
        norms = np.sqrt((classes * classes).sum(axis=1))
        start = time.process_time()
        for _ in range(self.PASSES):
            for i, y in enumerate(self.labels):
                x = np.einsum("dn,n->d", self.bases, self.features[i])
                h = np.cos(x + self.phases) * np.sin(x)
                h_norm = float(np.sqrt(np.dot(h, h)))
                dots = classes @ h
                denom = norms * h_norm
                scores = np.divide(dots, denom, out=np.zeros_like(dots),
                                   where=denom > 0.0)
                pred = int(np.argmax(scores))
                np.lexsort((np.arange(16), -scores))
                if pred != y:
                    classes[y] += 0.5 * (1.0 - scores[y]) * h
                    classes[pred] -= 0.5 * (1.0 - scores[pred]) * h
                    norms[y] = float(np.sqrt(np.dot(classes[y], classes[y])))
                    norms[pred] = float(np.sqrt(np.dot(classes[pred],
                                                       classes[pred])))
        return time.process_time() - start


class Clock:
    """The sequence of timed operations of a run, each between two runs of
    the reference loop."""

    def __init__(self):
        self.loop = ReferenceLoop()
        self.events: list[tuple[str, float]] = []
        self.loop.run()  # warm-up
        self._reference()

    def _reference(self) -> None:
        self.events.append(("reference", self.loop.run()))

    def record(self, kind: str, cpu_s: float) -> None:
        """Record one operation's CPU seconds, then run the loop."""
        self.events.append((kind, cpu_s))
        self._reference()

    def samples(self, kind: str = "reference") -> list[float]:
        return [s for k, s in self.events if k == kind]

    def scaled(self, kind: str) -> list[float]:
        """CPU seconds of each ``kind`` operation at reference speed."""
        return [s * 2 * REF_CPU_S / (self.events[i - 1][1]
                                     + self.events[i + 1][1])
                for i, (k, s) in enumerate(self.events) if k == kind]


def sha256_of(path: str):
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_digest(inputs: dict) -> tuple:
    """Digests of one dataset's inputs; the config's CSV path names the
    set-up's own directory, so only its file name is compared."""
    with open(inputs["config"], encoding="utf-8") as fh:
        config = json.load(fh)
    config["data"]["csv"] = os.path.basename(config["data"]["csv"])
    return (sha256_of(inputs["train_csv"]), sha256_of(inputs["query_csv"]),
            json.dumps(config, sort_keys=True))


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True,
                                    text=True).stdout.strip() or None
    src_digest = hashlib.sha256()
    package = os.path.join(SRC, "dynhd")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                src_digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": NPROC, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit, "src_sha256": src_digest.hexdigest(),
        "workload": workload, "seed": seed,
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def set_up(spec: dict, seed: int, work: str,
           clock: Clock) -> tuple[list[float], list]:
    """Time SETUP_REPEATS fresh set-up processes; returns their wall times
    and, per set-up, the input paths of each dataset."""
    walls, outputs = [], []
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads.py")
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"setup{i}")
        os.makedirs(out)
        start, cpu_start = time.perf_counter(), children_cpu_s()
        proc = subprocess.run(
            [sys.executable, script, json.dumps(spec), str(seed), out],
            timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        clock.record("setup", children_cpu_s() - cpu_start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        outputs.append(input_paths(spec, out))
    return walls, outputs


def call_cli(cli, argv: list[str], gate: Gate, what: str):
    """One in-process CLI call; returns (wall seconds, CPU seconds, parsed
    stdout records)."""
    out = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a crash in the program is a failed call
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start
    gate.check(code == 0, f"{what} exited {code}")
    records = []
    for line in out.getvalue().splitlines():
        with contextlib.suppress(ValueError):
            records.append(json.loads(line))
    return seconds, cpu_seconds, records


def eval_argv(model: str, query: str, spec: dict) -> list[str]:
    argv = ["eval", "--model", model, "--data", query,
            "--k", ",".join(map(str, K_LIST)), "--quiet"]
    if has_domains(spec):
        argv += ["--domain-column", "domain"]
    return argv


def train_eval(cli, spec: dict, inputs: dict, model: str, gate: Gate,
               clock: Clock | None = None, tracer=None) -> dict:
    """One `dynhd train` + `dynhd eval` pair, checked; with ``clock``,
    each call's CPU time is recorded there."""
    span = (tracer.span if tracer is not None
            else lambda name: contextlib.nullcontext())
    with span("bench.train"):
        train_s, train_cpu_s, train_records = call_cli(
            cli, ["train", "--config", inputs["config"], "--out", model,
                  "--quiet"], gate, "train")
    if clock is not None:
        clock.record("train", train_cpu_s)
    with span("bench.eval"):
        eval_s, eval_cpu_s, eval_records = call_cli(
            cli, eval_argv(model, inputs["query_csv"], spec), gate, "eval")
    if clock is not None:
        clock.record("eval", eval_cpu_s)
    acc = {r["k"]: r["value"] for r in eval_records
           if r.get("experiment") == "eval"}
    values = [acc.get(k) for k in K_LIST]
    gate.check(None not in values and all(0.0 <= v <= 1.0 for v in values)
               and values == sorted(values),
               f"top-k accuracies {values} not in [0, 1] and non-decreasing")
    return {"train_s": train_s, "eval_s": eval_s,
            "train_records": train_records, "accuracy": values,
            "model_sha256": sha256_of(model),
            "model_bytes": (os.path.getsize(model)
                            if os.path.exists(model) else None)}


def library_top1(dynhd, spec: dict, model: str, query: str):
    """Top-1 of the saved model on the query CSV through the library API,
    and the model's encoder draw counter."""
    enc, cls, stats = dynhd.load_model(model)
    ds = dynhd.load_csv(query, "label",
                        "domain" if has_domains(spec) else None)
    ds = dynhd.remap_labels(ds, cls.labels)
    if stats is not None:
        ds = dynhd.apply_normalizer(stats, ds)
    return dynhd.topk_accuracy(cls, enc, ds, 1), enc.draw_counter


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(name: str, spec: dict, seed: int, seconds: float,
                 trace: bool, truncate_model: bool = False) -> dict:
    """Set up, load, check and measure one workload; returns the records
    to print.  ``truncate_model`` feeds eval a truncated copy of a model
    file once more, which must count as one failed operation."""
    gate = Gate()
    n_sets = spec["datasets"]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        clock = Clock()
        setup_walls, outputs = set_up(spec, seed, work, clock)
        digests = [[input_digest(d) for d in o] for o in outputs]
        gate.check(all(d == digests[0] for d in digests),
                   "set-up runs wrote different inputs")
        inputs = outputs[0]
        models = [os.path.join(work, f"model{j}.json") for j in range(n_sets)]

        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import dynhd
        import dynhd.cli as cli

        pairs = []
        deadline = time.perf_counter() + seconds
        while len(pairs) < n_sets or time.perf_counter() < deadline:
            j = len(pairs) % n_sets
            pairs.append(train_eval(cli, spec, inputs[j], models[j], gate,
                                    clock))
        firsts = pairs[:n_sets]
        gate.check(all(p["model_sha256"] == firsts[i % n_sets]["model_sha256"]
                       and p["accuracy"] == firsts[i % n_sets]["accuracy"]
                       for i, p in enumerate(pairs)),
                   "repeated train + eval pairs disagree")

        draw_counters = []
        for j, first in enumerate(firsts):
            try:
                lib_top1, draws = library_top1(dynhd, spec, models[j],
                                               inputs[j]["query_csv"])
                draw_counters.append(draws)
                gate.check(lib_top1 == first["accuracy"][0],
                           f"dataset {j}: library top-1 {lib_top1} != "
                           f"CLI top-1 {first['accuracy'][0]}")
            except Exception as exc:
                gate.check(False, f"dataset {j}: library top-1 failed: "
                                  f"{exc!r}")

        if truncate_model:
            broken = os.path.join(work, "truncated.json")
            with open(models[0], "rb") as src, open(broken, "wb") as dst:
                dst.write(src.read(os.path.getsize(models[0]) // 2))
            call_cli(cli, eval_argv(broken, inputs[0]["query_csv"], spec),
                     gate, "eval of a truncated model file")

        def mean_of(values):
            return None if None in values else statistics.fmean(values)

        train_s = statistics.median(clock.scaled("train"))
        eval_s = statistics.median(clock.scaled("eval"))
        model_bytes = mean_of([p["model_bytes"] for p in firsts])
        end_to_end = {
            "train_s": (train_s, "s"),
            "eval_s": (eval_s, "s"),
            "top1_accuracy": (mean_of([p["accuracy"][0] for p in firsts]),
                              "fraction"),
            "model_file_mb": (None if model_bytes is None
                              else model_bytes / 1e6, "MB"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(clock.scaled("setup")), "s"),
        }
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end.items()}

        span_rows = None
        if trace:
            # The traced pair repeats dataset 0; its untraced pairs are the
            # reference for the tracing overhead and the CLI's wall times.
            same = pairs[0::n_sets]
            tracer = tracing.Tracer()
            tracer.install(dynhd)
            try:
                traced = train_eval(cli, spec, inputs[0], models[0], gate,
                                    tracer=tracer)
            finally:
                tracer.uninstall()
            gate.check(traced["model_sha256"] == firsts[0]["model_sha256"]
                       and traced["accuracy"] == firsts[0]["accuracy"],
                       "traced run's model file or accuracies differ from "
                       "the untraced run's")

            def record_s(kind: str) -> float:
                return statistics.median(
                    sum(r["wall_ms"] for r in p["train_records"]
                        if r.get("type") == kind) / 1e3 for p in same)

            metrics = tracing.layer_metrics(tracer.spans, {
                "n": spec["data"]["n"], "dim": spec["train"]["dim"],
                "model_bytes": traced["model_bytes"] or 0,
                "draw_counter": draw_counters[0] if draw_counters else None,
                "traced_train_records": traced["train_records"],
                "untraced_epoch_s": record_s("epoch"),
                "untraced_round_s": record_s("round"),
                "untraced_train_s": statistics.median(
                    p["train_s"] for p in same),
                "untraced_eval_s": statistics.median(
                    p["eval_s"] for p in same),
            })
            span_rows = tracing.span_table(tracer.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    failed = len(gate.failures)
    summary = {
        "workload": name, "seed": seed, "rows": rows_of(spec),
        "datasets": n_sets, "pairs": len(pairs),
        "reference_cpu_s": clock.samples(),
        "train_wall_s": [p["train_s"] for p in pairs],
        "train_cpu_s": clock.samples("train"),
        "train_scaled_s": clock.scaled("train"),
        "train_scaled_s_quartiles": quartiles(clock.scaled("train")),
        "eval_wall_s": [p["eval_s"] for p in pairs],
        "eval_cpu_s": clock.samples("eval"),
        "eval_scaled_s": clock.scaled("eval"),
        "eval_scaled_s_quartiles": quartiles(clock.scaled("eval")),
        "setup_wall_s": setup_walls,
        "setup_cpu_s": clock.samples("setup"),
        "setup_scaled_s": clock.scaled("setup"),
        "top_k_accuracy": [dict(zip(map(str, K_LIST), p["accuracy"]))
                           for p in firsts],
        "failure_rate": {"value": failed / gate.attempted, "unit": "fraction",
                         "failed": failed, "attempted": gate.attempted},
        "failures": gate.failures,
    }
    return {
        "summary": summary, "spans": span_rows,
        "result": {"correct": failed == 0, "attempted": gate.attempted,
                   "failed": failed, "metrics": metrics},
    }


def main(argv=None, workloads=WORKLOADS, truncate_model=False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "dynhd", "cli.py")):
        print(f"error: no dynhd sources under {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment(args.workload, args.seed)}))
    try:
        out = run_workload(args.workload, workloads[args.workload],
                           args.seed, args.seconds, bool(args.trace),
                           truncate_model)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out["spans"]:
        print(f"{'span':44s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s}",
              file=sys.stderr)
        for name, calls, tot, own in out["spans"][:30]:
            print(f"{name:44s} {calls:8d} {tot:9.4f} {own:9.4f}",
                  file=sys.stderr)
    print(json.dumps({"summary": out["summary"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
