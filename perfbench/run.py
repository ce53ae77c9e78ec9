#!/usr/bin/env python3
"""Benchmark of the langaug pipeline through its public CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload {bridge,loo,theory} --seed N \
        --seconds S --trace {0,1}

Each workload writes a generated config (the seed becomes ``base_seed``),
sets up several times, then repeats its timed CLI stages (``langaug.cli.run``)
until the next repetition would overrun ``--seconds``. Every stage call is
one operation; its outputs are checked, and a failed check counts it as
failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics, measured with every layer function wrapped by ``layertrace``.
See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
np = None                 # numpy, imported with the program so its import is timed

JOBS = 1

# Geometry of scripts/configs/toy.json: 4 domains (12 ordered pairs), 1x16x16
# images, 2 conv blocks, CD batch 8 with 15 Langevin steps, 15 training
# images per domain, 40-step bridge chains storing 13 iterates each.
TOY = {
    "data": {"n_domains": 4, "n_per_domain": 50, "image_size": 16, "channels": 1,
             "train_frac": 0.3},
    "ebm": {"kind": "conv", "conv_blocks": 2,
            "cd": {"n_iters": 150, "batch_size": 8, "step_size": 0.1, "n_steps": 15,
                   "lr": 0.001}},
    "langevin": {"step_size": 0.02, "n_steps": 40, "store_stride": 3, "store_offset": 3,
                 "clamp_unit": True},
    "augment": {"mix_ratio": 0.5},
    "segmenter": {"epochs": 40, "batch_size": 8, "lr": 0.003, "seeds": [0, 1, 2, 3, 4]},
}
BRIDGE_CD_ITERS = 2       # per timed train-ebms call
LOO_CD_ITERS = 3          # set-up models for the loo workload
LOO_SEG_EPOCHS = 8
LOO_SEG_SEEDS = [0]

# scripts/configs/theory.json and theory_bound.json without their base_seed.
THEORY_CONFIGS = {
    "logistic": {"theory": {
        "family": "logistic", "k": 200, "dim": 2, "sigma_scale": 0.49, "theta": [1.0, -0.5],
        "betas": [0.02, 0.04, 0.08, 0.16], "n_mc": 4096, "probe_count": 1000,
        "ambient_dims": [2, 20, 200], "delta": 0.05}},
    "gaussian_bound": {"theory": {
        "family": "gaussian", "k": 200, "dim": 2, "sigma_scale": 0.49, "theta": [1.0, 0.5],
        "betas": [0.02, 0.04, 0.08, 0.16], "n_mc": 4096, "probe_count": 600,
        "probe_radii": [4.0, 4.5, 5.0], "ambient_dims": [2, 20, 200], "delta": 0.05}},
}
THEORY_SEEDS = 2          # consecutive base seeds per repetition

PROBE_LOOPS = {"interpreter": 125, "vector": 3}   # 5 ms or more per sample
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 0.005   # sample time that scaled stage times are referred to


# -- outputs: reading and checking ----------------------------------------------

def read_ldtn(path):
    """Header dims and float payload of an LDTN tensor file (format in README)."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"LDTN" or blob[4] != 1 or blob[5] not in (0, 1):
        raise ValueError(f"{path}: not an LDTN v1 tensor")
    ndim = blob[6]
    dims = struct.unpack(f"<{ndim}Q", blob[8:8 + 8 * ndim])
    data = np.frombuffer(blob[8 + 8 * ndim:], dtype="<f4" if blob[5] == 0 else "<f8")
    if data.size != math.prod(dims):
        raise ValueError(f"{path}: payload does not match dims {dims}")
    return dims, data


def digest(base, paths):
    """sha256 over (path relative to base, bytes) of each file, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(f"{path.relative_to(base)}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ordered_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def check_gen_data(out, config):
    meta = json.loads((out / "dataset" / "benchmark.meta.json").read_text())
    want = [config["data"]["n_per_domain"]] * config["data"]["n_domains"]
    return None if meta["counts"] == want else f"counts {meta['counts']} != {want}"


def check_train_ebms(out, config):
    n_iters = config["ebm"]["cd"]["n_iters"]
    for i, j in ordered_pairs(config["data"]["n_domains"]):
        _, theta = read_ldtn(out / "ebms" / f"ebm_{i}_{j}.ldtn")
        if theta.size == 0 or not np.isfinite(theta).all():
            return f"ebm_{i}_{j}: empty or non-finite parameters"
        with open(out / "ebms" / f"trace_{i}_{j}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_iters or not all(math.isfinite(float(r["cd_surrogate"])) for r in rows):
            return f"trace_{i}_{j}: {len(rows)} rows (want {n_iters}) or non-finite surrogate"
    return None


def stored_steps(lv):
    return list(range(lv["store_offset"], lv["n_steps"] + 1, lv["store_stride"]))


def check_augment(out, config):
    data, lv = config["data"], config["langevin"]
    n_train = int(round(data["train_frac"] * data["n_per_domain"]))
    want = len(ordered_pairs(data["n_domains"])) * n_train * len(stored_steps(lv))
    meta = json.loads((out / "aug" / "augmented.meta.json").read_text())
    dims, images = read_ldtn(out / "aug" / "augmented.images.ldtn")
    if meta["entries"] != want or dims[0] != want:
        return f"pool has {meta['entries']} entries ({dims[0]} images), want {want}"
    if meta["skipped_chains"] > 0:
        return f"{meta['skipped_chains']} chains skipped"
    if not np.isfinite(images).all():
        return "non-finite augmented image"
    return None


def loo_rows(out):
    with open(out / "loo" / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def check_eval_loo(out, config):
    rows = loo_rows(out)
    want = config["data"]["n_domains"] * 2 * len(config["segmenter"]["seeds"])
    if len(rows) != want:
        return f"results.csv has {len(rows)} rows, want {want}"
    for r in rows:
        for col in ("mean_dice", "mean_iou"):
            v = float(r[col])
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                return f"{col} {v!r} outside [0, 1] (fold {r['fold']}, {r['method']})"
    return None


def heldout_dice_gain(out):
    rows = loo_rows(out)
    mean = lambda m: statistics.fmean(float(r["mean_dice"]) for r in rows  # noqa: E731
                                      if r["method"] == m)
    return mean("erm+langaug") - mean("erm")


def check_verify_theory(out, config):
    summary = json.loads((out / "theory" / "summary.json").read_text())
    slope = summary.get("slope")
    ok = isinstance(slope, (int, float)) and math.isfinite(slope)
    return None if ok else f"summary.json slope {slope!r} is not a finite number"


# -- the run ------------------------------------------------------------------------

class SpeedProbe:
    """Samples the machine's speed while a stage call runs.

    On a shared host, co-tenant load changes the speed of this code by up to
    50% for seconds at a time. While a stage runs, an interval timer interrupts
    it every PROBE_INTERVAL_S and times a fixed numpy loop that does not touch
    langaug. The probe time is removed from the stage's wall time, and the rest
    is referred to the speed at which the loop takes PROBE_NOMINAL_S:
    scaled = (wall - probe time) * mean(PROBE_NOMINAL_S / sample).
    Contention slows interpreter-bound and vectorised code by different
    amounts, so each workload picks the loop ``kind`` that resembles its cost.
    """

    def __init__(self, kind):
        # Preallocated operands and outputs: a sample allocates no array, so
        # probing at random moments leaves the program's heap layout alone.
        self.kind = kind
        self.w = np.linspace(-1.0, 1.0, 16 * 8).reshape(16, 8)
        self.x = np.linspace(0.0, 1.0, 8 * 800).reshape(8, 800)
        self.x4 = self.x.reshape(8, 8, 10, 10)
        self.y = np.empty((16, 800))
        self.z = np.linspace(-3.0, 3.0, 2048)
        self.neg = self.z < 0
        self.e = np.empty_like(self.z)
        self.d = np.empty_like(self.z)
        self.s = np.empty_like(self.z)
        if kind == "vector":
            self.gen = np.random.Generator(np.random.Philox(0))
            self.u = np.empty(1 << 16)
            self.v = np.empty(1 << 16)
        self.on_sample = None     # called with each sample's duration
        self._loop()
        self.samples = [self._loop() for _ in range(5)]
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _loop(self):
        start = time.perf_counter()
        if self.kind == "vector":
            for _ in range(PROBE_LOOPS["vector"]):
                # long-array Philox draws and transcendentals, as in the GLM scans
                self.gen.standard_normal(out=self.u)
                np.exp(self.u, out=self.v)
                np.log1p(self.v, out=self.v)
                np.multiply(self.u, self.v, out=self.v)
            return time.perf_counter() - start
        for _ in range(PROBE_LOOPS["interpreter"]):
            # contraction planning is pure Python, as in the program's einsum calls
            np.einsum_path("ncij,oc->noij", self.x4, self.w, optimize="greedy")
            np.matmul(self.w, self.x, out=self.y)      # a small conv-sized GEMM
            np.abs(self.z, out=self.e)                 # sigmoid, split by sign
            np.negative(self.e, out=self.e)
            np.exp(self.e, out=self.e)
            np.add(self.e, 1.0, out=self.d)
            np.divide(1.0, self.d, out=self.s)
            np.divide(self.e, self.d, out=self.e)
            np.copyto(self.s, self.e, where=self.neg)
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        sample = self._loop()
        self.samples.append(sample)
        if self.on_sample:
            self.on_sample(sample)

    def speed(self, samples):
        """Mean of PROBE_NOMINAL_S / sample: > 1 when the machine runs fast."""
        return statistics.fmean(PROBE_NOMINAL_S / p for p in samples)

    def call(self, fn):
        """Run fn() under sampling; return (result, wall - probe time, scaled time)."""
        first = len(self.samples)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
        taken = self.samples[first:]
        wall -= sum(taken)
        # a call too short to be sampled takes the latest samples
        return result, wall, wall * self.speed(taken or self.samples[-5:])


class Run:
    """Operation counting, output checks, stage timing and spans for one run."""

    def __init__(self, cli, tracer, probe):
        self.cli = cli
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.timings = []         # (stage, wall seconds, scaled seconds) per call

    def stage(self, name, config_path, out, check, config):
        """One CLI stage call: one operation, timed and then checked."""
        def call():
            try:
                if self.tracer.installed:
                    with self.tracer.span("cli." + name.replace("-", "_")):
                        return self.cli.run(name, str(config_path), str(out), jobs=JOBS)
                return self.cli.run(name, str(config_path), str(out), jobs=JOBS)
            except Exception as err:  # an uncaught library error is a failed operation
                return f"{type(err).__name__}: {err}"

        rc, wall, scaled = self.probe.call(call)
        self.timings.append((name, wall, scaled))
        self.attempted += 1
        try:
            problem = f"exit {rc}" if rc != 0 else check(Path(out), config)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
            problem = f"unreadable output: {err}"
        if problem:
            self.failed += 1
            self.errors.append(f"{name}: {problem}")

    def timed(self, body):
        """Run body(); return {stage: (wall, scaled)} summed over its stage calls."""
        first = len(self.timings)
        body()
        sums = {}
        for name, wall, scaled in self.timings[first:]:
            w, s = sums.get(name, (0.0, 0.0))
            sums[name] = (w + wall, s + scaled)
        return sums

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


def write_config(path, config):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")


class Bridge:
    """gen-data as set-up, then timed CD training of all 12 pair models."""

    probe = "interpreter"
    setups = 3

    def __init__(self, seed):
        self.config = copy.deepcopy(TOY)
        self.config["base_seed"] = seed
        self.config["ebm"]["cd"]["n_iters"] = BRIDGE_CD_ITERS

    def setup(self, run, work):
        write_config(work / "config.json", self.config)
        run.stage("gen-data", work / "config.json", work, check_gen_data, self.config)
        self.work = work

    def rep(self, run):
        run.stage("train-ebms", self.work / "config.json", self.work, check_train_ebms,
                  self.config)
        return {}

    def outputs(self):
        return sorted((self.work / "ebms").glob("*.ldtn"))


class Loo:
    """gen-data and a short train-ebms as set-up, then timed augment + eval-loo."""

    probe = "interpreter"
    setups = 2

    def __init__(self, seed):
        self.config = copy.deepcopy(TOY)
        self.config["base_seed"] = seed
        self.config["ebm"]["cd"]["n_iters"] = LOO_CD_ITERS
        self.config["segmenter"]["epochs"] = LOO_SEG_EPOCHS
        self.config["segmenter"]["seeds"] = LOO_SEG_SEEDS

    def setup(self, run, work):
        write_config(work / "config.json", self.config)
        run.stage("gen-data", work / "config.json", work, check_gen_data, self.config)
        run.stage("train-ebms", work / "config.json", work, check_train_ebms, self.config)
        self.work = work

    def rep(self, run):
        cfg = self.work / "config.json"
        run.stage("augment", cfg, self.work, check_augment, self.config)
        run.stage("eval-loo", cfg, self.work, check_eval_loo, self.config)
        try:
            gain = heldout_dice_gain(self.work)
        except (OSError, ValueError, KeyError, statistics.StatisticsError):
            gain = 0.0            # eval-loo's own check has already failed the run
        return {"heldout_dice_gain": gain}

    def outputs(self):
        return sorted([*(self.work / "ebms").glob("*.ldtn"),
                       *(self.work / "aug").glob("augmented.*.ldtn"),
                       self.work / "loo" / "results.csv"])


class Theory:
    """verify-theory on both committed theory configs over consecutive base seeds."""

    probe = "vector"
    setups = 3

    def __init__(self, seed):
        self.configs = {}
        for k in range(THEORY_SEEDS):
            for family, body in THEORY_CONFIGS.items():
                cfg = copy.deepcopy(body)
                cfg["base_seed"] = seed + k
                self.configs[f"{family}_{seed + k}"] = cfg

    def setup(self, run, work):
        for name, cfg in self.configs.items():
            write_config(work / f"{name}.json", cfg)
        self.work = work

    def rep(self, run):
        draws = 0
        for name, cfg in self.configs.items():
            out = self.work / name
            run.stage("verify-theory", self.work / f"{name}.json", out, check_verify_theory, cfg)
            try:
                draws += json.loads((out / "theory" / "summary.json").read_text())["mc_draws"]
            except (OSError, KeyError, ValueError):
                pass
        return {"mc_draws": draws}

    def outputs(self):
        return sorted(self.work.glob("*/theory/report.csv"))


WORKLOADS = {"bridge": Bridge, "loo": Loo, "theory": Theory}


# -- environment --------------------------------------------------------------------

def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "load_threads_within_nproc": threads is None or threads <= nproc,
        "jobs": {stage: JOBS for stage in ("gen-data", "train-ebms", "augment", "eval-loo",
                                           "verify-theory")},
    }


# -- main ---------------------------------------------------------------------------

def import_program():
    """Import langaug from this checkout's src/ only; exit non-zero otherwise."""
    sys.path.insert(0, str(SRC))
    global np
    start = time.perf_counter()
    try:
        import numpy
        from langaug import cli
    except ImportError as err:
        sys.exit(f"perfbench: cannot import langaug from {SRC}: {err}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: langaug imported from {cli.__file__}, not from {SRC}")
    np = numpy
    return numpy, cli, time.perf_counter() - start


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scaled_total(stages):
    return sum(scaled for _, scaled in stages.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    numpy, cli, import_s = import_program()
    from layertrace import LayerTracer, census_rows, combine, layer_metrics

    workload = WORKLOADS[args.workload](args.seed)
    probe = SpeedProbe(workload.probe)
    import_scaled = import_s * probe.speed(probe.samples)
    tracer = LayerTracer()
    probe.on_sample = tracer.exclude
    run = Run(cli, tracer, probe)
    work_root = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(numpy), "import_s": import_s}
    reps, rep_outputs, digests = [], {}, set()

    def one_rep():
        rep_outputs.update(workload.rep(run))
        digests.add(digest(workload.work, workload.outputs()))

    def measure(body):
        """Repeat body() until the next repetition would overrun --seconds."""
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            body()
            if 2 * time.perf_counter() - start > deadline:
                return

    try:
        if args.trace:
            tracer.install()
            workload.setup(run, work_root / "setup0")
            tracer.uninstall()
            setup_counts = dict(tracer.counts)
            setup_census = {k: dict(v) for k, v in tracer.census.items()}
            by_mode = {False: [], True: []}

            def alternate():
                # untraced and traced repetitions alternate, untraced first
                traced = len(by_mode[False]) > len(by_mode[True])
                if traced:
                    tracer.install()
                try:
                    stages = run.timed(one_rep)
                finally:
                    tracer.uninstall()
                by_mode[traced].append(scaled_total(stages))

            measure(alternate)
            while not by_mode[True]:
                alternate()
            n = len(by_mode[True])
            counts = combine(setup_counts, tracer.counts, n)
            extra = {"trace.overhead_s": (statistics.median(by_mode[True])
                                          - statistics.median(by_mode[False])),
                     "segmenter.heldout_dice_gain": rep_outputs.get("heldout_dice_gain", 0.0),
                     "theory.mc_draws": float(rep_outputs.get("mc_draws", 0))}
            declared = spec["per_layer"]
            values = layer_metrics([m["name"] for m in declared], counts, extra)
            report["census"] = census_rows(tracer.census, n, setup_census)
            report["reps"] = {"untraced_scaled_s": by_mode[False],
                              "traced_scaled_s": by_mode[True]}
        else:
            setup_times = []
            for k in range(workload.setups):
                first, start = len(probe.samples), time.perf_counter()
                stages = run.timed(lambda: workload.setup(run, work_root / f"setup{k}"))
                wall = time.perf_counter() - start - sum(probe.samples[first:])
                # config writes and checks between stage calls are not scaled
                outside = wall - sum(w for w, _ in stages.values())
                setup_times.append(outside + scaled_total(stages))
            peak = []

            def rep():
                reps.append(run.timed(one_rep))
                if not peak:
                    # later repetitions redo the same work; they only add heap fragmentation
                    peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

            measure(rep)
            values = {"stage_s": statistics.median(scaled_total(r) for r in reps),
                      "setup_s": import_scaled + statistics.median(setup_times),
                      "peak_rss_mb": peak[0]}
            report["setup_scaled_s"] = setup_times
            report["reps"] = [{k: list(v) for k, v in r.items()} for r in reps]
            declared = spec["end_to_end"]
            for name in reps[0]:
                wall = [r[name][0] for r in reps]
                scaled = [r[name][1] for r in reps]
                q1, med, q3 = quartiles(scaled)
                print(f"{name.replace('-', '_')}_s {med:.4f} s  (scaled median of {len(scaled)}; "
                      f"q1 {q1:.4f}, q3 {q3:.4f}; wall median {statistics.median(wall):.4f} s)")
        if len(digests) > 1:
            run.fail(f"outputs differ between repetitions: {len(digests)} digests")
        report["digest"] = sorted(digests)
        report["outputs"] = rep_outputs
    finally:
        tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    for key, value in sorted(rep_outputs.items()):
        print(f"{key} {value!r}")
    print(f"digest {report['digest'][0] if report['digest'] else None}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for message in run.errors[:20]:
        print(f"FAILED {message}")
    if args.trace:
        print("conv census (computed flop and bytes, per set-up + repetition):")
        for row in report["census"]:
            print("  {direction} s{stride} n{n} c{c_in}->{c_out} h{h}: {calls:.0f} calls, "
                  "{self_s:.4f} s self, {computed_gflop:.4f} GFLOP, "
                  "{computed_mbytes:.2f} MB".format(**row))
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            sys.exit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    report["metrics"] = metrics
    WORK_ROOT.mkdir(exist_ok=True)
    (WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
