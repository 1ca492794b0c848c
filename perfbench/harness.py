"""Runs one workload: set-up, timed repeats, checks, metrics, machine record.

An untraced run patches nothing. It sets up ``SETUPS_FIRST`` times, then
repeats the workload's pipeline until the next repeat would end past the
time budget (at least ``MIN_REPEATS``), setting up ``SETUPS_PER_REPEAT``
more times after each repeat so set-up times sample the whole run. It
reports medians over set-ups and over repeats. Set-ups and repeats of one
seed must give identical bytes; a mismatch is a failed operation.

A traced run sets up once with the tracer installed, then alternates
untraced and traced repeats, so ``trace.overhead_share`` compares repeats
of one process. That difference is mostly the machine's drift, so
``trace.wrapper_share`` also estimates the overhead from the wrapped calls
a repeat makes and the measured cost of one wrapped call.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

import spans
import workloads
from workloads import Ops, RepeatAborted, check

SETUPS_FIRST = 3
SETUPS_PER_REPEAT = 6
MIN_REPEATS = 2

# (name, unit, better) of the end-to-end metrics every untraced run reports
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("train.tokens_per_s", "tok/s", "higher"),
    ("train.examples_per_s", "ex/s", "higher"),
    ("pipeline_s", "s", "lower"),
]

# (name, unit, sample key, work key) of the finetune stages printed for reading
STAGES = [
    ("predict.texts_per_s", "texts/s", "predict_s", "test_texts"),
    ("features.texts_per_s", "texts/s", "features_s", "anxiety_texts"),
    ("bow.fit_s", "s", "bow_s", None),
]

clock = time.perf_counter


def ratio(num: float, den: float) -> float:
    """num / den, with 0.0 for an empty base so a ratio never raises."""
    return num / den if den else 0.0


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, if numpy links the bundled OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _busy_cpu_s() -> float | None:
    """CPU seconds all processes have used since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    idle = ticks[3] + ticks[4]
    return (sum(ticks) - idle) / os.sysconf("SC_CLK_TCK")


def _own_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class LoadGuard:
    """Whether other processes used the cores while the workload ran.

    Load averages are recorded as asked, but a back-to-back series of runs
    raises them by itself; the verdict uses the CPU time the whole machine
    spent beyond this process's own, per second of wall time.
    """

    MAX_OTHER_CORES = 0.25

    def __init__(self):
        self.load_before = os.getloadavg()[0]
        self.busy0, self.own0, self.t0 = _busy_cpu_s(), _own_cpu_s(), clock()

    def finish(self) -> dict:
        wall = clock() - self.t0
        busy1, own1 = _busy_cpu_s(), _own_cpu_s()
        others = None
        if self.busy0 is not None and busy1 is not None:
            others = max(0.0, (busy1 - self.busy0) - (own1 - self.own0)) / wall
        return {
            "load1_before": self.load_before,
            "load1_after": os.getloadavg()[0],
            "other_cores": others,
            "trusted": others is not None and others < self.MAX_OTHER_CORES,
        }


def _new_dir(root: str) -> str:
    return tempfile.mkdtemp(dir=root)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: str,
                 workload=None) -> dict:
    """Run one workload and return its full record (metrics, ops, machine)."""
    wl = workload or workloads.WORKLOADS[name]
    guard = LoadGuard()
    ops = Ops()
    work_root = tempfile.mkdtemp(prefix="work-", dir=out_root)
    tracer = spans.Tracer() if trace else None
    setup_s: list[float] = []
    reference_setup = None

    def timed_setup():
        nonlocal reference_setup
        t = clock()
        inputs, fingerprint = wl.setup(seed, _new_dir(work_root))
        setup_s.append(clock() - t)
        if reference_setup is None:
            reference_setup = fingerprint
        else:
            try:
                with ops.op("setup-rerun"):
                    check(fingerprint == reference_setup, "set-up is not deterministic")
            except RepeatAborted:
                pass
        return inputs

    try:
        if trace:
            with tracer.installed(spans.SETUP_PHASE):
                inputs, _ = wl.setup(seed, _new_dir(work_root))
        else:
            for _ in range(SETUPS_FIRST):
                inputs = timed_setup()
        work = wl.work(inputs, seed)

        repeats = []
        reference = None
        start = clock()
        attempts = 0
        while True:
            traced = trace and attempts % 2 == 1
            phase = f"repeat-{attempts}"
            out = _new_dir(work_root)
            t = clock()
            try:
                if traced:
                    with tracer.installed(phase):
                        samples, digests = wl.repeat(inputs, seed, out, ops)
                else:
                    samples, digests = wl.repeat(inputs, seed, out, ops)
                wall = clock() - t
                if reference is None:
                    reference = digests
                else:
                    with ops.op("rerun"):
                        changed = sorted(k for k in set(digests) | set(reference)
                                         if digests.get(k) != reference.get(k))
                        check(not changed, f"rerun wrote different bytes: {changed}")
                repeats.append({"phase": phase, "traced": traced, "wall_s": wall, **samples})
            except RepeatAborted:
                pass
            shutil.rmtree(out)
            if not trace:
                for _ in range(SETUPS_PER_REPEAT):
                    timed_setup()
            attempts += 1
            # stop when one more repeat and its set-ups would end past the budget
            now = clock()
            if attempts >= MIN_REPEATS and now - start + (now - t) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(work_root, ignore_errors=True)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(seed),
        "load": guard.finish(),
        "work": work,
        "setup_s": setup_s,
        "repeats": repeats,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
    }
    if trace:
        record["metrics"] = _traced_metrics(tracer, repeats)
        tracer.dump(os.path.join(out_root, f"{name}-seed{seed}.spans.json"))
    else:
        record["metrics"] = _end_to_end(setup_s, repeats, work)
        record["stages"] = _stages(repeats, work)
    return record


def _end_to_end(setup_s, repeats, work) -> dict:
    if not repeats:
        return {}
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train.tokens_per_s": statistics.median(work["tokens"] / r["train_s"]
                                                for r in repeats),
        "train.examples_per_s": statistics.median(work["examples"] / r["train_s"]
                                                  for r in repeats),
        "pipeline_s": statistics.median(r["wall_s"] for r in repeats),
    }


def _stages(repeats, work) -> dict:
    out = {}
    for name, _, key, work_key in STAGES:
        times = [r[key] for r in repeats if key in r]
        if times:
            t = statistics.median(times)
            out[name] = work[work_key] / t if work_key else t
    return out


def _traced_metrics(tracer, repeats) -> dict:
    traced = [r for r in repeats if r["traced"]]
    plain = [r for r in repeats if not r["traced"]]
    if not traced or not plain:
        return {}
    out = tracer.layer_metrics([r["phase"] for r in traced])
    out["model.encoder_forward.peak_mb"] = tracer.replay_peak_mb()
    traced_s = statistics.median(r["wall_s"] for r in traced)
    plain_s = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_share"] = ratio(traced_s - plain_s, plain_s)
    out["trace.wrapper_call_us"] = spans.wrapper_call_us()
    phases = {r["phase"] for r in traced}
    calls = sum(1 for span in tracer.spans if span[1] in phases) / len(phases)
    out["trace.wrapper_share"] = calls * out["trace.wrapper_call_us"] * 1e-6 / traced_s
    return out
