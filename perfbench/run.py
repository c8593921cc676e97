#!/usr/bin/env python3
"""aetlab benchmark.

    python3 perfbench/run.py --workload {sweep,gallery,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. The workloads are defined in
``workloads.py``: each iteration is a fixed amount of work for one seed, and
iteration k of a run uses seed N + k.

--trace 0 repeats iterations until the next one would end more than S
seconds after the run's start, set-up probes included (at least two), then reports the end-to-end metrics: ``pairs_per_s`` and
``roundtrip_s`` from the median iteration time; ``setup_s``, the median
wall time of several fresh processes that import the package and warm its
caches; and ``peak_rss_mb``. Times are corrected for the host's speed
drift, which reaches a quarter either way: each iteration by the
``hostclock.py`` samples taken while it ran, each set-up probe by a fresh
process that imports only numpy, started right after it. The uncorrected
times are printed too. It also prints the error rate and the saaet - sga
transfer gaps, which are checked against ``reference.json`` rather than
bounded. Seeds without a reference entry are named in the output: their
outputs are checked against the invariants only.

--trace 1 runs one iteration with every trace point of ``tracing.py``
installed and reports the per-layer metrics, then runs each of the
workload's repeat steps untraced, traced, traced and untraced again: the
difference of the means is the tracing overhead, and every traced run's call
counts must equal the first pass's exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A step that raises or whose output fails its
check counts as failed. Results, with a host record, and the spans of a
traced run are written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep", "gallery", "cli")
# One BLAS thread: the matrices are at most 144 wide, so more threads only
# add contention. It is never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 2
SETUP_PROBES = 11
# A fresh interpreter that imports only numpy: a dependency's start, which
# no change to the package moves, while the host's speed moves it as much as
# the package's set-up (the ratio of the two spread 0.04 where either alone
# spread 0.25). About its wall time on an unloaded 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4); it only fixes the scale of the corrected set-up time.
BASELINE_PROBE = ("-c", "import numpy; print('ready', flush=True)")
BASELINE_REFERENCE_S = 0.15
PACKAGE_MODULES = (
    "aetlab.core", "aetlab.encoders", "aetlab.subspace", "aetlab.image_attack",
    "aetlab.text_attack", "aetlab.theory", "aetlab.harness", "aetlab.matio", "aetlab.cli",
)
END_TO_END_UNITS = {
    "pairs_per_s": "pairs/s",
    "roundtrip_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (e.g. it has no package source)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="aetlab benchmark")
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.probe and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_package() -> dict:
    """Import aetlab from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "aetlab" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(name) for name in PACKAGE_MODULES}
    if Path(modules["aetlab.core"].__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"aetlab was imported from outside {src}")
    return modules


def warm_up(modules) -> None:
    """Fill the scale-augmentation round-trip cache for the 12x12 images."""
    core = modules["aetlab.core"]
    import numpy as np

    for scale in core.DEFAULT_SCALES:
        core.scale_augment_adjoint(np.zeros((12, 12)), (12, 12), scale)


def time_to_ready(args) -> float:
    """Wall time from starting a fresh interpreter with args until it prints
    ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"set-up probe {args} did not get ready")
    return elapsed


def measure_setup(n: int) -> list[tuple[float, float]]:
    """n pairs of wall times: a fresh interpreter that imports the package
    and warms up, then the baseline probe."""
    probe = (str(Path(__file__).resolve()), "--probe")
    return [(time_to_ready(probe), time_to_ready(BASELINE_PROBE)) for _ in range(n)]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_record() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "commit": git_commit(),
        "loadavg_before": os.getloadavg(),
    }


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def fail(self, seed, step, reasons) -> None:
        self.failed += 1
        self.problems.extend(f"seed {seed} {step}: {r}" for r in reasons)


def run_step(st, seed, ref, tally, timer=None, clock=None):
    """Run, time, observe and check one step; returns (seconds, facts) or
    None when the step failed to run. Time the running clock spent sampling
    is not counted."""
    tally.attempted += 1
    busy = clock.busy if clock else 0.0
    try:
        t0 = time.perf_counter()
        raw = timer(st.run) if timer else st.run()
        elapsed = time.perf_counter() - t0 - ((clock.busy - busy) if clock else 0.0)
        facts = st.observe(raw)
    except Exception as exc:  # a failing operation is counted, not fatal
        tally.fail(seed, st.name, [f"{type(exc).__name__}: {exc}"])
        return None
    from workloads import compare

    problems = st.invariants(facts) + compare(facts, ref.get(st.name, {}))
    if problems:
        tally.fail(seed, st.name, problems)
    return elapsed, facts


def run_iteration(wl, seed, reference, tally, workdir, clock=None):
    t0 = time.perf_counter()
    ref = reference.get(wl.name, {}).get(str(seed), {})
    times, facts, pairs = {}, {}, 0
    try:
        for st in wl.iteration(seed, workdir):
            done = run_step(st, seed, ref, tally, clock=clock)
            if done is not None:
                times[st.name], facts[st.name] = done
            pairs += st.pairs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seed": seed, "time": sum(times.values()), "wall": time.perf_counter() - t0,
            "pairs": pairs, "steps": times, "facts": facts}


def run_timed(wl, seed, start, seconds, reference, tally, workdir, clock):
    """Iterations on seeds seed, seed+1, ... until the next would end later
    than seconds after start. Each iteration's time is also given at
    reference host speed, from the clock samples taken while it ran."""
    iterations = []
    clock.sample()
    with clock.running():
        while True:
            k = len(iterations)
            first_sample = len(clock.samples)
            it = run_iteration(wl, seed + k, reference, tally, workdir / f"it{k}", clock)
            # an iteration shorter than the sampling interval takes the run's speed
            it["scale"] = clock.scale(first_sample if len(clock.samples) > first_sample else 0)
            it["corrected"] = it["time"] * it["scale"]
            iterations.append(it)
            walls = [it["wall"] for it in iterations]
            if k + 1 >= MIN_ITERATIONS and time.perf_counter() - start + statistics.median(walls) > seconds:
                return iterations


def run_traced(wl, seed, reference, tally, modules, workdir):
    """One traced iteration, then the repeat steps untraced and traced."""
    from tracing import Tracer

    tracer = Tracer()
    ref = reference.get(wl.name, {}).get(str(seed), {})

    def traced(st, label):
        def timer(fn):
            tracer.set_context(seed, label)
            with tracer.installed(modules):
                return fn()
        return run_step(st, seed, ref, tally, timer)

    steps = wl.iteration(seed, workdir)
    first = {st.name: traced(st, st.name) for st in steps}
    for st in steps:
        counts = tracer.counts.get(f"{seed}/{st.name}", {})
        wrong = [f"{k}: {counts.get(k, 0)} calls, expected {v}"
                 for k, v in st.expected.items() if counts.get(k, 0) != v]
        if wrong:
            tally.fail(seed, st.name, wrong)
    untraced_s = traced_s = 0.0
    for st in steps:
        if st.name not in wl.repeat or first[st.name] is None:
            continue
        # untraced, traced, traced, untraced: a linear drift in host speed
        # cancels out of the overhead
        runs = [run_step(st, seed, ref, tally), traced(st, st.name + "#repeat1"),
                traced(st, st.name + "#repeat2"), run_step(st, seed, ref, tally)]
        if None in runs:
            continue
        untraced_s += (runs[0][0] + runs[3][0]) / 2
        traced_s += (runs[1][0] + runs[2][0]) / 2
        if any(tracer.counts[f"{seed}/{st.name}#repeat{k}"] != tracer.counts[f"{seed}/{st.name}"]
               for k in (1, 2)):
            tally.fail(seed, st.name, ["call counts differ between traced runs"])
        if any(facts != first[st.name][1] for _, facts in runs):
            tally.fail(seed, st.name, ["outputs differ between repeated runs"])
    first_pass = [f"{seed}/{st.name}" for st in steps]
    metrics = tracer.layer_metrics(first_pass, lambda ctx: "#repeat" not in ctx[1])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, tracer, {"repeat_untraced_s": untraced_s, "repeat_traced_s": traced_s,
                             "repeat_steps": list(wl.repeat)}


def emit(tally, metrics, lines) -> None:
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def unreferenced(wl, seeds, reference) -> tuple[list, list]:
    """The seeds without a reference entry, and a line naming them."""
    missing = [s for s in seeds if str(s) not in reference.get(wl.name, {})]
    if not missing:
        return missing, []
    return missing, [f"  seeds {missing} have no entry in reference.json: "
                     "their outputs were checked against the invariants only"]


def traced_report(wl, seed, reference, tally, modules, workdir):
    metrics, tracer, record = run_traced(wl, seed, reference, tally, modules, workdir)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.npz")
    record["unreferenced_seeds"], note = unreferenced(wl, [seed], reference)
    lines = [f"workload {wl.name} seed {seed}: one traced iteration, "
             f"overhead measured on {', '.join(wl.repeat)}", *note]
    lines += [f"  {k:36s} {v:14.6g} {u}" for k, (v, u) in metrics.items()]
    return metrics, lines, record


def timed_report(wl, seed, seconds, reference, tally, workdir):
    from hostclock import HostClock

    clock = HostClock()
    start = time.perf_counter()
    setup = measure_setup(SETUP_PROBES)
    iterations = run_timed(wl, seed, start, seconds, reference, tally, workdir, clock)
    raw = statistics.median(it["time"] for it in iterations)
    median = statistics.median(it["corrected"] for it in iterations)
    pairs = iterations[0]["pairs"]
    metrics = {
        "pairs_per_s": (pairs / median, END_TO_END_UNITS["pairs_per_s"]),
        "roundtrip_s": (median, END_TO_END_UNITS["roundtrip_s"]),
        "setup_s": (statistics.median(p * BASELINE_REFERENCE_S / b for p, b in setup),
                    END_TO_END_UNITS["setup_s"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        END_TO_END_UNITS["peak_rss_mb"]),
    }
    gaps = [wl.gaps(it["facts"]) for it in iterations if {"saaet", "sga"} <= it["facts"].keys()]
    gap_means = {k: statistics.fmean(g[k] for g in gaps) for k in (gaps[0] if gaps else {})}
    seeds = [it["seed"] for it in iterations]
    missing, note = unreferenced(wl, seeds, reference)
    lines = [f"workload {wl.name}: {len(iterations)} iterations on seeds "
             f"{seeds[0]}..{seeds[-1]}, {pairs} attacks each; {SETUP_PROBES} set-up probes", *note]
    lines += [f"  {k:20s} {v:14.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  {'host slowdown':20s} {raw / median:14.6g} x reference "
                 f"(uncorrected: roundtrip {raw:.6g} s, "
                 f"setup {statistics.median(p for p, _ in setup):.6g} s; {len(clock.samples)} clock samples)")
    lines.append(f"  {'error_rate':20s} {tally.failed:>7d}/{tally.attempted:<6d} failed/attempted")
    for name, unit in (("transfer_asr_gap", "ASR points"), ("transfer_alpha_gap", "ratio")):
        value = f"{gap_means[name]:14.6g}" if name in gap_means else f"{'n/a':>14s}"
        lines.append(f"  {name:20s} {value} {unit}")
    return metrics, lines, {"setup_probes_s": setup, "iterations": iterations, "gaps": gap_means,
                            "unreferenced_seeds": missing,
                            "clock_samples_s": clock.samples, "clock_scale": clock.scale()}


def run_workload(args, modules) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())
    host = host_record()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics, lines, record = traced_report(wl, args.seed, reference, tally, modules, workdir)
        else:
            metrics, lines, record = timed_report(wl, args.seed, args.seconds, reference, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_after"] = os.getloadavg()
    lines.append("host " + json.dumps(host))
    record.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  host=host, correct=tally.failed == 0, attempted=tally.attempted,
                  failed=tally.failed, problems=tally.problems, metrics=metrics)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    emit(tally, metrics, lines)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that its peak RSS
    is its own; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    try:
        modules = load_package()
        warm_up(modules)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        print("ready", flush=True)
        return 0
    return run_workload(args, modules)


if __name__ == "__main__":
    sys.exit(main())
