"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import signal
import time

import numpy as np
import pytest

import run

MODULES = run.load_package()

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aetlab import harness, image_attack  # noqa: E402
from aetlab.core import AttackConfig  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (running past the root's end); [1, 3] has a grandchild [1.5, 2.5]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    st = tracing.self_times(start, end, parent)
    # the root's children cover [1, 5] and [8, 10]: 6 of its 10 seconds
    np.testing.assert_allclose(st, [4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_without_children_is_duration():
    np.testing.assert_allclose(tracing.self_times([0.5, 2.0], [1.5, 2.25], [-1, -1]), [1.0, 0.25])


def test_self_times_sum_to_root_duration_when_nested():
    start = [0.0, 1.0, 1.5, 4.0]
    end = [6.0, 3.0, 2.0, 5.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).sum() == pytest.approx(6.0)


def test_count_formulas_match_the_stated_invariants():
    cfg = AttackConfig()
    for variant in ("saaet", "dra", "subtriangle-C"):
        assert workloads.grads_per_pair(cfg, variant) == 95
    assert workloads.grads_per_pair(cfg, "sga") == 59
    assert workloads.candidates_per_pair(cfg, harness.DatasetDims().caption_len) == 51
    cheap = AttackConfig(steps=2, samples=1, scales=(1.0,))
    assert workloads.grads_per_pair(cheap, "saaet") == 3


@pytest.mark.parametrize("variant", ["saaet", "sga"])
def test_traced_counts_match_formula_and_originals_are_restored(variant):
    ds = harness.synth_dataset(0, 2, dims=harness.DatasetDims(embed_dim=16))
    cfg = AttackConfig(master_seed=0)
    original = image_attack.grad_loss_wrt_image
    tracer = tracing.Tracer()
    tracer.set_context(0, variant)
    with tracer.installed(MODULES):
        harness.craft_adversarial_pairs(ds, ds.base, cfg, variant)
    assert image_attack.grad_loss_wrt_image is original
    counts = tracer.counts[f"0/{variant}"]
    for name, want in workloads.attack_counts(cfg, variant, ds.n_pairs).items():
        assert counts[name] == want, name
    metrics = tracer.layer_metrics([f"0/{variant}"])
    assert metrics["image_attack.calls"][0] == 2
    assert metrics["encoders.grad_s"][0] > 0.0
    pairs = {ctx[3] for ctx in tracer.contexts}
    assert {0, 1} <= pairs


def test_compare_uses_printed_precision():
    ref = {"transfer_tr_asr": 82.27238873341157, "transfer_alpha": 0.42492036362981417,
           "header": "surrogate,target", "cells": 16}
    assert workloads.compare(dict(ref), ref) == []
    assert workloads.compare(dict(ref, transfer_tr_asr=82.2725), ref) == []
    assert workloads.compare(dict(ref, transfer_alpha=0.42495), ref) == []
    assert len(workloads.compare(dict(ref, transfer_tr_asr=82.26), ref)) == 1
    assert len(workloads.compare(dict(ref, transfer_alpha=0.4239), ref)) == 1
    assert len(workloads.compare(dict(ref, header="surrogate"), ref)) == 1
    assert len(workloads.compare({k: v for k, v in ref.items() if k != "cells"}, ref)) == 1


def test_perturbed_reference_fails_the_operation_not_the_benchmark():
    reference = json.loads((run.BENCH / "reference.json").read_text())
    recorded = reference["sweep"]["0"]["saaet"]
    step = workloads.Step("saaet", lambda: dict(recorded), lambda raw: raw, lambda facts: [])
    tally = run.Tally()
    assert run.run_step(step, 0, {"saaet": recorded}, tally) is not None
    assert tally.failed == 0
    perturbed = dict(recorded, transfer_tr_asr=recorded["transfer_tr_asr"] + 0.01)
    assert run.run_step(step, 0, {"saaet": perturbed}, tally) is not None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "transfer_tr_asr" in tally.problems[0]


def test_seeds_without_reference_are_named():
    wl = workloads.WORKLOADS["sweep"]
    reference = {"sweep": {"0": {}}}
    missing, note = run.unreferenced(wl, [0, 1], reference)
    assert missing == [1]
    assert "[1]" in note[0] and "invariants only" in note[0]
    assert run.unreferenced(wl, [0], reference) == ([], [])


def test_setup_probes_come_in_pairs_with_the_baseline():
    (probe, baseline), = run.measure_setup(1)
    assert probe > 0.0 and baseline > 0.0


def test_raising_step_counts_as_failed():
    def boom():
        raise harness.DegenerateAlphaError("zero loss increase")

    tally = run.Tally()
    step = workloads.Step("saaet", boom, lambda raw: raw, lambda facts: [])
    assert run.run_step(step, 0, {}, tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_host_clock_samples_on_a_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    start = time.perf_counter()
    with clock.running():
        while time.perf_counter() - start < 3 * hostclock.INTERVAL_S:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 2
    assert clock.busy == pytest.approx(sum(clock.samples), rel=0.2)
    assert clock.scale() == pytest.approx(hostclock.REFERENCE_S / np.mean(clock.samples))


def test_benchmark_json_matches_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layer == {**{k: u for k, (u, _) in tracing.LAYER_METRICS.items()}, "trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOAD_NAMES)
    layer_map = json.loads((run.BENCH / "metrics.json").read_text())["layer_map"]
    assert set(layer_map) == set(layer)
