"""The benchmark's workloads.

A workload's iteration is a fixed amount of aetlab work for one seed (seeds x
variants x models x pairs), split into steps. Each step is timed on its own
and its output is checked outside the timed region: first against
seed-independent invariants written here, then, when the seed has one,
against the reference recorded in ``reference.json`` at the precision the
README prints (ASR to 2 decimals, alpha to 3).

Every call into the package goes through a module attribute
(``harness.run_transfer_experiment``, ``cli.main``) so that the traced run's
wrappers at those import sites see it.
"""
from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from aetlab import cli, harness
from aetlab.core import AttackConfig

ASR_DIGITS = 2
ALPHA_DIGITS = 3
TRACE_HEADER = "step,loss,lambda,beta,gamma,chosen_index"
REPORT_HEADER = "surrogate,target,tr_asr,ir_asr,alpha_mean,seed"
THEORY_HEADER = (
    "instance,a_moment,b_moment,identity_max_rel_err,"
    "ordering_ok,cubic_proposed,cubic_baseline,passed"
)


@dataclass
class Step:
    """One timed operation of an iteration.

    run() is the timed work; observe(raw) turns its result into a JSON-able
    dict of facts (untimed); invariants(facts) lists the problems that hold
    for every seed. pairs counts the (surrogate, pair, variant) attacks the
    step crafts; expected holds the exact call counts the traced run must see.
    """

    name: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    invariants: Callable[[dict], list]
    pairs: int = 0
    expected: dict = field(default_factory=dict)


def compare(facts: dict, ref: dict) -> list[str]:
    """Problems where facts differ from a reference entry: keys ending in
    _asr compare to 2 decimals, _alpha to 3, everything else exactly."""
    problems = []
    for key, want in ref.items():
        if key not in facts:
            problems.append(f"{key} missing")
            continue
        got = facts[key]
        if key.endswith("_asr"):
            same = f"{got:.{ASR_DIGITS}f}" == f"{want:.{ASR_DIGITS}f}"
        elif key.endswith("_alpha"):
            same = f"{got:.{ALPHA_DIGITS}f}" == f"{want:.{ALPHA_DIGITS}f}"
        else:
            same = got == want
        if not same:
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def grads_per_pair(cfg: AttackConfig, variant: str) -> int:
    """Gradient evaluations of one image attack: the initial multi-scale step,
    then per later step one per triangle sample plus one per scale."""
    run_cfg, _, _ = harness.resolve_variant(variant, cfg)
    n_scales = len(run_cfg.scales)
    return n_scales + (run_cfg.steps - 1) * (run_cfg.samples + n_scales)


def candidates_per_pair(cfg: AttackConfig, caption_len: int) -> int:
    """The original caption plus every single-word substitution."""
    return 1 + caption_len * cfg.word_list_size


def attack_counts(cfg: AttackConfig, variant: str, attacks: int) -> dict:
    """Exact call counts of `attacks` (surrogate, pair) image+caption attacks."""
    caption_len = harness.DatasetDims().caption_len
    return {
        "image_attack.run_image_attack": attacks,
        "text_attack.run_text_attack": attacks,
        "encoders.grad_loss_wrt_image": attacks * grads_per_pair(cfg, variant),
        "text_attack.score_text_candidate": attacks * candidates_per_pair(cfg, caption_len),
    }


def transfer_facts(reports) -> dict:
    return {
        "cells": len(reports),
        "transfer_tr_asr": harness.mean_transfer_asr(reports),
        "whitebox_tr_asr": harness.mean_diagonal_asr(reports),
        "transfer_alpha": harness.mean_transfer_alpha(reports),
        "diag_alpha_exact": all(r.alpha_mean == 1.0 for r in reports if r.surrogate == r.target),
    }


def _transfer_invariants(n_models: int):
    def check(facts: dict) -> list[str]:
        problems = []
        if facts["cells"] != n_models * n_models:
            problems.append(f"{facts['cells']} cells, expected {n_models * n_models}")
        if not facts["diag_alpha_exact"]:
            problems.append("white-box alpha is not exactly 1.0")
        for key in ("transfer_tr_asr", "whitebox_tr_asr"):
            if not 0.0 <= facts[key] <= 100.0:
                problems.append(f"{key} = {facts[key]} outside [0, 100]")
        return problems

    return check


class TransferWorkload:
    """Synthesise one dataset and model pool per seed, then run the transfer
    experiment once per variant."""

    def __init__(self, name, n_pairs, n_models, variants, **cfg_overrides):
        self.name = name
        self.n_pairs = n_pairs
        self.n_models = n_models
        self.variants = variants
        self.cfg_overrides = cfg_overrides
        # the traced run repeats the cheapest step to measure the tracing
        # overhead and the repeatability of its counts
        self.repeat = ("sga",)

    def iteration(self, seed: int, workdir: Path) -> list[Step]:
        state: dict = {}

        def data():
            ds = harness.synth_dataset(
                seed, self.n_pairs, dims=harness.DatasetDims(embed_dim=harness.TRANSFER_EMBED_DIM)
            )
            state["ds"] = ds
            state["pool"] = harness.default_model_pool(ds, n_models=self.n_models)
            return ds

        def data_invariants(facts):
            want = {"pairs": self.n_pairs, "models": self.n_models}
            return [f"{k} = {facts[k]}, expected {v}" for k, v in want.items() if facts[k] != v]

        steps = [
            Step(
                "data",
                data,
                lambda ds: {"pairs": ds.n_pairs, "models": len(state["pool"])},
                data_invariants,
            )
        ]
        cfg = AttackConfig(master_seed=seed, **self.cfg_overrides)
        attacks = self.n_pairs * self.n_models
        for variant in self.variants:
            steps.append(
                Step(
                    variant,
                    lambda v=variant: harness.run_transfer_experiment(
                        state["ds"], state["pool"], cfg, variant=v
                    ),
                    transfer_facts,
                    _transfer_invariants(self.n_models),
                    pairs=attacks,
                    expected=attack_counts(cfg, variant, attacks),
                )
            )
        return steps

    def gaps(self, facts_by_step: dict) -> dict:
        """saaet - sga transfer TR-ASR and alpha of one iteration."""
        saaet, sga = facts_by_step["saaet"], facts_by_step["sga"]
        return {
            "transfer_asr_gap": saaet["transfer_tr_asr"] - sga["transfer_tr_asr"],
            "transfer_alpha_gap": saaet["transfer_alpha"] - sga["transfer_alpha"],
        }


class CliWorkload:
    """One in-process round trip through `aetlab.cli.main`: synth, subspace,
    attack with saaet and with sga over all pairs, transfer on a 2-model
    pool, theory."""

    name = "cli"
    n_pairs = 100
    n_models = 2
    attack_variants = ("saaet", "sga")
    repeat = ("synth", "subspace", "attack-saaet", "attack-sga", "transfer", "theory")

    def iteration(self, seed: int, workdir: Path) -> list[Step]:
        workdir.mkdir(parents=True, exist_ok=True)
        ds_path = workdir / "dataset.txt"
        common = ["--seed", str(seed)]
        cfg = AttackConfig(master_seed=seed)
        state: dict = {}

        def clean_pairs():
            # untimed: the clean dataset the attack outputs are checked against
            if "clean" not in state:
                state["clean"] = harness.synth_dataset(
                    seed, self.n_pairs, dims=harness.DatasetDims(embed_dim=harness.TRANSFER_EMBED_DIM)
                )
            return state["clean"]

        def step(name, argv, observe, invariants, pairs=0, expected=None):
            def run():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code if isinstance(exc.code, int) else 2
                return code, out.getvalue()

            def checked(facts):
                problems = [] if facts["exit"] == 0 else [f"exit code {facts['exit']}"]
                return problems + invariants(facts)

            return Step(name, run, observe, checked, pairs, expected or {})

        def expect(**want):
            def check(facts):
                return [f"{k} = {facts.get(k)!r}, expected {v!r}" for k, v in want.items() if facts.get(k) != v]

            return check

        def synth_facts(raw):
            code, text = raw
            m = re.search(r"clean R@1 TR=([\d.]+)% IR=([\d.]+)%", text)
            return {"exit": code, "files": int(ds_path.exists()),
                    "clean_recall": m.group(0) if m else None}

        def subspace_facts(raw):
            code, text = raw
            m = re.search(r"rank (\d+)", text)
            return {"exit": code, "files": int((workdir / "projector.txt").exists()),
                    "rank": int(m.group(1)) if m else None}

        def attack_facts(out_dir):
            def facts(raw):
                code, _ = raw
                ds = clean_pairs()
                files = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
                budget_ok = caption_ok = True
                changed = 0
                for p in range(self.n_pairs):
                    adv = np.loadtxt(out_dir / f"adv_{p}.txt", skiprows=1, ndmin=2)
                    budget_ok &= bool(
                        np.max(np.abs(adv - ds.images[p])) <= cfg.eps_image + 1e-12
                        and adv.min() >= 0.0 and adv.max() <= 1.0
                    )
                    cap = tuple(int(t) for t in (out_dir / f"adv_caption_{p}.txt").read_text().split())
                    diff = sum(a != b for a, b in zip(cap, ds.captions[p]))
                    caption_ok &= len(cap) == len(ds.captions[p]) and diff <= cfg.text_budget
                    changed += diff > 0
                header = (out_dir / "trace_0.csv").read_text().splitlines()[0]
                return {"exit": code, "files": len(files), "trace_header": header,
                        "budget_ok": budget_ok, "caption_ok": caption_ok,
                        "changed_captions": changed}
            return facts

        def csv_facts(path, extra):
            def facts(raw):
                code, _ = raw
                lines = path.read_text().splitlines() if path.exists() else [""]
                rows = [line.split(",") for line in lines[1:]]
                return {"exit": code, "files": int(path.exists()), "header": lines[0],
                        "rows": len(rows), **extra(lines[0].split(","), rows)}
            return facts

        def report_values(header, rows):
            col = {name: i for i, name in enumerate(header)}
            cells = [(r[col["surrogate"]] == r[col["target"]], float(r[col["tr_asr"]]),
                      float(r[col["alpha_mean"]])) for r in rows]
            off = [c for c in cells if not c[0]] or [(False, float("nan"), float("nan"))]
            diag = [c for c in cells if c[0]] or [(True, float("nan"), float("nan"))]
            return {"transfer_tr_asr": float(np.mean([c[1] for c in off])),
                    "whitebox_tr_asr": float(np.mean([c[1] for c in diag])),
                    "transfer_alpha": float(np.mean([c[2] for c in off]))}

        def theory_values(header, rows):
            i = header.index("passed") if "passed" in header else -1
            return {"passed": bool(rows) and i >= 0 and all(r[i] == "True" for r in rows)}

        steps = [
            step("synth",
                 ["synth", *common, "--pairs", str(self.n_pairs),
                  "--embed-dim", str(harness.TRANSFER_EMBED_DIM), "--out", str(ds_path)],
                 synth_facts, expect(files=1, clean_recall="clean R@1 TR=100.0% IR=100.0%")),
            step("subspace",
                 ["subspace", *common, "--dataset", str(ds_path), "--out", str(workdir / "projector.txt")],
                 subspace_facts, expect(files=1)),
        ]
        for variant in self.attack_variants:
            out_dir = workdir / f"adv_{variant}"
            steps.append(step(
                f"attack-{variant}",
                ["attack", *common, "--dataset", str(ds_path), "--variant", variant,
                 "--out-dir", str(out_dir)],
                attack_facts(out_dir),
                expect(files=3 * self.n_pairs, trace_header=TRACE_HEADER, budget_ok=True, caption_ok=True),
                pairs=self.n_pairs,
                expected=attack_counts(cfg, variant, self.n_pairs),
            ))
        report = workdir / "report.csv"
        steps.append(step(
            "transfer",
            ["transfer", *common, "--dataset", str(ds_path), "--models", str(self.n_models),
             "--variant", "saaet", "--out", str(report)],
            csv_facts(report, report_values),
            expect(files=1, header=REPORT_HEADER, rows=self.n_models * self.n_models),
            pairs=self.n_pairs * self.n_models,
            expected=attack_counts(cfg, "saaet", self.n_pairs * self.n_models),
        ))
        theory = workdir / "theory.csv"
        steps.append(step(
            "theory",
            ["theory", *common, "--dim", "64", "--t-max", "200", "--out", str(theory)],
            csv_facts(theory, theory_values),
            expect(files=1, header=THEORY_HEADER, rows=20, passed=True),
        ))
        return steps

    def gaps(self, facts_by_step: dict) -> dict:
        return {}


WORKLOADS = {
    "sweep": TransferWorkload("sweep", 100, 4, ("saaet", "dra", "sga", "subtriangle-C")),
    "gallery": TransferWorkload(
        "gallery", 300, 6, ("saaet", "sga"), steps=2, samples=1, scales=(1.0,)
    ),
    "cli": CliWorkload(),
}
