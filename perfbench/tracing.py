"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the package: `Tracer.installed` replaces each
traced function at the attribute its callers look it up through (its import
site, e.g. ``aetlab.harness.run_image_attack``) and puts every original back
on exit, so ``src/`` carries no timers. Spans live in flat arrays in memory
(name, start, end, parent span, context id) and are written out once, at the
end of the run. Hot leaf functions get counting wrappers only.
"""
from __future__ import annotations

import json
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once, and only inside the
    parent's interval)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.shape)
    reach: dict[int, float] = {}  # parent -> end of the covered prefix so far
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    for i in np.argsort(start, kind="stable").tolist():
        p = par[i]
        if p < 0:
            continue
        lo = max(s[i], s[p], reach.get(p, s[p]))
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return end - start - covered


def _next_pair(tr, args, kwargs):
    tr.pair += 1
    tr.refresh_context()


def _begin_surrogate(tr, args, kwargs):
    tr.surrogate = int(kwargs.get("stream", args[4] if len(args) > 4 else 0))
    tr.pair = -1
    tr.refresh_context()


def _chosen(tr, args, kwargs, out):
    if out != 0:
        tr.step_counts["image_attack.chosen_nonzero"] += 1


def _changed(tr, args, kwargs, out):
    if out[1]:
        tr.step_counts["text_attack.changed"] += 1


def _bytes(tr, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.step_counts["matio.bytes_written"] += os.path.getsize(path)


# (module, attribute, span name, kind, enter hook, leave hook). kind "span"
# records a span; "count" only counts calls. The same function appears once
# per module that imports it, because each import site is its own binding.
TRACE_POINTS = [
    ("aetlab.harness", "synth_dataset", "harness.synth_dataset", "span", None, None),
    ("aetlab.cli", "synth_dataset", "harness.synth_dataset", "span", None, None),
    ("aetlab.harness", "default_model_pool", "harness.default_model_pool", "span", None, None),
    ("aetlab.cli", "default_model_pool", "harness.default_model_pool", "span", None, None),
    ("aetlab.harness", "run_transfer_experiment", "harness.run_transfer_experiment", "span", None, None),
    ("aetlab.cli", "run_transfer_experiment", "harness.run_transfer_experiment", "span", None, None),
    ("aetlab.harness", "craft_adversarial_pairs", "harness.craft_adversarial_pairs", "span", _begin_surrogate, None),
    ("aetlab.harness", "retrieval_rank", "harness.retrieval_rank", "count", None, None),
    ("aetlab.harness", "alpha_metric", "harness.alpha_metric", "count", None, None),
    ("aetlab.harness", "sample_corpus", "subspace.sample_corpus", "span", None, None),
    ("aetlab.cli", "sample_corpus", "subspace.sample_corpus", "span", None, None),
    ("aetlab.harness", "build_projection", "subspace.build_projection", "span", None, None),
    ("aetlab.cli", "build_projection", "subspace.build_projection", "span", None, None),
    ("aetlab.harness", "run_image_attack", "image_attack.run_image_attack", "span", _next_pair, None),
    ("aetlab.cli", "run_image_attack", "image_attack.run_image_attack", "span", _next_pair, None),
    ("aetlab.image_attack", "text_guided_select", "image_attack.text_guided_select", "span", None, _chosen),
    ("aetlab.image_attack", "linf_project", "core.linf_project", "count", None, None),
    ("aetlab.image_attack", "grad_loss_wrt_image", "encoders.grad_loss_wrt_image", "span", None, None),
    ("aetlab.encoders", "scale_augment_adjoint", "core.scale_augment_adjoint", "count", None, None),
    ("aetlab.encoders", "encode_text", "encoders.encode_text", "count", None, None),
    ("aetlab.harness", "encode_text", "encoders.encode_text", "count", None, None),
    ("aetlab.text_attack", "encode_text", "encoders.encode_text", "count", None, None),
    ("aetlab.cli", "encode_text", "encoders.encode_text", "count", None, None),
    ("aetlab.encoders", "encode_image", "encoders.encode_image", "count", None, None),
    ("aetlab.harness", "encode_image", "encoders.encode_image", "count", None, None),
    ("aetlab.text_attack", "encode_image", "encoders.encode_image", "count", None, None),
    ("aetlab.harness", "run_text_attack", "text_attack.run_text_attack", "span", None, _changed),
    ("aetlab.cli", "run_text_attack", "text_attack.run_text_attack", "span", None, _changed),
    ("aetlab.text_attack", "score_text_candidate", "text_attack.score_text_candidate", "span", None, None),
    ("aetlab.matio", "save_matrix", "matio.save_matrix", "span", None, _bytes),
    ("aetlab.matio", "save_keyvalues", "matio.save_keyvalues", "span", None, _bytes),
    ("aetlab.matio", "load_matrix", "matio.load_matrix", "span", None, None),
    ("aetlab.matio", "load_keyvalues", "matio.load_keyvalues", "span", None, None),
    ("aetlab.cli", "cmd_synth", "cli.cmd_synth", "span", None, None),
    ("aetlab.cli", "cmd_subspace", "cli.cmd_subspace", "span", None, None),
    ("aetlab.cli", "cmd_attack", "cli.cmd_attack", "span", None, None),
    ("aetlab.cli", "cmd_transfer", "cli.cmd_transfer", "span", None, None),
    ("aetlab.cli", "cmd_theory", "cli.cmd_theory", "span", None, None),
    ("aetlab.cli", "verify_theorem", "theory.verify_theorem", "span", None, None),
]

# Per-layer metrics: name -> (unit, how it is computed from the span self
# times S[name] and the call counts C[name] of one traced iteration).
LAYER_METRICS = {
    "image_attack.s": ("s", lambda S, C: S["image_attack.run_image_attack"] + S["image_attack.text_guided_select"]),
    "image_attack.calls": ("count", lambda S, C: C["image_attack.run_image_attack"]),
    "image_attack.select_s": ("s", lambda S, C: S["image_attack.text_guided_select"]),
    "image_attack.chosen_nonzero_share": ("share", lambda S, C: _ratio(C["image_attack.chosen_nonzero"], C["image_attack.text_guided_select"])),
    "encoders.grad_s": ("s", lambda S, C: S["encoders.grad_loss_wrt_image"]),
    "encoders.grad_evals": ("count", lambda S, C: C["encoders.grad_loss_wrt_image"]),
    "core.scale_adjoint_calls": ("count", lambda S, C: C["core.scale_augment_adjoint"]),
    "core.linf_project_calls": ("count", lambda S, C: C["core.linf_project"]),
    "text_attack.s": ("s", lambda S, C: S["text_attack.run_text_attack"] + S["text_attack.score_text_candidate"]),
    "text_attack.calls": ("count", lambda S, C: C["text_attack.run_text_attack"]),
    "text_attack.candidates": ("count", lambda S, C: C["text_attack.score_text_candidate"]),
    "text_attack.changed_share": ("share", lambda S, C: _ratio(C["text_attack.changed"], C["text_attack.run_text_attack"])),
    "encoders.encode_calls": ("count", lambda S, C: C["encoders.encode_text"] + C["encoders.encode_image"]),
    "harness.score_s": ("s", lambda S, C: S["harness.run_transfer_experiment"]),
    "harness.ranks": ("count", lambda S, C: C["harness.retrieval_rank"]),
    "harness.alphas": ("count", lambda S, C: C["harness.alpha_metric"]),
    "harness.craft_s": ("s", lambda S, C: S["harness.craft_adversarial_pairs"]),
    "harness.synth_s": ("s", lambda S, C: S["harness.synth_dataset"]),
    "harness.pool_s": ("s", lambda S, C: S["harness.default_model_pool"]),
    "subspace.s": ("s", lambda S, C: S["subspace.sample_corpus"] + S["subspace.build_projection"]),
    "subspace.projectors": ("count", lambda S, C: C["subspace.build_projection"]),
    "matio.write_s": ("s", lambda S, C: S["matio.save_matrix"] + S["matio.save_keyvalues"]),
    "matio.read_s": ("s", lambda S, C: S["matio.load_matrix"] + S["matio.load_keyvalues"]),
    "matio.bytes_written": ("bytes", lambda S, C: C["matio.bytes_written"]),
    "cli.synth_s": ("s", lambda S, C: S["cli.cmd_synth"]),
    "cli.subspace_s": ("s", lambda S, C: S["cli.cmd_subspace"]),
    "cli.attack_s": ("s", lambda S, C: S["cli.cmd_attack"]),
    "cli.transfer_s": ("s", lambda S, C: S["cli.cmd_transfer"]),
    "cli.theory_s": ("s", lambda S, C: S["cli.cmd_theory"]),
    "theory.verify_s": ("s", lambda S, C: S["theory.verify_theorem"]),
    "theory.instances": ("count", lambda S, C: C["theory.verify_theorem"]),
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Collects spans and per-step call counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.contexts: list[tuple] = []  # context id -> (seed, step, surrogate, pair)
        self._context_key: tuple | None = None
        self.context_id = -1
        self.seed = -1
        self.step = ""
        self.surrogate = -1
        self.pair = -1
        self.counts: dict[str, Counter] = {}  # step -> span/count name -> calls
        self.step_counts: Counter = Counter()
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._context = array("q")
        self._stack: list[int] = []

    def set_context(self, seed: int, step: str) -> None:
        """Attribute the following spans and counts to (seed, step)."""
        self.seed, self.step = int(seed), step
        self.surrogate = self.pair = -1
        self.step_counts = self.counts.setdefault(f"{seed}/{step}", Counter())
        self.refresh_context()

    def refresh_context(self) -> None:
        key = (self.seed, self.step, self.surrogate, self.pair)
        if key != self._context_key:
            self._context_key = key
            self.contexts.append(key)
            self.context_id = len(self.contexts) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, fn, name, enter, leave):
        tr = self
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if enter is not None:
                enter(tr, args, kwargs)
            i = len(tr._start)
            tr._name.append(nid)
            tr._parent.append(tr._stack[-1] if tr._stack else -1)
            tr._context.append(tr.context_id)
            tr._end.append(0.0)
            tr._stack.append(i)
            tr._start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._end[i] = perf_counter()
                tr._stack.pop()
            tr.step_counts[name] += 1
            if leave is not None:
                leave(tr, args, kwargs, out)
            return out

        return traced

    def _counter(self, fn, name):
        tr = self

        def counted(*args, **kwargs):
            tr.step_counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every trace point in `modules` (name -> module object) and
        restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, name, kind, enter, leave in TRACE_POINTS:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                wrapper = self._span(fn, name, enter, leave) if kind == "span" else self._counter(fn, name)
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def step_total(self, steps) -> Counter:
        """Call counts summed over the given step keys ("seed/step")."""
        total: Counter = Counter()
        for key in steps:
            total.update(self.counts.get(key, Counter()))
        return total

    def self_time_by_name(self, context_filter=None) -> Counter:
        """Self time per span name, optionally only for spans whose context
        satisfies context_filter((seed, step, surrogate, pair))."""
        st = self_times(self._start, self._end, self._parent)
        out: Counter = Counter()
        names = np.asarray(self._name, dtype=np.int64)
        keep = np.ones(len(st), dtype=bool)
        if context_filter is not None:
            ok = np.array([bool(context_filter(c)) for c in self.contexts] + [False])
            keep = ok[np.asarray(self._context, dtype=np.int64)]
        sums = np.bincount(names[keep], weights=st[keep], minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[name] = float(sums[nid])
        return out

    def layer_metrics(self, steps, context_filter=None) -> dict:
        """Every per-layer metric for the given step keys."""
        S = self.self_time_by_name(context_filter)
        C = self.step_total(steps)
        return {name: (fn(S, C), unit) for name, (unit, fn) in LAYER_METRICS.items()}

    def write(self, path) -> None:
        """Write all spans, the name and context tables and the counts."""
        np.savez_compressed(
            path,
            name=np.asarray(self._name, dtype=np.int32),
            start=np.asarray(self._start),
            end=np.asarray(self._end),
            parent=np.asarray(self._parent, dtype=np.int64),
            context=np.asarray(self._context, dtype=np.int64),
            names=np.asarray(json.dumps(self.names)),
            contexts=np.asarray(json.dumps(self.contexts)),
            counts=np.asarray(json.dumps({k: dict(v) for k, v in self.counts.items()})),
        )
