#!/usr/bin/env python3
"""Print one SHA-256 over the lab's outputs, to show that a change keeps
them bit for bit.

    python3 tools/digest.py

Run it from anywhere inside a checkout; it imports the package from that
checkout's ``src/``. To compare a change with its parent commit, run it in
the checkout and in a ``git archive`` copy of the parent, and compare the
two printed hashes: equal hashes mean equal outputs below.

For seeds 7 and 18 (13 pairs, d = 64, a 3-model pool) the hash covers:

- the dataset: its images, captions and held-out texts, and the base
  encoders' weight and token table;
- for each of three attack configs (the default, the benchmark's gallery
  config ``steps=2, samples=1, scales=(1.0,)`` and ``samples=3,
  region="C"``) and each of the variants saaet, dra, sga and subtriangle-C:
  every pair that ``attack_pairs`` yields on the first two pool models as
  streams 0 and 1 (the image's bytes, the caption and the trace), and the
  reports of ``run_transfer_experiment`` on the whole pool.

Arrays enter by shape, dtype and bytes, floats by their hex form, so a
difference in the last bit changes the hash. It is not part of tier-1 and
takes a few seconds.
"""
from __future__ import annotations

import hashlib
import sys
from dataclasses import fields, is_dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aetlab.core import AttackConfig  # noqa: E402
from aetlab.harness import (  # noqa: E402
    DatasetDims,
    attack_pairs,
    default_model_pool,
    run_transfer_experiment,
    synth_dataset,
)

SEEDS = (7, 18)
N_PAIRS = 13
N_MODELS = 3
VARIANTS = ("saaet", "dra", "sga", "subtriangle-C")
CONFIGS = ({}, {"steps": 2, "samples": 1, "scales": (1.0,)}, {"samples": 3, "region": "C"})


def feed(h, obj) -> None:
    """Add obj to the hash h: arrays by shape, dtype and bytes, floats by
    hex, dataclasses field by field, sequences item by item."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.shape}{obj.dtype}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(f"f{float(obj).hex()};".encode())
    elif isinstance(obj, Integral):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif is_dataclass(obj):
        h.update(f"d{type(obj).__name__}".encode())
        feed(h, [getattr(obj, f.name) for f in fields(obj)])
    elif isinstance(obj, (list, tuple)):
        h.update(f"({len(obj)}".encode())
        for item in obj:
            feed(h, item)
        h.update(b")")
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def main() -> int:
    h = hashlib.sha256()
    for seed in SEEDS:
        ds = synth_dataset(seed, N_PAIRS, DatasetDims(embed_dim=64))
        base = ds.base
        feed(h, [ds.images, ds.captions, ds.held_out_texts, base.image.weight, base.text.table])
        pool = default_model_pool(ds, n_models=N_MODELS)
        for overrides in CONFIGS:
            cfg = AttackConfig(master_seed=seed, **overrides)
            for variant in VARIANTS:
                for stream, surrogate in enumerate(pool[:2]):
                    feed(h, list(attack_pairs(ds, surrogate, cfg, variant, stream)))
                feed(h, run_transfer_experiment(ds, pool, cfg, variant))
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
