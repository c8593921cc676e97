"""Command-line entry point.

Subcommands: synth (dataset descriptor), attack (adversarial images plus
per-step trace CSVs), transfer (surrogate/target report CSV), theory
(interaction-growth verification CSV), subspace (semantic projector file).

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 verification failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from itertools import islice
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import matio
from .core import AttackConfig
from .harness import (
    DEFAULT_POOL_NOISE,
    DEFAULT_TEXT_NOISE,
    DatasetDims,
    GeneratorParams,
    attack_pairs,
    clean_recall_at_1,
    default_model_pool,
    load_dataset_descriptor,
    resolve_variant,
    run_transfer_experiment,
    save_dataset_descriptor,
    surrogate_projector,
    synth_dataset,
    write_report,
)
from .subspace import DegenerateCorpusError
from .theory import MIN_T_MAX, QuadraticLoss, TheoremReport, verify_theorem

# Not called here: perfbench/tracing.py wraps these names at this import site.
from .encoders import encode_text  # noqa: F401
from .image_attack import run_image_attack  # noqa: F401
from .subspace import build_projection, sample_corpus  # noqa: F401
from .text_attack import run_text_attack  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def _parse_scales(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# AttackConfig fields settable from a config file or flags, each parsed with
# the type of its default (scales: comma-separated floats). The seed is not
# among them: it comes from --seed alone.
_CONFIG_PARSERS = {
    f.name: _parse_scales if f.name == "scales" else type(f.default)
    for f in fields(AttackConfig)
    if f.name != "master_seed"
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _seed_arg(text: str) -> int:
    """--seed's type: a non-negative integer, as numpy seeds are."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed_arg, required=True, help="master seed")


def _add_attack_config(parser: argparse.ArgumentParser) -> None:
    _add_seed(parser)
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    for name, parse in _CONFIG_PARSERS.items():
        parser.add_argument(_flag(name), type=parse, default=None, dest=name)


def _usage_exit(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def build_attack_config(args, variant: str | None = None) -> AttackConfig:
    """Precedence: built-in defaults < config file < explicit flags. A value
    set here that the variant replaces with another is a ValueError, and so
    is a merged config that AttackConfig rejects; both name where the values
    came from."""
    values, source = {}, {}
    if args.config is not None:
        for key, raw in matio.load_keyvalues(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            values[key] = matio.parse_value(args.config, key, raw, _CONFIG_PARSERS[key])
            source[key] = f"config key {key!r} in {args.config}"
    for name in _CONFIG_PARSERS:
        flag_val = getattr(args, name)
        if flag_val is not None:
            values[name], source[name] = flag_val, _flag(name)
    try:
        cfg = AttackConfig(master_seed=args.seed, **values)
    except ValueError as exc:
        raise ValueError(f"{exc}; set by {', '.join(source.values())}") from None
    run_cfg = cfg if variant is None else resolve_variant(variant, cfg)[0]
    if clash := [source[n] for n in values if getattr(run_cfg, n) != getattr(cfg, n)]:
        raise ValueError(f"variant {variant!r} replaces the value of {', '.join(clash)}")
    return cfg


def cmd_synth(args) -> int:
    dims, gen = (
        cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
        for cls in (DatasetDims, GeneratorParams)
    )
    ds = synth_dataset(args.seed, args.pairs, dims=dims, gen=gen)
    save_dataset_descriptor(ds, args.out)
    tr, ir = clean_recall_at_1(ds, ds.base)
    print(
        f"wrote {args.out}: {ds.n_pairs} pairs, "
        f"{dims.height}x{dims.width} images, d={dims.embed_dim}, "
        f"V={dims.vocab_size}, L={dims.caption_len}; "
        f"clean R@1 TR={tr:.1f}% IR={ir:.1f}%"
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.limit is not None and args.limit < 0:
        return _usage_exit("--limit must be >= 0")
    cfg = build_attack_config(args, args.variant)
    ds = load_dataset_descriptor(args.dataset)
    # raises on a bad variant or scale before out_dir exists
    pairs = attack_pairs(ds, ds.base, cfg, args.variant)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = ds.n_pairs if args.limit is None else min(args.limit, ds.n_pairs)
    for p, (adv, adv_cap, trace) in enumerate(islice(pairs, n)):
        matio.save_matrix(adv, out_dir / f"adv_{p}.txt")
        matio.save_csv(
            ["step", "loss", "lambda", "beta", "gamma", "chosen_index"],
            ((r.step, r.loss, r.lam, r.beta, r.gamma, r.chosen_index) for r in trace),
            out_dir / f"trace_{p}.csv",
        )
        (out_dir / f"adv_caption_{p}.txt").write_text(
            " ".join(str(t) for t in adv_cap) + "\n"
        )
    print(f"attacked {n} pairs with variant {args.variant}; outputs in {out_dir}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    if args.models < 2:
        return _usage_exit("--models must be >= 2")
    for flag, value in (("--noise", args.noise), ("--text-noise", args.text_noise)):
        if not 0 <= value < math.inf:  # a NaN fails too
            return _usage_exit(f"{flag} must be finite and >= 0, got {value!r}")
    cfg = build_attack_config(args, args.variant)
    ds = load_dataset_descriptor(args.dataset)
    pool = default_model_pool(
        ds, n_models=args.models, rel_noise=args.noise, text_noise=args.text_noise
    )
    reports = run_transfer_experiment(ds, pool, cfg, variant=args.variant)
    write_report(reports, args.out)
    print(f"wrote {args.out}: {len(reports)} (surrogate, target) cells")
    return EXIT_OK


def cmd_theory(args) -> int:
    if args.instances < 1:
        return _usage_exit("--instances must be >= 1")
    if args.dim < 2:
        return _usage_exit("--dim must be >= 2")
    if args.t_max < MIN_T_MAX:
        return _usage_exit(f"--t-max must be >= {MIN_T_MAX}")
    for flag, value in (("--beta", args.beta), ("--gamma", args.gamma)):
        if not 0 <= value <= 1:  # a NaN fails too
            return _usage_exit(f"{flag} must be in [0, 1], got {value!r}")
    rng = np.random.default_rng(args.seed)
    reports = []
    for _ in range(args.instances):
        g = rng.standard_normal(args.dim)
        h = rng.standard_normal((args.dim, args.dim))
        ql = QuadraticLoss(g, (h + h.T) / 2.0)
        reports.append(verify_theorem(ql, args.beta, args.gamma, t_max=args.t_max))
    # one column per scalar report field, after the instance
    hints = get_type_hints(TheoremReport)
    columns = [f.name for f in fields(TheoremReport) if hints[f.name] is not np.ndarray]
    rows = ((k, *(getattr(rep, c) for c in columns)) for k, rep in enumerate(reports))
    matio.save_csv(["instance", *columns], rows, args.out)
    all_passed = all(rep.passed for rep in reports)
    max_gap_mag = max(0.0, *(float(np.max(np.abs(rep.gap))) for rep in reports))
    verdict = "pass" if all_passed else "FAIL"
    print(
        f"{args.instances} instances, beta={args.beta} gamma={args.gamma}: "
        f"{verdict}; max |gap| = {max_gap_mag:.3e}"
    )
    return EXIT_OK if all_passed else EXIT_VERIFY


def cmd_subspace(args) -> int:
    cfg = build_attack_config(args)
    ds = load_dataset_descriptor(args.dataset)
    try:
        p = surrogate_projector(ds, ds.base, cfg)
    except DegenerateCorpusError as exc:
        print(f"error: degenerate corpus: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    matio.save_matrix(p, args.out)
    residual = float(np.max(np.abs(p @ p - p)))
    print(
        f"wrote {args.out}: corpus proportion {cfg.corpus_proportion} of "
        f"{len(ds.held_out_texts)} held-out texts, rank {int(round(np.trace(p)))}, "
        f"idempotence residual {residual:.3e}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aetlab",
        description="Desk-scale lab for evolution-triangle multimodal retrieval attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded dataset descriptor")
    _add_seed(p)
    p.add_argument("--pairs", type=int, required=True)
    for f in (*fields(DatasetDims), *fields(GeneratorParams)):
        p.add_argument(_flag(f.name), type=type(f.default), default=f.default)
    p.add_argument("--out", type=str, default="dataset.txt")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("attack", help="attack dataset pairs and write traces")
    _add_attack_config(p)
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--variant", type=str, default="saaet")
    p.add_argument("--limit", type=int, default=None, help="attack only the first N pairs")
    p.add_argument("--out-dir", type=str, default="attack_out")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("transfer", help="run the surrogate/target transfer sweep")
    _add_attack_config(p)
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--models", type=int, default=4)
    p.add_argument("--noise", type=float, default=DEFAULT_POOL_NOISE)
    p.add_argument("--text-noise", type=float, default=DEFAULT_TEXT_NOISE)
    p.add_argument("--variant", type=str, default="saaet")
    p.add_argument("--out", type=str, default="report.csv")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("theory", help="verify the interaction-growth result")
    _add_seed(p)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--gamma", type=float, default=0.25)
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--out", type=str, default="theory.csv")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("subspace", help="build and save the semantic projector")
    _add_attack_config(p)
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--out", type=str, default="projector.txt")
    p.set_defaults(func=cmd_subspace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
