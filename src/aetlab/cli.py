"""Command-line entry point.

Subcommands: synth (dataset descriptor), attack (adversarial images plus
per-step trace CSVs), transfer (surrogate/target report CSV), theory
(interaction-growth verification CSV), subspace (semantic projector file).

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 verification failure.
"""
from __future__ import annotations

import argparse
import secrets
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import matio
from .core import AttackConfig
from .harness import (
    DEFAULT_HELD_OUT,
    DEFAULT_HELD_OUT_LEN,
    DEFAULT_LATENT_SCALE,
    DEFAULT_POOL_NOISE,
    DEFAULT_SEMANTIC_RANK,
    DEFAULT_TABLE_JITTER,
    DEFAULT_TEXT_NOISE,
    DatasetDims,
    attack_pairs,
    clean_recall_at_1,
    default_model_pool,
    load_dataset_descriptor,
    run_transfer_experiment,
    save_dataset_descriptor,
    surrogate_projector,
    synth_dataset,
    write_report,
)
from .subspace import DegenerateCorpusError
from .theory import QuadraticLoss, verify_theorem

# Not called here: perfbench/tracing.py wraps these names at this import site.
from .encoders import encode_text  # noqa: F401
from .image_attack import run_image_attack  # noqa: F401
from .subspace import build_projection, sample_corpus  # noqa: F401
from .text_attack import run_text_attack  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# AttackConfig fields settable from a config file or flags, with their parsers.
# The seed is not among them: it comes from --seed/--entropy alone.
_CONFIG_PARSERS = {
    "eps_image": float,
    "step_size": float,
    "steps": int,
    "samples": int,
    "scales": lambda s: tuple(float(v) for v in str(s).split(",")),
    "text_budget": int,
    "word_list_size": int,
    "kappa": float,
    "mu": float,
    "nu": float,
    "corpus_proportion": float,
    "region": str,
}


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--entropy",
        action="store_true",
        help="explicitly opt in to a fresh random seed instead of --seed",
    )


def _add_attack_config(parser: argparse.ArgumentParser) -> None:
    _add_seed(parser)
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    for name, parse in _CONFIG_PARSERS.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=parse, default=None, dest=name)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    if args.entropy:
        return secrets.randbits(32)
    raise SystemExit(
        _usage_exit("--seed is required (pass --entropy to opt in to a random seed)")
    )


def _usage_exit(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def build_attack_config(args, seed: int) -> AttackConfig:
    """Precedence: built-in defaults < config file < explicit flags."""
    values: dict = {}
    if args.config is not None:
        for key, raw in matio.load_keyvalues(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _CONFIG_PARSERS[key](raw)
    for name in _CONFIG_PARSERS:
        flag_val = getattr(args, name)
        if flag_val is not None:
            values[name] = flag_val
    return AttackConfig(master_seed=seed, **values)


def cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    dims = DatasetDims(
        height=args.height,
        width=args.width,
        embed_dim=args.embed_dim,
        vocab_size=args.vocab_size,
        caption_len=args.caption_len,
    )
    ds = synth_dataset(
        seed,
        args.pairs,
        dims=dims,
        held_out=args.held_out,
        latent_scale=args.latent_scale,
        semantic_rank=args.semantic_rank,
        table_jitter=args.table_jitter,
        held_out_len=args.held_out_len,
    )
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
    seed = _resolve_seed(args)
    cfg = build_attack_config(args, seed)
    ds = load_dataset_descriptor(args.dataset)
    pairs = attack_pairs(ds, ds.base, cfg, args.variant)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = ds.n_pairs if args.limit is None else min(args.limit, ds.n_pairs)
    for p, (adv, adv_cap, trace) in enumerate(islice(pairs, n)):
        matio.save_matrix(adv, out_dir / f"adv_{p}.txt")
        with open(out_dir / f"trace_{p}.csv", "w") as fh:
            fh.write("step,loss,lambda,beta,gamma,chosen_index\n")
            for r in trace.records:
                fh.write(
                    f"{r.step},{r.loss!r},{r.lam!r},{r.beta!r},{r.gamma!r},{r.chosen_index}\n"
                )
        (out_dir / f"adv_caption_{p}.txt").write_text(
            " ".join(str(t) for t in adv_cap) + "\n"
        )
    print(f"attacked {n} pairs with variant {args.variant}; outputs in {out_dir}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    seed = _resolve_seed(args)
    cfg = build_attack_config(args, seed)
    ds = load_dataset_descriptor(args.dataset)
    pool = default_model_pool(
        ds, n_models=args.models, rel_noise=args.noise, text_noise=args.text_noise
    )
    reports = run_transfer_experiment(ds, pool, cfg, variant=args.variant)
    write_report(reports, args.out)
    print(f"wrote {args.out}: {len(reports)} (surrogate, target) cells")
    return EXIT_OK


def cmd_theory(args) -> int:
    seed = _resolve_seed(args)
    if args.instances < 1:
        return _usage_exit("--instances must be >= 1")
    rng = np.random.default_rng(seed)
    rows = []
    all_passed = True
    max_gap_mag = 0.0
    for k in range(args.instances):
        g = rng.standard_normal(args.dim)
        h = rng.standard_normal((args.dim, args.dim))
        ql = QuadraticLoss(g, (h + h.T) / 2.0)
        rep = verify_theorem(ql, args.beta, args.gamma, t_max=args.t_max)
        all_passed = all_passed and rep.passed
        max_gap_mag = max(max_gap_mag, float(np.max(np.abs(rep.gap))))
        rows.append(
            (
                k,
                rep.a_moment,
                rep.b_moment,
                rep.identity_max_rel_err,
                rep.ordering_ok,
                rep.cubic_proposed,
                rep.cubic_baseline,
                rep.passed,
            )
        )
    with open(args.out, "w") as fh:
        fh.write(
            "instance,a_moment,b_moment,identity_max_rel_err,"
            "ordering_ok,cubic_proposed,cubic_baseline,passed\n"
        )
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    verdict = "pass" if all_passed else "FAIL"
    print(
        f"{args.instances} instances, beta={args.beta} gamma={args.gamma}: "
        f"{verdict}; max |gap| = {max_gap_mag:.3e}"
    )
    return EXIT_OK if all_passed else EXIT_VERIFY


def cmd_subspace(args) -> int:
    seed = _resolve_seed(args)
    cfg = build_attack_config(args, seed)
    ds = load_dataset_descriptor(args.dataset)
    try:
        pb = surrogate_projector(ds, ds.base, cfg)
    except DegenerateCorpusError as exc:
        print(f"error: degenerate corpus: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    matio.save_matrix(pb.projector, args.out)
    residual = float(np.max(np.abs(pb.projector @ pb.projector - pb.projector)))
    print(
        f"wrote {args.out}: corpus proportion {cfg.corpus_proportion} of "
        f"{len(ds.held_out_texts)} held-out texts, rank {pb.rank}, "
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
    p.add_argument("--height", type=int, default=DatasetDims().height)
    p.add_argument("--width", type=int, default=DatasetDims().width)
    p.add_argument("--embed-dim", type=int, default=DatasetDims().embed_dim)
    p.add_argument("--vocab-size", type=int, default=DatasetDims().vocab_size)
    p.add_argument("--caption-len", type=int, default=DatasetDims().caption_len)
    p.add_argument("--held-out", type=int, default=DEFAULT_HELD_OUT)
    p.add_argument("--held-out-len", type=int, default=DEFAULT_HELD_OUT_LEN)
    p.add_argument("--latent-scale", type=float, default=DEFAULT_LATENT_SCALE)
    p.add_argument("--semantic-rank", type=int, default=DEFAULT_SEMANTIC_RANK)
    p.add_argument("--table-jitter", type=float, default=DEFAULT_TABLE_JITTER)
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
    except SystemExit:
        raise
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
