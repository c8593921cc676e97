"""Synthetic retrieval lab: dataset generation, rank metrics, and transfer
experiments over a pool of perturbed encoder pairs.

Images are decoded from unit latent vectors through the base encoder's
orthonormal pixel basis, and captions are the tokens best aligned with the
latent, so the clean dataset retrieves at exact R@1 while leaving
margins small enough for budgeted attacks to flip ranks.

Every SeedSequence of the package is built here, one per random stream of
the lab (theory's draw takes its instances from cli's default_rng(--seed)):
- [seed, 0xDA7A]: the dataset's attempts, one stream of d-vectors drawn
  in blocks of at most _DRAW_BLOCK: the pairs', then the held-out texts',
  which start on the unused tail of the last pair block;
- [seed, 0x0E17C0DE]: the base encoder pair;
- [seed, 0xB00F, k]: the noise of pool model k;
- [master_seed, stream, 0xC0]: a surrogate's corpus sample;
- [master_seed, stream, p]: the attack noise of pair p.
So pair 192 (0xC0) draws from its surrogate's corpus stream. Separating the
two changes every pair from 192 on, so the fix waits for a new benchmark
reference (ROADMAP item 8).
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import matio
from .core import AttackConfig, linf_box, matvec_rows, similarity
from .encoders import (
    BagOfWordsTextEncoder,
    EncoderPair,
    LinearImageEncoder,
    PairLoss,
    embed_captions,
    embed_images,
    embed_pairs,
    gradient_table,
    top_tokens,
)
from .image_attack import StepRecord, run_image_attack
from .subspace import build_projection, sample_corpus
from .text_attack import Caption, build_word_candidates, run_text_attack, word_neighbours

# Not called here: perfbench/tracing.py wraps these names at this import site.
from .encoders import encode_image, encode_text  # noqa: F401

# Pool constants; the generator's are GeneratorParams' defaults (all frozen
# after the reference tuning run; see README for the recorded reference
# numbers).
DEFAULT_POOL_NOISE = 2.0
DEFAULT_TEXT_NOISE = 2.0
# Embedding dimension used by the reference transfer experiments: wide enough
# that the non-semantic directions carry most of the pool disagreement.
TRANSFER_EMBED_DIM = 64
# Query rows per similarity block of retrieval_rank, and pairs per caption
# candidate block of attack_pairs; each bounds its scratch rows.
_RANK_BLOCK = 64
_CAPTION_BLOCK = 4


class UndefinedASRError(ValueError):
    """No clean rank-1 queries to condition the success rate on."""


class DegenerateAlphaError(ValueError):
    """White-box loss increase of the target-crafted pair is zero; the
    transfer ratio is undefined."""


@dataclass(frozen=True)
class DatasetDims:
    height: int = 12
    width: int = 12
    embed_dim: int = 32
    vocab_size: int = 256
    caption_len: int = 5

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.caption_len > self.vocab_size:
            raise ValueError("caption_len cannot exceed vocab_size")
        if self.embed_dim >= self.height * self.width:
            raise ValueError("embed_dim must be below the pixel count")


@dataclass(frozen=True)
class GeneratorParams:
    """The generator's parameters besides the seed, pair count and dims:
    held_out texts of held_out_len tokens, the latent-to-pixel scale, and
    the base token table's semantic rank and full-rank jitter."""

    held_out: int = 40
    latent_scale: float = 0.3
    semantic_rank: int = 8
    table_jitter: float = 0.10
    held_out_len: int = 50

    def __post_init__(self):
        if self.held_out < 1:
            raise ValueError("held_out must be >= 1")
        if not 0 < self.latent_scale < math.inf:  # NaN fails too
            raise ValueError("latent_scale must be finite and > 0")
        if self.semantic_rank < 1:
            raise ValueError("semantic_rank must be >= 1")
        if not 0 <= self.table_jitter < math.inf:  # NaN fails too
            raise ValueError("table_jitter must be finite and >= 0")


@dataclass(frozen=True)
class SyntheticDataset:
    """Image-caption pairs, the images one read-only (n, H, W) stack, and held-out texts."""

    images: np.ndarray
    captions: tuple[Caption, ...]
    held_out_texts: tuple[Caption, ...]
    seed: int
    dims: DatasetDims
    base: EncoderPair
    gen: GeneratorParams

    def __post_init__(self):
        if len(self.images) != len(self.captions) or not self.captions:
            raise ValueError("need equally many images and captions, at least one")
        tokens = np.array(list(chain.from_iterable(chain(self.captions, self.held_out_texts))))
        if not np.all((tokens >= 0) & (tokens < self.dims.vocab_size)):  # NaN fails too
            raise ValueError("caption token outside vocabulary")

    @property
    def n_pairs(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class ExperimentReport:
    surrogate: str
    target: str
    tr_asr: float
    ir_asr: float
    alpha_mean: float
    seed: int

    def __post_init__(self):
        for v in (self.tr_asr, self.ir_asr):
            if not (0.0 <= v <= 100.0):
                raise ValueError("success rates must be in [0, 100]")


# Latent/caption fixed-point rounds per pair attempt, and attempts per block
# of synth_dataset's draw loop; the block bounds its (block, V) score scratch.
_FIXED_POINT_ITERS = 8
_DRAW_BLOCK = 64


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of a (b, d) matrix over its norm, with the bits of
    z / np.linalg.norm(z): the norm is the square root of the row's BLAS
    dot with itself, one np.matmul call on the (b, 1, d) and (b, d, 1)
    stacks as in core.similarity."""
    return z / np.sqrt(np.matmul(z[:, None, :], z[:, :, None])[:, :, 0])


def _fixed_points(
    text: BagOfWordsTextEncoder, z0: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latent/caption fixed points of a block of attempts, each from the
    unit start z0/|z0| of its row: caption = top-L tokens for the latent
    and latent = unit caption embedding, for at most _FIXED_POINT_ITERS
    updates of the latent. Returns the (b, d) latents, the (b, L) captions
    and which rows a top-L evaluation confirmed as a fixed point. Every
    round runs on the whole block; a fixed point repeats its own bits, so
    each row has the bits of its attempt run alone.

    At a confirmed fixed point (z, c), c's embedding scores z with the mean
    of the L highest token scores, which no other caption exceeds; and z is
    the unit vector along c's embedding, which no other unit latent scores
    higher (Cauchy-Schwarz). So distinct confirmed pairs are strict mutual
    best matches in both retrieval directions, barring ties in the last
    bits."""
    caps = top_tokens(text, _unit_rows(z0), length)
    for _ in range(_FIXED_POINT_ITERS):
        z = _unit_rows(embed_captions(text, caps))
        nxt = top_tokens(text, z, length)
        confirmed = (nxt == caps).all(axis=1)
        if confirmed.all():
            break
        caps = nxt
    return z, caps, confirmed


def _distinct_attempts(
    rng: np.random.Generator, rows: np.ndarray, budget: int, n: int, attempt: Callable
) -> tuple[dict, int, np.ndarray]:
    """Up to n attempts with distinct captions, one unit of budget per
    attempt, each attempt one (d,) row: first the given rows, then blocks
    of at most _DRAW_BLOCK rows of rng.standard_normal. attempt maps a
    block of rows onto each row's caption (None for a rejected attempt) and
    value; a caption already taken is rejected, so its first attempt wins.
    Returns {caption: value} in attempt order, the budget left and the
    unused rows of the last block."""
    taken = {}
    while len(taken) < n and budget > 0:
        if not len(rows):
            rows = rng.standard_normal((min(_DRAW_BLOCK, budget), rows.shape[1]))
        used = 0
        for cap, value in zip(*attempt(rows)):
            if len(taken) == n:
                break
            used += 1
            if cap is not None:
                taken.setdefault(cap, value)
        budget -= used
        rows = rows[used:]
    return taken, budget, rows


def base_encoders(seed: int, dims: DatasetDims, gen: GeneratorParams) -> EncoderPair:
    """Base encoder pair of the dataset and of its model pool.

    The image weight is the transpose of an orthonormal pixel basis, so it
    inverts the dataset generator's latent-to-pixel map. Token embeddings are
    low-rank (semantic_rank) plus a small full-rank jitter, which makes the
    corpus subspace genuinely lower-dimensional than the embedding space.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0E17C0DE]))
    # columns orthogonal to the constant image, so a uniform gray offset
    # contributes nothing to the embedding
    raw = rng.standard_normal((dims.height * dims.width, dims.embed_dim))
    raw -= raw.mean(axis=0, keepdims=True)
    q, _ = np.linalg.qr(raw)
    coeffs = rng.standard_normal((dims.vocab_size, gen.semantic_rank))
    basis = rng.standard_normal((gen.semantic_rank, dims.embed_dim))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    jitter = rng.standard_normal((dims.vocab_size, dims.embed_dim))
    table = coeffs @ basis + gen.table_jitter * jitter
    # unit-scale token rows: substitutions rotate a caption embedding instead
    # of shrinking it, and dot-product token neighborhoods become directional
    table *= np.sqrt(gen.semantic_rank) / np.linalg.norm(table, axis=1, keepdims=True)
    return EncoderPair(LinearImageEncoder(q.T, "base"), BagOfWordsTextEncoder(table, "base"))


def synth_dataset(
    seed: int,
    n_pairs: int,
    dims: DatasetDims = DatasetDims(),
    gen: GeneratorParams = GeneratorParams(),
) -> SyntheticDataset:
    """Seeded synthetic image-caption pairs plus a held-out caption pool.

    Each pair decodes a unit latent through the base image basis
    (image = clamp(0.5 + latent_scale * G z)) and captions it with the
    caption_len tokens most aligned with the latent. Held-out texts are
    longer (held_out_len tokens): averaging more token rows makes the corpus
    span a cleaner estimate of the semantic subspace.

    Attempts are (d,) rows of the [seed, 0xDA7A] stream, within a budget
    of 400 * (n_pairs + held_out): the pairs', then the held-out texts'.
    They are drawn and evaluated in blocks of at most _DRAW_BLOCK rows and
    accepted in order, each caption's first attempt winning, so the result
    is that of one attempt at a time; the unused tail of the last pair
    block holds the first held-out attempts.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if n_pairs < 2:
        raise ValueError("n_pairs must be >= 2")
    if not (1 <= gen.held_out_len <= dims.vocab_size):
        raise ValueError("held_out_len must be in [1, vocab_size]")
    if gen.semantic_rank > min(dims.embed_dim, dims.vocab_size):
        raise ValueError("semantic_rank must be <= embed_dim and <= vocab_size")
    base = base_encoders(seed, dims, gen)
    decoder = base.image.weight.T  # (H*W, d), orthonormal columns
    d = dims.embed_dim
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    budget = 400 * (n_pairs + gen.held_out)

    def pair_attempts(z0):
        z, caps, confirmed = _fixed_points(base.text, z0, dims.caption_len)
        return [tuple(c) if ok else None for c, ok in zip(caps.tolist(), confirmed)], z

    pairs, budget, tail = _distinct_attempts(rng, np.empty((0, d)), budget, n_pairs, pair_attempts)
    if len(pairs) < n_pairs:
        raise ValueError(
            "could not sample enough mutually retrievable pairs; "
            "raise vocab_size/semantic_rank or lower n_pairs"
        )

    def held_out_attempts(z0):
        caps = top_tokens(base.text, _unit_rows(z0), gen.held_out_len)
        return map(tuple, caps.tolist()), repeat(None)

    held, _, _ = _distinct_attempts(rng, tail, budget, gen.held_out, held_out_attempts)
    if len(held) < gen.held_out:
        raise ValueError("could not sample enough held-out captions")
    pixels = matvec_rows(decoder, np.array(list(pairs.values())))
    pixels *= gen.latent_scale  # in place: the images are the only (n, H*W) array
    pixels += 0.5
    images = np.clip(pixels, 0.0, 1.0, out=pixels).reshape(n_pairs, dims.height, dims.width)
    images.flags.writeable = False
    return SyntheticDataset(
        images=images,
        captions=tuple(pairs),
        held_out_texts=tuple(held),
        seed=int(seed),
        dims=dims,
        base=base,
        gen=gen,
    )


def save_dataset_descriptor(ds: SyntheticDataset, path: str | Path) -> None:
    """All generation parameters; the dataset itself is regenerated on load."""
    matio.save_keyvalues(
        {"seed": ds.seed, "n_pairs": ds.n_pairs, **asdict(ds.dims), **asdict(ds.gen)}, path
    )


def load_dataset_descriptor(path: str | Path) -> SyntheticDataset:
    """The dataset a descriptor names: exactly the keys save_dataset_descriptor
    writes, each value parsed with the type of its field's default."""
    def seed(raw: str) -> int:
        if (n := int(raw)) < 0:
            raise ValueError("seed must be a non-negative integer")
        return n

    groups = (DatasetDims, GeneratorParams)
    parsers = {"seed": seed, "n_pairs": int}
    parsers.update((f.name, type(f.default)) for cls in groups for f in fields(cls))
    rec = matio.load_record(path, parsers, "descriptor", required=True)
    try:  # a parsed value out of range names the file too
        dims, gen = (cls(**{f.name: rec[f.name] for f in fields(cls)}) for cls in groups)
        return synth_dataset(rec["seed"], rec["n_pairs"], dims, gen)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def retrieval_rank(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Rank of each query's true match (gallery row i for query i): 1 + the
    number of gallery rows strictly more similar. Ties rank the true pair
    best (optimistic convention).

    A rank depends only on the order of the scores, and core.similarity's
    positive 1/d scale cannot change that order, so each block is scored
    with the plain matrix product. Each block's wins are counted in 32-bit
    integers, which hold any row count (a row has at most n wins)."""
    queries = np.asarray(queries, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] < 1 or queries.shape != gallery.shape:
        raise ValueError("queries and gallery must be nonempty (n, d) matrices of one shape")
    ranks = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), _RANK_BLOCK):
        sims = queries[lo : lo + _RANK_BLOCK] @ gallery.T
        own = np.diagonal(sims, lo)[:, None]  # from the block it is compared against
        ranks[lo : lo + len(sims)] = 1 + np.add.reduce(sims > own, axis=1, dtype=np.int32)
    return ranks


def attack_success_rate(clean_ranks, adv_ranks) -> float:
    """Percentage of clean rank-1 queries whose adversarial rank exceeds 1."""
    clean = np.asarray(clean_ranks, dtype=np.int64)
    adv = np.asarray(adv_ranks, dtype=np.int64)
    if clean.shape != adv.shape or clean.ndim != 1:
        raise ValueError("rank vectors must be 1-D of equal length")
    mask = clean == 1
    if not mask.any():
        raise UndefinedASRError("no clean rank-1 queries to attack")
    return float(100.0 * np.mean(adv[mask] > 1))


def alpha_metric(
    clean_loss: np.ndarray, surrogate_loss: np.ndarray, target_loss: np.ndarray
) -> np.ndarray:
    """How much of the white-box loss increase each transferred pair retains.

    Per pair, the ratio of the target-model loss increases over the clean
    pair: the surrogate-crafted adversarial pair in the numerator, the
    target-crafted (white-box) one in the denominator. Identical pairs give
    exactly 1.0; a numerator pair equal to the clean pair gives 0.0. Only
    an exact zero white-box increase raises DegenerateAlphaError; a near-zero
    one, which a low-rank projector can leave, gives a ratio of any size.
    """
    den = clean_loss - target_loss
    if np.any(den == 0.0):
        raise DegenerateAlphaError("target-crafted pair has zero loss increase")
    return (clean_loss - surrogate_loss) / den


def clean_recall_at_1(ds: SyntheticDataset, enc: EncoderPair) -> tuple[float, float]:
    """(TR, IR) R@1 percentages of the clean dataset under one encoder pair."""
    img, txt = embed_pairs(enc, ds.images, ds.captions)
    return (
        float(100.0 * np.mean(retrieval_rank(img, txt) == 1)),
        float(100.0 * np.mean(retrieval_rank(txt, img) == 1)),
    )


def resolve_variant(variant: str, cfg: AttackConfig):
    """Map a method name onto (config, use_projector, pin_current), the
    last run_image_attack's switch that pins every triangle sample to the
    current adversarial image.

    saaet: triangle sampling plus semantic projection; dra: triangle sampling
    without projection; sga: plain multi-scale baseline (single sample pinned
    to the current adversarial image, caption scored against it alone);
    subtriangle-X: saaet with triangle region X.
    """
    if variant == "saaet":
        return cfg, True, False
    if variant == "dra":
        return cfg, False, False
    if variant == "sga":
        sga_cfg = replace(cfg, samples=1, kappa=0.0, mu=0.0, nu=1.0)
        return sga_cfg, False, True
    if variant.startswith("subtriangle-"):
        region = variant[len("subtriangle-") :]
        return replace(cfg, region=region), True, False
    raise ValueError(f"unknown attack variant {variant!r}")


def surrogate_projector(
    ds: SyntheticDataset,
    surrogate: EncoderPair,
    cfg: AttackConfig,
    stream: int = 0,
) -> np.ndarray:
    """Semantic (d, d) projector of one surrogate: onto the span of its
    embeddings of a corpus_proportion sample of the held-out texts, drawn
    from SeedSequence([master_seed, stream, 0xC0])."""
    corpus = sample_corpus(
        ds.held_out_texts,
        cfg.corpus_proportion,
        np.random.SeedSequence([cfg.master_seed, stream, 0xC0]),
    )
    return build_projection(embed_captions(surrogate.text, corpus))


def attack_pairs(
    ds: SyntheticDataset,
    surrogate: EncoderPair,
    cfg: AttackConfig,
    variant: str = "saaet",
    stream: int = 0,
) -> Iterator[tuple[np.ndarray, Caption, list[StepRecord]]]:
    """Attack the dataset pairs in order on one surrogate, yielding
    (adv_img, adv_cap, trace) per pair: image attack, then the
    triangle-scored caption attack.

    Before the first pair, the variant, the projector and the word-neighbour
    table are resolved, and each pair input that the attack does not change
    is built for all N pairs in one stacked call: the text directions (N, d)
    and their gradient tables {scale: (N, H, W)}, whose rows make each
    pair's PairLoss, the budget boxes (two (N, H, W) stacks) and the clean
    embeddings (N, d), O(N * S * H * W) memory for S scales; a scale that
    collapses an image axis raises there.
    Caption candidates and their embedding rows are built per block of B =
    _CAPTION_BLOCK pairs when its first pair is consumed, one
    build_word_candidates and one embed_captions call on B * (1 + L * k)
    rows, O(B * L * k * d) memory. Each row has the bits of its one-pair
    call, with one projector; the previous and final images' rows are those
    that run_image_attack returns. Pair p draws its noise from
    SeedSequence([master_seed, stream, p]), so its output does not depend
    on how many pairs are consumed; stream isolates the RNG of surrogates
    under one master seed.
    """
    run_cfg, use_projector, pin_current = resolve_variant(variant, cfg)
    shape = (ds.dims.height, ds.dims.width)
    projector = surrogate_projector(ds, surrogate, cfg, stream) if use_projector else None
    near = word_neighbours(surrogate.text, run_cfg.word_list_size)
    u = embed_captions(surrogate.text, ds.captions, projector)
    table = gradient_table(surrogate.image, u, shape, run_cfg.scales)
    lo, hi = linf_box(ds.images, run_cfg.eps_image)
    clean = embed_images(surrogate.image, ds.images, projector)

    def attack(p: int, cands: np.ndarray, cand_embs: np.ndarray):
        x, box = ds.images[p], (lo[p], hi[p])
        seq = np.random.SeedSequence([cfg.master_seed, stream, p])
        rng = np.random.Generator(np.random.PCG64(seq))  # default_rng(seq), undispatched
        loss = PairLoss(surrogate.image, u[p], {s: g[p] for s, g in table.items()}, projector)
        adv_img, _, embs, trace = run_image_attack(x, loss, box, run_cfg, rng, pin_current)
        adv_cap, _ = run_text_attack(cands, cand_embs, clean[p], embs[-2], embs[-1], loss, run_cfg)
        return adv_img, adv_cap, trace

    def block(start: int):
        cands = build_word_candidates(ds.captions[start : start + _CAPTION_BLOCK], near)
        b, n_cand, length = cands.shape
        embs = embed_captions(surrogate.text, cands.reshape(-1, length), projector)
        return map(attack, range(start, start + b), cands, embs.reshape(b, n_cand, -1))

    return chain.from_iterable(map(block, range(0, ds.n_pairs, _CAPTION_BLOCK)))


def craft_adversarial_pairs(
    ds: SyntheticDataset,
    surrogate: EncoderPair,
    cfg: AttackConfig,
    variant: str = "saaet",
    stream: int = 0,
) -> list[tuple[np.ndarray, Caption]]:
    """Every pair of attack_pairs, without the traces."""
    return [(img, cap) for img, cap, _ in attack_pairs(ds, surrogate, cfg, variant, stream)]


def run_transfer_experiment(
    ds: SyntheticDataset,
    model_pool: list[EncoderPair],
    cfg: AttackConfig,
    variant: str = "saaet",
) -> list[ExperimentReport]:
    """Every ordered (surrogate, target) cell of the pool, including the
    white-box diagonal. Each target embeds the clean and its own crafted
    pairs once, and its diagonal cell reuses the latter; each other cell
    embeds one surrogate's crafted pairs once, each row with the bits of
    embedding its pair alone."""
    if len(model_pool) < 2:
        raise ValueError("model pool must contain at least 2 encoder pairs")
    crafted = [
        craft_adversarial_pairs(ds, sur, cfg, variant, stream=s)
        for s, sur in enumerate(model_pool)
    ]

    def losses(img, txt):  # the similarity of each (image row, text row) pair
        return np.array(similarity(img, txt))

    reports = []
    for tgt, white_box in zip(model_pool, crafted):
        img_gal, txt_gal = embed_pairs(tgt, ds.images, ds.captions)
        clean_tr = retrieval_rank(img_gal, txt_gal)
        clean_ir = retrieval_rank(txt_gal, img_gal)
        clean_loss = losses(img_gal, txt_gal)
        white_box_embs = embed_pairs(tgt, *zip(*white_box))
        white_box_loss = losses(*white_box_embs)
        for sur, pairs in zip(model_pool, crafted):
            embs = white_box_embs if pairs is white_box else embed_pairs(tgt, *zip(*pairs))
            adv_img, adv_txt = embs
            alphas = alpha_metric(clean_loss, losses(adv_img, adv_txt), white_box_loss)
            reports.append(
                ExperimentReport(
                    surrogate=sur.model_id,
                    target=tgt.model_id,
                    tr_asr=attack_success_rate(clean_tr, retrieval_rank(adv_img, txt_gal)),
                    ir_asr=attack_success_rate(clean_ir, retrieval_rank(adv_txt, img_gal)),
                    alpha_mean=float(np.mean(alphas)),
                    seed=cfg.master_seed,
                )
            )
    return reports


def write_report(reports, path: str | Path) -> None:
    """CSV table, one row per (surrogate, target) cell."""
    header = [f.name for f in fields(ExperimentReport)]
    matio.save_csv(header, ([getattr(r, h) for h in header] for r in reports), path)


def mean_transfer_asr(reports) -> float:
    """Mean text-retrieval ASR over off-diagonal (transfer) cells.

    The text-retrieval channel is the headline comparison number: the image
    attack perturbs every pixel, so white-box TR success saturates and
    transfer differences between methods are cleanly resolved. The
    image-retrieval channel rides on a single-word caption swap whose
    embedding shift moves the scores of near-competitor gallery images in
    sympathy with the true match, so its success rate is structurally capped
    well below saturation even white-box.
    """
    return _cell_mean(reports, "tr_asr", diagonal=False)


def mean_diagonal_asr(reports) -> float:
    """Mean text-retrieval ASR over white-box diagonal cells."""
    return _cell_mean(reports, "tr_asr", diagonal=True)


def mean_transfer_alpha(reports) -> float:
    """Mean transfer alpha (alpha_metric) over off-diagonal (transfer) cells."""
    return _cell_mean(reports, "alpha_mean", diagonal=False)


def _cell_mean(reports, attr: str, diagonal: bool) -> float:
    """Mean of one report field over the diagonal or the off-diagonal cells."""
    vals = [getattr(r, attr) for r in reports if (r.surrogate == r.target) == diagonal]
    if not vals:
        raise ValueError(f"no {'' if diagonal else 'off-'}diagonal cells in report list")
    return float(np.mean(vals))


def default_model_pool(
    ds: SyntheticDataset,
    n_models: int = 4,
    rel_noise: float = DEFAULT_POOL_NOISE,
    text_noise: float = DEFAULT_TEXT_NOISE,
) -> list[EncoderPair]:
    """Independently perturbed copies of the dataset's base encoder pair.

    Noise magnitude is rel_noise (text_noise for the token table) times the
    elementwise std of each base matrix, drawn from a per-model seeded
    stream: models in a pool typically agree more on vision weights than on
    token embeddings.

    The per-model noise is confined to the embedding directions orthogonal
    to the base table's dominant semantic_rank-dimensional subspace: pool
    members then share their semantic read-out and disagree only in
    text-irrelevant feature dimensions, which is the regime where projecting
    the loss onto a text-corpus subspace pays off. Image-weight noise rows
    are additionally mean-centered so every pool model shares the base pair's
    insensitivity to uniform brightness.
    """
    if n_models < 1:
        raise ValueError("n_models must be >= 1")
    for name, value in (("rel_noise", rel_noise), ("text_noise", text_noise)):
        if not 0 <= value < np.inf:  # a NaN fails too
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    base = ds.base
    semantic = build_projection(base.text.table, rank=ds.gen.semantic_rank)
    nonsem = np.eye(base.text.embed_dim) - semantic
    pool = []
    w_std = float(np.std(base.image.weight))
    t_std = float(np.std(base.text.table))
    for k in range(n_models):
        rng = np.random.default_rng(np.random.SeedSequence([ds.seed, 0xB00F, k]))
        w_noise = rng.standard_normal(base.image.weight.shape)
        w_noise -= w_noise.mean(axis=1, keepdims=True)
        t_noise = rng.standard_normal(base.text.table.shape)
        w = base.image.weight + rel_noise * w_std * (nonsem @ w_noise)
        t = base.text.table + text_noise * t_std * (t_noise @ nonsem)
        pool.append(
            EncoderPair(LinearImageEncoder(w, f"model{k}"), BagOfWordsTextEncoder(t, f"model{k}"))
        )
    return pool
