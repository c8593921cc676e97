"""Adversarial caption generation by single-word substitution.

Candidate words per position are the nearest vocabulary tokens by embedding
dot product, looked up in a per-surrogate table built once; the search
exhaustively scores the original caption plus every single substitution and
keeps the one that deviates most from the final evolution triangle of the
image attack (weighted mismatch against the clean, previous-step, and final
adversarial image). The candidates and their embedding rows do not depend
on the image, so harness.attack_pairs builds them per block of pairs, and
it embeds the three images with the same projector; run_text_attack only
scores those rows, with one shared-text call of the pair loss's
similarity per image.
"""
from __future__ import annotations

import numpy as np

from .core import AttackConfig
from .encoders import BagOfWordsTextEncoder, PairLoss, top_tokens

# Not called here: perfbench/tracing.py wraps these names at this import site.
from .encoders import encode_image, encode_text  # noqa: F401

Caption = tuple[int, ...]

# Token rows per block of word_neighbours; bounds its (block, V) scratch.
_NEIGHBOUR_BLOCK = 64


def word_neighbours(enc: BagOfWordsTextEncoder, word_list_size: int) -> np.ndarray:
    """The (V, k) table of every token's substitutes: row v holds the
    top_tokens order of table[v] (ties to the lowest index) without v
    itself, cut to k = min(word_list_size, V - 1); one top_tokens call per
    block of rows."""
    if word_list_size < 0:
        raise ValueError("word_list_size must be >= 0")
    table = enc.table
    k = min(word_list_size, len(table) - 1)
    near = np.empty((len(table), k), dtype=np.int64)
    for lo in range(0, len(table), _NEIGHBOUR_BLOCK):
        hi = min(lo + _NEIGHBOUR_BLOCK, len(table))
        order = top_tokens(enc, table[lo:hi], k + 1)
        # skip v itself: from its place on, each entry is the next one
        skip = np.cumsum(order[:, :k] == np.arange(lo, hi)[:, None], axis=1)
        near[lo:hi] = np.take_along_axis(order, np.arange(k) + skip, axis=1)
    return near


def build_word_candidates(captions, near: np.ndarray) -> np.ndarray:
    """The (..., 1 + L*k, L) token matrices of a (..., L) caption stack, each
    caption's own: the caption (row 0) and every single-word substitution,
    position-major, position i's k substitutes being near[caption[i]]."""
    base = np.asarray(captions, dtype=np.int64)
    n_pos, k = base.shape[-1], near.shape[1]
    cands = np.repeat(base[..., None, :], 1 + n_pos * k, axis=-2)
    subs = near[base].reshape(*base.shape[:-1], n_pos * k)
    cands[..., 1 + np.arange(n_pos * k), np.repeat(np.arange(n_pos), k)] = subs
    return cands


def score_text_candidate(sims, cfg: AttackConfig) -> float:
    """kappa/mu/nu-weighted mismatch of one candidate caption from its three
    similarities with the clean, previous adversarial, and final adversarial
    image embeddings, in that order."""
    clean, prev, cur = sims
    return -(cfg.kappa * clean + cfg.mu * prev + cfg.nu * cur)


def run_text_attack(
    candidates: np.ndarray,
    cand_embs: np.ndarray,
    clean_emb: np.ndarray,
    prev_emb: np.ndarray,
    cur_emb: np.ndarray,
    loss: PairLoss,
    cfg: AttackConfig,
) -> tuple[Caption, bool]:
    """Full caption attack; returns the selected caption and whether a
    substitution occurred. candidates is the caption's (n_cand, L) token
    matrix from build_word_candidates and cand_embs its (n_cand, d) rows of
    embed_captions; clean_emb, prev_emb and cur_emb are the (d,) rows of
    the clean, previous and final adversarial images, embedded with the
    same projector as cand_embs (rows of another dimension raise
    ValueError), which the pair's loss scores. The first maximum score
    wins: ties go to the original caption (candidate 0, which no
    substitution reproduces), then to the lowest index."""
    sims = [loss.similarity(cand_embs, emb) for emb in (clean_emb, prev_emb, cur_emb)]
    scores = [score_text_candidate(s, cfg) for s in zip(*sims)]
    best = scores.index(max(scores))
    return tuple(candidates[best].tolist()), best != 0
