"""Adversarial caption generation by single-word substitution.

Candidate words per position are the nearest vocabulary tokens by embedding
dot product, looked up in a per-surrogate table built once; the search
exhaustively scores the original caption plus every single substitution and
keeps the one that deviates most from the final evolution triangle of the
image attack (weighted mismatch against the clean, previous-step, and final
adversarial image). The candidates are encoded and projected together, as
one (n_cand, L) token matrix, by one embed_captions call, and scored against
the three image embeddings with one shared-text similarity call per image.
"""
from __future__ import annotations

import numpy as np

from .core import AttackConfig, matvec_rows, similarity
from .encoders import BagOfWordsTextEncoder, EncoderPair, embed_captions, embed_images

# Not called here: perfbench/tracing.py wraps these names at this import site.
from .encoders import encode_image, encode_text  # noqa: F401

Caption = tuple[int, ...]

# Token rows per block of word_neighbours; bounds its (block, V) scratch.
_NEIGHBOUR_BLOCK = 64


def word_neighbours(enc: BagOfWordsTextEncoder, word_list_size: int) -> np.ndarray:
    """The (V, k) table of every token's substitutes: row v holds the first
    k tokens of the stable argsort of -(table @ table[v]) (ties to the lowest
    index), without v itself; k is word_list_size, capped at V - 1. Each
    block of rows is scored with one row-wise product, so each row keeps the
    bits of the per-token product, and sorted row by row; only the first
    k + 1 entries of each order are kept."""
    if word_list_size < 0:
        raise ValueError("word_list_size must be >= 0")
    table = enc.table
    k = min(word_list_size, len(table) - 1)
    near = np.empty((len(table), k), dtype=np.int64)
    for lo in range(0, len(table), _NEIGHBOUR_BLOCK):
        hi = min(lo + _NEIGHBOUR_BLOCK, len(table))
        order = np.argsort(-matvec_rows(table, table[lo:hi]), axis=1, kind="stable")[:, : k + 1]
        # skip v itself: from its place on, each entry is the next one
        skip = np.cumsum(order[:, :k] == np.arange(lo, hi)[:, None], axis=1)
        near[lo:hi] = np.take_along_axis(order, np.arange(k) + skip, axis=1)
    return near


def build_word_candidates(caption, near: np.ndarray) -> np.ndarray:
    """The (1 + L*k, L) token matrix of the caption (row 0) and every
    single-word substitution, position-major: position i's k substitutes
    are near[caption[i]], a row of word_neighbours."""
    base = np.asarray(caption, dtype=np.int64)
    n_pos, k = len(base), near.shape[1]
    cands = np.tile(base, (1 + n_pos * k, 1))
    cands[1 + np.arange(n_pos * k), np.repeat(np.arange(n_pos), k)] = near[base].ravel()
    return cands


def score_text_candidate(sims, cfg: AttackConfig) -> float:
    """kappa/mu/nu-weighted mismatch of one candidate caption from its three
    similarities with the clean, previous adversarial, and final adversarial
    image embeddings, in that order."""
    clean, prev, cur = sims
    return -(cfg.kappa * clean + cfg.mu * prev + cfg.nu * cur)


def run_text_attack(
    caption,
    clean_emb: np.ndarray,
    prev_adv: np.ndarray,
    cur_adv: np.ndarray,
    enc_pair: EncoderPair,
    projector: np.ndarray | None,
    cfg: AttackConfig,
    near: np.ndarray,
) -> tuple[Caption, bool]:
    """Full caption attack; returns the selected caption and whether a
    substitution occurred. clean_emb is the clean image's (projected)
    embedding, the pair's row of embed_images over the dataset; near is
    word_neighbours(enc_pair.text, cfg.word_list_size), built once per
    surrogate. The first maximum score wins: ties go to the original
    caption (candidate 0, which no substitution reproduces), then to the
    lowest index."""
    base = tuple(int(t) for t in caption)
    candidates = build_word_candidates(base, near)
    txt = embed_captions(enc_pair.text, candidates, projector)
    adv_embs = embed_images(enc_pair.image, (prev_adv, cur_adv), projector)
    sims = [similarity(txt, emb) for emb in (clean_emb, *adv_embs)]
    scores = [score_text_candidate(s, cfg) for s in zip(*sims)]
    chosen = tuple(candidates[scores.index(max(scores))].tolist())
    return chosen, chosen != base
