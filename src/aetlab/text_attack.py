"""Adversarial caption generation by single-word substitution.

Candidate words per position are the nearest vocabulary tokens by embedding
dot product; the search exhaustively scores the original caption plus every
single substitution and keeps the one that deviates most from the final
evolution triangle of the image attack (weighted mismatch against the clean,
previous-step, and final adversarial image). The candidates are encoded
together as one (n_cand, L) token matrix.
"""
from __future__ import annotations

import numpy as np

from .core import AttackConfig
from .encoders import BagOfWordsTextEncoder, EncoderPair, embed_captions, encode_image
from .subspace import ProjectionBasis

# Not called here: perfbench/tracing.py wraps this name at this import site.
from .encoders import encode_text  # noqa: F401

Caption = tuple[int, ...]


def build_word_candidates(
    caption, enc: BagOfWordsTextEncoder, word_list_size: int
) -> np.ndarray:
    """The (1 + L*k, L) token matrix of the caption (row 0) and every
    single-word substitution, position-major. Position i's k substitutes are
    its nearest tokens by embedding dot product, excluding its own token, in
    stable-argsort order (ties to the lowest index); k is word_list_size,
    capped at vocab_size - 1."""
    if word_list_size < 0:
        raise ValueError("word_list_size must be >= 0")
    base = np.asarray(caption, dtype=np.int64)
    order = np.stack([np.argsort(-(enc.table @ enc.table[t]), kind="stable") for t in base])
    near = order[order != base[:, None]].reshape(len(base), -1)[:, :word_list_size]
    n_pos, k = near.shape
    cands = np.tile(base, (1 + n_pos * k, 1))
    cands[1 + np.arange(n_pos * k), np.repeat(np.arange(n_pos), k)] = near.ravel()
    return cands


def score_text_candidate(
    txt: np.ndarray,
    clean_img_emb: np.ndarray,
    prev_adv_emb: np.ndarray,
    cur_adv_emb: np.ndarray,
    projector: ProjectionBasis | None,
    cfg: AttackConfig,
) -> float:
    """kappa/mu/nu-weighted mismatch of a candidate caption's embedding txt
    against the clean, previous adversarial, and final adversarial image
    embeddings, which the caller has already projected; only the caption is
    projected here. Each term is similarity_loss's arithmetic."""
    if projector is not None:
        txt = projector.project(txt)
    same = clean_img_emb.shape == prev_adv_emb.shape == cur_adv_emb.shape == txt.shape
    if not same or txt.ndim != 1:
        raise ValueError("embedding shape mismatch")
    d = txt.shape[0]
    return -(
        cfg.kappa * (float(clean_img_emb @ txt) / d)
        + cfg.mu * (float(prev_adv_emb @ txt) / d)
        + cfg.nu * (float(cur_adv_emb @ txt) / d)
    )


def run_text_attack(
    caption,
    clean_img: np.ndarray,
    prev_adv: np.ndarray,
    cur_adv: np.ndarray,
    enc_pair: EncoderPair,
    projector: ProjectionBasis | None,
    cfg: AttackConfig,
) -> tuple[Caption, bool]:
    """Full caption attack; returns the selected caption and whether a
    substitution occurred. The first maximum score wins: ties go to the
    original caption (candidate 0, which no substitution reproduces), then
    to the lowest index."""
    base = tuple(int(t) for t in caption)
    candidates = build_word_candidates(base, enc_pair.text, cfg.word_list_size)
    txt = embed_captions(enc_pair.text, candidates)
    embs = [encode_image(enc_pair.image, x) for x in (clean_img, prev_adv, cur_adv)]
    if projector is not None:
        embs = [projector.project(e) for e in embs]
    scores = [score_text_candidate(t, *embs, projector, cfg) for t in txt]
    chosen = tuple(candidates[scores.index(max(scores))].tolist())
    return chosen, chosen != base
