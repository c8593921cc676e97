"""Adversarial caption generation by single-word substitution.

Candidate words per position are the nearest vocabulary tokens by embedding
dot product; the search exhaustively scores the original caption plus every
single substitution and keeps the one that deviates most from the final
evolution triangle of the image attack (weighted mismatch against the clean,
previous-step, and final adversarial image). The candidates are encoded
together as one (n_cand, L) token matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttackConfig, similarity_loss
from .encoders import BagOfWordsTextEncoder, EncoderPair, embed_captions, encode_image
from .subspace import ProjectionBasis

# Not called here: perfbench/tracing.py wraps this name at this import site.
from .encoders import encode_text  # noqa: F401

Caption = tuple[int, ...]


class UnsupportedBudgetError(ValueError):
    """Only a single-word substitution budget is implemented."""


@dataclass(frozen=True)
class WordCandidateList:
    per_position: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for cands in self.per_position:
            if len(set(cands)) != len(cands):
                raise ValueError("duplicate candidate within a position's list")


def build_word_candidates(
    caption, enc: BagOfWordsTextEncoder, word_list_size: int
) -> WordCandidateList:
    """Per-position nearest tokens by embedding dot product, excluding the
    original token; deterministic under ties (stable sort, lowest index)."""
    if word_list_size < 0:
        raise ValueError("word_list_size must be >= 0")
    per_position = []
    for tok in caption:
        scores = enc.table @ enc.table[int(tok)]
        order = np.argsort(-scores, kind="stable")
        per_position.append(tuple(order[order != int(tok)][:word_list_size].tolist()))
    return WordCandidateList(tuple(per_position))


def enumerate_text_candidates(
    caption, wcl: WordCandidateList, eps_t: int = 1
) -> list[Caption]:
    """The original caption plus every single-position substitution."""
    if eps_t != 1:
        raise UnsupportedBudgetError(f"text budget {eps_t} not supported (only 1)")
    base = tuple(int(t) for t in caption)
    if len(wcl.per_position) != len(base):
        raise ValueError("candidate list length does not match caption")
    out: list[Caption] = [base]
    for pos, cands in enumerate(wcl.per_position):
        for tok in cands:
            if tok == base[pos]:
                continue
            out.append(base[:pos] + (tok,) + base[pos + 1 :])
    return out


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
    projected here."""
    if projector is not None:
        txt = projector.project(txt)
    return -(
        cfg.kappa * similarity_loss(clean_img_emb, txt)
        + cfg.mu * similarity_loss(prev_adv_emb, txt)
        + cfg.nu * similarity_loss(cur_adv_emb, txt)
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
    wcl = build_word_candidates(base, enc_pair.text, cfg.word_list_size)
    candidates = enumerate_text_candidates(base, wcl, cfg.text_budget)
    txt = embed_captions(enc_pair.text, candidates)
    embs = [encode_image(enc_pair.image, x) for x in (clean_img, prev_adv, cur_adv)]
    if projector is not None:
        embs = [projector.project(e) for e in embs]
    scores = [score_text_candidate(t, *embs, projector, cfg) for t in txt]
    chosen = candidates[scores.index(max(scores))]
    return chosen, chosen != base
