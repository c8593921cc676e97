"""Semantic corpus subspace: corpus sampling, SVD basis and projector.

The projector maps features onto the span of a corpus of text embeddings;
both modalities are projected symmetrically before the dot-product loss.
"""
from __future__ import annotations

import math

import numpy as np

from .core import all_finite

SV_CUTOFF_REL = 1e-10


class DegenerateCorpusError(ValueError):
    """Corpus embedding matrix has no usable span (e.g. all zeros)."""


def sample_corpus(all_texts, proportion: float, seed) -> tuple[tuple[int, ...], ...]:
    """Uniform without-replacement sample of ceil(proportion*M) of the M
    texts, in pool order."""
    if not (0.0 < proportion <= 1.0):
        raise ValueError("proportion must be in (0, 1]")
    texts = [tuple(int(t) for t in c) for c in all_texts]
    m = len(texts)
    if m == 0:
        raise ValueError("empty text pool")
    n = math.ceil(proportion * m)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(m, size=n, replace=False))
    return tuple(texts[i] for i in idx)


def build_projection(corpus_embeddings: np.ndarray, rank: int | None = None) -> np.ndarray:
    """The (d, d) orthogonal projector B^T B onto the corpus row span, B an
    orthonormal basis of it; its trace is its rank.

    Right-singular directions with singular value above a relative cutoff
    are kept, or the leading `rank` of them when rank is given; an all-zero
    corpus matrix is rejected.
    """
    emb = np.atleast_2d(np.asarray(corpus_embeddings, dtype=np.float64))
    if emb.size == 0 or not all_finite(emb):
        raise ValueError("corpus embeddings must be a nonempty finite matrix")
    if rank is not None and not (1 <= rank <= min(emb.shape)):
        raise ValueError("rank must be in [1, min(corpus size, embed_dim)]")
    _, sv, vt = np.linalg.svd(emb, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        raise DegenerateCorpusError("corpus embedding matrix is all zero")
    basis = vt[:rank] if rank is not None else vt[sv > SV_CUTOFF_REL * sv[0]]
    return basis.T @ basis
