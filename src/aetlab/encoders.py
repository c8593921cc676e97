"""Toy differentiable vision-language encoders.

The image encoder is a linear map on flattened pixels; the text encoder
averages per-token embedding rows. Both are deterministic and immutable, and
every gradient of the dot-product loss is analytic. A model pool is built by
perturbing a shared base pair with independently seeded Gaussian noise, which
opens a genuine surrogate/target gap for transfer experiments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import matvec_rows, scale_augment_adjoint, validate_image
from .subspace import build_projection


@dataclass(frozen=True)
class LinearImageEncoder:
    weight: np.ndarray  # (d, H*W)
    model_id: str = "base"

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise ValueError("image-encoder weight must be a finite 2-D matrix")
        object.__setattr__(self, "weight", w)

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class BagOfWordsTextEncoder:
    table: np.ndarray  # (V, d)
    model_id: str = "base"

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim != 2 or not np.all(np.isfinite(t)):
            raise ValueError("text-encoder table must be a finite 2-D matrix")
        object.__setattr__(self, "table", t)

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class EncoderPair:
    image: LinearImageEncoder
    text: BagOfWordsTextEncoder

    @property
    def model_id(self) -> str:
        return self.image.model_id


def encode_image(enc: LinearImageEncoder, x: np.ndarray) -> np.ndarray:
    """Embedding of one (H, W) image: the one-row case of embed_images."""
    return embed_images(enc, [x], None)[0]


def encode_text(enc: BagOfWordsTextEncoder, caption) -> np.ndarray:
    """Embedding of one caption: the one-row case of embed_captions."""
    return embed_captions(enc, [caption])[0]


def embed_captions(enc: BagOfWordsTextEncoder, captions, projector=None) -> np.ndarray:
    """Embeddings of n equal-length captions as an (n, d) matrix: the mean
    of each caption's token rows, summed position by position, so no
    (n, L, d) gather is held; times the (d, d) semantic projector when
    given, with one matvec_rows call as in embed_images."""
    tokens = np.asarray(captions, dtype=np.int64)
    if tokens.ndim != 2 or tokens.size < 1:
        raise ValueError("captions must be a nonempty (n, L) token matrix")
    if tokens.min() < 0 or tokens.max() >= enc.vocab_size:
        raise ValueError("caption token outside vocabulary")
    txt = enc.table[tokens[:, 0]]
    for col in tokens.T[1:]:
        txt += enc.table[col]
    txt /= tokens.shape[1]
    return txt if projector is None else matvec_rows(projector, txt)


def embed_pairs(enc: EncoderPair, images, captions) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) image and caption embeddings of n pairs, each row as if embedded alone."""
    return embed_images(enc.image, images, None), embed_captions(enc.text, captions)


def embed_images(
    enc_i: LinearImageEncoder, images, projector: np.ndarray | None
) -> np.ndarray:
    """(n, d) embeddings of an (n, H, W) image stack, times the (d, d)
    semantic projector when given: the stack is checked once (finite
    pixels, pixel count), then one matvec_rows call for W and one for P, so
    each row keeps the bits of the 1-D products in any batch."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or not np.isfinite(images).all():
        raise ValueError(f"images must be a finite (n, H, W) stack, got shape {images.shape}")
    if images.shape[1] * images.shape[2] != enc_i.weight.shape[1]:
        raise ValueError("image pixel count does not match encoder columns")
    embs = matvec_rows(enc_i.weight, images.reshape(len(images), -1))
    return embs if projector is None else matvec_rows(projector, embs)


def gradient_table(
    enc_i: LinearImageEncoder, U: np.ndarray, shape: tuple[int, int], scales
) -> dict[float, np.ndarray]:
    """The gradients w.r.t. an (H, W) image x, at each scale s, of the
    similarity of the scale-augmented, projected image embedding
    P W augment_s(x) with each caption's projected embedding, a row of the
    (n, d) stack U: the adjoint chain augment_s^T(W^T u) / d, as one
    (n, H, W) stack per scale.

    The loss is bilinear, so the gradient does not depend on the image and
    one table row serves every gradient of a pair. The table always holds
    scale 1.0, the identity augmentation, whose entry is the
    back-projection W^T u / d itself, one matvec_rows call; each other
    scale costs one adjoint call on the stack. Each row keeps the bits of
    the one-row table in any batch. The projector is already folded into
    U, since <P a, P b> = <a, P b> for the symmetric idempotent P.
    """
    back = (matvec_rows(enc_i.weight.T, U) / enc_i.embed_dim).reshape(len(U), *shape)
    table = {1.0: back}
    for s in scales:
        if s not in table:
            table[s] = scale_augment_adjoint(back, shape, s)
    return table


def grad_loss_wrt_image(
    enc_i: LinearImageEncoder, x: np.ndarray, grads: dict[float, np.ndarray], scale: float = 1.0
) -> np.ndarray:
    """Exact gradient of the similarity w.r.t. x at one scale: a fresh copy
    of its entry in grads, one pair's row {s: t[p]} of gradient_table."""
    x = validate_image(x)
    if x.size != enc_i.weight.shape[1]:
        raise ValueError("image shape does not match encoder")
    g = grads[scale]
    if g.shape != x.shape:
        raise ValueError("image shape does not match gradient table")
    return g.copy()


def make_base_encoders(
    height: int,
    width: int,
    embed_dim: int,
    vocab_size: int,
    seed: int,
    semantic_rank: int,
    table_jitter: float,
) -> EncoderPair:
    """Base encoder pair shared by a model pool.

    The image weight is the transpose of an orthonormal pixel basis, so it
    inverts the dataset generator's latent-to-pixel map. Token embeddings are
    low-rank (semantic_rank) plus a small full-rank jitter, which makes the
    corpus subspace genuinely lower-dimensional than the embedding space.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0E17C0DE]))
    n_pix = height * width
    if embed_dim >= n_pix:
        raise ValueError("embed_dim must be below the pixel count")
    # columns orthogonal to the constant image, so a uniform gray offset
    # contributes nothing to the embedding
    raw = rng.standard_normal((n_pix, embed_dim))
    raw -= raw.mean(axis=0, keepdims=True)
    q, _ = np.linalg.qr(raw)
    weight = q.T
    coeffs = rng.standard_normal((vocab_size, semantic_rank))
    basis = rng.standard_normal((semantic_rank, embed_dim))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    table = coeffs @ basis + table_jitter * rng.standard_normal((vocab_size, embed_dim))
    # unit-scale token rows: substitutions rotate a caption embedding instead
    # of shrinking it, and dot-product token neighborhoods become directional
    table *= np.sqrt(semantic_rank) / np.linalg.norm(table, axis=1, keepdims=True)
    return EncoderPair(
        LinearImageEncoder(weight, "base"), BagOfWordsTextEncoder(table, "base")
    )


def make_model_pool(
    base: EncoderPair,
    n_models: int,
    rel_noise: float,
    seed: int,
    text_noise: float,
    semantic_dims: int,
) -> list[EncoderPair]:
    """Independently perturbed copies of a base encoder pair.

    Noise magnitude is rel_noise (text_noise for the token table) times the
    elementwise std of each base matrix, drawn from a per-model seeded
    stream: models in a pool typically agree more on vision weights than on
    token embeddings.

    The per-model noise is confined to the embedding directions orthogonal
    to the base table's dominant semantic_dims-dimensional subspace: pool
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
    nonsem = np.eye(base.text.embed_dim) - build_projection(base.text.table, rank=semantic_dims)
    pool = []
    w_std = float(np.std(base.image.weight))
    t_std = float(np.std(base.text.table))
    for k in range(n_models):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB00F, k]))
        w_noise = rng.standard_normal(base.image.weight.shape)
        w_noise -= w_noise.mean(axis=1, keepdims=True)
        t_noise = rng.standard_normal(base.text.table.shape)
        w_noise = nonsem @ w_noise
        t_noise = t_noise @ nonsem
        w = base.image.weight + rel_noise * w_std * w_noise
        t = base.text.table + text_noise * t_std * t_noise
        pool.append(
            EncoderPair(
                LinearImageEncoder(w, f"model{k}"),
                BagOfWordsTextEncoder(t, f"model{k}"),
            )
        )
    return pool
