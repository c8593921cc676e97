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

from .core import scale_augment, scale_augment_adjoint, similarity_loss, validate_image
from .subspace import ProjectionBasis, build_projection


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
    x = validate_image(x)
    if x.size != enc.weight.shape[1]:
        raise ValueError(
            f"pixel count {x.size} does not match encoder columns {enc.weight.shape[1]}"
        )
    return enc.weight @ x.ravel()


def encode_text(enc: BagOfWordsTextEncoder, caption) -> np.ndarray:
    tokens = np.asarray(caption, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size < 1:
        raise ValueError("caption must be a nonempty 1-D token sequence")
    if tokens.min() < 0 or tokens.max() >= enc.vocab_size:
        raise ValueError("caption token outside vocabulary")
    return enc.table[tokens].mean(axis=0)


def embed_captions(enc: BagOfWordsTextEncoder, captions) -> np.ndarray:
    """Embeddings of n equal-length captions as an (n, d) matrix. Token rows
    are summed position by position, the order encode_text's mean adds them
    in, so each row equals encode_text bit for bit."""
    tokens = np.asarray(captions, dtype=np.int64)
    if tokens.ndim != 2 or tokens.size < 1:
        raise ValueError("captions must be a nonempty (n, L) token matrix")
    if tokens.min() < 0 or tokens.max() >= enc.vocab_size:
        raise ValueError("caption token outside vocabulary")
    txt = enc.table[tokens[:, 0]]
    for col in tokens.T[1:]:
        txt += enc.table[col]
    txt /= tokens.shape[1]
    return txt


def embed_pairs(enc: EncoderPair, images, captions) -> tuple[np.ndarray, np.ndarray]:
    """Image and caption embeddings of n pairs as (n, d) matrices."""
    img = np.stack(images).reshape(len(images), -1) @ enc.image.weight.T
    return img, embed_captions(enc.text, captions)


def text_direction(
    enc_t: BagOfWordsTextEncoder, caption, projector: ProjectionBasis | None
) -> np.ndarray:
    """Text embedding, pushed through the semantic projector when given."""
    u = encode_text(enc_t, caption)
    if projector is not None:
        u = projector.project(u)
    return u


def image_loss(
    enc_i: LinearImageEncoder,
    x: np.ndarray,
    u: np.ndarray,
    projector: ProjectionBasis | None = None,
    scale: float = 1.0,
) -> float:
    """Similarity of the (optionally scale-augmented, projected) image
    embedding with the text direction u (see text_direction)."""
    img = encode_image(enc_i, scale_augment(x, scale) if scale != 1.0 else x)
    if projector is not None:
        img = projector.project(img)
    return similarity_loss(img, u)


def back_project(enc_i: LinearImageEncoder, u: np.ndarray) -> np.ndarray:
    """W^T u / d: the gradient of image_loss at scale 1.0, as flat pixels.

    The loss is bilinear, so this does not depend on the image; the
    projector is already folded into u, since <P a, P b> = <a, P b> for the
    symmetric idempotent P.
    """
    return enc_i.weight.T @ u / enc_i.embed_dim


def grad_loss_wrt_image(
    enc_i: LinearImageEncoder, x: np.ndarray, back: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Exact gradient of image_loss w.r.t. x for the text direction u, given
    back = back_project(enc_i, u): the adjoint chain augment^T(W^T u) / d."""
    x = validate_image(x)
    if x.size != enc_i.weight.shape[1]:
        raise ValueError("image shape does not match encoder")
    return scale_augment_adjoint(back.reshape(x.shape), x.shape, scale)


def make_base_encoders(
    height: int,
    width: int,
    embed_dim: int,
    vocab_size: int,
    seed,
    semantic_rank: int = 8,
    table_jitter: float = 0.05,
) -> EncoderPair:
    """Base encoder pair shared by a model pool.

    The image weight is the transpose of an orthonormal pixel basis, so it
    inverts the dataset generator's latent-to-pixel map. Token embeddings are
    low-rank (semantic_rank) plus a small full-rank jitter, which makes the
    corpus subspace genuinely lower-dimensional than the embedding space.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_seed_int(seed), 0x0E17C0DE]))
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
    seed,
    text_noise: float | None = None,
    semantic_dims: int | None = None,
) -> list[EncoderPair]:
    """Independently perturbed copies of a base encoder pair.

    Noise magnitude is rel_noise times the elementwise std of each base
    matrix, drawn from a per-model seeded stream; text_noise overrides the
    relative magnitude for the token table (models in a pool typically agree
    more on vision weights than on token embeddings).

    With semantic_dims set, the per-model noise is confined to the embedding
    directions orthogonal to the base table's dominant semantic subspace:
    pool members then share their semantic read-out and disagree only in
    text-irrelevant feature dimensions, which is the regime where projecting
    the loss onto a text-corpus subspace pays off. Image-weight noise rows
    are additionally mean-centered so every pool model shares the base pair's
    insensitivity to uniform brightness.
    """
    if n_models < 1:
        raise ValueError("n_models must be >= 1")
    if text_noise is None:
        text_noise = rel_noise
    nonsem = None
    if semantic_dims is not None:
        nonsem = np.eye(base.text.embed_dim) - build_projection(
            base.text.table, rank=semantic_dims
        ).projector
    pool = []
    w_std = float(np.std(base.image.weight))
    t_std = float(np.std(base.text.table))
    for k in range(n_models):
        rng = np.random.default_rng(np.random.SeedSequence([_seed_int(seed), 0xB00F, k]))
        w_noise = rng.standard_normal(base.image.weight.shape)
        w_noise -= w_noise.mean(axis=1, keepdims=True)
        t_noise = rng.standard_normal(base.text.table.shape)
        if nonsem is not None:
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


def _seed_int(seed) -> int:
    return int(seed) & 0xFFFFFFFFFFFF
