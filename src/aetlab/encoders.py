"""Toy differentiable vision-language encoders.

The image encoder is a linear map on flattened pixels; the text encoder
averages per-token embedding rows. Both are deterministic and immutable, and
their attack loss, PairLoss, has an analytic gradient. The harness generates
their weights: the dataset's base pair and the perturbed pool built from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import all_finite, matvec_rows, scale_augment_adjoint, similarity, validate_image


@dataclass(frozen=True)
class LinearImageEncoder:
    weight: np.ndarray  # (d, H*W)
    model_id: str = "base"

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim != 2 or not all_finite(w):
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
        if t.ndim != 2 or not all_finite(t):
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
    if images.ndim != 3 or not all_finite(images):
        raise ValueError(f"images must be a finite (n, H, W) stack, got shape {images.shape}")
    if images.shape[1] * images.shape[2] != enc_i.weight.shape[1]:
        raise ValueError("image pixel count does not match encoder columns")
    embs = matvec_rows(enc_i.weight, images.reshape(len(images), -1))
    return embs if projector is None else matvec_rows(projector, embs)


def gradient_table(
    enc_i: LinearImageEncoder, U: np.ndarray, shape: tuple[int, int], scales
) -> dict[float, np.ndarray]:
    """The PairLoss gradients augment_s^T(W^T u) / d of the (n, d) caption
    directions U, one read-only (n, H, W) stack per scale s. Scale 1.0, the
    identity augmentation, is always there: the back-projection W^T u / d,
    one matvec_rows call; each other scale costs one adjoint call on the
    stack. Each row keeps the bits of the one-row table in any batch."""
    back = (matvec_rows(enc_i.weight.T, U) / enc_i.embed_dim).reshape(len(U), *shape)
    table = {1.0: back}
    for s in scales:
        if s not in table:
            table[s] = scale_augment_adjoint(back, shape, s)
    for stack in table.values():
        stack.flags.writeable = False
    return table


@dataclass(frozen=True)
class PairLoss:
    """The attack's loss on one pair: the similarity (core.similarity) of
    the projected embedding P W augment_s(x) of an image x with the
    caption's projected direction u, a (d,) row of embed_captions.

    The similarity is a dot product, so the loss is bilinear and its
    gradient w.r.t. x does not depend on x: grads holds it per scale,
    {s: (H, W)}, the pair's read-only rows of gradient_table. P is folded
    into u, since <P a, P b> = <a, P b> for the symmetric idempotent P."""

    image: LinearImageEncoder
    u: np.ndarray
    grads: dict[float, np.ndarray]
    projector: np.ndarray | None

    def __post_init__(self):
        if self.u.ndim != 1:
            raise ValueError("need a (d,) text direction")

    def embed(self, images) -> np.ndarray:
        """(n, d) embeddings of an (n, H, W) stack, as the loss sees them."""
        return embed_images(self.image, images, self.projector)

    def similarity(self, rows, direction: np.ndarray) -> list[float]:
        """The loss's similarity of each (d,) embedding row with a direction."""
        return similarity(rows, direction)


def grad_loss_wrt_image(loss: PairLoss, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Exact gradient of the loss w.r.t. x at one scale: its read-only row
    of loss.grads, as it is, so a caller that sums gradients copies one."""
    x = validate_image(x)
    if x.size != loss.image.weight.shape[1]:
        raise ValueError("image shape does not match encoder")
    g = loss.grads[scale]
    if g.shape != x.shape:
        raise ValueError("image shape does not match gradient table")
    return g
