"""Shared numeric primitives: contrastive loss, simplex weights, L-inf
projection, and bilinear scale augmentation.

Images are float64 arrays of shape (H, W) with pixels in [0, 1]. Captions are
integer token sequences. The scale augmentation is implemented as an exactly
linear operator (bilinear resize down and back up), so its adjoint is the
plain transpose and analytic gradients through it are exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SIMPLEX_TOL = 1e-12

DEFAULT_SCALES = (0.50, 0.75, 1.00, 1.25, 1.50)


@dataclass(frozen=True)
class SimplexWeights:
    """Convex-combination weights (lam, beta, gamma) summing to 1."""

    lam: float
    beta: float
    gamma: float

    def __post_init__(self):
        validate_simplex(np.array([self.as_tuple()]))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam, self.beta, self.gamma)


@dataclass(frozen=True)
class AttackConfig:
    """Attack hyperparameters.

    eps_image and step_size are L-inf budgets on [0,1] pixels; steps is the
    iteration count T, samples the per-step triangle sample count m. kappa,
    mu, nu weight the clean / previous / final adversarial image in the
    caption-attack score and must sum to 1 with mu + nu > 0.
    """

    eps_image: float = 8.0 / 255.0
    step_size: float = 2.0 / 255.0
    steps: int = 10
    samples: int = 5
    scales: tuple[float, ...] = DEFAULT_SCALES
    text_budget: int = 1
    word_list_size: int = 10
    kappa: float = 0.6
    mu: float = 0.2
    nu: float = 0.2
    corpus_proportion: float = 0.40
    master_seed: int = 0
    region: str = "A"

    def __post_init__(self):
        if self.eps_image <= 0:
            raise ValueError("eps_image must be > 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if abs(self.kappa + self.mu + self.nu - 1.0) > SIMPLEX_TOL:
            raise ValueError("kappa + mu + nu must equal 1")
        if self.mu + self.nu <= 0:
            raise ValueError("mu + nu must be > 0 (adversarial-image share cannot vanish)")
        if not (0.0 < self.corpus_proportion <= 1.0):
            raise ValueError("corpus_proportion must be in (0, 1]")
        if not self.scales or not all(s > 0 for s in self.scales):
            raise ValueError("scales must be a nonempty tuple of positive values")
        if self.region not in "ABCDEF":
            raise ValueError(f"unknown sub-triangle region {self.region!r}")


def validate_image(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("image has non-finite pixels")
    return x


def similarity_loss(img_emb: np.ndarray, txt_emb: np.ndarray) -> float:
    """Dot-product similarity scaled by the embedding dimension."""
    img_emb = np.asarray(img_emb, dtype=np.float64)
    txt_emb = np.asarray(txt_emb, dtype=np.float64)
    if img_emb.shape != txt_emb.shape or img_emb.ndim != 1:
        raise ValueError(f"embedding shape mismatch: {img_emb.shape} vs {txt_emb.shape}")
    return float(img_emb @ txt_emb) / img_emb.shape[0]


def validate_simplex(weights: np.ndarray) -> np.ndarray:
    """Check (m, 3) rows of (lam, beta, gamma): each component in [0, 1] and
    each row summing to 1 within SIMPLEX_TOL."""
    if weights.ndim != 2 or weights.shape[1] != 3:
        raise ValueError(f"simplex weights must have shape (m, 3), got {weights.shape}")
    if not (weights.min() >= 0.0 and weights.max() <= 1.0):  # NaN fails too
        raise ValueError("simplex weight outside [0, 1]")
    if np.abs(weights[:, 0] + weights[:, 1] + weights[:, 2] - 1.0).max() > SIMPLEX_TOL:
        raise ValueError("weights must sum to 1 within 1e-12")
    return weights


def linf_project(candidate: np.ndarray, origin: np.ndarray, eps: float) -> np.ndarray:
    """Clamp candidate, one image or a stack of images of origin's shape,
    into the eps L-inf ball around origin, then into [0, 1]."""
    if candidate.shape[candidate.ndim - origin.ndim :] != origin.shape:
        raise ValueError("linf_project: shape mismatch")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    out = np.clip(candidate, origin - eps, origin + eps)
    return np.clip(out, 0.0, 1.0)


@lru_cache(maxsize=None)
def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """1-D bilinear interpolation matrix mapping length n_in to n_out.

    Endpoint-aligned sampling; each row is a convex combination of at most
    two neighbouring input samples, so constants are preserved exactly.
    """
    m = np.zeros((n_out, n_in))
    if n_in == 1:
        m[:, 0] = 1.0
        return m
    if n_out == 1:
        pos = np.array([(n_in - 1) / 2.0])
    else:
        pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    lo = np.floor(pos).astype(int)
    lo = np.minimum(lo, n_in - 2)
    frac = pos - lo
    m[np.arange(n_out), lo] = 1.0 - frac
    m[np.arange(n_out), lo + 1] = frac
    return m


@lru_cache(maxsize=None)
def _roundtrip_matrix(n: int, scale: float) -> np.ndarray:
    """Composite resize n -> round(scale*n) -> n along one axis."""
    n_mid = int(round(scale * n))
    if n_mid < 1:
        raise ValueError(f"scale {scale} collapses axis of length {n} to zero")
    return _interp_matrix(n, n_mid) @ _interp_matrix(n_mid, n)


def scale_augment(x: np.ndarray, scale: float) -> np.ndarray:
    """Bilinear resize to round(scale*H) x round(scale*W) and back.

    A fixed linear map per (H, W, scale); scale 1.0 is the identity.
    """
    x = validate_image(x)
    if scale <= 0:
        raise ValueError("scale must be > 0")
    h, w = x.shape
    ar = _roundtrip_matrix(h, scale)
    ac = _roundtrip_matrix(w, scale)
    return ar @ x @ ac.T


def scale_augment_adjoint(g: np.ndarray, shape: tuple[int, int], scale: float) -> np.ndarray:
    """Transpose of the scale_augment linear map, applied to g."""
    g = np.asarray(g, dtype=np.float64)
    h, w = shape
    if g.shape != (h, w):
        raise ValueError("adjoint input shape mismatch")
    ar = _roundtrip_matrix(h, scale)
    ac = _roundtrip_matrix(w, scale)
    return ar.T @ g @ ac
