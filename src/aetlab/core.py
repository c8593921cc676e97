"""Shared numeric primitives: the image-text similarity, row-wise matrix
products, the first k entries of row-wise stable sorts, the simplex-weight
check, L-inf projection, and the adjoint of the bilinear scale augmentation.

Images are float64 arrays of shape (H, W) with pixels in [0, 1]. Captions are
integer token sequences. The scale augmentation is implemented as an exactly
linear operator (bilinear resize down and back up), so its adjoint is the
plain transpose and analytic gradients through it are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SIMPLEX_TOL = 1e-12

DEFAULT_SCALES = (0.50, 0.75, 1.00, 1.25, 1.50)

# Sub-triangle orderings: which of (max, median, min) of a uniform simplex
# draw lands on (lam, beta, gamma). Region A puts the largest weight on the
# clean image and the smallest on the current adversarial image.
REGION_ASSIGNMENTS: dict[str, tuple[int, int, int]] = {
    # region: index of (lam, beta, gamma) into the descending-sorted draw
    "A": (0, 1, 2),  # gamma < beta < lam
    "B": (1, 0, 2),  # gamma < lam < beta
    "C": (2, 0, 1),  # lam < gamma < beta
    "D": (2, 1, 0),  # lam < beta < gamma
    "E": (1, 2, 0),  # beta < lam < gamma
    "F": (0, 2, 1),  # beta < gamma < lam
}


@dataclass(frozen=True)
class AttackConfig:
    """Attack hyperparameters.

    eps_image and step_size are L-inf budgets on [0,1] pixels; steps is the
    iteration count T, samples the per-step triangle sample count m. kappa,
    mu, nu weight the clean / previous / final adversarial image in the
    caption-attack score: each is >= 0, they sum to 1, and mu + nu > 0.
    The caption attack substitutes at most text_budget = 1 word; that budget
    is fixed, not a setting.
    """

    text_budget = 1

    eps_image: float = 8.0 / 255.0
    step_size: float = 2.0 / 255.0
    steps: int = 10
    samples: int = 5
    scales: tuple[float, ...] = DEFAULT_SCALES
    word_list_size: int = 10
    kappa: float = 0.6
    mu: float = 0.2
    nu: float = 0.2
    corpus_proportion: float = 0.40
    master_seed: int = 0
    region: str = "A"

    def __post_init__(self):
        # each check is written so that a NaN fails it
        if not 0 < self.eps_image < math.inf:
            raise ValueError("eps_image must be finite and > 0")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and > 0")
        if not self.steps >= 2:
            raise ValueError("steps must be >= 2")
        if not self.samples >= 1:
            raise ValueError("samples must be >= 1")
        if not self.word_list_size >= 0:
            raise ValueError("word_list_size must be >= 0")
        for name in ("kappa", "mu", "nu"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not abs(self.kappa + self.mu + self.nu - 1.0) <= SIMPLEX_TOL:
            raise ValueError("kappa + mu + nu must equal 1")
        if not self.mu + self.nu > 0:
            raise ValueError("mu + nu must be > 0 (adversarial-image share cannot vanish)")
        if not (0.0 < self.corpus_proportion <= 1.0):
            raise ValueError("corpus_proportion must be in (0, 1]")
        if not self.scales or not all(0 < s < math.inf for s in self.scales):
            raise ValueError("scales must be a nonempty tuple of finite positive values")
        if self.region not in REGION_ASSIGNMENTS:
            raise ValueError(f"unknown sub-triangle region {self.region!r}")


def validate_image(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("image has non-finite pixels")
    return x


def similarity(img, txt: np.ndarray) -> list[float]:
    """Image-text similarity, the one the attacks and the metrics share: the
    dot product over the embedding dimension d. img holds n image
    embeddings, the rows of an (n, d) matrix or a sequence of n (d,) arrays;
    txt is one (d,) direction shared by every row or an (n, d) matrix whose
    rows pair with img's. Each of the n values is float(row.dot(t)) / d,
    the bits of the 1-D product: np.matmul on the (n, 1, d) and (n, d, 1)
    stacks makes the same BLAS dot call per row. Any other shape raises
    ValueError."""
    rows = np.asarray(img, dtype=np.float64)  # rows of unequal length raise
    if rows.ndim != 2 or txt.shape not in ((rows.shape[1],), rows.shape):
        raise ValueError(f"need (n, d) rows and (d,) or (n, d) text, got {rows.shape}, {txt.shape}")
    return (np.matmul(rows[:, None, :], txt[..., :, None])[:, 0, 0] / rows.shape[1]).tolist()


def validate_simplex(weights: np.ndarray) -> np.ndarray:
    """Check (m, 3) rows of (lam, beta, gamma): each component in [0, 1] and
    each row summing to 1 within SIMPLEX_TOL."""
    if weights.ndim != 2 or weights.shape[1] != 3:
        raise ValueError(f"simplex weights must have shape (m, 3), got {weights.shape}")
    if not (weights.min() >= 0.0 and weights.max() <= 1.0):  # NaN fails too
        raise ValueError("simplex weight outside [0, 1]")
    sums = weights[:, 0] + weights[:, 1] + weights[:, 2]
    if not (sums.min() >= 1.0 - SIMPLEX_TOL and sums.max() <= 1.0 + SIMPLEX_TOL):
        raise ValueError("weights must sum to 1 within 1e-12")
    return weights


def matvec_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a @ r for each row r of an (n, k) matrix, as an (n, m) matrix with
    the bits of the 1-D products on contiguous rows: np.matmul on the
    C-contiguous (n, k, 1) stack makes the same BLAS gemv call per row. The
    rows are copied to a C-contiguous stack if they are not one, since
    other layouts take other BLAS or non-BLAS paths."""
    return np.matmul(a, np.ascontiguousarray(rows)[:, :, None])[:, :, 0]


def first_k(keys: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of np.argsort(keys, axis=1, kind="stable") of an
    (n, V) key matrix, 0 <= k <= V: np.argpartition finds each row's k
    smallest keys, which are then ordered by (key, index). A row whose k-th
    key ties a key outside the picks (or is NaN) cannot tell which of the
    tied indices come first, and takes the full stable argsort instead."""
    if k >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")[:, :k]
    if k == 0:
        return np.empty((len(keys), 0), dtype=np.intp)
    picks = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
    by_key = np.argsort(np.take_along_axis(keys, picks, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(picks, by_key, axis=1)
    kth = np.take_along_axis(keys, order[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(keys <= kth, axis=1) != k)
    order[tied] = np.argsort(keys[tied], axis=1, kind="stable")[:, :k]
    return order


def linf_box(origin: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The pixel bounds (lo, hi) of the eps L-inf ball around origin
    intersected with [0, 1]: lo = clip01(origin - eps), hi =
    clip01(origin + eps). eps must be finite and > 0."""
    if not 0 < eps < math.inf:  # a NaN fails too
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    return np.clip(origin - eps, 0.0, 1.0), np.clip(origin + eps, 0.0, 1.0)


def linf_project(candidate: np.ndarray, box: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Clamp candidate, one image or a stack of images of the box's shape,
    into box = linf_box(origin, eps): the eps L-inf ball around origin,
    then [0, 1], bit for bit, for any origin and eps."""
    lo, hi = box
    if candidate.shape[candidate.ndim - lo.ndim :] != lo.shape:
        raise ValueError("linf_project: shape mismatch")
    out = np.maximum(candidate, lo)
    return np.minimum(out, hi, out=out)


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


def scale_augment_adjoint(g: np.ndarray, shape: tuple[int, int], scale: float) -> np.ndarray:
    """Transpose of the scale augmentation, applied to g, one (H, W) image
    or an (n, H, W) stack of them. The augmentation resizes an (H, W) image
    bilinearly to round(scale*H) x round(scale*W) and back, a fixed linear
    map per (H, W, scale); scale 1.0 is the identity."""
    g = np.asarray(g, dtype=np.float64)
    h, w = shape
    if g.shape[-2:] != (h, w):
        raise ValueError("adjoint input shape mismatch")
    ar = _roundtrip_matrix(h, scale)
    ac = _roundtrip_matrix(w, scale)
    return ar.T @ g @ ac
