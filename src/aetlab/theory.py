"""Numerical verification of the interaction-growth result on quadratic
losses.

For a quadratic loss with gradient g and Hessian H, the history-reusing
update accumulates perturbations delta_t = c_t g + d_t Hg (to first order in
H), while the plain multi-step baseline accumulates zeta_t = h_t g + l_t Hg.
The expected pairwise interaction E_{i!=j}[delta(i) H_ij delta(j)] then grows
like (beta+gamma) B t^3 for the proposed update versus B t^3 for the
baseline, so history reuse with beta + gamma < 1 strictly lowers the
interaction whenever B > 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HESSIAN_SYM_TOL = 1e-12
IDENTITY_RTOL = 1e-9
# verify_theorem checks steps 3..t_max, and the cubic rate's third
# difference needs 4 of them.
MIN_T_MAX = 6
# (c, d) pairs per (block, n, n) stack of linearized_expected_interaction;
# bounds its scratch stacks.
_PAIR_BLOCK = 4


@dataclass(frozen=True)
class QuadraticLoss:
    g: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        H = np.asarray(self.H, dtype=np.float64)
        if g.ndim != 1 or H.shape != (g.size, g.size):
            raise ValueError("need g of shape (n,) and H of shape (n, n)")
        if not np.allclose(H, H.T, atol=HESSIAN_SYM_TOL, rtol=0.0):
            raise ValueError("Hessian must be symmetric within 1e-12")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "H", H)

    @property
    def n(self) -> int:
        return self.g.size


@dataclass(frozen=True)
class UpdateCoefficients:
    """Per-step linearized coefficients: proposed (a, b, c, d) and baseline
    (e, f, h, l). Built for an array of steps, t and every field but a and
    e are arrays over those steps."""

    t: int
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    h: float
    l: float


def closed_form_coefficients(t, beta: float, gamma: float) -> UpdateCoefficients:
    """Closed-form coefficients at step t >= 2, or at each step of a 1-D
    integer array t (the same bits per step as the scalar call)."""
    if np.any(np.asarray(t) < 2):
        raise ValueError("t must be >= 2")
    for name, v in (("beta", beta), ("gamma", gamma)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1]")
    return UpdateCoefficients(
        t=t,
        a=1.0,
        b=beta * (t - 2) + gamma * (t - 1),
        c=t * 1.0,
        d=((t - 1) * (t - 2) / 2.0) * beta + (t * (t - 1) / 2.0) * gamma,
        e=1.0,
        f=(t - 1) * 1.0,
        h=t * 1.0,
        l=t * (t - 1) / 2.0,
    )


def shapley_interaction_matrix(delta: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Pairwise interaction I_ij = delta(i) * H_ij * delta(j) (higher-order
    remainder dropped)."""
    delta = np.asarray(delta, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if H.shape != (delta.size, delta.size):
        raise ValueError("dimension mismatch between delta and H")
    return H * np.outer(delta, delta)


def pair_mean(interactions: np.ndarray):
    """Mean over ordered pairs i != j of an (n, n) matrix (a float), or of
    each matrix of a C-contiguous (k, n, n) stack (a (k,) array, bit for bit
    the per-matrix values)."""
    m = np.asarray(interactions)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ValueError("need an (n, n) matrix or a (k, n, n) stack")
    n = m.shape[-1]
    if n < 2:
        raise ValueError("need n >= 2 for pairwise expectation")
    means = (m.sum(axis=(-2, -1)) - np.trace(m, axis1=-2, axis2=-1)) / (n * (n - 1))
    return float(means) if m.ndim == 2 else means


def expected_interaction(delta: np.ndarray, H: np.ndarray) -> float:
    return pair_mean(shapley_interaction_matrix(delta, H))


def interaction_moments(ql: QuadraticLoss) -> tuple[float, float]:
    """Pair-averaged moments: A = E[g(i) g(j) H_ij] and
    B = E[g(i) H_ij (g^T H)_j]."""
    g, H = ql.g, ql.H
    a = expected_interaction(g, H)
    b = pair_mean(H * np.outer(g, H @ g))
    return a, b


def linearized_expected_interaction(c, d, ql: QuadraticLoss):
    """Pair-mean of the first-order interaction of delta = c*g + d*Hg, with
    the H^2 (d^2) term dropped as in the linearization, for each (c, d) pair
    of two equal-length 1-D arrays, evaluated _PAIR_BLOCK pairs per
    (block, n, n) stack in two scratch stacks allocated once per call."""
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if c.ndim != 1 or c.shape != d.shape:
        raise ValueError("c and d must be 1-D arrays of one length")
    g, H = ql.g, ql.H
    hg = H @ g
    gg = np.outer(g, g)
    cross = np.outer(g, hg) + np.outer(hg, g)
    out = np.empty(c.size)
    scratch = np.empty((2, min(c.size, _PAIR_BLOCK), *H.shape))
    for lo in range(0, c.size, _PAIR_BLOCK):
        cb = c[lo : lo + _PAIR_BLOCK, None, None]
        db = d[lo : lo + _PAIR_BLOCK, None, None]
        m, t = scratch[:, : cb.shape[0]]
        # H * (c^2 gg + c d cross), in that order
        np.multiply(cb * cb, gg, out=m)
        m += np.multiply(cb * db, cross, out=t)
        m *= H
        out[lo : lo + cb.shape[0]] = pair_mean(m)
    return out


def _cubic_coefficient(ts: np.ndarray, values: np.ndarray) -> float:
    """Leading coefficient of a cubic sampled on consecutive integers, via
    the exact third finite difference."""
    if ts.size < 4 or np.any(np.diff(ts) != 1):
        raise ValueError("need at least 4 consecutive integer steps")
    d3 = np.diff(values, n=3)
    return float(np.mean(d3) / 6.0)


@dataclass(frozen=True)
class TheoremReport:
    ts: np.ndarray
    e_proposed: np.ndarray
    e_baseline: np.ndarray
    gap: np.ndarray
    a_moment: float
    b_moment: float
    identity_max_rel_err: float
    ordering_ok: bool
    cubic_proposed: float
    cubic_baseline: float
    passed: bool


def verify_theorem(
    ql: QuadraticLoss, beta: float, gamma: float, t_max: int = 50
) -> TheoremReport:
    """Check the closed-form expected interactions and the ordering between
    the history-reusing update and the baseline.

    (i) E[I(delta_t)] = c_t^2 A + 2 c_t d_t B,
    (ii) E[I(zeta_t)] = t^2 A + t^2 (t-1) B,
    (iii) E[I(delta_t)] < E[I(zeta_t)] for t >= 3 when B > 0 and
          beta + gamma < 1.
    """
    if t_max < MIN_T_MAX:
        raise ValueError(f"t_max must be >= {MIN_T_MAX}")
    a_m, b_m = interaction_moments(ql)
    ts = np.arange(3, t_max + 1)
    coef = closed_form_coefficients(ts, beta, gamma)
    e_prop = linearized_expected_interaction(coef.c, coef.d, ql)
    e_base = linearized_expected_interaction(coef.h, coef.l, ql)
    pred = np.stack([
        coef.c**2 * a_m + 2.0 * coef.c * coef.d * b_m,
        ts**2 * a_m + ts**2 * (ts - 1) * b_m,
    ])
    got = np.stack([e_prop, e_base])
    denom = np.maximum(np.maximum(np.abs(pred), np.abs(got)), 1e-300)
    max_rel = float(np.max(np.abs(pred - got) / denom))
    gap = e_base - e_prop
    check_ordering = b_m > 0 and beta + gamma < 1.0
    ordering_ok = bool(np.all(gap > 0)) if check_ordering else True
    cubic_prop = _cubic_coefficient(ts, e_prop)
    cubic_base = _cubic_coefficient(ts, e_base)
    passed = max_rel < IDENTITY_RTOL and ordering_ok
    return TheoremReport(
        ts=ts,
        e_proposed=e_prop,
        e_baseline=e_base,
        gap=gap,
        a_moment=a_m,
        b_moment=b_m,
        identity_max_rel_err=max_rel,
        ordering_ok=ordering_ok,
        cubic_proposed=cubic_prop,
        cubic_baseline=cubic_base,
        passed=passed,
    )
