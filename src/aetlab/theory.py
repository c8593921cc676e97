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
    (e, f, h, l)."""

    t: int
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    h: float
    l: float


def closed_form_coefficients(t: int, beta: float, gamma: float) -> UpdateCoefficients:
    """Closed-form coefficients at step t >= 2."""
    if t < 2:
        raise ValueError("t must be >= 2")
    for name, v in (("beta", beta), ("gamma", gamma)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1]")
    return UpdateCoefficients(
        t=t,
        a=1.0,
        b=beta * (t - 2) + gamma * (t - 1),
        c=float(t),
        d=((t - 1) * (t - 2) / 2.0) * beta + (t * (t - 1) / 2.0) * gamma,
        e=1.0,
        f=float(t - 1),
        h=float(t),
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


def pair_mean(interactions: np.ndarray) -> float:
    """Mean over ordered pairs i != j."""
    n = interactions.shape[0]
    if n < 2:
        raise ValueError("need n >= 2 for pairwise expectation")
    return float((interactions.sum() - np.trace(interactions)) / (n * (n - 1)))


def expected_interaction(delta: np.ndarray, H: np.ndarray) -> float:
    return pair_mean(shapley_interaction_matrix(delta, H))


def interaction_moments(ql: QuadraticLoss) -> tuple[float, float]:
    """Pair-averaged moments: A = E[g(i) g(j) H_ij] and
    B = E[g(i) H_ij (g^T H)_j]."""
    g, H = ql.g, ql.H
    a = pair_mean(H * np.outer(g, g))
    b = pair_mean(H * np.outer(g, H @ g))
    return a, b


def linearized_expected_interaction(c: float, d: float, ql: QuadraticLoss) -> float:
    """Pair-mean of the first-order interaction of delta = c*g + d*Hg, with
    the H^2 (d^2) term dropped as in the linearization."""
    g, H = ql.g, ql.H
    hg = H @ g
    trunc = H * (c * c * np.outer(g, g) + c * d * (np.outer(g, hg) + np.outer(hg, g)))
    return pair_mean(trunc)


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
    if t_max < 5:
        raise ValueError("t_max must be >= 5")
    a_m, b_m = interaction_moments(ql)
    ts = np.arange(3, t_max + 1)
    e_prop = np.empty(ts.size)
    e_base = np.empty(ts.size)
    max_rel = 0.0
    for k, t in enumerate(ts):
        coef = closed_form_coefficients(int(t), beta, gamma)
        e_prop[k] = linearized_expected_interaction(coef.c, coef.d, ql)
        e_base[k] = linearized_expected_interaction(coef.h, coef.l, ql)
        pred_prop = coef.c**2 * a_m + 2.0 * coef.c * coef.d * b_m
        pred_base = t**2 * a_m + t**2 * (t - 1) * b_m
        for pred, got in ((pred_prop, e_prop[k]), (pred_base, e_base[k])):
            denom = max(abs(pred), abs(got), 1e-300)
            max_rel = max(max_rel, abs(pred - got) / denom)
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
