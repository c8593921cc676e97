"""Evolution-triangle image attack.

Each iteration keeps a triangle of (clean, previous adversarial, current
adversarial) images, samples convex combinations from a chosen sub-triangle,
turns each sample into a sign-gradient perturbation direction, picks the
direction that most increases the image-text mismatch at the current
adversarial point, then takes a multi-scale sign step from the selected
sample and projects back into the L-inf budget.

The optimized objective is the image-text mismatch, i.e. the negated
(optionally subspace-projected) dot-product similarity: driving the true
pair's similarity down is what breaks retrieval. The caption enters only
through its (projected) text direction u, computed once per attack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AttackConfig, SimplexWeights, convex_combine, linf_project
from .encoders import (
    EncoderPair,
    LinearImageEncoder,
    grad_loss_wrt_image,
    image_loss,
    text_direction,
)
from .subspace import ProjectionBasis

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
class TrajectoryState:
    clean: np.ndarray
    prev: np.ndarray
    cur: np.ndarray
    step: int


@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float  # mismatch objective of the current adversarial image
    lam: float
    beta: float
    gamma: float
    chosen_index: int


@dataclass
class AttackTrace:
    records: list[StepRecord] = field(default_factory=list)
    intermediates: list[np.ndarray] | None = None


def mismatch_value(
    x: np.ndarray,
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    projector: ProjectionBasis | None,
) -> float:
    """Attack objective: negated (projected) similarity of x with the text
    direction u."""
    return -image_loss(enc_i, x, u, projector)


def mismatch_grad(
    x: np.ndarray, u: np.ndarray, enc_i: LinearImageEncoder, scale: float = 1.0
) -> np.ndarray:
    return -grad_loss_wrt_image(enc_i, x, u, scale)


def _normalized_sign(g: np.ndarray) -> np.ndarray:
    """sign(g / ||g||) with sign(0) = 0; normalization cannot flip signs."""
    n = np.linalg.norm(g)
    if n == 0.0:
        return np.zeros_like(g)
    return np.sign(g / n)


def _multiscale_grad(
    x: np.ndarray, u: np.ndarray, enc_i: LinearImageEncoder, cfg: AttackConfig
) -> np.ndarray:
    total = np.zeros_like(x)
    for scale in cfg.scales:
        total += mismatch_grad(x, u, enc_i, scale)
    return total


def sample_sub_triangle(m: int, rng: np.random.Generator, region: str = "A") -> list[SimplexWeights]:
    """m weight triples uniform over one strict-ordering region of the simplex.

    Draws uniform on the full simplex and assigns the sorted components
    according to the region's ordering, e.g. region A gives gamma < beta < lam.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    try:
        assign = REGION_ASSIGNMENTS[region]
    except KeyError:
        raise ValueError(f"unknown sub-triangle region {region!r}") from None
    draws = np.sort(rng.dirichlet(np.ones(3), size=m), axis=1)[:, ::-1]  # descending
    k = int(np.argmin(assign))  # which of (lam, beta, gamma) got the largest draw
    out = []
    for draw in draws:
        vals = [float(draw[i]) for i in assign]
        # renormalize the largest component so the triple sums to 1 exactly
        vals[k] = 1.0 - sum(v for j, v in enumerate(vals) if j != k)
        out.append(SimplexWeights(*vals))
    return out


def init_adversarial(
    x: np.ndarray,
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> TrajectoryState:
    """Gaussian-noise start projected into the budget, then one multi-scale
    sign-gradient step."""
    x0 = linf_project(
        x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image
    )
    g = _multiscale_grad(x0, u, enc_i, cfg)
    x1 = linf_project(x0 + cfg.step_size * _normalized_sign(g), x, cfg.eps_image)
    return TrajectoryState(clean=x, prev=x0, cur=x1, step=1)


def candidate_directions(
    state: TrajectoryState,
    weights: list[SimplexWeights],
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
) -> list[np.ndarray]:
    """One sign-gradient perturbation direction per sampled triangle point."""
    if not weights:
        raise ValueError("weights must be nonempty")
    dirs = []
    for w in weights:
        s = convex_combine(state.clean, state.prev, state.cur, w)
        g = mismatch_grad(s, u, enc_i)
        dirs.append(cfg.step_size * _normalized_sign(g))
    return dirs


def text_guided_select(
    state: TrajectoryState,
    directions: list[np.ndarray],
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    projector: ProjectionBasis | None,
    cfg: AttackConfig,
) -> int:
    """Index of the direction whose feasible application to the current
    adversarial image most increases the mismatch; ties go to the lowest index."""
    if not directions:
        raise ValueError("directions must be nonempty")
    best_idx = 0
    best_val = -np.inf
    for k, eps_k in enumerate(directions):
        cand = linf_project(state.cur + eps_k, state.clean, cfg.eps_image)
        val = mismatch_value(cand, u, enc_i, projector)
        if val > best_val:
            best_val = val
            best_idx = k
    return best_idx


def attack_step(
    state: TrajectoryState,
    chosen_sample: np.ndarray,
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
) -> TrajectoryState:
    """Multi-scale sign step taken at the selected sample, applied to the
    current adversarial image and projected into the budget."""
    g = _multiscale_grad(chosen_sample, u, enc_i, cfg)
    new_cur = linf_project(
        state.cur + cfg.step_size * _normalized_sign(g), state.clean, cfg.eps_image
    )
    return TrajectoryState(
        clean=state.clean, prev=state.cur, cur=new_cur, step=state.step + 1
    )


def run_image_attack(
    x: np.ndarray,
    caption,
    enc_pair: EncoderPair,
    projector: ProjectionBasis | None,
    cfg: AttackConfig,
    rng: np.random.Generator,
    forced_weights: SimplexWeights | None = None,
    keep_intermediates: bool = False,
) -> tuple[np.ndarray, np.ndarray, AttackTrace]:
    """Full T-step attack; returns the final and second-to-last adversarial
    images (the caption attack needs both) plus a per-step trace.

    forced_weights pins every triangle sample to one weight triple without
    consuming RNG; with (0, 0, 1) and samples=1 the loop reduces exactly to
    the multi-scale sign-gradient baseline.
    """
    trace = AttackTrace()
    u = text_direction(enc_pair.text, caption, projector)
    enc_i = enc_pair.image
    state = init_adversarial(x, u, enc_i, cfg, rng)
    if keep_intermediates:
        trace.intermediates = [state.prev.copy(), state.cur.copy()]
    trace.records.append(
        StepRecord(
            step=1,
            loss=mismatch_value(state.cur, u, enc_i, projector),
            lam=0.0,
            beta=0.0,
            gamma=1.0,
            chosen_index=-1,
        )
    )
    for _ in range(cfg.steps - 1):
        if forced_weights is not None:
            weights = [forced_weights] * cfg.samples
        else:
            weights = sample_sub_triangle(cfg.samples, rng, cfg.region)
        dirs = candidate_directions(state, weights, u, enc_i, cfg)
        o = text_guided_select(state, dirs, u, enc_i, projector, cfg)
        s_o = convex_combine(state.clean, state.prev, state.cur, weights[o])
        state = attack_step(state, s_o, u, enc_i, cfg)
        if keep_intermediates:
            trace.intermediates.append(state.cur.copy())
        w = weights[o]
        trace.records.append(
            StepRecord(
                step=state.step,
                loss=mismatch_value(state.cur, u, enc_i, projector),
                lam=w.lam,
                beta=w.beta,
                gamma=w.gamma,
                chosen_index=o,
            )
        )
    return state.cur, state.prev, trace

