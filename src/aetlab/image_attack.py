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
through its (projected) text direction u and that direction's pixel-space
back-projection, both computed once per attack. The m triangle samples,
their directions and their feasible candidates are (m, H, W) stacks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AttackConfig, SimplexWeights, linf_project, validate_simplex
from .encoders import (
    EncoderPair,
    LinearImageEncoder,
    back_project,
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
    x: np.ndarray, back: np.ndarray, enc_i: LinearImageEncoder, scale: float = 1.0
) -> np.ndarray:
    """Gradient of mismatch_value; back = back_project(enc_i, u)."""
    return -grad_loss_wrt_image(enc_i, x, back, scale)


def _normalized_sign(g: np.ndarray) -> np.ndarray:
    """sign(g / ||g||) of one (H, W) image or of each image in a stack, with
    an all-zero image giving zeros; normalization cannot flip signs. Each
    norm is sqrt(r . r), the arithmetic of np.linalg.norm."""
    flat = g.reshape(-1, g.shape[-2] * g.shape[-1])
    n = np.sqrt([r.dot(r) for r in flat]).reshape(g.shape[:-2] + (1, 1))
    return np.sign(np.divide(g, n, out=np.zeros_like(g), where=n != 0.0))


def _multiscale_grad(
    x: np.ndarray, back: np.ndarray, enc_i: LinearImageEncoder, cfg: AttackConfig
) -> np.ndarray:
    total = np.zeros_like(x)
    for scale in cfg.scales:
        total += mismatch_grad(x, back, enc_i, scale)
    return total


def sample_sub_triangle(m: int, rng: np.random.Generator, region: str = "A") -> np.ndarray:
    """(m, 3) rows of (lam, beta, gamma) uniform over one strict-ordering
    region of the simplex.

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
    weights = draws[:, list(assign)]
    # renormalize the largest component so each triple sums to 1 exactly
    k = int(np.argmin(assign))  # which of (lam, beta, gamma) got the largest draw
    a, b = (j for j in range(3) if j != k)
    weights[:, k] = 1.0 - (weights[:, a] + weights[:, b])
    return validate_simplex(weights)


def init_adversarial(
    x: np.ndarray,
    back: np.ndarray,
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> TrajectoryState:
    """Gaussian-noise start projected into the budget, then one multi-scale
    sign-gradient step."""
    x0 = linf_project(
        x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image
    )
    g = _multiscale_grad(x0, back, enc_i, cfg)
    x1 = linf_project(x0 + cfg.step_size * _normalized_sign(g), x, cfg.eps_image)
    return TrajectoryState(clean=x, prev=x0, cur=x1, step=1)


def candidate_directions(
    state: TrajectoryState,
    weights: np.ndarray,
    back: np.ndarray,
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The (m, H, W) triangle samples lam*clean + beta*prev + gamma*cur of
    the (m, 3) weights, and one sign-gradient perturbation direction per
    sample."""
    if len(weights) == 0:
        raise ValueError("weights must be nonempty")
    lam, beta, gamma = weights.T[:, :, None, None]
    samples = lam * state.clean + beta * state.prev + gamma * state.cur
    grads = np.stack([mismatch_grad(s, back, enc_i) for s in samples])
    return samples, cfg.step_size * _normalized_sign(grads)


def text_guided_select(
    state: TrajectoryState,
    directions: np.ndarray,
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    projector: ProjectionBasis | None,
    cfg: AttackConfig,
) -> int:
    """Index of the direction whose feasible application to the current
    adversarial image most increases the mismatch; ties go to the lowest index."""
    if len(directions) == 0:
        raise ValueError("directions must be nonempty")
    cands = linf_project(state.cur + directions, state.clean, cfg.eps_image)
    vals = [mismatch_value(c, u, enc_i, projector) for c in cands]
    return vals.index(max(vals))


def attack_step(
    state: TrajectoryState,
    chosen_sample: np.ndarray,
    back: np.ndarray,
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
) -> TrajectoryState:
    """Multi-scale sign step taken at the selected sample, applied to the
    current adversarial image and projected into the budget."""
    g = _multiscale_grad(chosen_sample, back, enc_i, cfg)
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
    back = back_project(enc_i, u)
    state = init_adversarial(x, back, enc_i, cfg, rng)
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
            weights = np.array([forced_weights.as_tuple()] * cfg.samples)
        else:
            weights = sample_sub_triangle(cfg.samples, rng, cfg.region)
        samples, dirs = candidate_directions(state, weights, back, enc_i, cfg)
        o = text_guided_select(state, dirs, u, enc_i, projector, cfg)
        state = attack_step(state, samples[o], back, enc_i, cfg)
        if keep_intermediates:
            trace.intermediates.append(state.cur.copy())
        lam, beta, gamma = weights[o].tolist()
        trace.records.append(
            StepRecord(
                step=state.step,
                loss=mismatch_value(state.cur, u, enc_i, projector),
                lam=lam,
                beta=beta,
                gamma=gamma,
                chosen_index=o,
            )
        )
    return state.cur, state.prev, trace

