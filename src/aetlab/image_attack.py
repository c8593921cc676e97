"""Evolution-triangle image attack.

Each iteration keeps a triangle of (clean, previous adversarial, current
adversarial) images, samples convex combinations from a chosen sub-triangle,
turns each sample into a sign-gradient perturbation direction, picks the
direction that most increases the image-text mismatch at the current
adversarial point, then steps the current adversarial image along the
multi-scale sign gradient at the selected sample and projects back into the
L-inf budget.

The optimized objective is the image-text mismatch, i.e. the negated
(optionally subspace-projected) core.similarity: driving the true pair's
similarity down is what breaks retrieval. The caption enters only through
its (projected) text direction u and that direction's gradient table (one
pixel-space gradient per scale), which the caller builds for all pairs at
once (see harness.attack_pairs), as it does the L-inf budget box. All
(T-1)*m triangle weights are drawn once per attack. The m triangle samples
of a step, their directions (one buffer per attack) and their feasible
candidates are (m, H, W) stacks; the T iterates' trace losses are scored
once, on the (T, H, W) stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import REGION_ASSIGNMENTS, AttackConfig, linf_project, similarity, validate_simplex
from .encoders import EncoderPair, LinearImageEncoder, embed_images, grad_loss_wrt_image

@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float  # mismatch objective of the current adversarial image
    lam: float
    beta: float
    gamma: float
    chosen_index: int


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
    draws = rng.dirichlet(np.ones(3), size=m)
    weights = np.sort(draws, axis=1)[:, [2 - i for i in assign]]  # assign is descending
    # renormalize the largest component so each triple sums to 1 exactly
    k = assign.index(0)  # which of (lam, beta, gamma) got the largest draw
    a, b = (j for j in range(3) if j != k)
    weights[:, k] = 1.0 - (weights[:, a] + weights[:, b])
    return validate_simplex(weights)


def _sign_step(
    x: np.ndarray,
    at: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    grads: dict[float, np.ndarray],
    enc_i: LinearImageEncoder,
    cfg: AttackConfig,
) -> np.ndarray:
    """x plus a sign step along the mismatch gradient, the negated
    similarity gradient summed over cfg.scales at the point `at`, projected
    into the budget box (see core.linf_box). The sum accumulates in the
    first scale's fresh copy."""
    g = grad_loss_wrt_image(enc_i, at, grads, cfg.scales[0])
    for scale in cfg.scales[1:]:
        g += grad_loss_wrt_image(enc_i, at, grads, scale)
    np.sign(g, out=g)
    g *= -cfg.step_size
    g += x
    return linf_project(g, box)


def text_guided_select(
    cur: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    directions: np.ndarray,
    u: np.ndarray,
    enc_i: LinearImageEncoder,
    projector: np.ndarray | None,
) -> int:
    """Index of the direction whose feasible application to the current
    adversarial image cur, projected into the budget box, most increases
    the mismatch, i.e. gives the lowest similarity with u; ties go to the
    lowest index.

    The stack of feasible candidates is embedded with embed_images and
    scored with one similarity call.
    """
    if len(directions) == 0 or u.ndim != 1:
        raise ValueError("need nonempty directions and a (d,) text direction")
    sims = similarity(embed_images(enc_i, linf_project(cur + directions, box), projector), u)
    return sims.index(min(sims))


def run_image_attack(
    x: np.ndarray,
    u: np.ndarray,
    grads: dict[float, np.ndarray],
    box: tuple[np.ndarray, np.ndarray],
    enc_pair: EncoderPair,
    projector: np.ndarray | None,
    cfg: AttackConfig,
    rng: np.random.Generator,
    pin_current: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[StepRecord]]:
    """Full T-step attack on the clean image x; returns the final and
    second-to-last adversarial images (the caption attack needs both) plus
    one StepRecord per step. u is the caption's (projected) text direction,
    grads its gradient table {scale: (H, W)} over cfg.scales (one pair's
    row of encoders.gradient_table) and box = core.linf_box(x,
    cfg.eps_image). Step 1 is a multi-scale sign step from a
    Gaussian-noise start in the budget.

    The triangle weights of steps 2..T are drawn together after the start
    noise, which leaves the RNG where per-step draws would; a run with
    steps=t from the same RNG state draws a prefix of them, so it returns
    this run's iterates t and t-1. pin_current pins every triangle sample
    to the current adversarial image, the (0, 0, 1) vertex, and draws no
    weights; with samples=1 the loop reduces exactly to the multi-scale
    sign-gradient baseline.
    """
    enc_i = enc_pair.image
    prev = linf_project(x + cfg.eps_image * rng.standard_normal(x.shape), box)
    cur = _sign_step(prev, prev, box, grads, enc_i, cfg)
    iterates, picks = [cur], [(0.0, 0.0, 1.0, -1)]
    n_rows = (cfg.steps - 1) * cfg.samples
    if pin_current:
        all_weights = np.tile([0.0, 0.0, 1.0], (n_rows, 1))
    else:
        all_weights = sample_sub_triangle(n_rows, rng, cfg.region)
    dirs = np.empty((cfg.samples, *x.shape))
    for weights in all_weights.reshape(-1, cfg.samples, 3):
        lam, beta, gamma = weights.T[:, :, None, None]
        samples = lam * x + beta * prev + gamma * cur
        for k, s in enumerate(samples):
            dirs[k] = grad_loss_wrt_image(enc_i, s, grads)
        np.sign(dirs, out=dirs)
        dirs *= -cfg.step_size  # a sign step along the mismatch gradient
        o = text_guided_select(cur, box, dirs, u, enc_i, projector)
        prev, cur = cur, _sign_step(cur, samples[o], box, grads, enc_i, cfg)
        iterates.append(cur)
        picks.append((*weights[o].tolist(), o))
    # each step's loss is the mismatch of its iterate, all scored at the end
    sims = similarity(embed_images(enc_i, iterates, projector), u)
    trace = [StepRecord(t, -s, *pick) for t, (s, pick) in enumerate(zip(sims, picks), start=1)]
    return cur, prev, trace
