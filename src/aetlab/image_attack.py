"""Evolution-triangle image attack.

Each iteration keeps a triangle of (clean, previous adversarial, current
adversarial) images, samples convex combinations from a chosen sub-triangle,
turns each sample into a sign-gradient perturbation direction, picks the
direction that most increases the image-text mismatch at the current
adversarial point (a lone sample is taken unscored, its direction unused),
then steps the current adversarial image along the multi-scale sign
gradient at the selected sample and projects back into the L-inf budget.

The optimized objective is the image-text mismatch, the negated
encoders.PairLoss: driving the true pair's similarity down is what breaks
retrieval. The loss holds the caption's embedding and gradient rows, which
the caller builds for all pairs at once (see harness.attack_pairs), as it
does the L-inf budget box. All (T-1)*m triangle weights are drawn once per
attack. The m triangle samples of a step and their directions (a buffer
each per attack) and their feasible candidates are (m, H, W) stacks, and
every sign step of an attack works in one (H, W) scratch array; the T
iterates are embedded once, on the (T, H, W) stack, for their trace losses,
and their rows are returned for the caption attack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import REGION_ASSIGNMENTS, AttackConfig, linf_project, validate_simplex
from .encoders import PairLoss, grad_loss_wrt_image

@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float  # mismatch objective of the current adversarial image
    lam: float
    beta: float
    gamma: float
    chosen_index: int


# Per region: the column of the ascending-sorted draw that each of (lam,
# beta, gamma) takes (REGION_ASSIGNMENTS indexes the descending one), which
# of them takes the largest draw, and the other two.
_REGION_INDEX = {
    r: (np.array([2 - i for i in a]), a.index(0), tuple(j for j in range(3) if a[j]))
    for r, a in REGION_ASSIGNMENTS.items()
}


def sample_sub_triangle(m: int, rng: np.random.Generator, region: str = "A") -> np.ndarray:
    """(m, 3) rows of (lam, beta, gamma) uniform over one strict-ordering
    region of the simplex.

    Draws uniform on the full simplex and assigns the sorted components
    according to the region's ordering, e.g. region A gives gamma < beta < lam.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    try:
        columns, k, (a, b) = _REGION_INDEX[region]
    except KeyError:
        raise ValueError(f"unknown sub-triangle region {region!r}") from None
    draws = rng.dirichlet(np.ones(3), size=m)
    weights = np.sort(draws, axis=1)[:, columns]
    # renormalize the largest component so each triple sums to 1 exactly
    weights[:, k] = 1.0 - (weights[:, a] + weights[:, b])
    return validate_simplex(weights)


def _sign_step(
    x: np.ndarray,
    at: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    loss: PairLoss,
    cfg: AttackConfig,
    buf: np.ndarray,
) -> np.ndarray:
    """x plus a sign step along the mismatch gradient, the negated loss
    gradient summed over cfg.scales at the point `at`, projected into the
    budget box (see core.linf_box), as a fresh array. buf, an array of x's
    shape, is scratch that the step overwrites and the result does not
    share: the scales are summed into it left to right, or with one scale
    the read-only row is signed straight into it."""
    g = grad_loss_wrt_image(loss, at, cfg.scales[0])
    for scale in cfg.scales[1:]:
        g = np.add(g, grad_loss_wrt_image(loss, at, scale), out=buf)
    np.sign(g, out=buf)
    buf *= -cfg.step_size
    buf += x
    return linf_project(buf, box)


def text_guided_select(
    cur: np.ndarray, box: tuple[np.ndarray, np.ndarray], directions: np.ndarray, loss: PairLoss
) -> int:
    """Index of the direction whose feasible application to the current
    adversarial image cur, projected into the budget box, gives the lowest
    loss (the largest mismatch), ties to the lowest index; the stack of
    feasible candidates is embedded and scored with one call each."""
    if len(directions) == 0:
        raise ValueError("need nonempty directions")
    sims = loss.similarity(loss.embed(linf_project(cur + directions, box)), loss.u)
    return sims.index(min(sims))


def run_image_attack(
    x: np.ndarray,
    loss: PairLoss,
    box: tuple[np.ndarray, np.ndarray],
    cfg: AttackConfig,
    rng: np.random.Generator,
    pin_current: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[StepRecord]]:
    """Full T-step attack on the clean image x; returns the final and
    second-to-last adversarial images, the (T, d) loss embeddings of the T
    iterates, whose last two rows (the caption attack's) have the bits of
    embedding those two images alone, and one StepRecord per step. loss is
    the pair's encoders.PairLoss over cfg.scales and box =
    core.linf_box(x, cfg.eps_image). Step 1 is a multi-scale sign step from
    a Gaussian-noise start in the budget.

    The triangle weights of steps 2..T are drawn together after the start
    noise, which leaves the RNG where per-step draws would; a run with
    steps=t from the same RNG state draws a prefix of them, so it returns
    this run's iterates t and t-1. pin_current pins every triangle sample
    to the current adversarial image, the (0, 0, 1) vertex, as a copy with
    the bits of the weighted sum, and draws no weights; with samples=1 the
    loop reduces exactly to the multi-scale sign-gradient baseline, taking
    each step's lone sample unscored.
    """
    step = np.empty_like(x)  # the sign steps' scratch
    prev = linf_project(x + cfg.eps_image * rng.standard_normal(x.shape), box)
    cur = _sign_step(prev, prev, box, loss, cfg, step)
    iterates, picks = [cur], [(0.0, 0.0, 1.0, -1)]
    n_rows = (cfg.steps - 1) * cfg.samples
    if pin_current:
        all_weights = np.tile([0.0, 0.0, 1.0], (n_rows, 1))
    else:
        all_weights = sample_sub_triangle(n_rows, rng, cfg.region)
    dirs = np.empty((cfg.samples, *x.shape))
    samples, term = np.empty_like(dirs), np.empty_like(dirs)
    for weights in all_weights.reshape(-1, cfg.samples, 3):
        if pin_current:
            # the bits of 0 * x + 0 * prev + 1 * cur, as the iterates, clamped
            # up to bounds clipped to [0, 1], hold no -0.0 pixel
            samples[:] = cur
        else:
            lam, beta, gamma = weights.T[:, :, None, None]
            # lam * x + beta * prev + gamma * cur, in that order, in place
            np.multiply(lam, x, out=samples)
            samples += np.multiply(beta, prev, out=term)
            samples += np.multiply(gamma, cur, out=term)
        for k, s in enumerate(samples):
            dirs[k] = grad_loss_wrt_image(loss, s)
        o = 0  # a lone sample is taken unscored, so its direction is unused
        if cfg.samples > 1:
            np.sign(dirs, out=dirs)
            dirs *= -cfg.step_size  # a sign step along the mismatch gradient
            o = text_guided_select(cur, box, dirs, loss)
        prev, cur = cur, _sign_step(cur, samples[o], box, loss, cfg, step)
        iterates.append(cur)
        picks.append((*weights[o].tolist(), o))
    # each step's loss is the mismatch of its iterate, all scored at the end
    embs = loss.embed(iterates)
    sims = loss.similarity(embs, loss.u)
    trace = [StepRecord(t, -s, *pick) for t, (s, pick) in enumerate(zip(sims, picks), start=1)]
    return cur, prev, embs, trace
