"""Reference implementations the tests compare the package against."""
import numpy as np

from aetlab.core import linf_project
from aetlab.image_attack import _multiscale_grad, _normalized_sign

FD_STEP = 1e-5


def finite_difference_grad(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function per pixel."""
    if step <= 0:
        raise ValueError("step must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def run_sga_attack(x, caption, enc_pair, projector, cfg, rng):
    """Direct multi-scale sign-gradient baseline (no triangle machinery).

    Regression oracle for run_image_attack with forced weights (0, 0, 1) and
    samples=1: both must produce bitwise-identical output for the same seed.
    """
    cur = linf_project(
        x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image
    )
    prev = cur
    for _ in range(cfg.steps):
        g = _multiscale_grad(cur, caption, enc_pair, projector, cfg)
        prev = cur
        cur = linf_project(
            cur + cfg.step_size * _normalized_sign(g), x, cfg.eps_image
        )
    return cur, prev
