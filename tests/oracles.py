"""Reference implementations the tests compare the package against."""
import numpy as np

from aetlab.core import linf_project, similarity_loss
from aetlab.encoders import encode_image, encode_text, image_loss, text_direction
from aetlab.harness import ExperimentReport, attack_success_rate, craft_adversarial_pairs
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


def pair_loss(enc_pair, x, caption, projector=None, scale=1.0) -> float:
    """Similarity of the (optionally scale-augmented, projected) pair: the
    function grad_loss_wrt_image differentiates, composed from the caption."""
    u = text_direction(enc_pair.text, caption, projector)
    return image_loss(enc_pair.image, x, u, projector, scale)


def run_sga_attack(x, caption, enc_pair, projector, cfg, rng):
    """Direct multi-scale sign-gradient baseline (no triangle machinery).

    Regression oracle for run_image_attack with forced weights (0, 0, 1) and
    samples=1: both must produce bitwise-identical output for the same seed.
    """
    u = text_direction(enc_pair.text, caption, projector)
    cur = linf_project(
        x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image
    )
    prev = cur
    for _ in range(cfg.steps):
        g = _multiscale_grad(cur, u, enc_pair.image, cfg)
        prev = cur
        cur = linf_project(
            cur + cfg.step_size * _normalized_sign(g), x, cfg.eps_image
        )
    return cur, prev


def retrieval_rank_per_pair(query_emb, gallery_embs, pair_index: int) -> int:
    """1 + number of gallery items strictly more similar than the true match
    (ties rank the true pair best), for one query."""
    sims = np.asarray(gallery_embs, dtype=np.float64) @ np.asarray(query_emb, dtype=np.float64)
    return int(1 + np.sum(sims > sims[pair_index]))


def alpha_per_pair(target_pair, clean_pair, surrogate_adv, target_adv) -> float:
    """Target-model loss increase of the surrogate-crafted pair over that of
    the target-crafted pair, for one pair."""

    def loss(pair):
        return similarity_loss(
            encode_image(target_pair.image, pair[0]),
            encode_text(target_pair.text, pair[1]),
        )

    clean = loss(clean_pair)
    return (clean - loss(surrogate_adv)) / (clean - loss(target_adv))


def transfer_reports_per_pair(ds, model_pool, cfg, variant="saaet"):
    """Transfer cells scored pair by pair with one encode call per pair.

    Reference for run_transfer_experiment, which scores on embedding
    matrices: the ASRs must be equal and the alphas agree to rounding.
    """
    crafted = [
        craft_adversarial_pairs(ds, sur, cfg, variant, stream=s)
        for s, sur in enumerate(model_pool)
    ]
    reports = []
    for t_idx, tgt in enumerate(model_pool):
        img_gal = np.stack([encode_image(tgt.image, x) for x in ds.images])
        txt_gal = np.stack([encode_text(tgt.text, c) for c in ds.captions])
        clean_tr = [retrieval_rank_per_pair(img_gal[p], txt_gal, p) for p in range(ds.n_pairs)]
        clean_ir = [retrieval_rank_per_pair(txt_gal[p], img_gal, p) for p in range(ds.n_pairs)]
        for s_idx, sur in enumerate(model_pool):
            adv_tr = [
                retrieval_rank_per_pair(encode_image(tgt.image, img), txt_gal, p)
                for p, (img, _) in enumerate(crafted[s_idx])
            ]
            adv_ir = [
                retrieval_rank_per_pair(encode_text(tgt.text, cap), img_gal, p)
                for p, (_, cap) in enumerate(crafted[s_idx])
            ]
            alphas = [
                alpha_per_pair(
                    tgt, (ds.images[p], ds.captions[p]), crafted[s_idx][p], crafted[t_idx][p]
                )
                for p in range(ds.n_pairs)
            ]
            reports.append(
                ExperimentReport(
                    surrogate=sur.model_id,
                    target=tgt.model_id,
                    tr_asr=attack_success_rate(clean_tr, adv_tr),
                    ir_asr=attack_success_rate(clean_ir, adv_ir),
                    alpha_mean=float(np.mean(alphas)),
                    seed=cfg.master_seed,
                )
            )
    return reports
