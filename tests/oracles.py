"""Reference implementations the tests compare the package against."""
import numpy as np

from aetlab.core import (
    SimplexWeights,
    linf_project,
    scale_augment_adjoint,
    similarity_loss,
    validate_image,
)
from aetlab.encoders import encode_image, encode_text, image_loss, text_direction
from aetlab.harness import (
    ExperimentReport,
    attack_success_rate,
    craft_adversarial_pairs,
    resolve_variant,
    surrogate_projector,
)
from aetlab.image_attack import (
    REGION_ASSIGNMENTS,
    AttackTrace,
    StepRecord,
    mismatch_value,
)
from aetlab.text_attack import build_word_candidates, enumerate_text_candidates

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


def mismatch_grad_per_call(x, u, enc_i, scale=1.0):
    """Gradient of the mismatch with the back-projection W^T u / d
    recomputed on every call."""
    x = validate_image(x)
    back = (enc_i.weight.T @ u).reshape(x.shape) / enc_i.embed_dim
    return -scale_augment_adjoint(back, x.shape, scale)


def normalized_sign(g):
    """sign(g / ||g||) of one image, zeros for a zero gradient."""
    n = np.linalg.norm(g)
    if n == 0.0:
        return np.zeros_like(g)
    return np.sign(g / n)


def multiscale_grad(x, u, enc_i, cfg):
    total = np.zeros_like(x)
    for scale in cfg.scales:
        total += mismatch_grad_per_call(x, u, enc_i, scale)
    return total


def convex_combine(x, x_prev, x_cur, w: SimplexWeights):
    """Pixelwise lam*x + beta*x_prev + gamma*x_cur for one weight triple."""
    if x.shape != x_prev.shape or x.shape != x_cur.shape:
        raise ValueError("convex_combine: shape mismatch")
    return w.lam * x + w.beta * x_prev + w.gamma * x_cur


def sample_sub_triangle_loop(m, rng, region="A") -> list[SimplexWeights]:
    """sample_sub_triangle built one validated SimplexWeights at a time."""
    assign = REGION_ASSIGNMENTS[region]
    draws = np.sort(rng.dirichlet(np.ones(3), size=m), axis=1)[:, ::-1]
    k = int(np.argmin(assign))
    out = []
    for draw in draws:
        vals = [float(draw[i]) for i in assign]
        vals[k] = 1.0 - sum(v for j, v in enumerate(vals) if j != k)
        out.append(SimplexWeights(*vals))
    return out


def select_adversarial_text(candidates, scorer, original=None):
    """Candidate with maximal score; ties prefer the original caption, then
    the lowest index."""
    cands = [tuple(int(t) for t in c) for c in candidates]
    if not cands:
        raise ValueError("candidates must be nonempty")
    scores = [scorer(c) for c in cands]
    best = max(scores)
    winners = [i for i, s in enumerate(scores) if s == best]
    if original is not None:
        orig = tuple(int(t) for t in original)
        for i in winners:
            if cands[i] == orig:
                return cands[i]
    return cands[winners[0]]


def run_image_attack_per_sample(x, caption, enc_pair, projector, cfg, rng, forced_weights=None):
    """run_image_attack one triangle sample and one feasible candidate at a
    time: a SimplexWeights per sample, convex_combine, a linf_project per
    candidate, and the chosen sample recombined from its weights."""
    u = text_direction(enc_pair.text, caption, projector)
    enc_i = enc_pair.image
    prev = linf_project(x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image)
    g = multiscale_grad(prev, u, enc_i, cfg)
    cur = linf_project(prev + cfg.step_size * normalized_sign(g), x, cfg.eps_image)
    trace = AttackTrace()
    trace.records.append(StepRecord(1, mismatch_value(cur, u, enc_i, projector), 0.0, 0.0, 1.0, -1))
    for step in range(2, cfg.steps + 1):
        if forced_weights is not None:
            weights = [forced_weights] * cfg.samples
        else:
            weights = sample_sub_triangle_loop(cfg.samples, rng, cfg.region)
        best, best_val = 0, -np.inf
        for k, w in enumerate(weights):
            s = convex_combine(x, prev, cur, w)
            d = cfg.step_size * normalized_sign(mismatch_grad_per_call(s, u, enc_i))
            val = mismatch_value(linf_project(cur + d, x, cfg.eps_image), u, enc_i, projector)
            if val > best_val:
                best, best_val = k, val
        w = weights[best]
        g = multiscale_grad(convex_combine(x, prev, cur, w), u, enc_i, cfg)
        prev, cur = cur, linf_project(cur + cfg.step_size * normalized_sign(g), x, cfg.eps_image)
        trace.records.append(
            StepRecord(step, mismatch_value(cur, u, enc_i, projector), w.lam, w.beta, w.gamma, best)
        )
    return cur, prev, trace


def run_text_attack_per_candidate(caption, clean_img, prev_adv, cur_adv, enc_pair, projector, cfg):
    """run_text_attack with one encode_text call per candidate and the
    selection rule of select_adversarial_text."""
    base = tuple(int(t) for t in caption)
    wcl = build_word_candidates(base, enc_pair.text, cfg.word_list_size)
    embs = [encode_image(enc_pair.image, x) for x in (clean_img, prev_adv, cur_adv)]
    proj = (lambda v: v) if projector is None else projector.project
    embs = [proj(e) for e in embs]

    def scorer(cand):
        txt = proj(encode_text(enc_pair.text, cand))
        return -(
            cfg.kappa * similarity_loss(embs[0], txt)
            + cfg.mu * similarity_loss(embs[1], txt)
            + cfg.nu * similarity_loss(embs[2], txt)
        )

    candidates = enumerate_text_candidates(base, wcl, cfg.text_budget)
    chosen = select_adversarial_text(candidates, scorer, original=base)
    return chosen, chosen != base


def attack_pairs_per_sample(ds, surrogate, cfg, variant="saaet", stream=0):
    """harness.attack_pairs on the per-sample and per-candidate oracles."""
    run_cfg, use_projector, forced = resolve_variant(variant, cfg)
    projector = surrogate_projector(ds, surrogate, cfg, stream) if use_projector else None
    out = []
    for p in range(ds.n_pairs):
        x, cap = ds.images[p], ds.captions[p]
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, stream, p]))
        adv, prev, trace = run_image_attack_per_sample(
            x, cap, surrogate, projector, run_cfg, rng, forced
        )
        adv_cap, _ = run_text_attack_per_candidate(cap, x, prev, adv, surrogate, projector, run_cfg)
        out.append((adv, adv_cap, trace))
    return out


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
        g = multiscale_grad(cur, u, enc_pair.image, cfg)
        prev = cur
        cur = linf_project(
            cur + cfg.step_size * normalized_sign(g), x, cfg.eps_image
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
