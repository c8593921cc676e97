"""Reference implementations the tests compare the package against, and
the shared non-finite and edge-value pixel inputs."""
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aetlab.core import (
    REGION_ASSIGNMENTS,
    SIMPLEX_TOL,
    _roundtrip_matrix,
    linf_box,
    linf_project,
    scale_augment_adjoint,
    validate_image,
)
from aetlab.encoders import embed_captions, embed_images, encode_text, gradient_table
from aetlab.harness import (
    ExperimentReport,
    attack_success_rate,
    base_encoders,
    craft_adversarial_pairs,
    resolve_variant,
    surrogate_projector,
)
from aetlab.image_attack import StepRecord, run_image_attack
from aetlab.text_attack import build_word_candidates
from aetlab.theory import (
    IDENTITY_RTOL,
    QuadraticLoss,
    TheoremReport,
    UpdateCoefficients,
    _cubic_coefficient,
    closed_form_coefficients,
)

FD_STEP = 1e-5

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# finite values whose squares overflow (the elementwise fallback of
# core.all_finite decides), underflow to zero, or are zero
EDGE_FINITE = st.sampled_from([1.7e308, -1.7e308, 1e155, -1e155, -0.0, 5e-324, -5e-324])


def planted(data, shape, elements, value):
    """A float64 array of the shape (or drawn shape) and drawn elements with
    value at one drawn index."""
    a = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    a[tuple(data.draw(st.integers(0, n - 1)) for n in a.shape)] = value
    return a


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


def pair_similarity(img_emb: np.ndarray, txt_emb: np.ndarray) -> float:
    """core.similarity of one image embedding and one text embedding, by
    its own arithmetic: the 1-D product over the embedding dimension."""
    img_emb = np.asarray(img_emb, dtype=np.float64)
    txt_emb = np.asarray(txt_emb, dtype=np.float64)
    if img_emb.shape != txt_emb.shape or img_emb.ndim != 1:
        raise ValueError(f"embedding shape mismatch: {img_emb.shape} vs {txt_emb.shape}")
    return float(img_emb @ txt_emb) / img_emb.shape[0]


def scale_augment(x: np.ndarray, scale: float) -> np.ndarray:
    """Bilinear resize to round(scale*H) x round(scale*W) and back: the
    forward map whose transpose core.scale_augment_adjoint applies. A fixed
    linear map per (H, W, scale); scale 1.0 is the identity."""
    x = validate_image(x)
    if scale <= 0:
        raise ValueError("scale must be > 0")
    h, w = x.shape
    return _roundtrip_matrix(h, scale) @ x @ _roundtrip_matrix(w, scale).T


def image_embedding(enc_i, x, projector=None) -> np.ndarray:
    """One image's embedding, times the (d, d) semantic projector when
    given: the 1-D products encoders.embed_images stacks."""
    v = enc_i.weight @ validate_image(x).ravel()
    return v if projector is None else projector @ v


def text_embedding(enc_t, caption, projector=None) -> np.ndarray:
    """One caption's embedding by encode_text, times the (d, d) semantic
    projector when given: the 1-D product encoders.embed_captions stacks."""
    u = encode_text(enc_t, caption)
    return u if projector is None else projector @ u


def image_loss(enc_i, x, u, projector=None, scale=1.0) -> float:
    """Similarity of the (optionally scale-augmented, projected) image
    embedding with the text direction u (see text_embedding): the forward
    loss whose gradient encoders.gradient_table holds."""
    x = scale_augment(x, scale) if scale != 1.0 else x
    return pair_similarity(image_embedding(enc_i, x, projector), u)


def mismatch_value(x, u, enc_i, projector) -> float:
    """Attack objective: negated (projected) similarity of x with the text
    direction u."""
    return -image_loss(enc_i, x, u, projector)


def pair_loss(enc_pair, x, caption, projector=None, scale=1.0) -> float:
    """Similarity of the (optionally scale-augmented, projected) pair: the
    function grad_loss_wrt_image differentiates, composed from the caption."""
    u = text_embedding(enc_pair.text, caption, projector)
    return image_loss(enc_pair.image, x, u, projector, scale)


def mismatch_grad_per_call(x, u, enc_i, scale=1.0):
    """Gradient of the mismatch with the back-projection W^T u / d
    recomputed on every call."""
    x = validate_image(x)
    back = (enc_i.weight.T @ u).reshape(x.shape) / enc_i.embed_dim
    return -scale_augment_adjoint(back, x.shape, scale)


def linf_project_clip(candidate, origin, eps):
    """Clamp into the eps L-inf ball around origin, then into [0, 1], with
    two np.clip calls."""
    return np.clip(np.clip(candidate, origin - eps, origin + eps), 0.0, 1.0)


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


@dataclass(frozen=True)
class SimplexWeights:
    """One (lam, beta, gamma) triple, each component in [0, 1] and the
    three summing to 1 within core.SIMPLEX_TOL, checked one value at a time."""

    lam: float
    beta: float
    gamma: float

    def __post_init__(self):
        vals = (self.lam, self.beta, self.gamma)
        if not all(0.0 <= v <= 1.0 for v in vals):  # NaN fails too
            raise ValueError(f"simplex weight outside [0, 1]: {vals}")
        if not abs(sum(vals) - 1.0) <= SIMPLEX_TOL:
            raise ValueError(f"simplex weights do not sum to 1: {vals}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam, self.beta, self.gamma)


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
    time: a SimplexWeights per sample, convex_combine, a linf_project_clip per
    candidate, and the chosen sample recombined from its weights."""
    u = text_embedding(enc_pair.text, caption, projector)
    enc_i = enc_pair.image
    prev = linf_project_clip(x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image)
    g = multiscale_grad(prev, u, enc_i, cfg)
    cur = linf_project_clip(prev + cfg.step_size * normalized_sign(g), x, cfg.eps_image)
    trace = [StepRecord(1, mismatch_value(cur, u, enc_i, projector), 0.0, 0.0, 1.0, -1)]
    for step in range(2, cfg.steps + 1):
        if forced_weights is not None:
            weights = [SimplexWeights(*forced_weights)] * cfg.samples
        else:
            weights = sample_sub_triangle_loop(cfg.samples, rng, cfg.region)
        best, best_val = 0, -np.inf
        for k, w in enumerate(weights):
            s = convex_combine(x, prev, cur, w)
            d = cfg.step_size * normalized_sign(mismatch_grad_per_call(s, u, enc_i))
            val = mismatch_value(linf_project_clip(cur + d, x, cfg.eps_image), u, enc_i, projector)
            if val > best_val:
                best, best_val = k, val
        w = weights[best]
        g = multiscale_grad(convex_combine(x, prev, cur, w), u, enc_i, cfg)
        prev, cur = cur, linf_project_clip(cur + cfg.step_size * normalized_sign(g), x, cfg.eps_image)
        trace.append(
            StepRecord(step, mismatch_value(cur, u, enc_i, projector), w.lam, w.beta, w.gamma, best)
        )
    return cur, prev, trace


def pair_setup(x, caption, enc_pair, projector, cfg):
    """(u, grads, box) of one pair, the inputs run_image_attack takes after
    x: the one-row calls of the stacked kernels harness.attack_pairs calls
    once per surrogate."""
    u = embed_captions(enc_pair.text, [caption], projector)
    grads = table_row(gradient_table(enc_pair.image, u, x.shape, cfg.scales))
    return u[0], grads, linf_box(x, cfg.eps_image)


def table_row(grads, p=0):
    """Row p of a gradient_table: one pair's {scale: (H, W)} table."""
    return {s: g[p] for s, g in grads.items()}


def image_rows(enc_pair, projector, *images):
    """The (projected) image embeddings that run_text_attack takes, one (d,)
    row per image: the one-row calls of embed_images."""
    return [embed_images(enc_pair.image, [x], projector)[0] for x in images]


def caption_rows(caption, enc_pair, projector, near):
    """(candidates, cand_embs) of one caption, the rows run_text_attack
    takes: the one-caption calls of build_word_candidates and
    embed_captions that harness.attack_pairs makes per block of pairs."""
    cands = build_word_candidates(caption, near)
    return cands, embed_captions(enc_pair.text, cands, projector)


def attack_iterates(x, caption, enc_pair, projector, cfg, seed, pin_current=False):
    """Every iterate 0..T of run_image_attack on np.random.default_rng(seed):
    the noise start recomputed from a fresh RNG, iterate 1 as the
    second-to-last image of a steps=2 run, and iterate t >= 2 as the final
    image of a steps=t run, each on a fresh RNG of the same seed."""
    noise = np.random.default_rng(seed).standard_normal(x.shape)
    start = linf_project(x + cfg.eps_image * noise, linf_box(x, cfg.eps_image))
    setup = pair_setup(x, caption, enc_pair, projector, cfg)
    runs = [
        run_image_attack(x, *setup, enc_pair, projector, replace(cfg, steps=t),
                         np.random.default_rng(seed), pin_current)
        for t in range(2, cfg.steps + 1)
    ]
    return [start, runs[0][1], *(cur for cur, _, _, _ in runs)]


def enumerate_text_candidates(caption, enc_t, word_list_size):
    """The original caption plus every single-position substitution, as a
    list of tuples built position by position: at each position the first
    word_list_size tokens of the stable argsort of the dot-product scores,
    skipping the original token."""
    base = tuple(int(t) for t in caption)
    out = [base]
    for pos, tok in enumerate(base):
        order = np.argsort(-(enc_t.table @ enc_t.table[tok]), kind="stable")
        for sub in [int(i) for i in order if int(i) != tok][:word_list_size]:
            out.append(base[:pos] + (sub,) + base[pos + 1 :])
    return out


def run_text_attack_per_candidate(caption, clean_img, prev_adv, cur_adv, enc_pair, projector, cfg):
    """run_text_attack on the list-built candidates, with one encode_text
    call per candidate and the selection rule of select_adversarial_text."""
    base = tuple(int(t) for t in caption)
    embs = [image_embedding(enc_pair.image, x) for x in (clean_img, prev_adv, cur_adv)]
    proj = (lambda v: v) if projector is None else (lambda v: projector @ v)
    embs = [proj(e) for e in embs]

    def scorer(cand):
        txt = proj(encode_text(enc_pair.text, cand))
        return -(
            cfg.kappa * pair_similarity(embs[0], txt)
            + cfg.mu * pair_similarity(embs[1], txt)
            + cfg.nu * pair_similarity(embs[2], txt)
        )

    candidates = enumerate_text_candidates(base, enc_pair.text, cfg.word_list_size)
    chosen = select_adversarial_text(candidates, scorer, original=base)
    return chosen, chosen != base


def attack_pairs_per_sample(ds, surrogate, cfg, variant="saaet", stream=0):
    """harness.attack_pairs on the per-sample and per-candidate oracles."""
    run_cfg, use_projector, pin_current = resolve_variant(variant, cfg)
    projector = surrogate_projector(ds, surrogate, cfg, stream) if use_projector else None
    forced = (0.0, 0.0, 1.0) if pin_current else None
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

    Regression oracle for run_image_attack with pin_current (every sample
    at the (0, 0, 1) vertex) and samples=1: both must produce bitwise-identical output for the same seed.
    """
    u = text_embedding(enc_pair.text, caption, projector)
    cur = linf_project_clip(
        x + cfg.eps_image * rng.standard_normal(x.shape), x, cfg.eps_image
    )
    prev = cur
    for _ in range(cfg.steps):
        g = multiscale_grad(cur, u, enc_pair.image, cfg)
        prev = cur
        cur = linf_project_clip(
            cur + cfg.step_size * normalized_sign(g), x, cfg.eps_image
        )
    return cur, prev


def caption_from_latent(table, z, length):
    """The length tokens of highest score table @ z for one latent, in
    order, ties to the lowest index."""
    order = np.argsort(-(table @ z), kind="stable")
    return tuple(int(t) for t in order[:length])


def latent_caption_pair(base, z0, length, rounds=8):
    """One pair attempt of synth_dataset, alone: from the unit start
    z0/|z0|, caption = top-L tokens for the latent and latent = unit
    caption embedding, for at most `rounds` updates of the latent. The
    (latent, caption) pair, or None unless a top-L evaluation confirms that
    the caption is the top-L set at its latent."""
    z = z0 / np.linalg.norm(z0)
    cap = caption_from_latent(base.text.table, z, length)
    for _ in range(rounds):
        emb = encode_text(base.text, cap)
        z = emb / np.linalg.norm(emb)
        cap_next = caption_from_latent(base.text.table, z, length)
        if cap_next == cap:
            return z, cap
        cap = cap_next
    return None


def distinct_draws(draw, n, budget):
    """Up to n (latent, caption) draws with distinct captions, one call of
    draw per unit of budget: a draw of None, or of a caption already taken,
    is rejected. Returns {caption: latent} in draw order and the budget
    left."""
    taken = {}
    while len(taken) < n and budget > 0:
        budget -= 1
        got = draw()
        if got is not None:
            taken.setdefault(got[1], got[0])
    return taken, budget


@dataclass(frozen=True)
class PerAttemptDataset:
    images: tuple
    captions: tuple
    held_out_texts: tuple
    latents: tuple
    pair_attempts: int  # budget spent on the pairs
    held_out_attempts: int  # and then on the held-out texts


def synth_per_attempt(seed, n_pairs, dims, gen, rounds=8):
    """synth_dataset's draws one (d,) attempt at a time, each with its own
    standard_normal(d) call on the [seed, 0xDA7A] stream: the pairs
    (latent_caption_pair with `rounds` updates), then the held-out texts
    (the top held_out_len tokens of a unit Gaussian latent), within one
    budget of 400 * (n_pairs + held_out) attempts, and one decoder product
    per image. Raises synth_dataset's messages when the budget runs out."""
    base = base_encoders(seed, dims, gen)
    d = dims.embed_dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    budget = 400 * (n_pairs + gen.held_out)
    pairs, left = distinct_draws(
        lambda: latent_caption_pair(base, rng.standard_normal(d), dims.caption_len, rounds),
        n_pairs,
        budget,
    )
    if len(pairs) < n_pairs:
        raise ValueError(
            "could not sample enough mutually retrievable pairs; "
            "raise vocab_size/semantic_rank or lower n_pairs"
        )

    def held_out_draw():
        z = rng.standard_normal(d)
        return None, caption_from_latent(base.text.table, z / np.linalg.norm(z), gen.held_out_len)

    held, rest = distinct_draws(held_out_draw, gen.held_out, left)
    if len(held) < gen.held_out:
        raise ValueError("could not sample enough held-out captions")
    decoder = base.image.weight.T
    images = tuple(
        np.clip(0.5 + gen.latent_scale * (decoder @ z), 0.0, 1.0).reshape(dims.height, dims.width)
        for z in pairs.values()
    )
    return PerAttemptDataset(
        images, tuple(pairs), tuple(held), tuple(pairs.values()), budget - left, left - rest
    )


def fixed_point_8_rounds(base, z0, length):
    """The generator's latent/caption fixed point without the confirming
    evaluation: at most 8 rounds of caption = top-L tokens at z, z = unit
    caption embedding, so the 8th caption is returned unconfirmed."""
    z = z0 / np.linalg.norm(z0)
    cap = None
    for _ in range(8):
        order = np.argsort(-(base.text.table @ z), kind="stable")
        cap_new = tuple(int(t) for t in order[:length])
        if cap_new == cap:
            break
        cap = cap_new
        emb = encode_text(base.text, cap)
        z = emb / np.linalg.norm(emb)
    return z, cap


def mutual_pairs_loop(base, rng, n_pairs, length, budget):
    """The generator's pair draws by rejection sampling with a cross-score
    check instead of a confirmed fixed point: each draw's 8-round fixed
    point (fixed_point_8_rounds) is accepted if its caption is new and,
    against each accepted pair in turn, both cross scores stay below both
    own scores. Returns the accepted latents, captions and the budget left."""
    latents, captions, embeddings, own_scores = [], [], [], []
    seen = set()
    while len(captions) < n_pairs and budget > 0:
        budget -= 1
        z0 = rng.standard_normal(base.text.embed_dim)
        z, cap = fixed_point_8_rounds(base, z0, length)
        if cap in seen:
            continue
        emb = encode_text(base.text, cap)
        own = float(emb @ z)
        ok = True
        for z_q, emb_q, own_q in zip(latents, embeddings, own_scores):
            bound = min(own, own_q)
            if float(emb_q @ z) >= bound or float(emb @ z_q) >= bound:
                ok = False
                break
        if not ok:
            continue
        seen.add(cap)
        latents.append(z)
        captions.append(cap)
        embeddings.append(emb)
        own_scores.append(own)
    return latents, captions, budget


def retrieval_rank_per_pair(query_emb, gallery_embs, pair_index: int) -> int:
    """1 + number of gallery items strictly more similar than the true match
    (ties rank the true pair best), for one query."""
    sims = np.asarray(gallery_embs, dtype=np.float64) @ np.asarray(query_emb, dtype=np.float64)
    return int(1 + np.sum(sims > sims[pair_index]))


def alpha_per_pair(target_pair, clean_pair, surrogate_adv, target_adv) -> float:
    """Target-model loss increase of the surrogate-crafted pair over that of
    the target-crafted pair, for one pair."""

    def loss(pair):
        return pair_similarity(
            image_embedding(target_pair.image, pair[0]),
            encode_text(target_pair.text, pair[1]),
        )

    clean = loss(clean_pair)
    return (clean - loss(surrogate_adv)) / (clean - loss(target_adv))


def transfer_reports_per_pair(ds, model_pool, cfg, variant="saaet"):
    """Transfer cells scored pair by pair, each embedding a 1-D product.

    Reference for run_transfer_experiment, which scores on embedding
    matrices: the reports must be equal.
    """
    crafted = [
        craft_adversarial_pairs(ds, sur, cfg, variant, stream=s)
        for s, sur in enumerate(model_pool)
    ]
    reports = []
    for t_idx, tgt in enumerate(model_pool):
        img_gal = np.stack([image_embedding(tgt.image, x) for x in ds.images])
        txt_gal = np.stack([encode_text(tgt.text, c) for c in ds.captions])
        clean_tr = [retrieval_rank_per_pair(img_gal[p], txt_gal, p) for p in range(ds.n_pairs)]
        clean_ir = [retrieval_rank_per_pair(txt_gal[p], img_gal, p) for p in range(ds.n_pairs)]
        for s_idx, sur in enumerate(model_pool):
            adv_tr = [
                retrieval_rank_per_pair(image_embedding(tgt.image, img), txt_gal, p)
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


def simulate_linearized_updates(
    t_max: int, beta: float, gamma: float
) -> list[UpdateCoefficients]:
    """Run the coefficient recursions directly (all H^2 terms dropped) and
    return the table for t = 2..t_max."""
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    # proposed: g_t = a_t g + b_t Hg with g_1 = g (a_1=1, b_1=0) and
    # b_{t+1} = (beta+gamma) * sum_{i<t} a_i + gamma * a_t
    a = [1.0]  # a_1
    b = [0.0]  # b_1
    # baseline: g'_t = g + f_t Hg with f_{t+1} = sum_{i<=t} e_i
    e = [1.0]
    f = [0.0]
    out = []
    for t in range(2, t_max + 1):
        a.append(1.0)
        b.append((beta + gamma) * sum(a[: t - 2]) + gamma * a[t - 2])
        e.append(1.0)
        f.append(sum(e[: t - 1]))
        out.append(
            UpdateCoefficients(
                t=t,
                a=a[-1],
                b=b[-1],
                c=float(sum(a)),
                d=float(sum(b)),
                e=e[-1],
                f=f[-1],
                h=float(sum(e)),
                l=float(sum(f)),
            )
        )
    return out


def simulate_exact_updates(
    ql: QuadraticLoss, t_max: int, beta: float, gamma: float, eta: float
) -> np.ndarray:
    """Exact perturbation sequence on the quadratic loss with gradient field
    g(x + v) = g + eta*H v; returns delta_t stacked for t = 1..t_max."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    hh = eta * ql.H
    deltas = np.zeros((t_max + 1, ql.n))  # index 0 is delta_0 = 0
    acc = np.zeros(ql.n)
    for t in range(1, t_max + 1):
        if t == 1:
            g_t = ql.g
        else:
            g_t = ql.g + hh @ (beta * deltas[t - 2] + gamma * deltas[t - 1])
        acc = acc + g_t
        deltas[t] = acc
    return deltas[1:]


def residual_slope(
    ql: QuadraticLoss,
    beta: float,
    gamma: float,
    t: int,
    etas,
) -> float:
    """Log-log slope of ||delta_t(eta) - c_t g - d_t eta H g|| versus eta.

    Slope 2 confirms the linearized coefficients capture everything up to
    the quadratic-in-eta remainder.
    """
    coef = closed_form_coefficients(t, beta, gamma)
    hg = ql.H @ ql.g
    residuals = []
    for eta in etas:
        delta_t = simulate_exact_updates(ql, t, beta, gamma, eta)[t - 1]
        lin = coef.c * ql.g + coef.d * eta * hg
        residuals.append(np.linalg.norm(delta_t - lin))
    logs = np.log(np.asarray(residuals))
    le = np.log(np.asarray(list(etas), dtype=np.float64))
    slope, _ = np.polyfit(le, logs, 1)
    return float(slope)


def _pair_mean_matrix(interactions: np.ndarray) -> float:
    """Mean over ordered pairs i != j of one (n, n) matrix."""
    n = interactions.shape[0]
    if n < 2:
        raise ValueError("need n >= 2 for pairwise expectation")
    return float((interactions.sum() - np.trace(interactions)) / (n * (n - 1)))


def linearized_interaction_per_step(c: float, d: float, ql: QuadraticLoss) -> float:
    """theory.linearized_expected_interaction for one scalar (c, d): its own
    three outer products and one (n, n) pair mean."""
    g, H = ql.g, ql.H
    hg = H @ g
    trunc = H * (c * c * np.outer(g, g) + c * d * (np.outer(g, hg) + np.outer(hg, g)))
    return _pair_mean_matrix(trunc)


def verify_theorem_per_step(
    ql: QuadraticLoss, beta: float, gamma: float, t_max: int = 50
) -> TheoremReport:
    """theory.verify_theorem one step at a time: scalar closed-form
    coefficients, two linearized_interaction_per_step calls and the two
    relative identity errors per step t = 3..t_max."""
    if t_max < 6:
        raise ValueError("t_max must be >= 6")
    g, H = ql.g, ql.H
    a_m = _pair_mean_matrix(H * np.outer(g, g))
    b_m = _pair_mean_matrix(H * np.outer(g, H @ g))
    ts = np.arange(3, t_max + 1)
    e_prop = np.empty(ts.size)
    e_base = np.empty(ts.size)
    max_rel = 0.0
    for k, t in enumerate(ts):
        coef = closed_form_coefficients(int(t), beta, gamma)
        e_prop[k] = linearized_interaction_per_step(coef.c, coef.d, ql)
        e_base[k] = linearized_interaction_per_step(coef.h, coef.l, ql)
        pred_prop = coef.c**2 * a_m + 2.0 * coef.c * coef.d * b_m
        pred_base = t**2 * a_m + t**2 * (t - 1) * b_m
        for pred, got in ((pred_prop, e_prop[k]), (pred_base, e_base[k])):
            denom = max(abs(pred), abs(got), 1e-300)
            max_rel = max(max_rel, abs(pred - got) / denom)
    gap = e_base - e_prop
    check_ordering = b_m > 0 and beta + gamma < 1.0
    ordering_ok = bool(np.all(gap > 0)) if check_ordering else True
    return TheoremReport(
        ts=ts,
        e_proposed=e_prop,
        e_baseline=e_base,
        gap=gap,
        a_moment=a_m,
        b_moment=b_m,
        identity_max_rel_err=max_rel,
        ordering_ok=ordering_ok,
        cubic_proposed=_cubic_coefficient(ts, e_prop),
        cubic_baseline=_cubic_coefficient(ts, e_base),
        passed=max_rel < IDENTITY_RTOL and ordering_ok,
    )
