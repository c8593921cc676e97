"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The transfer-trend criteria share one 20-seed sweep (saaet, dra, sga and the
current-image-heavy sub-triangle variant) over 4-model pools on 100-pair
datasets. Reference thresholds were frozen after the recorded oracle run
(see README): mean transfer TR-ASR saaet 82.53, dra 76.91, sga 76.91
(saaet - sga = +5.62), white-box diagonal 100.0 for every method, mean
transfer alpha 0.4327 / 0.2032 / 0.1704.
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from aetlab.core import AttackConfig, DEFAULT_SCALES
from aetlab.encoders import (
    PairLoss,
    embed_captions,
    grad_loss_wrt_image,
    gradient_table,
)
from aetlab.harness import (
    DatasetDims,
    GeneratorParams,
    TRANSFER_EMBED_DIM,
    base_encoders,
    default_model_pool,
    mean_diagonal_asr,
    mean_transfer_alpha,
    mean_transfer_asr,
    run_transfer_experiment,
    surrogate_projector,
    synth_dataset,
)
from aetlab.image_attack import run_image_attack, sample_sub_triangle
from aetlab.subspace import build_projection
from aetlab.text_attack import run_text_attack, word_neighbours
from aetlab.theory import (
    closed_form_coefficients,
    interaction_moments,
    random_quadratic,
    verify_theorem,
)
from oracles import (
    attack_iterates,
    caption_rows,
    image_rows,
    finite_difference_grad,
    pair_loss,
    pair_setup,
    residual_slope,
    run_sga_attack,
    simulate_linearized_updates,
    table_row,
)

# Frozen after the reference oracle run; the criterion demands >= 2.0.
MIN_TRANSFER_GAP = 2.0
MIN_DIAGONAL_ASR = 90.0
SWEEP_SEEDS = 20
SWEEP_PAIRS = 100
SWEEP_MODELS = 4


def report(capsys, num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {num:2d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """20-seed transfer sweep shared by criteria 8, 9, and 10."""
    variants = ("saaet", "dra", "sga", "subtriangle-C")
    acc = {v: {"off": [], "diag": [], "alpha": []} for v in variants}
    diag_alpha_exact = True
    start = time.time()
    for seed in range(SWEEP_SEEDS):
        ds = synth_dataset(
            seed=seed, n_pairs=SWEEP_PAIRS,
            dims=DatasetDims(embed_dim=TRANSFER_EMBED_DIM),
        )
        pool = default_model_pool(ds, n_models=SWEEP_MODELS)
        cfg = AttackConfig(master_seed=seed)
        for v in variants:
            reports = run_transfer_experiment(ds, pool, cfg, variant=v)
            acc[v]["off"].append(mean_transfer_asr(reports))
            acc[v]["diag"].append(mean_diagonal_asr(reports))
            acc[v]["alpha"].append(mean_transfer_alpha(reports))
            diag_alpha_exact &= all(
                r.alpha_mean == 1.0 for r in reports if r.surrogate == r.target
            )
    return acc, diag_alpha_exact, time.time() - start


def test_criterion_1_projector_correctness(capsys):
    rng = np.random.default_rng(0)
    start = time.time()
    worst = 0.0
    for k in range(100):
        d = int(rng.choice([8, 32, 64]))
        n = int(rng.integers(1, 2 * d + 1))
        emb = rng.standard_normal((n, d))
        p = build_projection(emb)
        worst = max(
            worst,
            float(np.max(np.abs(p - p.T))),
            float(np.max(np.abs(p @ p - p))),
            float(np.max(np.abs(emb @ p - emb))),
        )
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(capsys, 1, "projector symmetric/idempotent/span-fixing", ok,
           f"max residual {worst:.2e}, {elapsed:.1f}s over 100 corpora")


def test_criterion_2_theorem_coefficients(capsys):
    rng = np.random.default_rng(1)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        beta, gamma = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        for coef in simulate_linearized_updates(50, beta, gamma):
            ref = closed_form_coefficients(coef.t, beta, gamma)
            worst = max(
                worst,
                abs(coef.a - ref.a), abs(coef.b - ref.b),
                abs(coef.c - ref.c), abs(coef.d - ref.d),
                abs(coef.e - ref.e), abs(coef.f - ref.f),
                abs(coef.h - ref.h), abs(coef.l - ref.l),
            )
    sga_ok = all(
        c.f == c.t - 1 and c.l == c.t * (c.t - 1) / 2
        and c.b == c.f and c.d == c.l
        for c in simulate_linearized_updates(50, 0.0, 1.0)
    )
    elapsed = time.time() - start
    ok = worst < 1e-12 and sga_ok and elapsed < 1.0
    report(capsys, 2, "linearized coefficient recursions match closed forms", ok,
           f"max deviation {worst:.2e}, single-history special case "
           f"{'ok' if sga_ok else 'bad'}, {elapsed:.2f}s")


def test_criterion_3_theorem_ordering(capsys):
    rng = np.random.default_rng(2)
    start = time.time()
    checked = 0
    ok = True
    worst_cubic = 0.0
    while checked < 50:
        ql = random_quadratic(rng, 12)
        _, b_m = interaction_moments(ql)
        if b_m <= 0:
            continue
        checked += 1
        beta = float(rng.uniform(0.0, 0.5))
        gamma = 0.5 - beta
        rep = verify_theorem(ql, beta, gamma, t_max=50)
        ok &= bool(np.all(rep.gap > 0)) and rep.identity_max_rel_err < 1e-9
        worst_cubic = max(
            worst_cubic,
            abs(rep.cubic_proposed - 0.5 * b_m) / abs(b_m),
            abs(rep.cubic_baseline - b_m) / abs(b_m),
        )
        ok &= worst_cubic < 1e-6
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report(capsys, 3, "history reuse lowers expected interaction, cubic rates", ok,
           f"50 instances, worst cubic rel err {worst_cubic:.2e}, {elapsed:.1f}s")


def test_criterion_4_exact_vs_linearized(capsys):
    rng = np.random.default_rng(3)
    start = time.time()
    slopes = []
    for _ in range(5):
        ql = random_quadratic(rng, 10)
        beta = float(rng.uniform(0.0, 0.5))
        gamma = float(rng.uniform(0.0, 0.5))
        t = int(rng.integers(5, 11))
        slopes.append(
            residual_slope(ql, beta, gamma, t, etas=np.logspace(-5, -2, 8))
        )
    elapsed = time.time() - start
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes) and elapsed < 5.0
    report(capsys, 4, "linearization residual scales quadratically", ok,
           f"slopes {[round(s, 3) for s in slopes]}, {elapsed:.1f}s")


def test_criterion_5_gradient_fidelity(capsys):
    rng = np.random.default_rng(4)
    start = time.time()
    worst = 0.0
    for k in range(100):
        pair = base_encoders(int(rng.integers(1 << 30)), DatasetDims(8, 8, 16, 64),
                             GeneratorParams(semantic_rank=4, table_jitter=0.05))
        x = np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0.0, 1.0)
        caption = tuple(int(t) for t in rng.integers(0, 64, size=4))
        scale = float(rng.choice(DEFAULT_SCALES))
        projector = None
        if k % 2 == 1:
            projector = build_projection(rng.standard_normal((5, 16)))
        u = embed_captions(pair.text, [caption], projector)[0]
        grads = table_row(gradient_table(pair.image, u[None], x.shape, (scale,)))
        analytic = grad_loss_wrt_image(PairLoss(pair.image, u, grads, projector), x, scale)
        fd = finite_difference_grad(
            lambda z: pair_loss(pair, z, caption, projector, scale), x
        )
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-300))
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 30.0
    report(capsys, 5, "analytic gradients match finite differences", ok,
           f"worst rel err {worst:.2e} over 100 instances, {elapsed:.1f}s")


def test_criterion_6_attack_feasibility(capsys):
    start = time.time()
    ds = synth_dataset(seed=0, n_pairs=100,
                       dims=DatasetDims(embed_dim=TRANSFER_EMBED_DIM))
    cfg = AttackConfig(master_seed=0)
    projector = surrogate_projector(ds, ds.base, cfg)
    near = word_neighbours(ds.base.text, cfg.word_list_size)
    eps_ok = True
    text_ok = True
    for p in range(ds.n_pairs):
        x, cap = ds.images[p], ds.captions[p]
        seed = np.random.SeedSequence([0, 0, p])
        loss, box = pair_setup(x, cap, ds.base, projector, cfg)
        adv, prev, _, _ = run_image_attack(x, loss, box, cfg, np.random.default_rng(seed))
        iterates = attack_iterates(x, cap, ds.base, projector, cfg, seed)
        eps_ok &= np.array_equal(iterates[-1], adv) and np.array_equal(iterates[-2], prev)
        for inter in iterates:
            eps_ok &= float(np.max(np.abs(inter - x))) <= cfg.eps_image + 1e-12
            eps_ok &= inter.min() >= 0.0 and inter.max() <= 1.0
        adv_cap, _ = run_text_attack(*caption_rows(cap, ds.base, projector, near),
                                     *image_rows(ds.base, projector, x, prev, adv), loss, cfg)
        text_ok &= sum(a != b for a, b in zip(adv_cap, cap)) <= 1
    elapsed = time.time() - start
    ok = eps_ok and text_ok and elapsed < 120.0
    report(capsys, 6, "pixel and word budgets hold at every step", ok,
           f"100 pairs, eps {'ok' if eps_ok else 'bad'}, "
           f"words {'ok' if text_ok else 'bad'}, {elapsed:.1f}s")


def test_criterion_7_sga_regression(capsys):
    rng = np.random.default_rng(5)
    start = time.time()
    identical = True
    for _ in range(30):
        pair = base_encoders(int(rng.integers(1 << 30)), DatasetDims(8, 8, 16, 64),
                             GeneratorParams(semantic_rank=4, table_jitter=0.05))
        x = np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0.0, 1.0)
        caption = tuple(int(t) for t in rng.integers(0, 64, size=4))
        cfg = AttackConfig(steps=int(rng.integers(2, 11)), samples=1)
        seed = int(rng.integers(1 << 30))
        a, prev_a, _, _ = run_image_attack(
            x, *pair_setup(x, caption, pair, None, cfg), cfg,
            np.random.default_rng(seed), pin_current=True,
        )
        b, prev_b = run_sga_attack(
            x, caption, pair, None, cfg, np.random.default_rng(seed)
        )
        identical &= np.array_equal(a, b) and np.array_equal(prev_a, prev_b)
    elapsed = time.time() - start
    ok = identical and elapsed < 30.0
    report(capsys, 7, "pinned-vertex triangle reduces bitwise to plain baseline",
           ok, f"30 seeded runs, {elapsed:.1f}s")


def test_criterion_8_directional_transfer_gain(capsys, sweep):
    acc, _, elapsed = sweep
    saaet = float(np.mean(acc["saaet"]["off"]))
    dra = float(np.mean(acc["dra"]["off"]))
    sga = float(np.mean(acc["sga"]["off"]))
    diag_min = min(
        min(acc[v]["diag"]) for v in ("saaet", "dra", "sga")
    )
    ok = (
        saaet >= dra >= sga
        and saaet - sga >= MIN_TRANSFER_GAP
        and diag_min >= MIN_DIAGONAL_ASR
        and elapsed < 900.0
    )
    report(capsys, 8, "transfer ASR ordering with projected-triangle gain", ok,
           f"saaet {saaet:.2f} >= dra {dra:.2f} >= sga {sga:.2f}, "
           f"gap {saaet - sga:+.2f} (need >= {MIN_TRANSFER_GAP}), "
           f"diag min {diag_min:.1f}, sweep {elapsed:.0f}s")


def test_criterion_9_sub_triangle_ordering(capsys, sweep):
    acc, _, _ = sweep
    region_a = float(np.mean(acc["saaet"]["off"]))
    region_c = float(np.mean(acc["subtriangle-C"]["off"]))
    ok = region_a >= region_c
    report(capsys, 9, "clean-heavy sub-triangle at least matches current-heavy",
           ok, f"region A {region_a:.2f} >= region C {region_c:.2f}")


def test_criterion_10_alpha_metric_sanity(capsys, sweep):
    acc, diag_alpha_exact, _ = sweep
    start = time.time()
    methods = ("saaet", "dra", "sga")
    asr = [float(np.mean(acc[v]["off"])) for v in methods]
    alpha = [float(np.mean(acc[v]["alpha"])) for v in methods]
    rho = float(spearmanr(asr, alpha).statistic)
    elapsed = time.time() - start
    ok = diag_alpha_exact and rho > 0 and elapsed < 60.0
    report(capsys, 10, "white-box alpha is 1, alpha ranks track ASR ranks", ok,
           f"diag alpha exact {'yes' if diag_alpha_exact else 'no'}, "
           f"alpha {', '.join(f'{v} {a:.3f}' for v, a in zip(methods, alpha))}, "
           f"spearman {rho:+.2f}")


def test_criterion_11_simplex_sampling(capsys):
    start = time.time()
    rng = np.random.default_rng(6)
    arr = sample_sub_triangle(100_000, rng, "A")
    means = arr.mean(axis=0)
    target = np.array([11.0, 5.0, 2.0]) / 18.0
    compliant = float(np.mean((arr[:, 0] >= arr[:, 1]) & (arr[:, 1] >= arr[:, 2])))
    elapsed = time.time() - start
    ok = (
        bool(np.all(np.abs(means - target) < 0.01))
        and compliant == 1.0
        and elapsed < 2.0
    )
    report(capsys, 11, "sub-triangle sampling means and ordering", ok,
           f"means {np.round(means, 4).tolist()} vs "
           f"{np.round(target, 4).tolist()}, ordering {compliant:.0%}, "
           f"{elapsed:.1f}s")
