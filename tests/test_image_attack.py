from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aetlab.core import REGION_ASSIGNMENTS, AttackConfig, linf_box, linf_project
from aetlab.encoders import (
    PairLoss,
    embed_captions,
    embed_images,
    grad_loss_wrt_image,
    gradient_table,
)
from aetlab.image_attack import (
    _sign_step,
    run_image_attack,
    sample_sub_triangle,
    text_guided_select,
)
from aetlab.subspace import build_projection
from aetlab.harness import (
    TRANSFER_EMBED_DIM,
    DatasetDims,
    GeneratorParams,
    base_encoders,
    resolve_variant,
    surrogate_projector,
    synth_dataset,
)
from oracles import (
    SimplexWeights,
    attack_iterates,
    convex_combine,
    mismatch_value,
    normalized_sign,
    pair_loss,
    pair_setup,
    run_sga_attack,
    sample_sub_triangle_loop,
    table_row,
)

REGION_ORDERINGS = {
    # region -> (smallest, middle, largest) component names
    "A": lambda lam, beta, gamma: gamma <= beta <= lam,
    "B": lambda lam, beta, gamma: gamma <= lam <= beta,
    "C": lambda lam, beta, gamma: lam <= gamma <= beta,
    "D": lambda lam, beta, gamma: lam <= beta <= gamma,
    "E": lambda lam, beta, gamma: beta <= lam <= gamma,
    "F": lambda lam, beta, gamma: beta <= gamma <= lam,
}


class TestSampleSubTriangle:
    @pytest.mark.parametrize("region", sorted(REGION_ASSIGNMENTS))
    def test_ordering_holds(self, region):
        r = np.random.default_rng(0)
        for w in sample_sub_triangle(200, r, region):
            assert REGION_ORDERINGS[region](*w)

    def test_sums_to_one_within_simplex_tolerance(self):
        r = np.random.default_rng(1)
        for lam, beta, gamma in sample_sub_triangle(100, r, "A"):
            assert abs(lam + beta + gamma - 1.0) <= 1e-12

    def test_deterministic_given_rng_state(self):
        a = sample_sub_triangle(5, np.random.default_rng(7), "A")
        b = sample_sub_triangle(5, np.random.default_rng(7), "A")
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("region", sorted(REGION_ASSIGNMENTS))
    def test_rows_equal_validated_loop(self, region):
        # the (m, 3) array and one SimplexWeights per draw, from the same
        # RNG state, agree row for row and leave the RNG in the same state
        r_arr, r_loop = np.random.default_rng(11), np.random.default_rng(11)
        arr = sample_sub_triangle(300, r_arr, region)
        loop = sample_sub_triangle_loop(300, r_loop, region)
        assert arr.shape == (300, 3)
        assert np.array_equal(arr, np.array([w.as_tuple() for w in loop]))
        assert r_arr.random() == r_loop.random()

    @pytest.mark.parametrize("region", sorted(REGION_ASSIGNMENTS))
    @pytest.mark.parametrize("steps, samples", [(10, 5), (2, 1), (7, 3)])
    def test_one_draw_equals_per_step_draws(self, region, steps, samples):
        # run_image_attack draws the (T - 1) * m weights of a pair at once:
        # the same rows, in step order, as T - 1 draws of m, and the RNG
        # left in the same state
        r_once, r_steps = np.random.default_rng(5), np.random.default_rng(5)
        once = sample_sub_triangle((steps - 1) * samples, r_once, region)
        per_step = [sample_sub_triangle(samples, r_steps, region) for _ in range(steps - 1)]
        assert np.array_equal(once.reshape(steps - 1, samples, 3), np.stack(per_step))
        assert r_once.bit_generator.state == r_steps.bit_generator.state

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_sub_triangle(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_sub_triangle(1, np.random.default_rng(0), "G")


@pytest.fixture
def tiny_u(tiny_pair, tiny_caption):
    return embed_captions(tiny_pair.text, [tiny_caption], None)[0]


@pytest.fixture
def tiny_loss(tiny_pair, tiny_image, tiny_u):
    grads = table_row(gradient_table(tiny_pair.image, tiny_u[None], tiny_image.shape, (1.0,)))
    return PairLoss(tiny_pair.image, tiny_u, grads, None)


class TestObjective:
    def test_mismatch_is_negated_similarity(self, tiny_pair, tiny_image, tiny_caption, rng):
        for projector in (None, build_projection(rng.standard_normal((5, 16)))):
            u = embed_captions(tiny_pair.text, [tiny_caption], projector)[0]
            assert mismatch_value(tiny_image, u, tiny_pair.image, projector) == -pair_loss(
                tiny_pair, tiny_image, tiny_caption, projector
            )

    def test_step_along_gradient_increases_mismatch(self, tiny_pair, tiny_image, tiny_u, tiny_loss):
        g = -grad_loss_wrt_image(tiny_loss, tiny_image)
        before = mismatch_value(tiny_image, tiny_u, tiny_pair.image, None)
        after = mismatch_value(tiny_image + 1e-4 * g, tiny_u, tiny_pair.image, None)
        assert after > before


class TestSignStep:
    @pytest.mark.parametrize("factor", [1e-170, 1e160])
    def test_gradient_scale_does_not_change_the_step(
        self, tiny_pair, tiny_image, tiny_u, fast_cfg, factor
    ):
        # the squared norm of the scaled gradient under- or overflows, yet
        # a sign step depends only on the signs
        grads = table_row(
            gradient_table(tiny_pair.image, tiny_u[None], tiny_image.shape, fast_cfg.scales)
        )
        scaled = {s: factor * g for s, g in grads.items()}
        box = linf_box(tiny_image, fast_cfg.eps_image)
        want = _sign_step(
            tiny_image, tiny_image, box, PairLoss(tiny_pair.image, tiny_u, grads, None), fast_cfg,
            np.empty_like(tiny_image),
        )
        got = _sign_step(
            tiny_image, tiny_image, box, PairLoss(tiny_pair.image, tiny_u, scaled, None), fast_cfg,
            np.empty_like(tiny_image),
        )
        assert np.array_equal(got, want)
        assert np.max(np.abs(got - tiny_image)) == pytest.approx(fast_cfg.step_size)

    def test_zero_gradient_gives_no_step(self, tiny_pair, tiny_image, tiny_u, fast_cfg):
        zeros = {s: np.zeros_like(tiny_image) for s in fast_cfg.scales}
        box = linf_box(tiny_image, fast_cfg.eps_image)
        got = _sign_step(
            tiny_image, tiny_image, box, PairLoss(tiny_pair.image, tiny_u, zeros, None), fast_cfg,
            np.empty_like(tiny_image),
        )
        assert np.array_equal(got, tiny_image)

    @pytest.mark.parametrize("scales", [(1.0,), (0.5, 0.75, 1.0, 1.25, 1.5)])
    def test_scratch_contents_do_not_reach_the_result(
        self, tiny_pair, tiny_image, tiny_u, rng, scales
    ):
        # the step overwrites its scratch before reading it, and returns an
        # array of its own: a NaN-filled scratch gives the bits of the old
        # fresh-array step, and later writes to the scratch leave them
        cfg = AttackConfig(scales=scales)
        grads = table_row(gradient_table(tiny_pair.image, tiny_u[None], tiny_image.shape, scales))
        at = np.clip(tiny_image + 0.01 * rng.standard_normal(tiny_image.shape), 0.0, 1.0)
        box = linf_box(tiny_image, cfg.eps_image)
        total = grads[scales[0]].copy()
        for s in scales[1:]:
            total += grads[s]
        want = linf_project(np.sign(total) * -cfg.step_size + tiny_image, box)
        buf = np.full_like(tiny_image, np.nan)
        loss = PairLoss(tiny_pair.image, tiny_u, grads, None)
        got = _sign_step(tiny_image, at, box, loss, cfg, buf)
        assert got.tobytes() == want.tobytes()
        buf[:] = np.nan
        assert got.tobytes() == want.tobytes()


class TestTextGuidedSelect:
    def test_picks_argmax_direction(self, tiny_pair, tiny_image, tiny_u, tiny_loss, fast_cfg):
        good = fast_cfg.step_size * normalized_sign(
            -grad_loss_wrt_image(tiny_loss, tiny_image)
        )
        bad = -good
        assert text_guided_select(
            tiny_image, linf_box(tiny_image, fast_cfg.eps_image), np.stack([bad, good]), tiny_loss
        ) == 1

    def test_tie_goes_to_lowest_index(self, tiny_pair, tiny_image, tiny_loss, fast_cfg):
        d = np.zeros((2,) + tiny_image.shape)
        assert text_guided_select(
            tiny_image, linf_box(tiny_image, fast_cfg.eps_image), d, tiny_loss
        ) == 0

    def test_selection_evaluates_feasible_candidate(
        self, tiny_pair, tiny_image, tiny_u, tiny_loss, fast_cfg
    ):
        # a huge direction must be judged by its projected (feasible) effect
        g = -grad_loss_wrt_image(tiny_loss, tiny_image)
        huge = 100.0 * normalized_sign(g)
        small = fast_cfg.step_size * normalized_sign(g)
        idx = text_guided_select(
            tiny_image, linf_box(tiny_image, fast_cfg.eps_image), np.stack([huge, small]), tiny_loss
        )
        cand_huge = linf_project(tiny_image + huge, linf_box(tiny_image, fast_cfg.eps_image))
        cand_small = linf_project(tiny_image + small, linf_box(tiny_image, fast_cfg.eps_image))
        vals = [
            mismatch_value(c, tiny_u, tiny_pair.image, None)
            for c in (cand_huge, cand_small)
        ]
        assert idx == int(np.argmax(vals))

    def test_tie_between_later_rows_goes_to_the_lower(
        self, tiny_pair, tiny_image, tiny_u, tiny_loss, fast_cfg
    ):
        good = fast_cfg.step_size * normalized_sign(
            -grad_loss_wrt_image(tiny_loss, tiny_image)
        )
        d = np.stack([-good, good, -good, good])
        assert text_guided_select(
            tiny_image, linf_box(tiny_image, fast_cfg.eps_image), d, tiny_loss
        ) == 1

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_equals_first_maximum_of_mismatch_values(
        self, tiny_pair, tiny_image, tiny_caption, rng, use_projector
    ):
        # the row-by-row scoring and mismatch_value on each feasible
        # candidate pick the same index, with the candidates rounded to a
        # coarse grid so that exact ties occur
        cfg = AttackConfig(eps_image=0.5, step_size=0.25)
        projector = build_projection(rng.standard_normal((5, 16))) if use_projector else None
        loss = pair_setup(tiny_image, tiny_caption, tiny_pair, projector, cfg)[0]
        u = loss.u
        for _ in range(20):
            dirs = 0.25 * rng.integers(-1, 2, size=(6, 8, 8)).astype(float)
            dirs[rng.integers(6)] = dirs[rng.integers(6)]
            cands = linf_project(tiny_image + dirs, linf_box(tiny_image, cfg.eps_image))
            vals = [mismatch_value(c, u, tiny_pair.image, projector) for c in cands]
            assert text_guided_select(
                tiny_image, linf_box(tiny_image, cfg.eps_image), dirs, loss
            ) == vals.index(max(vals))

    @pytest.mark.parametrize("use_projector", [False, True])
    def test_direction_layout_does_not_change_the_choice(
        self, tiny_pair, tiny_image, tiny_caption, rng, use_projector
    ):
        # Fortran-ordered, strided and pixel-major stacks select what the
        # C-contiguous stack selects, exact ties included; the feasible
        # candidates of a pixel-major stack flatten to strided rows
        cfg = AttackConfig(eps_image=0.5, step_size=0.25)
        projector = build_projection(rng.standard_normal((5, 16))) if use_projector else None
        loss, box = pair_setup(tiny_image, tiny_caption, tiny_pair, projector, cfg)
        for _ in range(20):
            dirs = 0.25 * rng.integers(-1, 2, size=(6, 8, 8)).astype(float)
            dirs[rng.integers(6)] = dirs[rng.integers(6)]
            want = text_guided_select(tiny_image, box, dirs, loss)
            for layout in (
                np.asfortranarray(dirs),
                np.repeat(dirs, 2, axis=0)[::2],
                np.ascontiguousarray(dirs.transpose(1, 2, 0)).transpose(2, 0, 1),
            ):
                assert layout.flags.c_contiguous is False
                assert text_guided_select(tiny_image, box, layout, loss) == want

    def test_nan_candidate_rejected(self, tiny_pair, tiny_image, tiny_loss, fast_cfg):
        d = np.zeros((3,) + tiny_image.shape)
        d[2, 4, 5] = np.nan
        with pytest.raises(ValueError):
            text_guided_select(tiny_image, linf_box(tiny_image, fast_cfg.eps_image), d, tiny_loss)

    def test_mismatched_text_direction_rejected(
        self, tiny_pair, tiny_image, tiny_u, tiny_loss, fast_cfg
    ):
        d = np.zeros((2,) + tiny_image.shape)
        for u in (tiny_u[:-1], tiny_u[None]):
            with pytest.raises(ValueError):
                text_guided_select(
                    tiny_image, linf_box(tiny_image, fast_cfg.eps_image), d,
                    PairLoss(tiny_pair.image, u, tiny_loss.grads, None),
                )

    def test_empty_directions_rejected(self, tiny_pair, tiny_image, tiny_loss, fast_cfg):
        with pytest.raises(ValueError):
            text_guided_select(
                tiny_image, linf_box(tiny_image, fast_cfg.eps_image),
                np.zeros((0,) + tiny_image.shape), tiny_loss,
            )


class TestRunImageAttack:
    def test_budget_and_range_invariants(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        adv, prev, _, trace = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, fast_cfg),
            fast_cfg, np.random.default_rng(0)
        )
        iterates = attack_iterates(tiny_image, tiny_caption, tiny_pair, None, fast_cfg, 0)
        assert len(iterates) == fast_cfg.steps + 1
        for inter in iterates:
            assert np.max(np.abs(inter - tiny_image)) <= fast_cfg.eps_image + 1e-12
            assert inter.min() >= 0.0 and inter.max() <= 1.0
        assert np.array_equal(iterates[-1], adv) and np.array_equal(iterates[-2], prev)

    @pytest.mark.parametrize("variant", ["saaet", "sga"])
    def test_shorter_run_returns_earlier_iterates(self, variant):
        # a steps=t run on a fresh RNG of the pair's seed is a prefix of the
        # full run: it returns iterates t and t-1 and the first t records
        ds = synth_dataset(0, 5, dims=DatasetDims(embed_dim=TRANSFER_EMBED_DIM))
        base_cfg = AttackConfig(master_seed=0)
        cfg, use_projector, pin_current = resolve_variant(variant, base_cfg)
        projector = surrogate_projector(ds, ds.base, base_cfg) if use_projector else None
        for p in range(ds.n_pairs):
            x, cap = ds.images[p], ds.captions[p]
            seed = np.random.SeedSequence([0, 0, p])
            runs = [
                run_image_attack(x, *pair_setup(x, cap, ds.base, projector, cfg),
                                 replace(cfg, steps=t),
                                 np.random.default_rng(seed), pin_current)
                for t in range(2, cfg.steps + 1)
            ]
            full_trace = runs[-1][3]
            for t, (cur, prev, _, trace) in enumerate(runs, start=2):
                assert trace == full_trace[:t]
                if t > 2:
                    assert np.array_equal(prev, runs[t - 3][0])
            u = embed_captions(ds.base.text, [cap], projector)[0]
            assert mismatch_value(runs[0][1], u, ds.base.image, projector) == full_trace[0].loss

    @pytest.mark.parametrize("region", ["A", "C"])
    def test_triangle_samples_have_the_bits_of_the_convex_combination(
        self, tiny_pair, tiny_image, tiny_caption, fast_cfg, region, monkeypatch
    ):
        # under the dot loss no output depends on the samples' pixels, so
        # their bits are checked where the attack hands them to the gradient
        # (the sample calls are the ones that pass no scale)
        cfg = replace(fast_cfg, region=region)
        seen = []

        def recording_grad(loss, x, *scale):
            if not scale:
                seen.append(x.copy())
            return grad_loss_wrt_image(loss, x, *scale)

        monkeypatch.setattr("aetlab.image_attack.grad_loss_wrt_image", recording_grad)
        run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, cfg),
            cfg, np.random.default_rng(5),
        )
        monkeypatch.undo()
        iterates = attack_iterates(tiny_image, tiny_caption, tiny_pair, None, cfg, 5)
        rng = np.random.default_rng(5)
        rng.standard_normal(tiny_image.shape)
        weights = sample_sub_triangle((cfg.steps - 1) * cfg.samples, rng, region)
        want = [
            convex_combine(tiny_image, iterates[i // cfg.samples], iterates[i // cfg.samples + 1],
                           SimplexWeights(*w))
            for i, w in enumerate(weights)
        ]
        assert len(seen) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, want))

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(2, 6),
        samples=st.integers(1, 5),
        use_projector=st.booleans(),
        pin_current=st.booleans(),
        region=st.sampled_from(sorted(REGION_ASSIGNMENTS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returned_rows_are_the_embeddings_of_the_last_two_iterates(
        self, steps, samples, use_projector, pin_current, region, seed
    ):
        # the caption attack takes the previous and final rows as they are,
        # so they must have the bits of embedding the two images afresh
        pair = base_encoders(5, DatasetDims(8, 8, 16, 64), GeneratorParams(semantic_rank=4))
        rng = np.random.default_rng(seed)
        x = np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0.0, 1.0)
        projector = build_projection(rng.standard_normal((5, 16))) if use_projector else None
        cfg = AttackConfig(steps=steps, samples=samples, scales=(0.5, 1.0), region=region)
        adv, prev, embs, trace = run_image_attack(
            x, *pair_setup(x, (3, 17, 42, 7), pair, projector, cfg), cfg,
            rng, pin_current,
        )
        assert embs.shape == (steps, 16) and len(trace) == steps
        assert embs[-2:].tobytes() == embed_images(pair.image, (prev, adv), projector).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(2, 6),
        samples=st.integers(1, 4),
        scales=st.sampled_from([(1.0,), (0.5, 1.0)]),
        use_projector=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pinned_samples_have_the_bits_of_the_current_iterate(
        self, steps, samples, scales, use_projector, seed
    ):
        # the pinned attack copies the current iterate into its samples in
        # place of the (0, 0, 1) combination; on an image with exact 0 and 1
        # pixels both have the bits of the iterate the step starts from
        pair = base_encoders(5, DatasetDims(8, 8, 16, 64), GeneratorParams(semantic_rank=4))
        rng = np.random.default_rng(seed)
        x = np.clip(0.5 + 0.6 * rng.standard_normal((8, 8)), 0.0, 1.0)
        x[0, :2] = 0.0, 1.0
        projector = build_projection(rng.standard_normal((5, 16))) if use_projector else None
        cfg = AttackConfig(steps=steps, samples=samples, scales=scales)
        caption = (3, 17, 42, 7)
        seen = []

        def recording_grad(loss, x, *scale):
            if not scale:
                seen.append(x.copy())
            return grad_loss_wrt_image(loss, x, *scale)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("aetlab.image_attack.grad_loss_wrt_image", recording_grad)
            run_image_attack(
                x, *pair_setup(x, caption, pair, projector, cfg), cfg,
                np.random.default_rng(seed), pin_current=True,
            )
        iterates = attack_iterates(x, caption, pair, projector, cfg, seed, pin_current=True)
        vertex = SimplexWeights(0.0, 0.0, 1.0)
        assert len(seen) == (steps - 1) * samples
        for i, s in enumerate(seen):
            prev, cur = iterates[i // samples], iterates[i // samples + 1]
            assert s.tobytes() == cur.tobytes()
            assert s.tobytes() == convex_combine(x, prev, cur, vertex).tobytes()

    def test_trace_has_one_record_per_step(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        _, _, _, trace = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, fast_cfg),
            fast_cfg, np.random.default_rng(0),
        )
        assert [r.step for r in trace] == list(range(1, fast_cfg.steps + 1))
        assert trace[0].chosen_index == -1
        for r in trace[1:]:
            assert 0 <= r.chosen_index < fast_cfg.samples

    def test_deterministic(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        a, _, _, _ = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, fast_cfg),
            fast_cfg, np.random.default_rng(42),
        )
        b, _, _, _ = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, fast_cfg),
            fast_cfg, np.random.default_rng(42),
        )
        np.testing.assert_array_equal(a, b)

    def test_attack_increases_mismatch(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        adv, _, _, _ = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, fast_cfg),
            fast_cfg, np.random.default_rng(0),
        )
        u = embed_captions(tiny_pair.text, [tiny_caption], None)[0]
        assert mismatch_value(adv, u, tiny_pair.image, None) > mismatch_value(
            tiny_image, u, tiny_pair.image, None
        )

    def test_forced_weights_reduce_to_sga(self, tiny_pair, tiny_image, tiny_caption):
        cfg = AttackConfig(steps=6, samples=1, master_seed=0)
        via_triangle, prev_t, _, _ = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, cfg),
            cfg, np.random.default_rng(13), pin_current=True,
        )
        direct, prev_d = run_sga_attack(
            tiny_image, tiny_caption, tiny_pair, None, cfg, np.random.default_rng(13)
        )
        assert np.array_equal(via_triangle, direct)
        assert np.array_equal(prev_t, prev_d)

    def test_pinned_vertex_pins_every_sample(self, tiny_pair, tiny_image, tiny_caption):
        # every triangle sample of the sga vertex is the current image, as
        # the trace records, and the pinned run draws only the start noise
        cfg = AttackConfig(steps=4, samples=3, master_seed=0)
        rng = np.random.default_rng(2)
        _, _, _, trace = run_image_attack(
            tiny_image, *pair_setup(tiny_image, tiny_caption, tiny_pair, None, cfg),
            cfg, rng, pin_current=True,
        )
        for rec in trace[1:]:
            assert (rec.lam, rec.beta, rec.gamma, rec.chosen_index) == (0.0, 0.0, 1.0, 0)
        after_noise = np.random.default_rng(2)
        after_noise.standard_normal(tiny_image.shape)
        assert rng.bit_generator.state == after_noise.bit_generator.state
