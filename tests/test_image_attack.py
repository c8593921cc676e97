import numpy as np
import pytest

from aetlab.core import AttackConfig, SimplexWeights, linf_project
from aetlab.encoders import back_project, text_direction
from aetlab.image_attack import (
    REGION_ASSIGNMENTS,
    TrajectoryState,
    _normalized_sign,
    candidate_directions,
    mismatch_grad,
    mismatch_value,
    run_image_attack,
    sample_sub_triangle,
    text_guided_select,
)
from aetlab.subspace import build_projection
from oracles import convex_combine, pair_loss, run_sga_attack, sample_sub_triangle_loop

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

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_sub_triangle(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_sub_triangle(1, np.random.default_rng(0), "G")


class TestNormalizedSign:
    def test_zero_gradient_gives_zero(self):
        np.testing.assert_array_equal(
            _normalized_sign(np.zeros((3, 3))), np.zeros((3, 3))
        )

    def test_matches_plain_sign(self, rng):
        g = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(_normalized_sign(g), np.sign(g))

    def test_stack_is_signed_image_by_image(self, rng):
        g = rng.standard_normal((3, 4, 4))
        g[1] = 0.0
        g[2] *= 1e-170  # squared norm underflows to 0: the image counts as zero
        expect = np.stack([np.sign(g[0]), np.zeros((4, 4)), np.zeros((4, 4))])
        np.testing.assert_array_equal(_normalized_sign(g), expect)


@pytest.fixture
def tiny_u(tiny_pair, tiny_caption):
    return text_direction(tiny_pair.text, tiny_caption, None)


@pytest.fixture
def tiny_back(tiny_pair, tiny_u):
    return back_project(tiny_pair.image, tiny_u)


class TestObjective:
    def test_mismatch_is_negated_similarity(self, tiny_pair, tiny_image, tiny_caption, rng):
        for projector in (None, build_projection(rng.standard_normal((5, 16)))):
            u = text_direction(tiny_pair.text, tiny_caption, projector)
            assert mismatch_value(tiny_image, u, tiny_pair.image, projector) == -pair_loss(
                tiny_pair, tiny_image, tiny_caption, projector
            )

    def test_step_along_gradient_increases_mismatch(self, tiny_pair, tiny_image, tiny_u, tiny_back):
        g = mismatch_grad(tiny_image, tiny_back, tiny_pair.image)
        before = mismatch_value(tiny_image, tiny_u, tiny_pair.image, None)
        after = mismatch_value(tiny_image + 1e-4 * g, tiny_u, tiny_pair.image, None)
        assert after > before


class TestTextGuidedSelect:
    def test_picks_argmax_direction(self, tiny_pair, tiny_image, tiny_u, tiny_back, fast_cfg):
        state = TrajectoryState(
            clean=tiny_image, prev=tiny_image, cur=tiny_image, step=1
        )
        good = fast_cfg.step_size * _normalized_sign(
            mismatch_grad(tiny_image, tiny_back, tiny_pair.image)
        )
        bad = -good
        assert text_guided_select(
            state, [bad, good], tiny_u, tiny_pair.image, None, fast_cfg
        ) == 1

    def test_tie_goes_to_lowest_index(self, tiny_pair, tiny_image, tiny_u, fast_cfg):
        state = TrajectoryState(
            clean=tiny_image, prev=tiny_image, cur=tiny_image, step=1
        )
        d = np.zeros_like(tiny_image)
        assert text_guided_select(
            state, [d, d.copy()], tiny_u, tiny_pair.image, None, fast_cfg
        ) == 0

    def test_selection_evaluates_feasible_candidate(
        self, tiny_pair, tiny_image, tiny_u, tiny_back, fast_cfg
    ):
        # a huge direction must be judged by its projected (feasible) effect
        state = TrajectoryState(
            clean=tiny_image, prev=tiny_image, cur=tiny_image, step=1
        )
        g = mismatch_grad(tiny_image, tiny_back, tiny_pair.image)
        huge = 100.0 * _normalized_sign(g)
        small = fast_cfg.step_size * _normalized_sign(g)
        idx = text_guided_select(
            state, [huge, small], tiny_u, tiny_pair.image, None, fast_cfg
        )
        cand_huge = linf_project(state.cur + huge, tiny_image, fast_cfg.eps_image)
        cand_small = linf_project(state.cur + small, tiny_image, fast_cfg.eps_image)
        vals = [
            mismatch_value(c, tiny_u, tiny_pair.image, None)
            for c in (cand_huge, cand_small)
        ]
        assert idx == int(np.argmax(vals))

    def test_empty_directions_rejected(self, tiny_pair, tiny_image, tiny_u, fast_cfg):
        state = TrajectoryState(tiny_image, tiny_image, tiny_image, 1)
        with pytest.raises(ValueError):
            text_guided_select(state, [], tiny_u, tiny_pair.image, None, fast_cfg)


class TestCandidateDirections:
    def test_one_direction_per_weight(self, tiny_pair, tiny_image, tiny_back, fast_cfg):
        state = TrajectoryState(tiny_image, tiny_image, tiny_image, 1)
        weights = sample_sub_triangle(3, np.random.default_rng(0))
        samples, dirs = candidate_directions(
            state, weights, tiny_back, tiny_pair.image, fast_cfg
        )
        assert samples.shape == dirs.shape == (3, 8, 8)
        for d in dirs:
            assert np.max(np.abs(d)) <= fast_cfg.step_size + 1e-15

    def test_direction_is_sign_gradient_at_sample(
        self, tiny_pair, tiny_image, tiny_back, fast_cfg, rng
    ):
        prev = np.clip(tiny_image + 0.01 * rng.standard_normal(tiny_image.shape), 0, 1)
        cur = np.clip(tiny_image - 0.01 * rng.standard_normal(tiny_image.shape), 0, 1)
        state = TrajectoryState(tiny_image, prev, cur, 2)
        w = SimplexWeights(0.5, 0.3, 0.2)
        [s], [d] = candidate_directions(
            state, np.array([w.as_tuple()]), tiny_back, tiny_pair.image, fast_cfg
        )
        assert np.array_equal(s, convex_combine(tiny_image, prev, cur, w))
        expect = fast_cfg.step_size * _normalized_sign(
            mismatch_grad(s, tiny_back, tiny_pair.image)
        )
        np.testing.assert_array_equal(d, expect)

    def test_samples_equal_per_row_convex_combination(
        self, tiny_pair, tiny_image, tiny_back, fast_cfg, rng
    ):
        prev = np.clip(tiny_image + 0.01 * rng.standard_normal(tiny_image.shape), 0, 1)
        cur = np.clip(tiny_image - 0.01 * rng.standard_normal(tiny_image.shape), 0, 1)
        state = TrajectoryState(tiny_image, prev, cur, 2)
        weights = sample_sub_triangle(7, rng, "C")
        samples, _ = candidate_directions(state, weights, tiny_back, tiny_pair.image, fast_cfg)
        for s, w in zip(samples, weights):
            assert np.array_equal(s, convex_combine(tiny_image, prev, cur, SimplexWeights(*w)))


class TestRunImageAttack:
    def test_budget_and_range_invariants(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        rng = np.random.default_rng(0)
        adv, prev, trace = run_image_attack(
            tiny_image, tiny_caption, tiny_pair, None, fast_cfg, rng,
            keep_intermediates=True,
        )
        for inter in trace.intermediates:
            assert np.max(np.abs(inter - tiny_image)) <= fast_cfg.eps_image + 1e-12
            assert inter.min() >= 0.0 and inter.max() <= 1.0
        assert np.max(np.abs(prev - tiny_image)) <= fast_cfg.eps_image + 1e-12

    def test_trace_has_one_record_per_step(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        _, _, trace = run_image_attack(
            tiny_image, tiny_caption, tiny_pair, None, fast_cfg,
            np.random.default_rng(0),
        )
        assert [r.step for r in trace.records] == list(range(1, fast_cfg.steps + 1))
        assert trace.records[0].chosen_index == -1
        for r in trace.records[1:]:
            assert 0 <= r.chosen_index < fast_cfg.samples

    def test_deterministic(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        a, _, _ = run_image_attack(
            tiny_image, tiny_caption, tiny_pair, None, fast_cfg,
            np.random.default_rng(42),
        )
        b, _, _ = run_image_attack(
            tiny_image, tiny_caption, tiny_pair, None, fast_cfg,
            np.random.default_rng(42),
        )
        np.testing.assert_array_equal(a, b)

    def test_attack_increases_mismatch(self, tiny_pair, tiny_image, tiny_caption, fast_cfg):
        adv, _, _ = run_image_attack(
            tiny_image, tiny_caption, tiny_pair, None, fast_cfg,
            np.random.default_rng(0),
        )
        u = text_direction(tiny_pair.text, tiny_caption, None)
        assert mismatch_value(adv, u, tiny_pair.image, None) > mismatch_value(
            tiny_image, u, tiny_pair.image, None
        )

    def test_forced_weights_reduce_to_sga(self, tiny_pair, tiny_image, tiny_caption):
        cfg = AttackConfig(steps=6, samples=1, master_seed=0)
        via_triangle, prev_t, _ = run_image_attack(
            tiny_image, tiny_caption, tiny_pair, None, cfg,
            np.random.default_rng(13),
            forced_weights=SimplexWeights(0.0, 0.0, 1.0),
        )
        direct, prev_d = run_sga_attack(
            tiny_image, tiny_caption, tiny_pair, None, cfg, np.random.default_rng(13)
        )
        assert np.array_equal(via_triangle, direct)
        assert np.array_equal(prev_t, prev_d)
