import numpy as np
import pytest
from hypothesis import given, strategies as st

from aetlab.core import (
    AttackConfig,
    SimplexWeights,
    linf_project,
    scale_augment,
    scale_augment_adjoint,
    similarity_loss,
    validate_simplex,
)
from oracles import convex_combine


class TestSimplexWeights:
    def test_valid_triple(self):
        w = SimplexWeights(0.5, 0.3, 0.2)
        assert w.as_tuple() == (0.5, 0.3, 0.2)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            SimplexWeights(0.5, 0.3, 0.3)

    def test_components_in_unit_interval(self):
        with pytest.raises(ValueError):
            SimplexWeights(1.2, -0.1, -0.1)

    def test_vertex_weights_allowed(self):
        assert SimplexWeights(0.0, 0.0, 1.0).gamma == 1.0

    @pytest.mark.parametrize("bad", [(0.5, 0.3, 0.3), (1.2, -0.1, -0.1), (np.nan, 0.5, 0.5)])
    def test_rows_checked_together(self, bad):
        rows = np.array([(0.5, 0.3, 0.2), bad, (0.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            validate_simplex(rows)
        assert validate_simplex(rows[[0, 2]]) is not None


class TestAttackConfig:
    def test_defaults(self):
        cfg = AttackConfig()
        assert cfg.eps_image == pytest.approx(8.0 / 255.0)
        assert cfg.step_size == pytest.approx(2.0 / 255.0)
        assert cfg.steps == 10
        assert cfg.samples == 5
        assert cfg.scales == (0.50, 0.75, 1.00, 1.25, 1.50)
        assert cfg.text_budget == 1
        assert cfg.word_list_size == 10
        assert (cfg.kappa, cfg.mu, cfg.nu) == (0.6, 0.2, 0.2)
        assert cfg.corpus_proportion == pytest.approx(0.40)
        assert cfg.region == "A"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_image": 0.0},
            {"step_size": -1.0},
            {"steps": 1},
            {"samples": 0},
            {"kappa": 0.5, "mu": 0.2, "nu": 0.2},
            {"kappa": 1.0, "mu": 0.0, "nu": 0.0},
            {"corpus_proportion": 0.0},
            {"corpus_proportion": 1.5},
            {"scales": (0.5, -1.0)},
            {"region": "Z"},
            {"scales": ()},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)


class TestSimilarityLoss:
    def test_dot_product_oracle(self, rng):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert similarity_loss(a, b) == pytest.approx(float(a @ b) / 6.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            similarity_loss(np.ones(3), np.ones(4))

    def test_orthogonal_is_zero(self):
        assert similarity_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


class TestConvexCombine:
    def test_vertices_recover_inputs(self, rng):
        x, p, c = (rng.standard_normal((4, 4)) for _ in range(3))
        assert np.array_equal(convex_combine(x, p, c, SimplexWeights(1, 0, 0)), x)
        assert np.array_equal(convex_combine(x, p, c, SimplexWeights(0, 1, 0)), p)
        assert np.array_equal(convex_combine(x, p, c, SimplexWeights(0, 0, 1)), c)

    def test_pixelwise_oracle(self, rng):
        x, p, c = (rng.standard_normal((3, 5)) for _ in range(3))
        w = SimplexWeights(0.5, 0.25, 0.25)
        np.testing.assert_allclose(
            convex_combine(x, p, c, w), 0.5 * x + 0.25 * p + 0.25 * c
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            convex_combine(
                np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)), SimplexWeights(1, 0, 0)
            )


class TestLinfProject:
    def test_inside_ball_unchanged_when_in_range(self):
        origin = np.full((3, 3), 0.5)
        cand = origin + 0.01
        out = linf_project(cand, origin, eps=0.05)
        np.testing.assert_array_equal(out, cand)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_budget_and_range_always_hold(self, seed):
        r = np.random.default_rng(seed)
        origin = r.uniform(0, 1, size=(4, 4))
        cand = origin + r.uniform(-1, 1, size=(4, 4))
        eps = float(r.uniform(0.01, 0.3))
        out = linf_project(cand, origin, eps)
        assert np.max(np.abs(out - origin)) <= eps + 1e-15
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_idempotent(self, rng):
        origin = rng.uniform(0, 1, size=(4, 4))
        out = linf_project(origin + rng.standard_normal((4, 4)), origin, 0.1)
        np.testing.assert_array_equal(linf_project(out, origin, 0.1), out)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            linf_project(np.ones((2, 2)), np.ones((2, 2)), 0.0)

    def test_stack_equals_per_image_projection(self, rng):
        origin = rng.uniform(0, 1, size=(4, 4))
        stack = origin + rng.uniform(-0.5, 0.5, size=(3, 4, 4))
        out = linf_project(stack, origin, 0.1)
        for got, cand in zip(out, stack):
            assert np.array_equal(got, linf_project(cand, origin, 0.1))
        with pytest.raises(ValueError):
            linf_project(np.ones((3, 4, 5)), origin, 0.1)


class TestScaleAugment:
    def test_identity_at_scale_one(self, rng):
        x = rng.uniform(0, 1, size=(7, 9))
        np.testing.assert_allclose(scale_augment(x, 1.0), x)

    def test_preserves_constants(self):
        x = np.full((6, 8), 0.37)
        for s in (0.5, 0.75, 1.25, 1.5):
            np.testing.assert_allclose(scale_augment(x, s), x)

    def test_linearity(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        lhs = scale_augment(2.0 * a + 3.0 * b, 0.75)
        rhs = 2.0 * scale_augment(a, 0.75) + 3.0 * scale_augment(b, 0.75)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_identity(self, rng):
        # <A x, y> == <x, A^T y> for the scale roundtrip operator A
        x = rng.standard_normal((6, 7))
        y = rng.standard_normal((6, 7))
        for s in (0.5, 1.25):
            lhs = float(np.sum(scale_augment(x, s) * y))
            rhs = float(np.sum(x * scale_augment_adjoint(y, x.shape, s)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scale_augment(np.ones((4, 4)), 0.0)

    def test_adjoint_shape_mismatch(self):
        with pytest.raises(ValueError):
            scale_augment_adjoint(np.ones((3, 3)), (4, 4), 0.5)
