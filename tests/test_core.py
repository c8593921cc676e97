import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from aetlab.core import (
    AttackConfig,
    first_k,
    linf_box,
    linf_project,
    matvec_rows,
    scale_augment_adjoint,
    similarity,
    validate_simplex,
)
from oracles import SimplexWeights, convex_combine, linf_project_clip, scale_augment


class TestSimplexWeights:
    # validate_simplex checks every row sample_sub_triangle returns
    def test_valid_triple(self):
        rows = np.array([(0.5, 0.3, 0.2)])
        assert validate_simplex(rows) is rows

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_simplex(np.array([(0.5, 0.3, 0.3)]))

    def test_components_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            validate_simplex(np.array([(1.2, -0.1, -0.1)]))

    def test_vertex_weights_allowed(self):
        vertices = np.eye(3)
        assert validate_simplex(vertices) is vertices

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
            {"region": "AB"},
            {"region": ""},
            {"region": "ABCDEF"},
            {"text_budget": 0},
            {"text_budget": 2},
            {"eps_image": float("nan")},
            {"step_size": float("nan")},
            {"kappa": float("nan")},
            {"mu": float("nan")},
            {"nu": float("nan")},
            {"word_list_size": -1},
            {"eps_image": float("inf")},
            {"step_size": float("inf")},
            {"scales": (1.0, float("inf"))},
            {"kappa": -0.5, "mu": 1.0, "nu": 0.5},
            {"kappa": 0.7, "mu": -0.2, "nu": 0.5},
            {"kappa": 0.6, "mu": 0.6, "nu": -0.2},
        ],
    )
    def test_invalid_configs(self, kwargs):
        # text_budget is a fixed class constant, not an argument
        with pytest.raises(TypeError if "text_budget" in kwargs else ValueError):
            AttackConfig(**kwargs)


class TestSimilarity:
    def test_dot_product_oracle(self, rng):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert similarity(a[None], b) == [pytest.approx(float(a @ b) / 6.0)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            similarity(np.ones((1, 3)), np.ones(4))

    def test_orthogonal_is_zero(self):
        assert similarity(np.array([[1.0, 0.0]]), np.array([0.0, 1.0])) == [0.0]

    @given(st.integers(1, 6), st.integers(1, 9), st.data())
    def test_equals_per_row_products(self, n, d, data):
        floats = st.floats(-1e3, 1e3, allow_nan=False)
        img = data.draw(hnp.arrays(np.float64, (n, d), elements=floats))
        shared = data.draw(hnp.arrays(np.float64, d, elements=floats))
        paired = data.draw(hnp.arrays(np.float64, (n, d), elements=floats))
        got = similarity(img, shared)
        assert got == [float(r.dot(shared)) / d for r in img]
        assert all(type(v) is float for v in got)
        assert similarity(list(img), shared) == got  # a sequence of rows
        assert similarity(img, paired) == [float(a.dot(b)) / d for a, b in zip(img, paired)]

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(["C", "F", "rows", "columns"]),
    )
    def test_stacked_call_keeps_the_per_row_bits(self, seed, n, d, layout):
        # one np.matmul call over the rows makes the per-row dot call with
        # the same strides, so each value keeps its bits whatever the layout
        r = np.random.default_rng(seed)
        img = r.standard_normal((n, d)) * 10.0 ** r.integers(-3, 4)
        paired = r.standard_normal((n, d))
        if layout == "F":
            img, paired = np.asfortranarray(img), np.asfortranarray(paired)
        elif layout == "rows":
            img = np.repeat(img, 2, axis=0)[::2]
        elif layout == "columns":
            img, paired = np.repeat(img, 2, axis=1)[:, ::2], np.repeat(paired, 2, axis=1)[:, 1::2]
        shared = r.standard_normal(d)
        bits = lambda v: np.asarray(v, dtype=np.float64).tobytes()
        assert bits(similarity(img, shared)) == bits([float(a.dot(shared)) / d for a in img])
        assert bits(similarity(img, paired)) == bits(
            [float(a.dot(b)) / d for a, b in zip(img, paired)]
        )

    @pytest.mark.parametrize(
        "img_shape, txt_shape",
        [((4,), (4,)), ((2, 3, 4), (4,)), ((2, 4), (5,)), ((2, 4), (3, 4)),
         ((2, 4), (2, 5)), ((2, 4), (1, 4)), ((2, 4), (2, 4, 1)), ((2, 4), ())],
    )
    def test_mismatched_shapes_rejected(self, img_shape, txt_shape):
        with pytest.raises(ValueError):
            similarity(np.ones(img_shape), np.ones(txt_shape))

    def test_row_of_another_length_rejected(self):
        rows = [np.ones(4), np.ones(3), np.ones(4)]
        for txt in (np.ones(4), np.ones((3, 4))):
            with pytest.raises(ValueError):
                similarity(rows, txt)


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
        out = linf_project(cand, linf_box(origin, 0.05))
        np.testing.assert_array_equal(out, cand)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_budget_and_range_always_hold(self, seed):
        r = np.random.default_rng(seed)
        origin = r.uniform(0, 1, size=(4, 4))
        cand = origin + r.uniform(-1, 1, size=(4, 4))
        eps = float(r.uniform(0.01, 0.3))
        out = linf_project(cand, linf_box(origin, eps))
        assert np.max(np.abs(out - origin)) <= eps + 1e-15
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_idempotent(self, rng):
        origin = rng.uniform(0, 1, size=(4, 4))
        out = linf_project(origin + rng.standard_normal((4, 4)), linf_box(origin, 0.1))
        np.testing.assert_array_equal(linf_project(out, linf_box(origin, 0.1)), out)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            linf_project(np.ones((2, 2)), linf_box(np.ones((2, 2)), 0.0))

    def test_stack_equals_per_image_projection(self, rng):
        origin = rng.uniform(0, 1, size=(4, 4))
        stack = origin + rng.uniform(-0.5, 0.5, size=(3, 4, 4))
        out = linf_project(stack, linf_box(origin, 0.1))
        for got, cand in zip(out, stack):
            assert np.array_equal(got, linf_project(cand, linf_box(origin, 0.1)))
        with pytest.raises(ValueError):
            linf_project(np.ones((3, 4, 5)), linf_box(origin, 0.1))

    def test_equals_two_clip_reference(self, rng):
        origin = rng.uniform(0, 1, size=(4, 4))
        origin[0, 0] = np.nan
        stack = origin + rng.uniform(-1.5, 1.5, size=(3, 4, 4))
        stack[1, 2, 3] = np.nan
        stack[2, 1, 1] = np.inf
        stack[0, 3, 0] = -np.inf
        cand_copy, origin_copy = stack.copy(), origin.copy()
        out = linf_project(stack, linf_box(origin, 0.1))
        np.testing.assert_array_equal(out, linf_project_clip(stack, origin, 0.1))
        assert np.isnan(out[:, 0, 0]).all() and np.isnan(out[1, 2, 3])
        np.testing.assert_array_equal(stack, cand_copy)
        np.testing.assert_array_equal(origin, origin_copy)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
    def test_non_finite_or_non_positive_eps_rejected(self, eps):
        # the check AttackConfig makes of eps_image; a NaN eps used to give
        # an all-NaN image and an infinite one a plain [0, 1] clamp
        with pytest.raises(ValueError, match="eps"):
            linf_project(np.full((2, 2), 0.5), linf_box(np.full((2, 2), 0.5), eps))
        with pytest.raises(ValueError, match="eps_image"):
            AttackConfig(eps_image=eps)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-3.0, max_value=4.0),
        st.floats(min_value=1e-9, max_value=5.0),
        st.integers(min_value=1, max_value=4),
    )
    def test_box_clamp_equals_two_clip_reference(self, seed, centre, eps, n):
        # origins far outside [0, 1] and eps > 1 included: clamping into
        # [clip01(o - eps), clip01(o + eps)] is the ball, then [0, 1]
        r = np.random.default_rng(seed)
        origin = centre + r.uniform(-2.0, 2.0, size=(3, 5))
        stack = origin + r.uniform(-3.0 * eps - 1, 3.0 * eps + 1, size=(n, 3, 5))
        stack[0, 0, 0] = origin[0, 0]  # on the centre
        box = linf_box(origin, eps)
        want = linf_project_clip(stack, origin, eps)
        np.testing.assert_array_equal(linf_project(stack, box), want)
        for got, cand in zip(linf_project(stack, box), stack):
            np.testing.assert_array_equal(got, linf_project_clip(cand, origin, eps))


class TestRowProducts:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=70),
        st.sampled_from(["C", "F", "sliced"]),
    )
    def test_stacked_matmul_equals_per_row_products(self, seed, n, k, m, layout):
        # bit for bit, whatever the layout of the rows: a Fortran-ordered
        # or strided stack, passed to np.matmul as it is, takes another BLAS
        # or a non-BLAS path
        r = np.random.default_rng(seed)
        a = r.standard_normal((m, k))
        a = np.asfortranarray(a) if seed % 2 else a
        rows = r.standard_normal((n, k))
        if layout == "F":
            rows = np.asfortranarray(rows)
        elif layout == "sliced":
            rows = np.repeat(rows, 2, axis=0)[::2]
        bits = lambda x: np.asarray(x, dtype=np.float64).tobytes()
        # the reference products take each row as a contiguous 1-D array;
        # a strided row would itself take another BLAS path
        each = [np.ascontiguousarray(row) for row in rows]
        assert bits(matvec_rows(a, rows)) == bits([a @ row for row in each])


class TestFirstK:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_equals_the_stable_argsort_prefix(self, data):
        # keys from a small value set, so that ties happen, across the k-th
        # key too, and -0.0 ties 0.0; a wide set leaves most rows untied
        n = data.draw(st.integers(min_value=1, max_value=4))
        v = data.draw(st.integers(min_value=1, max_value=300))
        spread = data.draw(st.sampled_from([1, 3, 1000]))
        values = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-spread, spread).map(float))
        keys = data.draw(hnp.arrays(np.float64, (n, v), elements=values))
        order = np.argsort(keys, axis=1, kind="stable")
        for k in range(v + 1):
            assert np.array_equal(first_k(keys, k), order[:, :k])


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
