from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from aetlab.theory import (
    QuadraticLoss,
    TheoremReport,
    closed_form_coefficients,
    expected_interaction,
    interaction_moments,
    linearized_expected_interaction,
    pair_mean,
    shapley_interaction_matrix,
    verify_theorem,
)
from oracles import (
    linearized_interaction_per_step,
    residual_slope,
    simulate_exact_updates,
    simulate_linearized_updates,
    verify_theorem_per_step,
)


def random_quadratic(seed, n=8):
    """An instance drawn the way `aetlab theory` draws one."""
    r = np.random.default_rng(seed)
    g = r.standard_normal(n)
    h = r.standard_normal((n, n))
    return QuadraticLoss(g, (h + h.T) / 2.0)


class TestQuadraticLoss:
    def test_asymmetric_hessian_rejected(self):
        h = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            QuadraticLoss(np.ones(2), h)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadraticLoss(np.ones(3), np.eye(2))


class TestCoefficients:
    def test_recursion_matches_closed_form(self):
        r = np.random.default_rng(0)
        for _ in range(10):
            beta, gamma = r.uniform(0, 0.5, size=2)
            table = simulate_linearized_updates(30, beta, gamma)
            for coef in table:
                ref = closed_form_coefficients(coef.t, beta, gamma)
                assert coef.b == pytest.approx(ref.b, abs=1e-12)
                assert coef.c == ref.c
                assert coef.d == pytest.approx(ref.d, abs=1e-12)
                assert (coef.f, coef.h, coef.l) == (ref.f, ref.h, ref.l)

    def test_full_history_weights_recover_baseline(self):
        # beta=0, gamma=1 reuses only the previous step and reproduces the
        # plain multi-step coefficients f_t = t-1, l_t = t(t-1)/2
        for t in range(2, 20):
            coef = closed_form_coefficients(t, 0.0, 1.0)
            assert coef.b == coef.f == t - 1
            assert coef.d == coef.l == t * (t - 1) / 2.0

    def test_zero_history_gives_pure_gradient_sum(self):
        coef = closed_form_coefficients(10, 0.0, 0.0)
        assert coef.b == 0.0 and coef.d == 0.0 and coef.c == 10.0

    @pytest.mark.parametrize("beta, gamma", [(0.25, 0.25), (0.3, 0.2), (0.0, 1.0)])
    def test_step_array_equals_scalar_steps(self, beta, gamma):
        ts = np.arange(2, 60)
        table = closed_form_coefficients(ts, beta, gamma)
        for k, t in enumerate(ts):
            ref = closed_form_coefficients(int(t), beta, gamma)
            for name in ("b", "c", "d", "f", "h", "l"):
                assert getattr(table, name)[k] == getattr(ref, name)
        assert table.a == ref.a and table.e == ref.e

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            closed_form_coefficients(np.array([3, 1]), 0.2, 0.2)
        with pytest.raises(ValueError):
            closed_form_coefficients(1, 0.2, 0.2)
        with pytest.raises(ValueError):
            closed_form_coefficients(5, -0.1, 0.2)
        with pytest.raises(ValueError):
            simulate_linearized_updates(1, 0.2, 0.2)


class TestExactUpdates:
    def test_zero_curvature_accumulates_gradient(self):
        ql = random_quadratic(1)
        deltas = simulate_exact_updates(ql, 6, 0.3, 0.2, eta=0.0)
        for t in range(1, 7):
            np.testing.assert_allclose(deltas[t - 1], t * ql.g)

    def test_small_eta_matches_linearized_coefficients(self):
        ql = random_quadratic(2)
        beta, gamma, eta = 0.3, 0.2, 1e-7
        deltas = simulate_exact_updates(ql, 10, beta, gamma, eta)
        coef = closed_form_coefficients(10, beta, gamma)
        lin = coef.c * ql.g + coef.d * eta * (ql.H @ ql.g)
        np.testing.assert_allclose(deltas[9], lin, rtol=1e-5)

    def test_invalid_arguments(self):
        ql = random_quadratic(3)
        with pytest.raises(ValueError):
            simulate_exact_updates(ql, 0, 0.2, 0.2, 0.1)
        with pytest.raises(ValueError):
            simulate_exact_updates(ql, 5, 0.2, 0.2, -0.1)


class TestInteractions:
    def test_matrix_oracle(self):
        delta = np.array([1.0, 2.0])
        h = np.array([[0.5, -1.0], [-1.0, 3.0]])
        expect = np.array([[0.5, -2.0], [-2.0, 12.0]])
        np.testing.assert_allclose(shapley_interaction_matrix(delta, h), expect)

    def test_pair_mean_counts_ordered_offdiagonal(self):
        m = np.array([[9.0, 1.0, 2.0], [3.0, 9.0, 4.0], [5.0, 6.0, 9.0]])
        assert pair_mean(m) == pytest.approx((1 + 2 + 3 + 4 + 5 + 6) / 6.0)

    def test_pair_mean_needs_two_units(self):
        with pytest.raises(ValueError):
            pair_mean(np.array([[1.0]]))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(2, 40)).map(lambda kn: (kn[0], kn[1], kn[1])),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_stack_equals_per_matrix_values(self, stack):
        got = pair_mean(stack)
        assert got.shape == (stack.shape[0],)
        assert [float(v) for v in got] == [pair_mean(m) for m in stack]
        assert all(type(pair_mean(m)) is float for m in stack)

    @pytest.mark.parametrize("shape", [(3, 1, 1), (1, 1, 1), (2, 0, 0)])
    def test_stack_needs_two_units(self, shape):
        with pytest.raises(ValueError, match="n >= 2"):
            pair_mean(np.ones(shape))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_pair_mean_needs_square_matrices(self, shape):
        with pytest.raises(ValueError):
            pair_mean(np.ones(shape))

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    @pytest.mark.parametrize("size", [1, 3, 4, 5, 8, 9, 198])
    def test_linearized_arrays_equal_scalar_calls(self, n, size):
        ql = random_quadratic(20 + n, n=n)
        r = np.random.default_rng(size)
        c = r.uniform(0, 200, size)
        d = r.uniform(-1e4, 1e4, size)
        got = linearized_expected_interaction(c, d, ql)
        assert got.shape == (size,)
        # each length-1 call, and the oracle's own scalar arithmetic, agree bit for bit
        single = [linearized_expected_interaction(c[i : i + 1], d[i : i + 1], ql)[0]
                  for i in range(size)]
        assert got.tolist() == single
        assert single == [linearized_interaction_per_step(ci, di, ql) for ci, di in zip(c, d)]

    @pytest.mark.parametrize("c, d", [
        (np.ones(3), np.ones(4)), (np.ones((2, 2)), np.ones((2, 2))), (np.ones(3), 1.0),
    ])
    def test_linearized_arrays_of_other_shapes_rejected(self, c, d):
        with pytest.raises(ValueError):
            linearized_expected_interaction(c, d, random_quadratic(0, n=3))

    def test_moments_match_double_loop(self):
        ql = random_quadratic(4, n=6)
        a, b = interaction_moments(ql)
        hg = ql.H @ ql.g
        n = ql.n
        a_ref = np.mean(
            [ql.g[i] * ql.H[i, j] * ql.g[j] for i in range(n) for j in range(n) if i != j]
        )
        b_ref = np.mean(
            [ql.g[i] * ql.H[i, j] * hg[j] for i in range(n) for j in range(n) if i != j]
        )
        assert a == pytest.approx(a_ref)
        assert b == pytest.approx(b_ref)

    def test_linearized_interaction_identity(self):
        # pair-mean of I(c g + d Hg) with the d^2 term dropped equals
        # c^2 A + 2 c d B
        ql = random_quadratic(5, n=7)
        a, b = interaction_moments(ql)
        c, d = 3.0, 1.5
        (got,) = linearized_expected_interaction(np.array([c]), np.array([d]), ql)
        assert got == linearized_interaction_per_step(c, d, ql)
        assert got == pytest.approx(c * c * a + 2 * c * d * b, rel=1e-12)

    def test_expected_interaction_full_quadratic(self):
        ql = random_quadratic(6, n=5)
        delta = 2.0 * ql.g
        assert expected_interaction(delta, ql.H) == pytest.approx(
            4.0 * interaction_moments(ql)[0]
        )


class TestTheorem:
    def _instance_with_positive_b(self, start_seed=0):
        for seed in range(start_seed, start_seed + 100):
            ql = random_quadratic(seed, n=10)
            if interaction_moments(ql)[1] > 0:
                return ql
        raise AssertionError("no instance with positive B found")

    def test_report_passes_and_orders(self):
        ql = self._instance_with_positive_b()
        rep = verify_theorem(ql, beta=0.25, gamma=0.25, t_max=40)
        assert rep.passed
        assert rep.identity_max_rel_err < 1e-9
        assert np.all(rep.gap > 0)

    def test_cubic_coefficients(self):
        ql = self._instance_with_positive_b(7)
        rep = verify_theorem(ql, beta=0.3, gamma=0.2, t_max=40)
        assert rep.cubic_proposed == pytest.approx(0.5 * rep.b_moment, rel=1e-6)
        assert rep.cubic_baseline == pytest.approx(rep.b_moment, rel=1e-6)

    def test_no_history_reuse_closes_the_gap(self):
        # beta + gamma = 1 makes both updates grow at the same cubic rate
        ql = self._instance_with_positive_b(3)
        rep = verify_theorem(ql, beta=0.5, gamma=0.5, t_max=30)
        assert rep.cubic_proposed == pytest.approx(rep.cubic_baseline, rel=1e-6)

    def test_residual_slope_is_quadratic(self):
        ql = random_quadratic(11, n=8)
        slope = residual_slope(ql, 0.3, 0.2, t=8, etas=np.logspace(-5, -2, 6))
        assert slope == pytest.approx(2.0, abs=0.1)


class TestTheoremOracle:
    @pytest.mark.parametrize("beta, gamma", [(0.25, 0.25), (0.3, 0.2), (0.5, 0.5), (0.0, 0.0)])
    @pytest.mark.parametrize("t_max", [6, 7, 8, 50, 200])
    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_every_field_equals_the_per_step_oracle(self, n, t_max, beta, gamma):
        for seed in range(2):
            ql = random_quadratic(seed, n)
            got = verify_theorem(ql, beta, gamma, t_max=t_max)
            ref = verify_theorem_per_step(ql, beta, gamma, t_max=t_max)
            for f in fields(TheoremReport):
                a, b = getattr(got, f.name), getattr(ref, f.name)
                assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
                assert np.array_equal(a, b), f.name

    @pytest.mark.parametrize("t_max", [5, 4, 0])
    def test_too_few_steps_rejected(self, t_max):
        # steps 3..t_max must hold the 4 points of the cubic rate's third difference
        with pytest.raises(ValueError, match="t_max must be >= 6"):
            verify_theorem(random_quadratic(0, 4), 0.25, 0.25, t_max=t_max)

    @pytest.mark.parametrize("beta, gamma", [(-0.1, 0.2), (0.2, 1.5)])
    def test_history_weights_outside_unit_interval_rejected(self, beta, gamma):
        with pytest.raises(ValueError, match="must be in"):
            verify_theorem(random_quadratic(0, 4), beta, gamma, t_max=10)
