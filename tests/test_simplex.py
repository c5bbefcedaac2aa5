import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfscore.errors import InvalidArgumentError
from perfscore.simplex import (
    SimplexPoint,
    TangentVector,
    binary_point,
    checked_rows,
    l2_distance,
    project_raw,
    project_rows,
    project_to_shrunk_simplex,
    project_to_simplex,
    sample_simplex_points,
    tangent_basis,
    tangent_min_eigenvalue,
    tangent_operator_norm,
    tangent_project,
    uniform_point,
    vertex,
)


class TestSimplexPoint:
    def test_valid_construction(self):
        p = SimplexPoint([0.2, 0.3, 0.5])
        assert p.n == 3
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_clamps_tiny_negatives(self):
        p = SimplexPoint([1.0 + 5e-13, -5e-13])
        assert p[1] == 0.0
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [[0.5, 0.4], [0.6, 0.6], [-0.1, 1.1], [1.0]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidArgumentError):
            SimplexPoint(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            SimplexPoint([np.nan, 1.0])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_uniform_point_is_exactly_one_over_n(self, n):
        # n copies of the rounded 1/n sum to 1 - 1.1e-16 for n = 6 and 7;
        # renormalizing would move every entry by 2.8e-17
        assert np.array_equal(uniform_point(n).probs, np.full(n, 1.0 / n))

    def test_immutability(self):
        p = uniform_point(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestProjection:
    def test_two_var_qp_by_hand(self):
        # shift theta = 0.1 solves the 2-variable projection
        assert project_to_simplex([0.5, 0.7]).probs == pytest.approx([0.4, 0.6])

    def test_already_on_simplex(self):
        assert project_to_simplex([1.0, 0.0, 0.0]).probs == pytest.approx(
            [1.0, 0.0, 0.0]
        )

    def test_symmetric_negative_input(self):
        # symmetry forces the uniform point; cross-check by grid minimization
        out = project_to_simplex([-1.0, -1.0])
        assert out.probs == pytest.approx([0.5, 0.5])
        grid = np.linspace(0.0, 1.0, 2001)
        dists = (grid + 1.0) ** 2 + (1.0 - grid + 1.0) ** 2
        assert grid[np.argmin(dists)] == pytest.approx(0.5, abs=1e-3)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(size=4) * 3.0
            once = project_to_simplex(v).probs
            twice = project_to_simplex(once).probs
            assert np.max(np.abs(once - twice)) <= 1e-12

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            u = rng.normal(size=5) * 2.0
            v = rng.normal(size=5) * 2.0
            du = project_to_simplex(u).probs
            dv = project_to_simplex(v).probs
            assert np.linalg.norm(du - dv) <= np.linalg.norm(u - v) + 1e-12

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_properties_hypothesis(self, values):
        out = project_to_simplex(values)
        assert np.all(out.probs >= 0.0)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
        again = project_to_simplex(out.probs)
        assert np.max(np.abs(again.probs - out.probs)) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            project_to_simplex([np.inf, 0.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_row_projection_equals_one_dimensional(self, n):
        # same arithmetic row by row, so equal bit for bit; the 1e17 scale
        # reaches the collapsed-support branch
        rng = np.random.default_rng(n)
        scale = rng.choice([1e-3, 1.0, 100.0, 1e17], size=(500, 1))
        V = rng.normal(size=(500, n)) * scale
        expected = np.array([project_raw(v.tolist()) for v in V])
        assert np.array_equal(project_rows(V), expected)

    def test_checked_rows_mirror_the_constructor(self):
        V = np.array([[0.2, 0.3, 0.5], [1.0 + 5e-13, -5e-13, 0.0]])
        expected = np.array([SimplexPoint(v).probs for v in V])
        assert np.array_equal(checked_rows(V), expected)
        for bad in ([0.5, 0.4, 0.0], [-0.1, 1.1, 0.0], [np.nan, 1.0, 0.0],
                    [np.inf, -np.inf, 1.0]):
            with pytest.raises(InvalidArgumentError):
                checked_rows(np.array([[0.2, 0.3, 0.5], bad]))

    def test_shrunk_projection(self):
        out = project_to_shrunk_simplex([1.5, -0.5], 0.1)
        assert np.all(out.probs >= 0.1 - 1e-15)
        assert out.probs == pytest.approx([0.9, 0.1])
        with pytest.raises(InvalidArgumentError):
            project_to_shrunk_simplex([0.5, 0.5], 0.6)


class TestTangent:
    def test_examples(self):
        assert tangent_project([1.0, 0.0]).comps == pytest.approx([0.5, -0.5])
        assert tangent_project([3.0, 3.0, 3.0]).comps == pytest.approx([0.0] * 3)
        assert tangent_project([3.0, 1.0, 2.0]).comps == pytest.approx(
            [1.0, -1.0, 0.0]
        )

    def test_sum_zero_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.normal(size=5)
            assert abs(tangent_project(v).comps.sum()) <= 1e-12

    def test_fixed_point_of_itself(self):
        v = tangent_project([2.0, -1.0, 5.0]).comps
        assert tangent_project(v).comps == pytest.approx(v, abs=1e-15)

    def test_tangent_vector_validation(self):
        with pytest.raises(InvalidArgumentError):
            TangentVector([1.0, 1.0])

    def test_basis_orthonormal_and_spans_tangent(self):
        for n in (2, 3, 5, 7):
            B = tangent_basis(n)
            assert B.T @ B == pytest.approx(np.eye(n - 1), abs=1e-14)
            assert np.ones(n) @ B == pytest.approx(np.zeros(n - 1), abs=1e-14)
            Pi = np.eye(n) - 1.0 / n
            assert B @ B.T == pytest.approx(Pi, abs=1e-13)


class TestDistances:
    def test_l2(self):
        assert l2_distance(binary_point(1.0), binary_point(0.0)) == pytest.approx(
            math.sqrt(2.0)
        )
        p = SimplexPoint([0.2, 0.5, 0.3])
        assert l2_distance(p, p) == 0.0
        assert l2_distance(
            binary_point(0.75), binary_point(0.25)
        ) == pytest.approx(0.70711, abs=1e-5)

    def test_l2_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            l2_distance(uniform_point(2), uniform_point(3))


class TestTangentSpectra:
    def test_scalar_matrix(self):
        assert tangent_operator_norm(2.0 * np.eye(2)) == pytest.approx(2.0)
        assert tangent_min_eigenvalue(2.0 * np.eye(2)) == pytest.approx(2.0)
        assert tangent_min_eigenvalue(2.0 * np.eye(5)) == pytest.approx(2.0)

    def test_identical_columns_annihilate_tangent(self):
        M = np.outer([0.3, 0.5, 0.2], np.ones(3)).T
        M = np.column_stack([np.array([0.3, 0.5, 0.2])] * 3)
        assert tangent_operator_norm(M) == pytest.approx(0.0, abs=1e-14)

    def test_bank_run_jacobian_norm(self):
        # hand differentiation of the cubic at p1 = 0.6 gives 1.225
        from perfscore.environment import bank_run

        J = bank_run().jacobian(binary_point(0.6))
        assert tangent_operator_norm(J) == pytest.approx(1.225, abs=1e-12)
        # central-difference cross-check
        h = 1e-6
        br = bank_run()
        fd = (br.eval1(np.asarray(0.6 + h)) - br.eval1(np.asarray(0.6 - h))) / (2 * h)
        assert abs(fd) == pytest.approx(1.225, abs=1e-6)

    def test_opnorm_matches_power_iteration(self):
        # 1000 random tangent probes lower-bound the norm; power iteration
        # from the best probe recovers it to 1e-6
        rng = np.random.default_rng(3)
        for n in (2, 3, 6):
            M = rng.normal(size=(n, n))
            target = tangent_operator_norm(M)
            Pi = np.eye(n) - 1.0 / n
            MT = Pi @ M @ Pi
            best, best_v = 0.0, None
            for _ in range(1000):
                v = tangent_project(rng.normal(size=n)).comps
                nv = np.linalg.norm(v)
                if nv < 1e-12:
                    continue
                val = np.linalg.norm(MT @ v) / nv
                if val > best:
                    best, best_v = val, v / nv
            assert best <= target + 1e-12
            v = best_v
            for _ in range(500):
                v = MT.T @ (MT @ v)
                v /= np.linalg.norm(v)
            refined = np.linalg.norm(MT @ v)
            assert refined == pytest.approx(target, abs=1e-6)

    def test_rayleigh_sandwich(self):
        rng = np.random.default_rng(4)
        for n in (3, 5):
            M = rng.normal(size=(n, n))
            M = M + M.T
            lo = tangent_min_eigenvalue(M)
            hi = tangent_operator_norm(M)
            for _ in range(100):
                v = tangent_project(rng.normal(size=n)).comps
                r = (v @ M @ v) / (v @ v)
                assert lo - 1e-10 <= r <= hi + 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            tangent_operator_norm(np.ones((2, 3)))

    def test_log_rule_hessian_tangent_eigenvalue(self):
        from perfscore.scoring import logarithmic_rule

        H = logarithmic_rule(2).hessian(binary_point(0.5))
        assert tangent_min_eigenvalue(H) == pytest.approx(2.0)


class TestSampling:
    def test_uniform_simplex_batch(self):
        rng = np.random.default_rng(5)
        pts = sample_simplex_points(4, 500, rng)
        assert pts.shape == (500, 4)
        assert np.all(pts >= 0.0)
        assert pts.sum(axis=1) == pytest.approx(np.ones(500), abs=1e-12)
        # flat-Dirichlet marginals have mean 1/n
        assert pts.mean(axis=0) == pytest.approx(np.full(4, 0.25), abs=0.02)

    def test_vertex(self):
        assert vertex(3, 1).probs == pytest.approx([0.0, 1.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            vertex(3, 3)
