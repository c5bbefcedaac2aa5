import numpy as np
import pytest

from perfscore.environment import (
    FixedPointConfig,
    affine_binary,
    bank_run,
    find_fixed_points,
    linear,
    parse_environment,
    ramp_binary,
    random_linear,
    shrink_to,
    tabulated,
)
from perfscore.errors import InvalidArgumentError
from perfscore.simplex import (
    SimplexPoint,
    binary_point,
    l2_distance,
    sample_simplex_points,
    tangent_basis,
    tangent_operator_norm,
    uniform_point,
)

ALL_KINDS = "affine bank_run linear shrink ramp tabulated".split()


def make_env(kind, n=2, seed=0):
    if kind == "affine":
        return affine_binary(binary_point(0.6), 0.45)
    if kind == "bank_run":
        return bank_run()
    if kind == "linear":
        return random_linear(n, np.random.default_rng(seed))
    if kind == "shrink":
        return shrink_to(uniform_point(n), 0.3)
    if kind == "ramp":
        return ramp_binary(0.1, 0.01)
    return tabulated([0.0, 0.4, 1.0], [0.2, 0.5, 0.8])


class TestEval:
    def test_bank_run_fixed_values(self):
        br = bank_run()
        for x in (0.1, 0.6, 0.9):
            assert br.eval(binary_point(x))[0] == pytest.approx(x, abs=1e-15)

    def test_affine_examples(self):
        f = affine_binary(binary_point(0.5), 0.3)
        assert f.eval(binary_point(0.5)).probs == pytest.approx([0.5, 0.5])
        assert f.eval(binary_point(1.0)).probs == pytest.approx([0.65, 0.35])

    def test_affine_negative_slope_containment(self):
        # alpha = -0.5 needs p* in [1/3, 2/3]
        affine_binary(binary_point(0.5), -0.5)
        with pytest.raises(InvalidArgumentError):
            affine_binary(binary_point(0.9), -0.5)
        with pytest.raises(InvalidArgumentError):
            affine_binary(binary_point(0.5), 1.5)

    def test_linear_validation(self):
        with pytest.raises(InvalidArgumentError):
            linear(np.array([[0.5, 0.7], [0.5, 0.5]]))
        with pytest.raises(InvalidArgumentError):
            linear(np.array([[1.2, 0.0], [-0.2, 1.0]]))

    def test_shrink_pulls_toward_target(self):
        f = shrink_to(binary_point(0.5), 0.25)
        out = f.eval(binary_point(1.0))
        assert out.probs == pytest.approx([0.875, 0.125])

    def test_ramp_shape(self):
        f = ramp_binary(0.1, 0.01)
        assert float(f.eval1(np.asarray(0.0))) == pytest.approx(0.01)
        assert float(f.eval1(np.asarray(1.0))) == pytest.approx(0.9)
        kink = (0.9 - 0.01) / 0.99
        assert float(f.eval1(np.asarray(kink))) == pytest.approx(0.9)

    def test_tabulated_interpolation(self):
        f = tabulated([0.0, 0.4, 1.0], [0.2, 0.5, 0.8])
        assert float(f.eval1(np.asarray(0.2))) == pytest.approx(0.35)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_range_invariant(self, kind):
        env = make_env(kind, n=4 if kind in ("linear", "shrink") else 2)
        rng = np.random.default_rng(7)
        pts = sample_simplex_points(env.n, 10_000, rng)
        outs = env.eval_rows(pts)
        assert np.all(outs >= -1e-12)
        assert outs.sum(axis=1) == pytest.approx(np.ones(len(outs)), abs=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_eval_rows_matches_eval(self, kind):
        env = make_env(kind, n=3 if kind in ("linear", "shrink") else 2)
        rng = np.random.default_rng(8)
        pts = sample_simplex_points(env.n, 50, rng)
        rows = env.eval_rows(pts)
        for v, row in zip(pts, rows):
            assert env.eval(SimplexPoint(v)).probs == pytest.approx(row, abs=1e-12)

    def test_banach_contraction_witness_exact(self):
        f = affine_binary(binary_point(0.3), 0.45)
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = SimplexPoint(sample_simplex_points(2, 1, rng)[0])
            q = SimplexPoint(sample_simplex_points(2, 1, rng)[0])
            lhs = l2_distance(f.eval(p), f.eval(q))
            assert lhs == pytest.approx(0.45 * l2_distance(p, q), abs=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("kind", ["affine", "bank_run", "linear", "shrink", "tabulated"])
    def test_matches_central_differences(self, kind):
        env = make_env(kind, n=4 if kind in ("linear", "shrink") else 2)
        rng = np.random.default_rng(10)
        B = tangent_basis(env.n)
        h = 1e-6
        pts = 0.9 * sample_simplex_points(env.n, 100, rng) + 0.1 / env.n
        for v in pts:
            J = env.jacobian(SimplexPoint(v))
            for k in range(env.n - 1):
                d = B[:, k]
                up = env.eval(SimplexPoint(v + h * d)).probs
                dn = env.eval(SimplexPoint(v - h * d)).probs
                fd = (up - dn) / (2.0 * h)
                assert np.max(np.abs(J @ d - fd)) <= 1e-5

    def test_linear_jacobian_is_matrix(self):
        env = make_env("linear", n=5, seed=3)
        J = env.jacobian(uniform_point(5))
        assert J == pytest.approx(env.A)

    def test_bank_run_slope_at_interior_fixed_point(self):
        J = bank_run().jacobian(binary_point(0.6))
        assert tangent_operator_norm(J) == pytest.approx(1.225, abs=1e-12)

    def test_ramp_one_sided_at_kink(self):
        env = ramp_binary(0.2, 0.05)
        kink = (0.8 - 0.02) / 0.95
        J = env.jacobian(binary_point(kink))
        assert tangent_operator_norm(J) in (
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.95, abs=1e-12),
        )


class TestLipschitz:
    def test_affine_exact(self):
        assert affine_binary(binary_point(0.5), 0.3).lipschitz_estimate() == 0.3

    def test_linear_equals_svd_oracle(self):
        env = make_env("linear", n=5, seed=11)
        B = tangent_basis(5)
        sv = np.linalg.svd(B.T @ env.A @ B, compute_uv=False)[0]
        assert env.lipschitz_estimate() == pytest.approx(sv, abs=1e-12)

    def test_bank_run_grid_scan(self):
        est = bank_run().lipschitz_estimate()
        # max of |f1'| over [0, 1]: the parabola peak at x = 8/15
        xs = np.linspace(0.0, 1.0, 200_001)
        oracle = np.max(np.abs(-4.5 * xs * xs + 4.8 * xs - 0.035))
        assert est == pytest.approx(oracle, abs=1e-6)
        assert est > 1.0

    def test_ramp(self):
        assert ramp_binary(0.1, 0.01).lipschitz_estimate() == pytest.approx(0.99)


class TestFixedPoints:
    def test_bank_run_three_roots(self):
        fps = find_fixed_points(bank_run())
        assert fps.method == "sign-scan"
        assert fps.coordinates() == pytest.approx([0.1, 0.6, 0.9], abs=1e-8)
        assert not fps.unique_guaranteed

    def test_residuals_verified_independently(self):
        fps = find_fixed_points(bank_run())
        br = bank_run()
        for p in fps.points:
            assert l2_distance(br.eval(p), p) <= 1e-8

    def test_affine_unique(self):
        f = affine_binary(binary_point(0.37), 0.8)
        fps = find_fixed_points(f)
        assert len(fps.points) == 1
        assert fps.points[0][0] == pytest.approx(0.37, abs=1e-10)
        assert fps.unique_guaranteed

    def test_identity_flagged_non_unique(self):
        f = affine_binary(binary_point(0.5), 1.0)
        fps = find_fixed_points(f)
        assert not fps.unique_guaranteed
        assert fps.points == [uniform_point(2)]

    def test_linear_perron_vector(self):
        env = make_env("linear", n=5, seed=12)
        fps = find_fixed_points(env)
        assert fps.method == "eigen"
        p = fps.points[0]
        # dense eigensolver oracle
        vals, vecs = np.linalg.eig(env.A)
        idx = np.argmin(np.abs(vals - 1.0))
        v = np.abs(np.real(vecs[:, idx]))
        v /= v.sum()
        assert p.probs == pytest.approx(v, abs=1e-9)
        assert l2_distance(env.eval(p), p) <= 1e-10

    def test_shrink_banach(self):
        env = shrink_to(SimplexPoint([0.5, 0.2, 0.3]), 0.6)
        fps = find_fixed_points(env, FixedPointConfig(tol=1e-13))
        assert fps.method == "banach"
        assert fps.unique_guaranteed
        assert fps.points[0].probs == pytest.approx([0.5, 0.2, 0.3], abs=1e-9)

    def test_ramp_fixed_point_on_plateau(self):
        env = ramp_binary(0.1, 0.01)
        fps = find_fixed_points(env)
        assert fps.coordinates() == pytest.approx([0.9], abs=1e-10)
        assert env.exact_fixed_point()[0] == pytest.approx(0.9)


class TestParsing:
    def test_grammar(self):
        f = parse_environment("affine:p1=0.25,alpha=0.5")
        assert f.kind == "affine-binary"
        assert f.p_star[0] == pytest.approx(0.25)
        assert parse_environment("bankrun").kind == "bank-run"
        lin = parse_environment("linear:seed=4,n=3")
        assert lin.kind == "linear" and lin.n == 3
        ramp = parse_environment("ramp:zeta=0.1,eps=0.02")
        assert ramp.zeta == pytest.approx(0.1)

    def test_linear_from_file(self, tmp_path):
        path = tmp_path / "A.csv"
        A = random_linear(3, np.random.default_rng(0)).A
        np.savetxt(path, A, delimiter=",")
        env = parse_environment(f"linear:file={path}")
        assert env.A == pytest.approx(A, abs=1e-12)

    @pytest.mark.parametrize("bad", ["affine:p1=0.5", "mystery", "ramp:zeta=0.1"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse_environment(bad)

    def test_descriptor_roundtrip(self):
        f = affine_binary(binary_point(0.125), 0.75)
        again = parse_environment(f.descriptor())
        assert again.p_star[0] == f.p_star[0] and again.alpha == f.alpha
