import numpy as np
import pytest

from perfscore.environment import (
    affine_binary,
    bank_run,
    find_fixed_points,
    linear,
    linear_fixed_point_rows,
    parse_environment,
    ramp_binary,
    random_linear,
    shrink_to,
    tabulated,
)
from perfscore.errors import InvalidArgumentError, IterationLimitError
from perfscore.simplex import (
    SimplexPoint,
    binary_point,
    l2_distance,
    sample_simplex_points,
    tangent_basis,
    tangent_operator_norm,
    uniform_point,
)

ALL_KINDS = "affine bank_run linear shrink ramp ramp_open tabulated".split()
SEEDED_FAMILIES = ("affine", "bank_run", "ramp", "shrink", "linear2", "tabulated")


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
    if kind == "ramp_open":
        # (1 - zeta - start) / (1 - eps) > 1: no plateau inside [0, 1]
        return ramp_binary(0.05, 0.3, 0.005)
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
    @pytest.mark.parametrize(
        "kind", ["affine", "bank_run", "linear", "shrink", "ramp_open", "tabulated"]
    )
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
        # max of |f1'| over [0, 1]: the parabola peak f1'(8/15) = 1.245
        assert est == pytest.approx(1.245, abs=1e-15)
        xs = np.linspace(0.0, 1.0, 200_001)
        oracle = np.max(np.abs(-4.5 * xs * xs + 4.8 * xs - 0.035))
        assert oracle <= est < oracle + 1e-9

    def test_ramp(self):
        assert ramp_binary(0.1, 0.01).lipschitz_estimate() == pytest.approx(0.99)

    def test_tabulated_short_steep_segment(self):
        # the middle segment is 1e-4 wide with slope 0.6 / 1e-4 = 6000
        env = tabulated([0.0, 0.5, 0.5001, 1.0], [0.2, 0.3, 0.9, 0.95])
        assert env.lipschitz_estimate() == pytest.approx(6000.0, rel=1e-9)


class TestFixedPoints:
    def test_bank_run_three_roots(self):
        fps = find_fixed_points(bank_run())
        assert fps.method == "piece-roots"
        assert fps.coordinates() == pytest.approx([0.1, 0.6, 0.9], abs=1e-12)
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
        fps = find_fixed_points(env)
        assert fps.method == "eigen"
        assert fps.unique_guaranteed
        assert fps.points[0].probs == pytest.approx([0.5, 0.2, 0.3], abs=1e-9)

    @pytest.mark.parametrize("env", [
        bank_run(),
        tabulated(np.linspace(0.0, 1.0, 5), [0.3, 0.8, 0.15, 0.6, 0.9]),
        random_linear(2, np.random.default_rng(5)),
    ], ids=["bank_run", "tabulated", "linear2"])
    def test_sign_scan_matches_loop_reference(self, env):
        got = find_fixed_points(env).coordinates()
        brackets = _scan_brackets(env)
        assert len(got) == len(brackets) > 0
        # a zero on the grid is a point bracket, which a root rounded by
        # np.roots (bank-run: 0.5999999999999993) holds within 1e-12
        for lo, hi in brackets:
            assert sum(lo - 1e-12 <= r <= hi + 1e-12 for r in got) == 1

    def test_partial_identity_reports_its_ends(self):
        # f1(x) = x exactly on [0, 0.3]: the scan sees 3001 zero residuals,
        # one fixed piece, reported by its two ends
        env = tabulated([0.0, 0.3, 1.0], [0.0, 0.3, 0.5])
        assert len(_scan_brackets(env)) == 3001
        fps = find_fixed_points(env)
        assert fps.coordinates() == [0.0, 0.3]
        assert not fps.unique_guaranteed

    def test_piece_fixed_within_1e_12_reports_its_ends(self):
        # f1(x) = x + 1e-13 on [0.2, 0.7]: no exact zero and no sign change
        # there, so only the fixed-piece rule reports it
        env = tabulated([0.0, 0.2, 0.7, 1.0], [0.5, 0.2 + 1e-13, 0.7 + 1e-13, 0.8])
        assert find_fixed_points(env).coordinates() == [0.2, 0.7]

    def test_root_on_a_knot_reported_once(self):
        fps = find_fixed_points(tabulated([0.0, 0.5, 1.0], [0.8, 0.5, 0.1]))
        assert fps.coordinates() == [0.5]
        assert fps.unique_guaranteed

    @pytest.mark.parametrize("family", SEEDED_FAMILIES)
    def test_seeded_maps_match_scan_and_closed_form(self, family):
        rng = np.random.default_rng([20, SEEDED_FAMILIES.index(family)])
        for i in range(1 if family == "bank_run" else 200):
            env = _seeded_map(family, rng)
            got = find_fixed_points(env).coordinates()
            assert len(got) == len(_scan_brackets(env)), (family, i)
            p_star = env.exact_fixed_point()
            if p_star is not None:
                assert got == pytest.approx([p_star[0]], abs=1e-14), (family, i)

    def test_ramp_fixed_point_on_plateau(self):
        env = ramp_binary(0.1, 0.01)
        fps = find_fixed_points(env)
        assert fps.coordinates() == pytest.approx([0.9], abs=1e-10)
        assert env.exact_fixed_point()[0] == pytest.approx(0.9)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_stacked_kernel_matches_per_map_polish(self, n):
        # sparse maps polish for different numbers of rounds, so some rows
        # of the stack stop while others still move
        rng = np.random.default_rng(n)
        A = np.stack([rng.dirichlet(np.full(n, 0.05), size=n).T for _ in range(100)])
        A = A / A.sum(axis=1, keepdims=True)
        P = linear_fixed_point_rows(A)
        rounds = set()
        for a, p in zip(A, P):
            want, k = _ref_linear_fixed_point(a)
            assert np.array_equal(p, want)
            rounds.add(k)
        assert 0 in rounds and len(rounds) > 1

    def test_linear_branch_is_the_one_row_kernel(self):
        env = random_linear(6, np.random.default_rng(4))
        p = find_fixed_points(env).points[0]
        assert np.array_equal(p.probs, linear_fixed_point_rows(env.A[None])[0])

    def test_stacked_residual_check_raises(self):
        # a matrix that is not column-stochastic has no fixed point on the
        # simplex; the kernel skips validation, so its residual check fires
        A = np.stack([random_linear(3, np.random.default_rng(0)).A, 0.5 * np.eye(3)])
        with pytest.raises(IterationLimitError):
            linear_fixed_point_rows(A)


def _seeded_map(family, rng):
    if family == "affine":
        p_star = rng.uniform(0.0, 1.0)
        # negative slopes are valid while both endpoints map into [0, 1]
        steepest = min(p_star / (1.0 - p_star), (1.0 - p_star) / p_star, 0.99)
        return affine_binary(binary_point(p_star), rng.uniform(-steepest, 0.99))
    if family == "bank_run":
        return bank_run()
    if family == "ramp":
        return ramp_binary(rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.9))
    if family == "shrink":
        return shrink_to(binary_point(rng.uniform(0.0, 1.0)), rng.uniform(0.01, 1.0))
    if family == "linear2":
        return random_linear(2, rng)
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, rng.integers(0, 6))]))
    return tabulated(xs, rng.uniform(0.0, 1.0, xs.size))


def _scan_brackets(env):
    """The reference: f1(x) - x on a 1e-4 grid, as a per-interval loop.  A
    grid point with a zero residual is a bracket of its own; a cell whose
    ends change sign is another."""
    xs = np.arange(0.0, 1.0 + 0.5e-4, 1e-4)
    resid = env.eval1(xs) - xs
    brackets = []
    for i in range(xs.size - 1):
        if resid[i] == 0.0:
            brackets.append((xs[i], xs[i]))
        elif resid[i] * resid[i + 1] < 0.0:
            brackets.append((xs[i], xs[i + 1]))
    if resid[-1] == 0.0:
        brackets.append((xs[-1], xs[-1]))
    return brackets


def _ref_linear_fixed_point(A):
    """The per-map eigenvector and power polish the stacked kernel replaced,
    with the number of rounds it polished."""
    vals, vecs = np.linalg.eig(A)
    v = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    v = SimplexPoint(v / v.sum()).probs
    for k in range(50):
        w = np.clip(A @ v, 0.0, None)
        w = w / w.sum()
        if np.linalg.norm(w - v) < 1e-15:
            break
        v = w
    return SimplexPoint(v).probs, k


class TestParsing:
    def test_grammar(self):
        f = parse_environment("affine:p1=0.25,alpha=0.5")
        assert f.descriptor() == "affine:p1=0.25,alpha=0.5"
        assert f.p_star[0] == pytest.approx(0.25)
        assert parse_environment("bankrun").descriptor() == "bankrun"
        lin = parse_environment("linear:seed=4,n=3")
        assert lin.descriptor() == "linear:n=3" and lin.n == 3
        ramp = parse_environment("ramp:zeta=0.1,eps=0.02")
        assert ramp.descriptor() == "ramp:zeta=0.10000000000000001,eps=0.02,start=0.01"

    def test_linear_from_file(self, tmp_path):
        path = tmp_path / "A.csv"
        A = random_linear(3, np.random.default_rng(0)).A
        np.savetxt(path, A, delimiter=",")
        env = parse_environment(f"linear:file={path}")
        assert env.A == pytest.approx(A, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        ["affine:p1=0.5", "mystery", "ramp:zeta=0.1", "linear:seed=-1", "linear:seed=abc",
         "linear:seed=1,n=-2", "linear:seed=1,n=1", "linear:seed=1.5", "affine:p1=x,alpha=0.3"],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse_environment(bad)

    def test_descriptor_roundtrip(self):
        f = affine_binary(binary_point(0.125), 0.75)
        again = parse_environment(f.descriptor())
        assert again.p_star[0] == f.p_star[0]
        assert again.descriptor() == f.descriptor()


# -- test-local closed forms of the named constructors ----------------------------


def _ramp_form(zeta, eps, start):
    def rows(P):
        f1 = np.minimum(start + (1.0 - eps) * P[:, 0], 1.0 - zeta)
        return np.column_stack([f1, 1.0 - f1])

    def slope(x):
        return np.where(start + (1.0 - eps) * x < 1.0 - zeta, 1.0 - eps, 0.0)

    fixed = 1.0 - zeta if start >= eps * (1.0 - zeta) else start / eps
    return ramp_binary(zeta, eps, start), rows, slope, 1.0 - eps, [fixed, 1.0 - fixed]


def _affine_form(p1, alpha):
    target = np.array([p1, 1.0 - p1])
    return (
        affine_binary(binary_point(p1), alpha),
        lambda P: target + alpha * (P - target),
        lambda x: np.full_like(x, alpha),
        abs(alpha),
        target,
    )


def _shrink_form(target, alpha):
    target = np.asarray(target, dtype=float)
    return (
        shrink_to(SimplexPoint(target), alpha),
        lambda P: (1.0 - alpha) * P + alpha * target,
        lambda x: np.full_like(x, 1.0 - alpha),
        abs(1.0 - alpha),
        target,
    )


# (map, f on rows, binary slope f1', L_f, fixed point)
CLOSED_FORMS = {
    "affine": lambda: _affine_form(0.6, 0.45),
    "affine_negative": lambda: _affine_form(0.45, -0.6),
    "constant": lambda: _affine_form(0.5, 0.0),
    "shrink2": lambda: _shrink_form([0.3, 0.7], 0.25),
    "shrink4": lambda: _shrink_form([0.1, 0.2, 0.3, 0.4], 0.4),
    "ramp": lambda: _ramp_form(0.1, 0.01, 0.01),
    "ramp_low_start": lambda: _ramp_form(0.2, 0.05, 0.001),
    "ramp_open": lambda: _ramp_form(0.05, 0.3, 0.005),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
class TestNamedConstructorsMatchClosedForms:
    def test_eval_rows(self, name):
        env, rows, _, _, _ = CLOSED_FORMS[name]()
        P = sample_simplex_points(env.n, 500, np.random.default_rng(21))
        assert np.max(np.abs(env.eval_rows(P) - rows(P))) <= 1e-15
        for v in P[:20]:
            assert np.max(np.abs(env.eval(SimplexPoint(v)).probs - rows(v[None])[0])) <= 1e-15

    def test_slope1(self, name):
        env, _, slope, _, _ = CLOSED_FORMS[name]()
        x = np.random.default_rng(22).random(500)
        if env.n != 2:
            with pytest.raises(InvalidArgumentError):
                env.slope1(x)
            return
        assert np.max(np.abs(env.slope1(x) - slope(x))) <= 1e-15

    def test_jacobian_on_tangent_space(self, name):
        env, _, slope, _, _ = CLOSED_FORMS[name]()
        B = tangent_basis(env.n)
        for v in sample_simplex_points(env.n, 50, np.random.default_rng(23)):
            # every closed form moves a tangent direction d to slope * d
            JB = env.jacobian(SimplexPoint(v)) @ B
            assert np.max(np.abs(JB - slope(v[:1])[0] * B)) <= 1e-15

    def test_lipschitz_estimate(self, name):
        env, _, _, L_f, _ = CLOSED_FORMS[name]()
        assert env.lipschitz_estimate() == L_f

    def test_exact_fixed_point(self, name):
        env, rows, _, _, fixed = CLOSED_FORMS[name]()
        p = env.exact_fixed_point()
        assert p.probs == pytest.approx(fixed, abs=1e-15)
        assert np.max(np.abs(rows(p.probs[None])[0] - p.probs)) <= 1e-15
