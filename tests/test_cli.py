import json

import pytest

from perfscore.cli import main


def run(tmp_path, name, argv):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    assert code == 0
    return path.read_bytes()


FAST_COMMANDS = {
    "sweep.csv": ["sweep-binary", "--alphas", "0.2,0.6", "--pstar-step", "0.05",
                  "--resolution", "1e-4"],
    "curves.csv": ["max-curves", "--alphas", "0.3", "--pstar-step", "1e-3",
                   "--resolution", "1e-4"],
    "many.csv": ["many-outcome", "--n", "4", "--trials", "8", "--seed", "11"],
    "bound.json": ["bound", "--rule", "quadratic",
                   "--env", "affine:p1=0.7,alpha=0.5", "--format", "json"],
    "market.json": ["market", "--rule", "quadratic",
                    "--env", "affine:p1=0.7,alpha=0.5",
                    "--weights", "0.5,0.5", "--format", "json"],
    "regret.csv": ["regret", "--env", "affine:p1=0.7,alpha=0.5",
                   "--policy", "constant:p1=0.3", "--T", "500", "--seed", "4"],
    "design.json": ["design-exp-rule", "--lf", "1.0", "--epsilon", "0.1"],
    "stake.json": ["stake-profile", "--rule", "exp:K=28.3", "--lf", "1.0",
                   "--epsilon", "0.05", "--pl", "0.25", "--ph", "0.75"],
    "counter.json": ["counterexample", "--rule", "quadratic", "--p1", "0.5"],
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(FAST_COMMANDS), ids=lambda n: n)
    def test_byte_identical_reruns(self, tmp_path, name):
        argv = FAST_COMMANDS[name]
        first = run(tmp_path, "a_" + name, argv)
        second = run(tmp_path, "b_" + name, argv)
        assert first == second

    def test_jobs_do_not_change_output(self, tmp_path):
        base = ["many-outcome", "--n", "4", "--trials", "8", "--seed", "11"]
        a = run(tmp_path, "j1.csv", base + ["--jobs", "1"])
        b = run(tmp_path, "j2.csv", base + ["--jobs", "2"])
        assert a == b

    @pytest.mark.parametrize(
        "argv",
        [["bound", "--rule", "log", "--env", "linear:seed=3,n=3", "--format", "json"],
         ["market", "--env", "affine:p1=0.7,alpha=0.5", "--weights", "0.5,0.5"]],
        ids=["bound-ascent", "market"],
    )
    def test_timeout_secs_is_ignored(self, tmp_path, argv):
        # the log rule with n = 3 reaches the multi-start ascent
        a = run(tmp_path, "t0", argv)
        b = run(tmp_path, "t1", argv + ["--timeout-secs", "1e-9"])
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        a = run(tmp_path, "s1.csv",
                ["many-outcome", "--n", "4", "--trials", "4", "--seed", "1"])
        b = run(tmp_path, "s2.csv",
                ["many-outcome", "--n", "4", "--trials", "4", "--seed", "2"])
        assert a != b


class TestExitCodes:
    def test_success(self, tmp_path):
        code = main(["design-exp-rule", "--lf", "1.0", "--epsilon", "0.1",
                     "--out", str(tmp_path / "k.json")])
        assert code == 0

    def test_invalid_arguments(self):
        assert main(["sweep-binary", "--alphas", "nonsense"]) == 2
        assert main(["bound", "--rule", "mystery",
                     "--env", "affine:p1=0.5,alpha=0.3"]) == 2
        assert main(["regret", "--env", "affine:p1=0.5,alpha=0.3",
                     "--policy", "teleport"]) == 2
        assert main(["unknown-subcommand"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["sweep-binary", "--resolution", "0"],
         ["max-curves", "--pstar-step", "0"],
         ["max-curves", "--pstar-step", "-0.001"],
         ["sweep-binary", "--pstar-step", "-1"],
         ["sweep-binary", "--pstar-step", "nan"],
         ["max-curves", "--resolution", "0.01"]],
        ids=" ".join,
    )
    def test_bad_grid_arguments(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["bound", "--env", "linear:seed=-1"],
         ["bound", "--env", "linear:seed=abc"],
         ["bound", "--env", "linear:seed=1,n=-2"]]
        + [["stake-profile", "--lf", "1", "--epsilon", "0.01", "--pl", "0.1", "--ph", "0.5",
            "--grid-step", step] for step in ("nan", "inf", "0", "-0.001", "1e-300")],
        ids=" ".join,
    )
    def test_bad_numbers_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_domainish_argument_failure(self):
        assert main(["stake-profile", "--rule", "quadratic", "--lf", "1.0",
                     "--epsilon", "0.05", "--pl", "0.01", "--ph", "0.5"]) == 2

    def test_io_failure(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["design-exp-rule", "--lf", "1.0", "--epsilon", "0.1",
                     "--out", str(missing_dir)])
        assert code == 3


def strict_json(raw: bytes):
    """json.loads that refuses NaN and +-Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=refuse)


class TestStrictJson:
    def test_max_curves_at_unit_slope(self, tmp_path):
        # the distance overlay is infinite and no distance is recorded at alpha = 1
        data = strict_json(run(tmp_path, "c.json",
                               ["max-curves", "--alphas", "1.0", "--pstar-step", "1e-3",
                                "--resolution", "1e-4", "--format", "json"]))
        assert data[0]["bound_dist"] is None
        assert data[0]["max_dist_to_fp"] is None
        assert data[0]["max_inaccuracy"] >= 0.0

    def test_sweep_above_distance_cap(self, tmp_path):
        data = strict_json(run(tmp_path, "s.json",
                               ["sweep-binary", "--alphas", "0.97", "--pstar-step", "0.25",
                                "--resolution", "1e-4", "--format", "json"]))
        assert len(data) == 5
        assert all(rec["dist_to_fp"] is None for rec in data)
        assert all(rec["inaccuracy"] >= 0.0 for rec in data)


class TestPayloads:
    def test_design_payload(self, tmp_path):
        data = json.loads(run(tmp_path, "d.json",
                              ["design-exp-rule", "--lf", "1.0",
                               "--epsilon", "0.1"]))
        assert data["K"] == pytest.approx(2.0 ** 0.5 / 0.1)
        assert data["kind"] == "exponential-binary"

    def test_bound_payload_at_point(self, tmp_path):
        data = json.loads(run(tmp_path, "b.json",
                              ["bound", "--rule", "quadratic",
                               "--env", "affine:p1=0.5,alpha=0.4",
                               "--at", "p1=0.8", "--format", "json"]))
        assert data["at"][0] == pytest.approx(0.8)
        assert data["pointwise_inaccuracy_bound"] > 0.0

    def test_market_payload(self, tmp_path):
        data = json.loads(run(tmp_path, "m.json",
                              ["market", "--rule", "quadratic",
                               "--env", "affine:p1=0.7,alpha=0.5",
                               "--weights", "0.2,0.2,0.2,0.2,0.2",
                               "--format", "json"]))
        assert len(data["predictions"]) == 5
        assert all(entry["ok"] for entry in data["power_bound"])

    def test_regret_fixedpoint_policy(self, tmp_path):
        data = json.loads(run(tmp_path, "r.json",
                              ["regret", "--env", "bankrun",
                               "--policy", "fixedpoint", "--T", "2000",
                               "--seed", "0", "--format", "json"]))
        assert abs(data["average_regret"]) <= 1e-12

    def test_sweep_runtime_zeroed_by_default(self, tmp_path):
        raw = run(tmp_path, "z.csv",
                  ["sweep-binary", "--alphas", "0.5", "--pstar-step", "0.5",
                   "--resolution", "1e-4"]).decode()
        import csv as csvmod
        rows = list(csvmod.reader(raw.strip().split("\n")))
        col = rows[0].index("runtime_ms")
        for line in rows[1:]:
            assert float(line[col]) == 0.0
