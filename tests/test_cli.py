import ast
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import hypschwarz
from hypschwarz import objective, quadrature, solver, verify
from hypschwarz.cli import _render, build_parser, main
from hypschwarz.errors import DomainError
from hypschwarz.kernel import BallContext
from hypschwarz.objective import ObjectiveParams
from hypschwarz.quadrature import DEFAULT_ORDER
from hypschwarz.solver import g_p_curve
from conftest import count_f_evals, count_site_builds, mp_g_inf

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


# Exact stdout of the closed-form commands: every byte of the table format
# (17-digit floats, bare ints, quoted strings and infinities) is pinned here.
GOLDEN = {
    "gp --n 3 --p inf --r-min 0 --r-max 0.9 --steps 10": """\
r,a_star,g_value,method,est_error
0,1,0,closed_pinf,0
0.10000000000000001,0.96078815802372308,0.19801980198019795,closed_pinf,0
0.20000000000000001,0.85207100591715967,0.38461538461538441,closed_pinf,0
0.30000000000000004,0.69699520242403823,0.55045871559632997,closed_pinf,0
0.40000000000000002,0.52437574316290114,0.68965517241379271,closed_pinf,0
0.5,0.35999999999999999,0.79999999999999949,closed_pinf,0
0.60000000000000009,0.22145328719723173,0.88235294117647012,closed_pinf,0
0.70000000000000007,0.11715688482500781,0.93959731543624114,closed_pinf,0
0.80000000000000004,0.048185603807257546,0.9756097560975604,closed_pinf,0
0.90000000000000002,0.011019199658130087,0.99447513812154631,closed_pinf,0
""",
    "gp --n 3 --p 1 --r 0.5 --format json": """\
[
  {"r": 0.5, "a_star": 4.5555555555555554, "g_value": 4.4444444444444446, "method": "closed_p1", "est_error": 0}
]
""",
    "astar --n 3 --p inf --r 0.5 --format json": """\
[
  {"r": 0.5, "a_star": 0.35999999999999999, "f_residual": 0}
]
""",
    # G_inf(4, 0.5) = 0.895911961338172141 at 30 digits
    "uh --n 4 --r 0.5": """\
r,u_h
0.5,0.8959119613381723
""",
    "grad --n 3 --p inf --format json": """\
[
  {"n": 3, "p": "inf", "c_p": 1.9999999999999996}
]
""",
    # u_i within 1.6 ulps of its exact value, the n = 3 cap integrals of K in closed form at 30 digits:
    # 2.9411764705882353, 3.9436619718309859, 4.3078872347165030, 4.4095124563069525,
    # 4.4356604556757642, 4.4422452369341137
    "verify-capseq --n 3 --r 0.5 --i-max 64": """\
i,u_i,g1_closed,rel_gap
2,2.9411764705882346,4.4444444444444446,0.33823529411764724
4,3.943661971830986,4.4444444444444446,0.11267605633802819
8,4.3078872347165031,4.4444444444444446,0.030725372188786834
16,4.4095124563069534,4.4444444444444446,0.0078596973309355226
32,4.4356604556757633,4.4444444444444446,0.0019763974729533063
64,4.4422452369341139,4.4444444444444446,0.00049482168982442067
""",
    "verify-capseq --n 3 --r 0.5 --i-max 64 --format json": """\
[
  {"i": 2, "u_i": 2.9411764705882346, "g1_closed": 4.4444444444444446, "rel_gap": 0.33823529411764724},
  {"i": 4, "u_i": 3.943661971830986, "g1_closed": 4.4444444444444446, "rel_gap": 0.11267605633802819},
  {"i": 8, "u_i": 4.3078872347165031, "g1_closed": 4.4444444444444446, "rel_gap": 0.030725372188786834},
  {"i": 16, "u_i": 4.4095124563069534, "g1_closed": 4.4444444444444446, "rel_gap": 0.0078596973309355226},
  {"i": 32, "u_i": 4.4356604556757633, "g1_closed": 4.4444444444444446, "rel_gap": 0.0019763974729533063},
  {"i": 64, "u_i": 4.4422452369341139, "g1_closed": 4.4444444444444446, "rel_gap": 0.00049482168982442067}
]
""",
}

# Column order of the numeric commands, whose values are pinned elsewhere.
NUMERIC_KEYS = {
    "gp --n 4 --p 2.5 --r 0.7": ["r", "a_star", "g_value", "method", "est_error"],
    "astar --n 3 --p 3 --r 0.5": ["r", "a_star", "f_residual"],
    "verify-sharpness --n 3 --p 2 --r 0.5":
        ["n", "p", "r", "g_bound", "attained", "u_at_zero", "rel_gap"],
    "verify-bound --n 3 --p 2 --r 0.5 --count 50 --seed 42":
        ["n", "p", "r", "count", "seed", "violations", "max_ratio"],
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert (code, out, err) == (0, GOLDEN[command], "")


@pytest.mark.parametrize("command", sorted(NUMERIC_KEYS))
def test_numeric_column_order(capsys, command):
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0 and out.split("\n")[0].split(",") == NUMERIC_KEYS[command]
    code, out, _ = run_cli(capsys, *shlex.split(command), "--format", "json")
    assert code == 0 and [list(row) for row in json.loads(out)] == [NUMERIC_KEYS[command]]


class TestGp:
    def test_sweep_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "gp", "--n", "3", "--p", "inf",
            "--r-min", "0", "--r-max", "0.9", "--steps", "10",
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["r", "a_star", "g_value", "method", "est_error"]
        assert len(rows) == 10
        mid = rows[5]
        assert float(mid["r"]) == pytest.approx(0.5)
        assert float(mid["g_value"]) == pytest.approx(0.8, rel=1e-12, abs=0)
        assert mid["method"] == "closed_pinf"

    def test_byte_determinism(self, capsys, tmp_path):
        args = ("gp", "--n", "4", "--p", "3", "--r-min", "0.1",
                "--r-max", "0.7", "--steps", "4")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        target = tmp_path / "sweep.csv"
        code3, out3, _ = run_cli(capsys, *args, "--output", str(target))
        assert code3 == 0 and out3 == ""
        data = target.read_bytes()
        assert data == out1.encode("utf-8")
        assert b"\r" not in data and data.endswith(b"\n")

    def test_sweep_repeats_and_reverses_radii(self, capsys):
        # a sweep predicts each shift from the radii before it; a repeated
        # radius reuses its solve instead of extrapolating through r2 - r1 = 0
        code, out, err = run_cli(capsys, "gp", "--n", "3", "--p", "3",
                                 "--r-min", "0.5", "--r-max", "0.5", "--steps", "4")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 5 and len(set(lines[1:])) == 1
        code, out, err = run_cli(capsys, "gp", "--n", "3", "--p", "3",
                                 "--r-min", "0.9", "--r-max", "0", "--steps", "10")
        assert code == 0 and err == ""
        rows = csv_rows(out)[1]
        radii = [float(row["r"]) for row in rows]
        assert radii == pytest.approx([0.1 * k for k in range(9, -1, -1)])
        assert all(float(b["g_value"]) < float(a["g_value"]) for a, b in zip(rows, rows[1:]))


    def test_signed_zero_radius_is_zero(self, capsys):
        # check_radius returned -0.0 for -0.0, and g_p's memo, whose keys -0.0
        # and 0.0 are equal, then served r = -0.0 and G = -0.0 for r = 0
        for p in (1.0, 2.0, 3.0, math.inf):
            ctx = BallContext(4, p)
            solver._g_p_numeric.cache_clear()
            solver.g_p(ctx, -0.0)
            for res in (solver.g_p(ctx, 0.0), *g_p_curve(ctx, [-0.0])):
                assert math.copysign(1.0, res.r) == math.copysign(1.0, res.g_value) == 1.0, p
        zero = run_cli(capsys, "gp", "--n", "4", "--p", "3", "--r", "0")
        assert run_cli(capsys, "gp", "--n", "4", "--p", "3", "--r", "-0.0") == zero
        assert zero[1].splitlines()[-1] == "0,1,0,linear,0"

    def test_edge_of_domain_points_answer(self, capsys):
        # (10, 3, 0.8) and the sweep's upper radii were refused with "no sign
        # change" (an absolute bracket margin cut a* out), (3, 3, 1e-300) too
        # (K - a cancelled to 0), and (10, 2, 1e-9) raised a raw ValueError
        # from the p = 2 closed form behind est_error; at the subnormal
        # r = 1e-310 Phi's scale 1/max|d| overflowed, and at 1e-315 and
        # 5e-324 the solve's tolerance underflowed to 0 (no root resolved)
        for command in ("gp --n 10 --p 3 --r 0.8", "gp --n 3 --p 3 --r 1e-300",
                        "gp --n 3 --p 3 --r 1e-310", "gp --n 3 --p 3 --r 1e-315",
                        "gp --n 5 --p 10 --r 5e-324", "gp --n 10 --p 2 --r 1e-9",
                        "gp --n 10 --p 3 --r-min 0.5 --r-max 0.95 --steps 20"):
            code, out, err = run_cli(capsys, *shlex.split(command))
            assert code == 0 and err == "", command
            assert all(float(row["g_value"]) > 0.0 for row in csv_rows(out)[1]), command


class TestAstar:
    def test_linear_regime_rows(self, capsys):
        # below 2^-60 a* = 1 and no F is evaluated: f_residual 0, as the closed forms print
        code, out, err = run_cli(capsys, *"astar --n 3 --p 3 --r-min 0 --r-max 1e-300 --steps 5".split())
        assert (code, err) == (0, "")
        rows = csv_rows(out)[1]
        assert len(rows) == 5 and all((row["a_star"], row["f_residual"]) == ("1", "0") for row in rows), rows

    def test_json_output(self, capsys):
        code, out, err = run_cli(
            capsys, "astar", "--n", "3", "--p", "2", "--r", "0.5",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["a_star"] == pytest.approx(1.0, abs=1e-10)
        assert abs(rows[0]["f_residual"]) <= 1e-9

    def test_sweep_shifts_match_gp(self, capsys):
        # both commands solve a sweep by continuation, so their shifts agree
        # to the last digit
        sweep = ("--n", "4", "--r-min", "0", "--r-max", "0.95", "--steps", "20")
        for p in ("1", "1.5", "2", "3", "inf"):
            columns = []
            for command in ("gp", "astar"):
                code, out, err = run_cli(capsys, command, "--p", p, *sweep)
                assert code == 0 and err == ""
                columns.append([row["a_star"] for row in csv_rows(out)[1]])
            assert len(columns[0]) == 20 and columns[0] == columns[1], p

    def test_sweep_integrates_no_phi(self, capsys, monkeypatch):
        # the shifts come from the solves alone; G = Phi(a*) is never printed
        calls = []
        real = solver._phi_and_refined
        monkeypatch.setattr(solver, "_phi_and_refined", lambda *args: calls.append(1) or real(*args))
        for p in ("1.5", "3"):
            code, out, _ = run_cli(capsys, "astar", "--n", "4", "--p", p,
                                   "--r-min", "0.01", "--r-max", "0.95", "--steps", "20")
            assert code == 0 and len(csv_rows(out)[1]) == 20
        assert calls == []

    def test_sweep_residuals_build_no_node_sets(self, capsys, monkeypatch):
        # each row's F(a*) is its solve's last F, so the rows build no site past the solves
        built = count_site_builds(monkeypatch)
        radii = [float(r) for r in np.linspace(0.01, 0.95, 20)]
        quadrature._site.cache_clear()
        ctx = BallContext(4, 3.0)
        (shifts,) = solver._lockstep(4, [(ctx, radii)], DEFAULT_ORDER)
        solves = len(built)
        quadrature._site.cache_clear()
        code, out, _ = run_cli(capsys, "astar", "--n", "4", "--p", "3",
                               "--r-min", "0.01", "--r-max", "0.95", "--steps", "20")
        assert code == 0 and [(float(row["a_star"]), float(row["f_residual"])) for row in csv_rows(out)[1]] == [
            (math.exp(s), f) for _, s, (_, f), _ in shifts]
        assert len(built) == 2 * solves

    def test_sweep_rows_are_gp_shifts_and_their_residuals(self, capsys):
        # the residual is F at the solve's own log a*, of which a_star is the
        # exp: the solve's last F has the bits of an F call there
        radii = [float(r) for r in np.linspace(0.0, 0.95, 20)]
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            ctx = BallContext(4, p)
            logs = {r: s for r, s, *_ in solver._lockstep(4, [(ctx, radii)], DEFAULT_ORDER)[0]} if 1.0 < p < math.inf else {}
            expected = [{"r": r, "a_star": res.a_star, "f_residual": (
                objective._f_and_slope(4, DEFAULT_ORDER, [(r, logs[r], ctx.q, False)])[0][0]
                if res.method == "numeric" and r > 0.0 else 0.0)}
                for r, res in zip(radii, g_p_curve(ctx, radii))]
            assert all(res.a_star == math.exp(logs[res.r]) for res in g_p_curve(ctx, radii)
                       if res.method == "numeric")
            code, out, _ = run_cli(capsys, "astar", "--n", "4", "--p", str(p), "--r-min", "0",
                                   "--r-max", "0.95", "--steps", "20", "--format", "json")
            assert code == 0 and out == _render("json", expected), p

    def test_closed_endpoints_have_zero_residual(self, capsys):
        for p in ("1", "inf"):
            code, out, _ = run_cli(
                capsys, "astar", "--n", "3", "--p", p, "--r", "0.5",
                "--format", "json",
            )
            assert code == 0
            assert json.loads(out)[0]["f_residual"] == 0.0


class TestScalarCommands:
    def test_uh_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "uh", "--n", "4", "--r", "0.5")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0]["u_h"]) == pytest.approx(0.8959119613381721, rel=1e-15, abs=0)

    def test_grad_json_quotes_infinite_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "grad", "--n", "3", "--p", "inf", "--format", "json",
        )
        assert code == 0
        assert '"p": "inf"' in out
        row = json.loads(out)[0]
        assert row["n"] == 3 and row["p"] == "inf"
        assert row["c_p"] == pytest.approx(2.0, rel=1e-14, abs=0)


class TestVerifyCommands:
    def test_bound_clean_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-bound", "--n", "3", "--p", "2", "--r", "0.5",
            "--count", "200", "--seed", "7",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["violations"] == "0"
        assert float(rows[0]["max_ratio"]) <= 1.0

    def test_bound_at_center_is_clean(self, capsys):
        # G_p(0) = 0: the zero bound is met by the centered data, not violated
        code, out, _ = run_cli(
            capsys, "verify-bound", "--n", "3", "--p", "2", "--r", "0", "--count", "50",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["violations"] == "0"

    def test_bound_at_a_subnormal_radius(self, capsys):
        # below 2^-60 the report is random_grad_check's (0.9792705509335656):
        # the gradient functional against C_p; it was against G / r, which
        # read 0.97927055093357396 here
        code, out, err = run_cli(capsys, "verify-bound", "--n", "3", "--p", "3", "--r", "1e-310")
        assert (code, err) == (0, "")
        assert out == ("n,p,r,count,seed,violations,max_ratio\n"
                       "3,3,9.9999999999999694e-311,1000,42,0,0.97927055093356563\n")

    def test_sharpness_clean_run(self, capsys):
        # p = 1 near the boundary needs a cap index that grows with 1/(1 - r)
        for p, r, limit in (("2", "0.5", 1e-6), ("1", "0.99", 0.02)):
            code, out, _ = run_cli(capsys, "verify-sharpness", "--n", "3", "--p", p, "--r", r)
            assert code == 0
            _, rows = csv_rows(out)
            assert float(rows[0]["rel_gap"]) <= limit

    def test_sweeps_solve_by_continuation(self, capsys, monkeypatch):
        # each radius is solved from its neighbours, as in gp: 4.0 F per
        # radius at (4, 3) on these radii in lockstep (3.9 one after another,
        # 5.6 without the slope-steered first steps), 7.1 with a cold solve
        # per radius (7.2 before cold solves steered too)
        calls = count_f_evals(monkeypatch)
        sweep = ("--n", "4", "--p", "3", "--r-min", "0.05", "--r-max", "0.9", "--steps", "40")
        for argv in (("verify-sharpness", *sweep), ("verify-bound", *sweep, "--count", "50")):
            solver._g_p_numeric.cache_clear()
            calls.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0 and len(calls) <= 4.5 * 40, argv

    def test_sweeps_report_gp_rows(self, capsys):
        # G at each radius is gp's sweep row, within est_error of a cold g_p
        ctx, radii = BallContext(4, 3.0), [float(r) for r in np.linspace(0.05, 0.9, 12)]
        curve = dict(zip(radii, g_p_curve(ctx, radii)))
        code, out, _ = run_cli(capsys, "verify-bound", "--n", "4", "--p", "3", "--r-min", "0.05",
                               "--r-max", "0.9", "--steps", "12", "--count", "50")
        assert code == 0
        moved = 0
        for row in csv_rows(out)[1]:
            r = float(row["r"])
            result, cold = curve[r], solver.g_p(ctx, r)
            report = verify._bound_checker(ctx, verify._random_poly_draws(ctx.n, 50, 42, DEFAULT_ORDER))(result)
            assert float(row["max_ratio"]) == report.max_ratio
            assert abs(result.g_value - cold.g_value) <= max(result.est_error, cold.est_error)
            moved += result.g_value != cold.g_value
        assert moved  # the cold solves land elsewhere in the bracket

    def test_sharpness_sweep_reports_curve_rows(self, capsys):
        # each row is _sharpness of gp's sweep row at its radius, bit for bit
        radii = [float(r) for r in np.linspace(0.05, 0.9, 12)]
        for p in (1.0, 1.5, 3.0, math.inf):
            ctx = BallContext(4, p)
            reports = [verify._sharpness(result, DEFAULT_ORDER) for result in g_p_curve(ctx, radii)]
            expected = [{"n": 4, "p": p, "r": report.r, "g_bound": report.g_bound,
                         "attained": report.attained, "u_at_zero": report.u_at_zero,
                         "rel_gap": report.rel_gap} for report in reports]
            code, out, _ = run_cli(capsys, "verify-sharpness", "--n", "4", "--p", str(p),
                                   "--r-min", "0.05", "--r-max", "0.9", "--steps", "12",
                                   "--format", "json")
            # p = inf at r = 0.9 misses SHARPNESS_GAP_LIMIT at order 128 (the
            # kernel's peak at the pole); the exit code follows the reports
            violated = not all(report.passed for report in reports)
            assert (code, out) == (2 if violated else 0, _render("json", expected)), p

    def test_draw_arguments_refused_before_any_solve(self, capsys, monkeypatch):
        # this sweep's solves refuse at r = 0.5 (F overflows at q = 101); a
        # bad --count or --seed is reported first, with no F evaluated
        calls = count_f_evals(monkeypatch)
        sweep = ("--n", "10", "--p", "1.01", "--r-min", "0.5", "--r-max", "0.6", "--steps", "3")
        code, _, err = run_cli(capsys, "verify-bound", *sweep)
        assert code == 1 and "non-finite" in err and calls
        for flag, value, message in (("--count", "0", "count must be an integer >= 1, got 0"),
                                     ("--seed", "-1", "seed must be an integer >= 0, got -1")):
            calls.clear()
            code, out, err = run_cli(capsys, "verify-bound", *sweep, flag, value)
            assert (code, out, err, calls) == (1, "", f"error: {message}\n", []), flag

    def test_capseq_clean_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-capseq", "--n", "3", "--r", "0.5", "--i-max", "64",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [row["i"] for row in rows] == ["2", "4", "8", "16", "32", "64"]
        values = [float(row["u_i"]) for row in rows]
        assert values == sorted(values)
        assert float(rows[-1]["rel_gap"]) <= 0.02


class TestCheckCommand:
    def test_battery_reports_and_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        lines = out.strip("\n").split("\n")
        assert len(lines) == 9
        assert all(line.startswith("CRITERION") for line in lines)
        assert code == 0, out


def test_parser_state_does_not_leak_between_calls(capsys, tmp_path):
    # one parser per process: a flag given to one call is not the next call's default
    assert build_parser() is build_parser()
    ctx = BallContext(4, 2.5)
    target = tmp_path / "gp.json"
    code, out, _ = run_cli(capsys, "gp", "--n", "4", "--p", "2.5", "--r", "0.7",
                           "--order", "64", "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["g_value"] == solver.g_p(ctx, 0.7, 64).g_value
    code, out, _ = run_cli(capsys, "gp", "--n", "4", "--p", "2.5", "--r", "0.7")
    _, rows = csv_rows(out)
    assert code == 0 and float(rows[0]["g_value"]) == solver.g_p(ctx, 0.7).g_value
    code, out, _ = run_cli(capsys, "astar", "--n", "3", "--p", "3", "--r", "0.5")
    _, rows = csv_rows(out)
    assert code == 0 and float(rows[0]["a_star"]) == solver.g_p(BallContext(3, 3.0), 0.5).a_star
    with pytest.raises(SystemExit) as exc:
        main(["gp", "--n", "3", "--r", "0.5"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: hypschwarz gp ")


class TestFailureModes:
    def test_usage_errors_exit_one(self, capsys):
        for flags in (
            ("--r", "0.5"),  # --p missing
            ("--p", "2", "--r", "0.5", "--steps", "4"),
            ("--p", "2", "--r-min", "0", "--steps", "4"),
            ("--p", "2", "--r-min", "0", "--r-max", "0.5", "--steps", "0"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["gp", "--n", "3", *flags])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: hypschwarz gp ")
            assert "\nhypschwarz gp: error: " in err

    def test_domain_error_returns_one(self, capsys):
        for argv in (
            "gp --n 3 --p 2 --r 1.5",
            "gp --n 100 --p 1 --r 0.999",
            "gp --n 100 --p 1 --r 0.9985",
            # the p = inf shift underflows to 0.0, where u_h would exceed 1
            "gp --n 100 --p inf --r 0.9999",
            "astar --n 100 --p inf --r 0.9999",
            "uh --n 100 --r 0.9999",
            # G_1(0) = 0 leaves no relative gap to report
            "verify-capseq --n 3 --r 0",
            "verify-capseq --n 3 --r 0.5 --i-max 1",
            # |K - a|^(q-1) overflows for p near 1: refused without a warning
            "gp --n 10 --p 1.01 --r 0.5",
            # the draw stream needs a non-negative integer seed
            "verify-bound --n 3 --p 2 --r 0.5 --seed -1",
            # the order-512 Gauss-Jacobi rule at n = 1423: its smallest weights
            # underflow to 0
            "verify-bound --n 1423 --p 2 --r 0.1 --order 512 --count 100",
            # the largest rule order is 8192, refused before any rule is built
            "gp --n 3 --p 3 --r 0.5 --order 8193",
            "verify-bound --n 3 --p 3 --r 0.5 --order 8193",
        ):
            code, out, err = run_cli(capsys, *argv.split())
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")

    def test_subnormal_bounds_with_too_few_bits_are_refused(self, capsys):
        # these exited 2 with 170 and 165 false violations on the pole site's
        # moments, then 1: G keeps 15 and 7 bits there, too few to decide a
        # draw against G / r.  Below 2^-60 the draws take the constant C_p, so
        # they answer with random_grad_check's max_ratio
        for argv, ratio in (("verify-bound --n 100 --p 2 --r 1e-320", "0.99999196673200941"),
                            ("verify-bound --n 10 --p 2 --r 1e-322", "0.99912456899734359")):
            code, out, err = run_cli(capsys, *argv.split())
            assert (code, err) == (0, ""), argv
            row = csv_rows(out)[1][0]
            assert (row["violations"], row["max_ratio"]) == ("0", ratio), argv

    def test_sizes_numpy_cannot_allocate(self, capsys):
        # numpy refuses each size before allocating anything; each was a traceback
        for argv, flag in (
            ("verify-bound --n 3 --p 2 --r 0.5 --count 2305843009213693952", "count"),
            ("gp --n 3 --p 2 --r-min 0.1 --r-max 0.5 --steps 4611686018427387904", "--steps"),
            ("verify-sharpness --n 3 --p 2 --r-min 0.1 --r-max 0.5 --steps 99999999999999999999", "--steps"),
        ):
            code, out, err = run_cli(capsys, *argv.split())
            assert (code, out) == (1, "") and err.startswith(f"error: {flag} ") and err.count("\n") == 1, argv

    def test_unwritable_output_returns_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "gp", "--n", "4", "--p", "3", "--r", "0.5", "--output", str(target))
        assert code == 1 and out == "" and not target.parent.exists()
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")

    def test_conjugate_rounding_to_one_is_named(self, capsys):
        # past about p = 2^53 the conjugate p/(p-1) rounds to 1.0: the refusal says
        # so, where p = 4.5e15 still answers, within 2e-16 of G_inf (mpmath's:
        # g_inf_closed's reads an ulp above it)
        message = ("error: shift optimization needs q = p/(p-1) > 1, but at p = 1e+16 "
                   "q rounds to 1 in double precision\n")
        for command in ("gp", "astar"):
            assert run_cli(capsys, command, "--n", "4", "--p", "1e16", "--r", "0.5") == (1, "", message)
        code, out, err = run_cli(capsys, "gp", "--n", "4", "--p", "4.5e15", "--r", "0.5")
        assert (code, err) == (0, "")
        g_value = float(csv_rows(out)[1][0]["g_value"])
        assert g_value == pytest.approx(mp_g_inf(4, 0.5), abs=2e-16)

    def test_refusal_order_with_two_bad_arguments(self, capsys):
        # a radius and an exponent both refused: each entry names the one it
        # checks first, solve_a_star the exponent, a sweep the first radius's
        # refusal in sweep order, astar the radius
        ctx = BallContext(4, 1e308)
        exponent, radius = "q rounds to 1", r"radius must lie in \[0, 1\), got 1.5"
        for call, match in ((lambda: solver.solve_a_star(ctx, 1.5), exponent),
                            (lambda: g_p_curve(ctx, [1.5, 0.5]), radius),
                            (lambda: g_p_curve(ctx, [0.5, 1.5]), exponent)):
            with pytest.raises(DomainError, match=match):
                call()
        assert run_cli(capsys, *"astar --n 4 --p 1e308 --r 1.5".split()) == (
            1, "", "error: radius must lie in [0, 1), got 1.5\n")

    def test_order_flag_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "gp", "--n", "3", "--p", "2", "--r", "0.5", "--order", "1",
        )
        assert code == 1 and "order" in err
        # the library checks the order, also where no rule is built
        for argv in ("astar --n 4 --p 3 --r 0 --order 1", "gp --n 4 --p inf --r 0.5 --order 1"):
            code, out, err = run_cli(capsys, *argv.split())
            assert (code, out) == (1, "") and "rule order must be an integer >= 2" in err, argv


def test_no_warning_escapes_the_overflow_guard(capsys):
    # numpy's overflow guard is entered once per solve, sweep or public call;
    # at (10, 1.01, 0.5) |d|^(q - 1) overflows at q = 101, and every public
    # numeric entry refuses it, or answers, with numpy's warnings as errors
    ctx, r = BallContext(10, 1.01), 0.5
    prm = ObjectiveParams(ctx, r)
    message = "integrand produced non-finite values or a non-finite integral"
    refusing = {
        "g_p": lambda: solver.g_p(ctx, r),
        "g_p_curve": lambda: g_p_curve(ctx, [0.3, 0.4, r]),
        "solve_a_star": lambda: solver.solve_a_star(ctx, r),
        "big_f": lambda: objective.big_f(prm, 1.0),
        "dF_da": lambda: objective.dF_da(prm, 1.0),
        "verify_sharpness": lambda: verify.verify_sharpness(ctx, r),
        "random_bound_check": lambda: verify.random_bound_check(ctx, r),
        "integrate_with_breakpoint": lambda: quadrature.integrate_with_breakpoint(
            10, DEFAULT_ORDER, lambda t: np.exp(1000.0 * t), 0.0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in refusing.items():
            solver._g_p_numeric.cache_clear()
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()
        # its value is 7.7e-4 off (test_objective's strict xfail, ROADMAP item 1)
        assert math.isfinite(objective.phi(prm, 1.0))
        for command in ("gp", "astar"):
            code, out, err = run_cli(capsys, command, "--n", "10", "--p", "1.01", "--r", "0.5")
            assert (code, out, err) == (1, "", f"error: {message}\n"), command


def test_console_script_entry_point():
    script = shutil.which("hypschwarz")
    cmd = [script] if script else [sys.executable, "-m", "hypschwarz.cli"]
    # without an install, the child imports the package the tests import
    package_root = str(Path(hypschwarz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        cmd + ["grad", "--n", "4", "--p", "2"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,p,c_p\n")


# The cold path: the package needs no scipy.  An import of it would raise
# here, and none is loaded by the package, any CLI command or the battery.
_COLD_PATH = """
import sys
from contextlib import redirect_stdout
from io import StringIO

sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
sys.modules["numpy.ma"] = None  # np.unique loads numpy.ma; the package never needs it
import numpy
numpy_only = set(sys.modules)
import hypschwarz
import hypschwarz.cli
# quadrature builds its Gauss-Legendre rules on first use, not at import
assert not [name for name in set(sys.modules) - numpy_only if name.startswith("numpy.polynomial")]
from hypschwarz import BallContext, cli, g_p, g_p_curve

for p in (1.0, 1.5, 2.0, 3.0, float("inf")):
    g_p(BallContext(4, p), 0.5)
g_p_curve(BallContext(3, 3.0), [0.1, 0.5, 0.9])
with redirect_stdout(StringIO()):
    for argv in (["gp", "--n", "4", "--p", "3", "--r", "0.5"],
                 ["astar", "--n", "4", "--p", "3", "--r", "0.5"],
                 ["uh", "--n", "4", "--r", "0.5"],
                 ["grad", "--n", "4", "--p", "3"],
                 ["verify-sharpness", "--n", "4", "--p", "3", "--r", "0.5"],
                 ["verify-bound", "--n", "4", "--p", "3", "--r", "0.5"],
                 ["verify-bound", "--n", "4", "--p", "inf", "--r", "0.5"],  # exact sups
                 ["verify-capseq", "--n", "3", "--r", "0.5"],
                 ["check"]):
        assert cli.main(argv) == 0, argv
print(sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module))
"""


def test_cold_path_loads_no_scipy():
    package_root = str(Path(hypschwarz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_every_private_name_has_a_caller_in_the_package():
    # a module-level private name (a function, class or assignment) that no
    # module of the package loads, by name or as an attribute, is dead code;
    # a caller in the tests does not count
    defined, loaded = set(), set()
    for path in sorted(Path(hypschwarz.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined.update(name.id for name in ast.walk(target) if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 100  # the walk found the package
    assert sorted(private - loaded) == []


def _readme_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_commands_run(capsys):
    lines = [line for line in _readme_block("Command line", "sh").splitlines()
             if line.startswith("hypschwarz ")]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv == ["check"]:  # TestCheckCommand runs the battery
            continue
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)


def test_readme_quick_start_uses_public_names():
    code = _readme_block("Quick start", "python")
    for names in re.findall(r"^from hypschwarz import (.+)$", code, re.M):
        for name in names.split(","):
            assert name.strip() in hypschwarz.__all__
    with redirect_stdout(StringIO()):
        exec(compile(code, str(README), "exec"), {})
