"""Command-line interface: outputs, determinism and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mtlab
from mtlab import analysis, cli, linearized, maximizer, quadrature
from mtlab.cli import (EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                       main)
from mtlab.perturbations import PerturbationSpec
from mtlab.shooting import EventNotReachedError


def run(args):
    return main(args)


def test_profiles_csv(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["profiles", "--n", "10", "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "r,eta0,w0,zeta0,psi,psi0,xi"
    assert len(lines) == 11


def test_tables_combination_row(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["tables", "--output", str(out)]) == EXIT_OK
    rows = {line.split(",")[0]: line.split(",")
            for line in out.read_text().splitlines()[1:]}
    combo = float(rows["combination_z0_slope"][2])
    assert combo == pytest.approx(-6.0 - np.pi ** 2 / 3.0, abs=1e-6)


def test_beta_routes_agree(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["beta", "--output", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    betas = {r[0]: float(r[1]) for r in rows}
    assert betas["ode_tail"] == pytest.approx(betas["closed_form"], abs=1e-2)
    assert betas["weighted_integral"] == pytest.approx(
        betas["closed_form"], abs=1e-6)


def test_beta_prints_the_quadrature_error_bound(tmp_path):
    # the weighted_integral row's estimate is the quadrature's own bound,
    # scaled by 2/pi like the value, and it covers the miss to the closed form
    out = tmp_path / "b.csv"
    assert run(["beta", "--output", str(out)]) == EXIT_OK
    rows = {r[0]: r for r in (line.split(",") for line in out.read_text().splitlines()[1:])}
    bound = quadrature.beta_from_source(linearized.source_z0).abs_error
    assert float(rows["weighted_integral"][2]) == bound
    miss = abs(float(rows["weighted_integral"][1]) - float(rows["closed_form"][1]))
    assert miss <= bound


@pytest.mark.parametrize("r_max", ["-1", "1e4"])
def test_beta_rejects_r_max_below_the_slope_window(monkeypatch, capsys, r_max):
    # rejected before the solve, by a message that names r_max, and with no
    # NumPy warning on the way (a warning would raise here)
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_linearized called")

    monkeypatch.setattr(linearized, "solve_linearized", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["beta", "--r-max", r_max]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "r_max" in err
    assert "RuntimeWarning" not in err


def test_shoot_json(tmp_path, capsys):
    assert run(["shoot", "--mu", "6"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mu", "log_R", "log_lambda", "energy_total",
                            "energy_inner", "energy_outer", "split_exponent",
                            "family", "family_params", "profile_t",
                            "profile_eta", "profile_r_deriv"}
    assert payload["mu"] == 6.0
    assert payload["family"] == "trivial"
    assert len(payload["profile_t"]) == len(payload["profile_eta"])


# one cheap argv per subcommand that writes a data file
DETERMINISM_ARGV = {
    "shoot": ["shoot", "--mu", "6"],
    "scan": ["scan", "--mu-from", "6", "--mu-to", "8", "--steps", "2"],
    "branch": ["branch", "--mu-from", "3", "--mu-to", "5", "--steps", "5"],
    "maximize": ["maximize", "--alpha", "6.28", "--n-nodes", "256"],
    "profiles": ["profiles"],
    "residuals": ["residuals", "--mu", "6"],
    "check-h": ["check-h"],
}


@pytest.mark.parametrize("argv", DETERMINISM_ARGV.values(),
                         ids=DETERMINISM_ARGV.keys())
def test_deterministic(argv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--output", str(a)]) == EXIT_OK
    assert run(argv + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_shared_parser_keeps_no_state(monkeypatch, tmp_path):
    # main reuses one parser per process: no call may leave a value, an
    # error or an output byte behind for the next
    queries = []

    def branch_scan(mus, spec, lambda_queries=(), level_fractions=()):
        queries.append(lambda_queries)
        return SimpleNamespace(points=[(3.0, 12.5)])

    monkeypatch.setattr(analysis, "branch_scan", branch_scan)
    branch = ["branch", "--format", "csv",
              "--output", str(tmp_path / "branch.csv")]
    assert run(branch + ["--level", "12.6"]) == EXIT_OK
    assert run(branch) == EXIT_OK
    assert queries == [[12.6], ()]
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(["branch"]).level is None

    with pytest.raises(SystemExit) as exc:
        run(["branch", "--level", "twelve"])
    assert exc.value.code == EXIT_CONFIG
    assert run(["profiles", "--n", "0"]) == EXIT_CONFIG
    assert run(["profiles", "--n", "3",
                "--output", str(tmp_path / "p.csv")]) == EXIT_OK

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["tables", "--output", str(a)]) == EXIT_OK
    assert run(["tables", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_residuals_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["residuals", "--mu", "6", "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,sup_w_err,sup_z_err,phi_over_xi,delta"
    assert len(lines) == 2


def test_branch_json(tmp_path):
    out = tmp_path / "br.json"
    argv = ["branch", "--mu-from", "3", "--mu-to", "5", "--steps", "5",
            "--output", str(out)]
    assert run(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"lambda_star", "mu_star", "pairs", "notes",
                            "failures"}
    assert payload["lambda_star"] > 4.0 * np.pi
    assert run(argv + ["--format", "csv"]) == EXIT_OK
    assert out.read_text().splitlines()[0] == "mu,E"


def test_maximize_json(tmp_path):
    out = tmp_path / "m.json"
    assert run(["maximize", "--alpha", "6.28", "--n-nodes", "512",
                "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"alpha", "value", "lambda_hat", "iterations",
                            "evaluations", "converged", "stationarity",
                            "field_t", "field_u"}
    assert payload["alpha"] == 6.28
    assert payload["converged"]
    assert payload["stationarity"] < maximizer.ASCENT_TOL
    assert payload["evaluations"] >= payload["iterations"]
    assert len(payload["field_t"]) == len(payload["field_u"]) == 512


def test_check_h_verdicts(capsys):
    assert run(["check-h", "--family", "inverse-square", "--a", "1"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "condh1: violated" in text


def test_config_error_exit_code(capsys):
    assert run(["shoot", "--mu", "100"]) == EXIT_CONFIG
    # a NaN tolerance or radius is rejected before the integrator starts
    assert run(["shoot", "--mu", "6", "--tol", "nan"]) == EXIT_CONFIG
    # and so are tolerances of 1 or more, which accept every step
    for tol in ("1", "2", "inf"):
        assert run(["shoot", "--mu", "12", "--tol", tol]) == EXIT_CONFIG
    assert run(["scan", "--mu-from", "2", "--mu-to", "3", "--steps", "2",
                "--tol", "inf"]) == EXIT_CONFIG
    # so is one below the floor 100 eps, where the error estimate is rounding noise
    capsys.readouterr()
    assert run(["shoot", "--mu", "6", "--tol", "1e-15"]) == EXIT_CONFIG
    assert "rtol=1e-15" in capsys.readouterr().err
    assert run(["beta", "--r-max", "nan"]) == EXIT_CONFIG
    assert run(["maximize", "--alpha", "100"]) == EXIT_CONFIG
    # a field needs a segment, and an ascent at least one iteration
    assert run(["maximize", "--alpha", "6", "--n-nodes", "0"]) == EXIT_CONFIG
    assert run(["maximize", "--alpha", "6", "--max-iter", "0"]) == EXIT_CONFIG
    assert run(["check-h", "--family", "log-power", "--p", "1.5"]) == EXIT_CONFIG
    # a quadrature tolerance must be finite and positive, and the condition
    # grid must run forward from t = 10 to a finite end
    assert run(["tables", "--tol", "nan"]) == EXIT_CONFIG
    assert run(["tables", "--tol", "0"]) == EXIT_CONFIG
    capsys.readouterr()
    assert run(["tables", "--tol", "inf"]) == EXIT_CONFIG
    assert "tol=inf" in capsys.readouterr().err
    assert run(["check-h", "--t-max", "nan"]) == EXIT_CONFIG
    assert run(["check-h", "--t-max", "5"]) == EXIT_CONFIG
    # profile radii must satisfy 0 < r_min <= r_max < inf
    for r_min, r_max in (("0", "1e6"), ("-1", "1e6"), ("nan", "1e6"),
                         ("1e-3", "nan"), ("1e-3", "inf"), ("2", "1")):
        assert run(["profiles", "--r-min", r_min, "--r-max", r_max,
                    "--n", "3"]) == EXIT_CONFIG
    # a branch grid whose best sample sits at an end brackets no maximum
    assert run(["branch", "--steps", "1"]) == EXIT_CONFIG
    # an empty grid is rejected before any shot
    assert run(["branch", "--steps", "0"]) == EXIT_CONFIG
    assert run(["scan", "--mu-from", "6", "--mu-to", "8",
                "--steps", "0"]) == EXIT_CONFIG
    assert run(["profiles", "--n", "0"]) == EXIT_CONFIG
    assert run(["branch", "--mu-from", "5", "--mu-to", "9",
                "--steps", "5"]) == EXIT_CONFIG
    assert "does not bracket the maximum" in capsys.readouterr().err
    # the inverse-square tail defines only h, so F(u) is undefined
    assert run(["maximize", "--alpha", "6", "--family", "inverse-square",
                "--a", "0.5"]) == EXIT_CONFIG
    assert "defines no g" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [
    ["--level", "nan", "--level-fraction", "nan"],
    ["--level", "nan"],
    ["--level", "inf"],
    ["--level-fraction", "nan"],
], ids=["both-nan", "level-nan", "level-inf", "fraction-nan"])
def test_branch_rejects_non_finite_levels(monkeypatch, capsys, levels):
    # rejected before any shot, by a message that names the argument
    def no_shot(*args, **kwargs):
        raise AssertionError("shoot called")

    monkeypatch.setattr(analysis, "shoot", no_shot)
    assert run(["branch", "--mu-from", "2", "--mu-to", "7", "--steps", "11",
                *levels]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "lambda_queries" in err or "level_fractions" in err


@pytest.mark.parametrize("family, R", [
    ("oscillating", "0"), ("oscillating", "-1"), ("oscillating", "nan"),
    ("oscillating", "inf"), ("log-power", "nan"), ("log-power", "1"),
    ("log-power", "inf"),
])
def test_cutoff_family_rejects_bad_R(capsys, family, R):
    assert run(["shoot", "--mu", "6", "--family", family, "--R", R]) == EXIT_CONFIG
    assert f"R={R}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-15", "nan"])
def test_scan_rejects_tol_below_the_floor(monkeypatch, capsys, tol):
    # a configuration error like `mtlab shoot --tol 1e-15`, found before any shot
    def no_shot(*args, **kwargs):
        raise AssertionError("shoot called")

    monkeypatch.setattr(analysis, "shoot", no_shot)
    assert run(["scan", "--mu-from", "6", "--mu-to", "7", "--steps", "2",
                "--tol", tol]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the floor 100 eps" in captured.err and f"tol={tol}" in captured.err


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # every shot above mu = 6 misses its boundary event
    shoot = analysis.shoot

    def shoot_or_miss(mu, spec, **kwargs):
        if mu > 6.0:
            raise EventNotReachedError(f"boundary event not reached for mu={mu}")
        return shoot(mu, spec, **kwargs)

    monkeypatch.setattr(analysis, "shoot", shoot_or_miss)
    # the scan writes the rows it has, then reports the failed mu
    assert run(["scan", "--mu-from", "6", "--mu-to", "12",
                "--steps", "2"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[0] == "mu,E,c,inner_coeff,outer_coeff,in_window"
    assert len(out) == 2
    # the failure names each failed mu with its reason
    assert "scan failed at mu = 12 (boundary event not reached for mu=12.0)" in captured.err
    # no branch grid shot succeeds
    assert run(["branch", "--mu-from", "8", "--mu-to", "10",
                "--steps", "3"]) == EXIT_NUMERICAL
    assert "every grid shot failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, mu", [
    (["branch", "--mu-from", "1.5", "--mu-to", "30", "--steps", "5", "--format", "csv"], "30"),
    (["branch", "--mu-from", "2", "--mu-to", "nan", "--steps", "3"], "nan"),
    (["scan", "--mu-from", "20", "--mu-to", "30", "--steps", "3"], "25"),
    (["scan", "--mu-from", "0.01", "--mu-to", "6", "--steps", "3"], "0.01"),
], ids=["branch-top", "branch-nan", "scan-top", "scan-bottom"])
def test_mu_grid_outside_the_range_is_a_configuration_error(monkeypatch, capsys, argv, mu):
    # found before any shot, like `mtlab shoot --mu 30`, instead of a
    # branch that drops the point quietly or a scan that calls it numerical
    def no_shot(*args, **kwargs):
        raise AssertionError("shoot called")

    monkeypatch.setattr(analysis, "shoot", no_shot)
    assert run(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"holds {mu}, outside the supported range [0.05, 24.0]" in captured.err


def test_maximize_nan_functional_exit_code(monkeypatch, tmp_path, capsys):
    nan_g = PerturbationSpec(h=np.zeros_like, g=lambda t: np.full_like(t, np.nan),
                             point=lambda t: 0.0)
    monkeypatch.setattr(cli, "_family", lambda args: nan_g)
    out = tmp_path / "m.json"
    assert run(["maximize", "--alpha", "6.0", "--n-nodes", "256",
                "--output", str(out)]) == EXIT_NUMERICAL
    assert "non-finite functional value" in capsys.readouterr().err
    assert not out.exists()


def test_shoot_nan_perturbation_exit_code(monkeypatch, tmp_path, capsys):
    # a shot calls the scalar h alone, so its NaN is what fails the shot
    nan_h = PerturbationSpec(h=np.zeros_like, g=np.zeros_like, point=lambda t: np.nan)
    monkeypatch.setattr(cli, "_family", lambda args: nan_h)
    out = tmp_path / "s.json"
    assert run(["shoot", "--mu", "6", "--output", str(out)]) == EXIT_NUMERICAL
    assert "non-finite perturbation" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_quadrature_exit_code(monkeypatch, tmp_path, capsys):
    # every table entry given an inner-disc oscillation quad_vec cannot resolve
    def oscillating(r):
        return np.multiply.outer(np.ones(14), np.cos(3e3 * r) * (1.0 + r * r) ** -3.0)

    monkeypatch.setattr(quadrature, "_table_integrand", oscillating)
    out = tmp_path / "t.csv"
    assert run(["tables", "--output", str(out)]) == EXIT_NUMERICAL
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def _module_env():
    """Environment that lets ``python -m mtlab`` import this checkout."""
    src = str(Path(mtlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_m_mtlab(tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run([sys.executable, "-m", "mtlab", "tables",
                           "--output", str(out)], env=_module_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    ref = tmp_path / "ref.csv"
    assert run(["tables", "--output", str(ref)]) == EXIT_OK
    assert out.read_text() == ref.read_text()


@pytest.mark.parametrize("argv", [["shoot", "--mu", "6"], ["tables"],
                                  ["profiles"]])
def test_closed_stdout_ends_quietly(argv):
    # the reader is gone before the command writes (e.g. `mtlab ... | head`)
    proc = subprocess.Popen([sys.executable, "-m", "mtlab"] + argv,
                            env=_module_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert proc.returncode == EXIT_OK
    assert err == b""


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ASSERTION}) == 4
