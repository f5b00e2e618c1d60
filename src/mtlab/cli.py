"""Command-line entry point: scans and checks with CSV/JSON output.

This is the only module that renders: the numerics modules return data
classes, and each subcommand writes its own CSV or JSON from them.  CSV
cells carry 17 significant digits, and a JSON profile keeps at most
SHOT_JSON_NODES (a shot) or FIELD_JSON_NODES (a maximizer field) evenly
spaced nodes.

Every subcommand is deterministic: re-running with the same flags writes
byte-identical data files (fixed grids, fixed summation orders, no RNG).
The argument parser is built once per process and reused by every
``main`` call, which holds no state between calls.

Exit codes: 0 success, 2 configuration error (bad flags or parameters),
3 numerical failure (integration, quadrature or root finding did not
converge), 4 assertion failure (a computed value missed its target).  A
reader that closes standard output early (``mtlab shoot --mu 6 | head``)
ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import analysis, linearized, maximizer, perturbations, profiles, quadrature
from .perturbations import family_by_name
from .radial_ode import IntegrationError, NoCrossingError
from .shooting import SPLIT_EXPONENT, EventNotReachedError, shoot

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERTION = 4

SHOT_JSON_NODES = 2048  # profile nodes kept in the shoot JSON
FIELD_JSON_NODES = 512  # field nodes kept in the maximize JSON


class AssertionFailure(RuntimeError):
    """A computed value missed its documented target."""


def _write(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv(header: Sequence[str], rows) -> str:
    """CSV text: the header line, then one line per row of cells."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json(payload: dict, max_nodes: int = 0, **profile) -> str:
    """JSON text of ``payload`` plus the ``profile`` arrays.

    The arrays share one node axis and keep at most ``max_nodes`` evenly
    spaced nodes, both ends included.
    """
    if profile:
        n = len(next(iter(profile.values())))
        idx = np.linspace(0, n - 1, min(max_nodes, n)).round().astype(int)
        payload.update((k, v[idx].tolist()) for k, v in profile.items())
    return json.dumps(payload, indent=2)


def _family(args) -> perturbations.PerturbationSpec:
    params = {}
    for key in ("a", "p", "q", "R"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return family_by_name(args.family, **params)


def _add_family_flags(p: argparse.ArgumentParser, default: str = "trivial"):
    p.add_argument("--family", default=default,
                   choices=list(perturbations.FAMILIES),
                   help="perturbation family (default: %(default)s)")
    p.add_argument("--a", type=float, default=None, help="amplitude")
    p.add_argument("--p", type=float, default=None, help="power (> 2)")
    p.add_argument("--q", type=float, default=None, help="log power")
    p.add_argument("--R", type=float, default=None, help="cutoff radius")


def cmd_profiles(args) -> int:
    # written so that a NaN fails the test
    if not 0.0 < args.r_min <= args.r_max < np.inf:
        raise ValueError("need 0 < r_min <= r_max < inf, got "
                         f"r_min={args.r_min}, r_max={args.r_max}")
    if args.n < 1:
        raise ValueError(f"need n >= 1 radii, got n={args.n}")
    rs = np.exp(np.linspace(np.log(args.r_min), np.log(args.r_max), args.n))
    cols = ["eta0", "w0", "zeta0", "psi", "psi0", "xi"]
    _write(args, _csv(["r"] + cols,
                      ([_fmt(r)] + [_fmt(float(getattr(profiles, c)(r)))
                                    for c in cols] for r in rs)))
    return EXIT_OK


def cmd_tables(args) -> int:
    tables = quadrature.integral_tables(tol=args.tol)
    target = -6.0 - np.pi ** 2 / 3.0
    combo = quadrature.z0_slope_combination(tables)
    if abs(combo - target) > 1e-6:
        raise AssertionFailure(
            f"z0 slope combination {combo!r} misses {target!r} by more than 1e-6")
    # the fourteen entries, then the z0 log-slope and the seven-entry
    # linear-slope sum (closed form -2), each with the summed error
    err = sum(res.abs_error for _, res in tables.values())
    rows = [[name, _fmt(closed), _fmt(res.value), _fmt(res.abs_error)]
            for name, (closed, res) in tables.items()]
    rows += [["combination_z0_slope", _fmt(target), _fmt(combo), _fmt(err)],
             ["combination_beta1_sum", _fmt(-2.0),
              _fmt(quadrature.beta1_combination(tables)), _fmt(err)]]
    _write(args, _csv(["name", "closed_form_value", "numeric_value",
                       "abs_error"], rows))
    return EXIT_OK


def cmd_beta(args) -> int:
    # written so that a NaN fails the test
    if not linearized.SLOPE_R_HI <= args.r_max:
        raise ValueError(f"need r_max >= {linearized.SLOPE_R_HI:g}, the top of the slope "
                         f"window, got r_max={args.r_max}")
    sol = linearized.solve_linearized(linearized.source_z0, r_max=args.r_max)
    slope_ode, spread = linearized.extract_log_slope(sol)
    integral = quadrature.beta_from_source(linearized.source_z0)
    slope_int = integral.value
    closed = -6.0 - np.pi ** 2 / 3.0
    _write(args, _csv(["route", "beta", "error_estimate"],
                      [["ode_tail", _fmt(slope_ode), _fmt(spread)],
                       ["weighted_integral", _fmt(slope_int), _fmt(integral.abs_error)],
                       ["closed_form", _fmt(closed), _fmt(0.0)]]))
    if abs(slope_ode - slope_int) > spread + 1e-6:
        raise AssertionFailure(
            f"slope routes disagree: ode {slope_ode!r} vs integral {slope_int!r}")
    return EXIT_OK


def cmd_shoot(args) -> int:
    sol = shoot(args.mu, _family(args), tol=args.tol)
    if args.format == "json":
        eta = sol.eta
        _write(args, _json(
            {"mu": sol.mu, "log_R": sol.log_R, "log_lambda": sol.log_lambda,
             "energy_total": sol.energy_total,
             "energy_inner": sol.energy_inner,
             "energy_outer": sol.energy_outer,
             "split_exponent": SPLIT_EXPONENT,
             "family": sol.perturbation.name,
             "family_params": sol.perturbation.family_params},
            SHOT_JSON_NODES, profile_t=eta.grid.t_nodes,
            profile_eta=eta.values, profile_r_deriv=eta.r_derivs))
    else:
        c = args.mu ** 4 * (sol.energy_total - 4.0 * np.pi)
        _write(args, _csv(["mu", "log_R", "log_lambda", "E", "c",
                           "energy_inner", "energy_outer"],
                          [[_fmt(sol.mu), _fmt(sol.log_R), _fmt(sol.log_lambda),
                            _fmt(sol.energy_total), _fmt(c),
                            _fmt(sol.energy_inner), _fmt(sol.energy_outer)]]))
    return EXIT_OK


def cmd_scan(args) -> int:
    mus = np.linspace(args.mu_from, args.mu_to, args.steps)
    scan = analysis.energy_scan(mus, _family(args), tol=args.tol)
    _write(args, _csv(
        ["mu", "E", "c", "inner_coeff", "outer_coeff", "in_window"],
        ([_fmt(mu), _fmt(scan.energies[i]), _fmt(scan.c_values[i]),
          _fmt(scan.inner_coeffs[i]), _fmt(scan.outer_coeffs[i]),
          int(scan.window_ok[i])] for i, mu in enumerate(scan.mu_values))))
    if scan.failures:
        raise IntegrationError("scan failed at " + "; ".join(
            f"mu = {m:g} ({msg})" for m, msg in scan.failures.items()))
    return EXIT_OK


def cmd_residuals(args) -> int:
    spec = _family(args)
    reports = [analysis.residual_hierarchy(mu, spec) for mu in args.mu]
    _write(args, _csv(
        ["mu", "sup_w_err", "sup_z_err", "phi_over_xi", "delta"],
        ([_fmt(rep.mu), _fmt(rep.sup_w_err), _fmt(rep.sup_z_err),
          _fmt(rep.phi_over_xi), _fmt(rep.delta)] for rep in reports)))
    return EXIT_OK


def cmd_branch(args) -> int:
    mus = np.linspace(args.mu_from, args.mu_to, args.steps)
    scan = analysis.branch_scan(
        mus, _family(args), lambda_queries=args.level or (),
        level_fractions=args.level_fraction or ())
    if args.format == "json":
        _write(args, _json({
            "lambda_star": scan.lambda_star,
            "mu_star": scan.mu_star,
            "pairs": {_fmt(lam): roots for lam, roots in scan.pairs.items()},
            "notes": {_fmt(lam): note for lam, note in scan.notes.items()},
            "failures": {_fmt(mu): msg for mu, msg in scan.failures.items()}}))
    else:
        _write(args, _csv(["mu", "E"],
                          ([_fmt(mu), _fmt(e)] for mu, e in scan.points)))
    return EXIT_OK


def cmd_maximize(args) -> int:
    res = maximizer.maximize_subcritical(
        args.alpha, _family(args), n_nodes=args.n_nodes,
        max_iter=args.max_iter)
    if not res.converged:
        raise IntegrationError(
            f"ascent not stationary after {res.iterations} iterations: "
            f"sin theta = {res.stationarity:.3g} >= {maximizer.ASCENT_TOL:g}")
    bound = maximizer.pointwise_moser_bound(res)
    if not bound.holds:
        raise AssertionFailure(
            f"pointwise bound violated at r = {bound.first_violation_r!r}")
    _write(args, _json(
        {"alpha": res.alpha, "value": res.value, "lambda_hat": res.lambda_hat,
         "iterations": res.iterations, "evaluations": res.evaluations,
         "converged": res.converged,
         "stationarity": res.stationarity},
        FIELD_JSON_NODES, field_t=res.field.t_nodes, field_u=res.field.values))
    return EXIT_OK


def cmd_check_h(args) -> int:
    spec = _family(args)
    reports = perturbations.check_conditions(spec, t_max=args.t_max)
    lines = [f"{name}: {rep.verdict}" for name, rep in reports.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.output is not None:
        r1, r2 = reports["condh1"], reports["condh2"]
        with open(args.output, "w", newline="") as fh:
            fh.write(_csv(["t", "t_sq_h", "t4_modulus"],
                          ([_fmt(t), _fmt(r1.q_values[i]), _fmt(r2.q_values[i])]
                           for i, t in enumerate(r1.t_values))))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    Parsing leaves the parser as it was (each call fills a fresh
    namespace), so one parser serves every ``main`` call in a process.
    """
    ap = argparse.ArgumentParser(
        prog="mtlab",
        description="Radial critical points of the perturbed Moser-Trudinger "
                    "functional: profiles, shooting, scans and checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profiles", help="closed-form profile tables")
    p.add_argument("--r-min", type=float, default=1e-3)
    p.add_argument("--r-max", type=float, default=1e6)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("tables", help="weighted integral tables")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("beta", help="z0 log-slope by two independent routes")
    p.add_argument("--r-max", type=float, default=1e6)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("shoot", help="single shot at center value mu")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    _add_family_flags(p)
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("scan", help="energy coefficient scan over mu")
    p.add_argument("--mu-from", type=float, required=True)
    p.add_argument("--mu-to", type=float, required=True)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--tol", type=float, default=1e-11)
    _add_family_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "residuals", help="profile-hierarchy residuals",
        description="Profile-hierarchy residuals at each mu.  The CSV prints 17 "
                    "digits, but at the default shot tolerance sup_z_err holds "
                    "only 5-7 significant digits (fewer as mu grows) and "
                    "phi_over_xi 7-9; the rest is shot error.")
    p.add_argument("--mu", type=float, nargs="+", required=True)
    _add_family_flags(p)
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("branch", help="energy branch E(mu) and level roots")
    p.add_argument("--mu-from", type=float, default=1.5)
    p.add_argument("--mu-to", type=float, default=9.0)
    p.add_argument("--steps", type=int, default=31)
    p.add_argument("--level", dest="level", type=float, action="append",
                   metavar="LAMBDA", help="absolute level Lambda (repeatable)")
    p.add_argument("--level-fraction", type=float, action="append",
                   metavar="F",
                   help="level 4 pi + F (Lambda* - 4 pi) (repeatable)")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    _add_family_flags(p)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("maximize", help="constrained functional maximization")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-nodes", type=int, default=4096)
    p.add_argument("--max-iter", type=int, default=400)
    _add_family_flags(p)
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("check-h", help="tail-condition checks on h")
    p.add_argument("--t-max", type=float, default=1e6)
    _add_family_flags(p, default="log-power")
    p.set_defaults(func=cmd_check_h)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write data file here instead of stdout")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): nothing is left to report.
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ValueError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, NoCrossingError, EventNotReachedError,
            quadrature.TailBoundError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
