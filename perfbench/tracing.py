"""In-memory tracing of mtlab's layers from outside the package.

A :class:`Tracer` replaces module attributes of mtlab with wrappers while
it is installed and restores them afterwards; mtlab's own files are not
touched.  Names imported into several modules (``shoot`` into
``analysis`` and ``cli``, ``pde_residual`` into ``analysis``) are wrapped
at every import site, and functions looked up as module globals
(``solve_ivp`` in ``radial_ode``, ``functional_value`` and ``_ascend`` in
``maximizer``, ``integrate_plane`` in ``quadrature``) are wrapped in the
module that looks them up.

Spans (name, start, end, parent, op id) are recorded for operations,
searches, shots, residuals, maximizations, ODE solves, quadratures and CLI
calls.  Hot callbacks (``h``/``g`` of the benchmark's perturbation specs
and the closed-form profiles) only add to counters, because a span per
call would cost more than the call.

:func:`layer_metrics` turns the spans and counters of one pass into the
per-layer metrics ``<module>.<metric>``.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from mtlab import (analysis, cli, linearized, maximizer, perturbations,
                   profiles, quadrature, radial_ode, shooting)

from workloads import SWEEP_ANCHORS

PROFILE_FUNCTIONS = ("eta0", "eta0_prime", "w0", "w0_prime", "zeta0",
                     "zeta0_prime", "psi", "psi0", "xi", "dilog_integral")
SEARCHES = ("branch_scan", "threshold_a", "verify_branch_root")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.attrs = parent, op, attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one benchmark process, kept per pass.

    Span ids (``parent``, ``op``) index the span list of their pass.
    """

    def __init__(self):
        self.passes: List[List[Span]] = []
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.counters: Dict[str, float] = defaultdict(int)
        self.in_solve = 0
        self.in_shoot = 0
        self._saved = []

    def start_pass(self) -> None:
        """Begin a new span list and zero the counters."""
        self.spans = []
        self.passes.append(self.spans)
        self.counters.clear()

    # --- spans ---------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.op, attrs))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        self.stack.pop()
        return span

    def spanned(self, fn, name, describe=None, record=None, flag=None):
        """Wrap ``fn`` in a span; ``describe(*args)`` and
        ``record(result, *args)`` add attributes, ``flag`` names a nesting
        counter to raise while ``fn`` runs."""

        def wrapper(*args, **kwargs):
            index = self.open(name, **(describe(*args) if describe else {}))
            if flag:
                setattr(self, flag, getattr(self, flag) + 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                if flag:
                    setattr(self, flag, getattr(self, flag) - 1)
                span = self.close(index)
            if record:
                span.attrs.update(record(result, *args))
            return result

        return wrapper

    def counted(self, fn, name):
        """Count calls and time of a hot callback, split by where it ran."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counters[name + "_calls"] += 1
                counters[name + "_s"] += dt
                if self.in_solve:
                    counters[name + "_in_solve_s"] += dt
                if self.in_shoot:
                    counters[name + "_in_shoot_s"] += dt

        return wrapper

    # --- installation --------------------------------------------------

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, specs=()) -> "Tracer":
        """Wrap mtlab's layers and the h/g callbacks of ``specs``."""
        shoot = self.spanned(
            shooting.shoot, "shoot",
            describe=lambda mu, spec, *a: {"mu": float(mu), "family": spec.name},
            record=lambda sol, *a: {"nodes": len(sol.eta.grid.t_nodes)},
            flag="in_shoot")
        for module in (shooting, analysis, cli):
            self._patch(module, "shoot", shoot)
        residual = self.spanned(shooting.pde_residual, "pde_residual")
        for module in (shooting, analysis):
            self._patch(module, "pde_residual", residual)
        self._patch(radial_ode, "solve_ivp", self.spanned(
            radial_ode.solve_ivp, "solve",
            record=lambda res, *a: {"nfev": int(res.nfev), "steps": len(res.t) - 1},
            flag="in_solve"))
        for name in SEARCHES:
            describe = (lambda grid, *a, **k: {"grid": len(grid)}) \
                if name == "branch_scan" else None
            self._patch(analysis, name, self.spanned(
                getattr(analysis, name), name, describe=describe))
        solve_lin = self.spanned(
            linearized.solve_linearized, "solve_linearized",
            record=lambda sol, *a: {"nodes": len(sol.grid.t_nodes)})
        for module in (linearized, analysis):
            self._patch(module, "solve_linearized", solve_lin)
        self._patch(quadrature, "integrate_plane", self.spanned(
            quadrature.integrate_plane, "quad",
            record=lambda res, *a: {"neval": int(res.nodes_used)}))
        self._patch(maximizer, "maximize_subcritical", self.spanned(
            maximizer.maximize_subcritical, "maximize"))
        self._patch(maximizer, "_ascend", self.spanned(
            maximizer._ascend, "ascend",
            record=lambda out, *a: {"iterations": out[2]}))
        self._patch(maximizer, "functional_value",
                    self.counted(maximizer.functional_value, "fv"))
        self._patch(cli, "main", self.spanned(
            cli.main, "cli", record=lambda rc, argv: {"bytes": _bytes_written(argv)}))
        for name in PROFILE_FUNCTIONS:
            self._patch(profiles, name, self.counted(getattr(profiles, name), "profiles"))
        for spec in specs:
            self._wrap_spec(spec)
        original = perturbations.inverse_square_tail

        def inverse_square_tail(*args, **kwargs):
            return self._wrap_spec(original(*args, **kwargs))

        self._patch(perturbations, "inverse_square_tail", inverse_square_tail)
        return self

    def _wrap_spec(self, spec):
        for name in ("h", "g"):
            fn = getattr(spec, name)
            if fn is not None:
                self._patch(spec, name, self.counted(fn, name))
        return spec

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for number, spans in enumerate(self.passes):
                for span in spans:
                    fh.write(json.dumps({
                        "pass": number, "name": span.name, "start": span.start,
                        "end": span.end, "parent": span.parent, "op": span.op,
                        **span.attrs}) + "\n")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("us_per_fev"):
        return "us"
    if metric.endswith(("share", "overhead_ratio")):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    parts = metric.split(".")[1:]
    if any(part == "s" or part.endswith("_s") for part in parts):
        return "s"
    return "count"


def _bytes_written(argv) -> int:
    """Size of the data file a CLI call wrote with ``--output``."""
    argv = list(argv)
    if "--output" not in argv:
        return 0
    return os.path.getsize(argv[argv.index("--output") + 1])


def layer_metrics(spans: List[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of the spans and counters of one pass."""
    child_s: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.dur
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def total(name, attr=None, where=None):
        return sum((spans[i].attrs[attr] if attr else spans[i].dur)
                   for i in by_name[name] if where is None or where(spans[i]))

    def self_s(names):
        return sum(spans[i].dur - child_s[i] for n in names for i in by_name[n])

    def count(name, where=None):
        return sum(1 for i in by_name[name] if where is None or where(spans[i]))

    def under(parent_name):
        return lambda span: span.parent is not None and spans[span.parent].name == parent_name

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters
    m: Dict[str, float] = {}
    solve_s, nfev = total("solve"), total("solve", "nfev")
    hg_in_solve = c["h_in_solve_s"] + c["g_in_solve_s"]
    m["radial_ode.calls"] = count("solve")
    m["radial_ode.s"] = solve_s
    m["radial_ode.nfev"] = nfev
    m["radial_ode.steps"] = total("solve", "steps")
    m["radial_ode.us_per_fev"] = 1e6 * ratio(solve_s - hg_in_solve, nfev)

    shoot_s, shoots = total("shoot"), count("shoot")
    m["shooting.shoot_calls"] = shoots
    m["shooting.shoot_s"] = shoot_s
    m["shooting.shoot_self_s"] = self_s(["shoot"])
    m["shooting.nodes_per_shoot"] = ratio(total("shoot", "nodes"), shoots)
    for mu in SWEEP_ANCHORS:
        at = [spans[i].dur for i in by_name["shoot"]
              if spans[i].attrs["mu"] == mu and spans[i].attrs["family"] == "trivial"]
        m[f"shooting.shoot_s.mu{mu:g}"] = statistics.median(at) if at else 0.0
    m["shooting.pde_residual_calls"] = count("pde_residual")
    m["shooting.pde_residual_s"] = total("pde_residual")

    m["perturbations.h_calls"] = c["h_calls"]
    m["perturbations.h_s"] = c["h_s"]
    m["perturbations.g_calls"] = c["g_calls"]
    m["perturbations.g_s"] = c["g_s"]
    m["perturbations.share"] = ratio(c["h_in_shoot_s"] + c["g_in_shoot_s"], shoot_s)

    branch_shoots = count("shoot", under("branch_scan"))
    m["analysis.branch_s"] = total("branch_scan")
    m["analysis.branch_shoots"] = branch_shoots
    m["analysis.refine_shoots"] = branch_shoots - total("branch_scan", "grid")
    m["analysis.threshold_s"] = total("threshold_a")
    m["analysis.threshold_shoots"] = count("shoot", under("threshold_a"))
    m["analysis.verify_s"] = total("verify_branch_root")
    m["analysis.self_s"] = self_s(SEARCHES)

    def top(span):
        return span.op is not None and spans[span.op].attrs["tag"] == "top"

    maximize_s = total("maximize")
    m["maximizer.calls"] = count("maximize")
    m["maximizer.s"] = maximize_s
    m["maximizer.iterations"] = total("ascend", "iterations")
    m["maximizer.fv_calls"] = c["fv_calls"]
    m["maximizer.fv_s"] = c["fv_s"]
    m["maximizer.rest_s"] = maximize_s - c["fv_s"]
    m["maximizer.s.top"] = total("maximize", where=top)
    m["maximizer.iterations.top"] = total("ascend", "iterations", where=top)

    m["linearized.solve_calls"] = count("solve_linearized")
    m["linearized.solve_s"] = total("solve_linearized")
    m["linearized.nodes"] = total("solve_linearized", "nodes")

    m["quadrature.calls"] = count("quad")
    m["quadrature.neval"] = total("quad", "neval")
    m["quadrature.s"] = total("quad")

    m["profiles.calls"] = c["profiles_calls"]
    m["profiles.s"] = c["profiles_s"]

    m["cli.main_s"] = total("cli")
    m["cli.self_s"] = self_s(["cli"])
    m["cli.bytes_written"] = total("cli", "bytes")
    return m
