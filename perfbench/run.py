"""Benchmark of mtlab: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

Workloads (see workloads.py): ``sweep`` (c(mu) rows), ``search`` (branch
scan, root verification and tail threshold), ``maximize`` (criterion-12
maximizations) and ``theory`` (CLI tables and beta, linearized solves).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes, started one after
  another, of the time from process start to the end of set-up (import of
  mtlab and scipy, building the seeded inputs, one untimed warm-up op);
* ``wall_s``: median time of one pass over the seeded inputs;
* ``op_p50_s``: median latency of one op;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The three times are normalized to a reference host speed (see
calibration.py): a fixed reference kernel is timed before and after every
op and every set-up process, and every 0.25 s of CPU time while one runs,
and each time is scaled by ``KERNEL_REF_S`` over the mean of the kernel
times around and during it.  The shared host this runs on drifts in speed
by up to a factor of two within seconds to minutes, which no statistic
over raw times removes; the ratio to the kernel does not drift with it.
Raw times are on the diagnostic line.

With ``--trace 1`` it measures untraced passes for half the time and
traced passes for the other half and reports the per-layer metrics of
tracing.py, each the median over traced passes of its per-pass value, and
``trace.overhead_ratio`` (from normalized pass times).  Per-layer times
are raw.  Spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Every op runs under a wall-clock deadline; an overrun counts as a failed
op and ends the run.  Outputs are checked against references.json.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries diagnostics (fail ratio, op latencies of every pass, tail latency,
set-up samples).

BLAS and OpenMP pools are pinned to one thread and at most one child
process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pools are sized when numpy is first imported, which calibration does
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402
# the names of workloads.BY_NAME; arguments are parsed before mtlab is imported
WORKLOADS = ("sweep", "search", "maximize", "theory")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
TAIL_MIN_SAMPLES_ABOVE = 10
# seconds of kernel runs in the sample taken between two ops, and in the
# one before the first op, between two traced ops (which take no samples
# inside) and around each set-up process
CAL_BETWEEN_S = 0.02
CAL_LEAD_S = 0.25


class DeadlineExceeded(Exception):
    """An op ran past its wall-clock deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class deadline:
    """Raise DeadlineExceeded in the main thread after ``seconds``."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


@dataclass
class PassResult:
    latencies: List[float] = field(default_factory=list)
    # kernel samples: kernel[i] and kernel[i + 1] bracket latencies[i],
    # inside[i] were taken while it ran
    kernel: List[float] = field(default_factory=list)
    inside: List[List[float]] = field(default_factory=list)
    failed: int = 0
    overrun: bool = False
    layers: Optional[Dict[str, float]] = None

    @property
    def normalized(self) -> List[float]:
        return [calibration.normalize(t, [a, *ks, b]) for t, a, ks, b
                in zip(self.latencies, self.kernel, self.inside, self.kernel[1:])]

    @property
    def wall(self) -> float:
        return sum(self.normalized)

    @property
    def raw_wall(self) -> float:
        return sum(self.latencies)


def run_pass(workload, tracer=None, kernel_before=None) -> PassResult:
    """One pass over the workload's ops; stops early on a deadline overrun.

    ``kernel_before`` is a kernel sample taken just before the pass (the
    last one of the previous pass); one is taken if it is missing.  Kernel
    samples are taken inside ops only when ``tracer`` is None, so that
    spans hold no kernel time; traced ops get longer samples between them."""
    result = PassResult()
    result.kernel.append(calibration.sample(CAL_BETWEEN_S) if kernel_before is None
                         else kernel_before)
    if tracer:
        tracer.start_pass()
    for op in workload.ops:
        if tracer:
            span = tracer.open("op", label=op.label, tag=op.tag)
            tracer.op = span
        out, error = None, None
        sampler = calibration.Sampler()
        t0 = perf_counter()
        try:
            with deadline(workload.deadline_s):
                if tracer:
                    out = op.run()
                else:
                    with sampler:
                        out = op.run()
        except DeadlineExceeded:
            error = f"missed its {workload.deadline_s:g} s deadline"
            result.overrun = True
        except Exception:  # any failure of the program is a failed op
            error = traceback.format_exc()
        finally:
            result.latencies.append(perf_counter() - t0 - sampler.spent)
            result.inside.append(sampler.samples)
            if tracer:
                tracer.close(span)
                tracer.op = None
        result.kernel.append(calibration.sample(CAL_LEAD_S if tracer else CAL_BETWEEN_S))
        if error is None:
            try:
                op.check(out)
            except AssertionError as exc:
                error = f"check failed: {exc}"
        if error is not None:
            result.failed += 1
            print(f"{workload.name}: {op.label}: {error}", file=sys.stderr)
        if result.overrun:
            break
    if tracer:
        import tracing
        result.layers = tracing.layer_metrics(tracer.spans, tracer.counters)
    return result


def measure(workload, budget_s: float, tracer=None) -> List[PassResult]:
    """Repeat passes while the next one is expected to end within budget_s."""
    passes: List[PassResult] = []
    start = perf_counter()
    kernel_before = calibration.sample(CAL_LEAD_S)
    while True:
        t0 = perf_counter()
        p = run_pass(workload, tracer, kernel_before)
        passes.append(p)
        kernel_before = p.kernel[-1]
        if p.overrun or perf_counter() - start + (perf_counter() - t0) > budget_s:
            return passes


def setup_sample(args) -> Tuple[float, float]:
    """Seconds from the start of a fresh process to the end of its set-up,
    net of kernel runs, raw and normalized by the kernel samples taken just
    before, during and after it."""
    kernel_before = calibration.sample(CAL_LEAD_S)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        with deadline(SETUP_TIMEOUT_S):
            line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    except (DeadlineExceeded, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up probe timed out")
    finally:
        proc.stdout.close()
    if not line.startswith("ready ") or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    kernel_after = calibration.sample(CAL_LEAD_S)
    inside = json.loads(line[len("ready "):])
    net = elapsed - inside["spent"]
    return net, calibration.normalize(
        net, [kernel_before, *inside["samples"], kernel_after])


def tail_latency(latencies: List[float]):
    """(percentile, value) at the highest whole percentile with at least
    TAIL_MIN_SAMPLES_ABOVE samples above it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_SAMPLES_ABOVE:
            return pct, ordered[rank - 1]
    return None


def end_to_end(passes: List[PassResult], setup: List[Tuple[float, float]]):
    latencies = [x for p in passes for x in p.normalized]
    raw = [x for p in passes for x in p.latencies]
    tail = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    diag = {"raw": {"setup_s": statistics.median(r for r, _ in setup),
                    "wall_s": statistics.median(p.raw_wall for p in passes),
                    "op_p50_s": statistics.median(raw)},
            "latencies": [p.latencies for p in passes],
            "kernel_s": [p.kernel for p in passes],
            "kernel_inside_s": [[statistics.fmean(ks) if ks else None for ks in p.inside]
                                for p in passes],
            "kernel_inside_n": [[len(ks) for ks in p.inside] for p in passes],
            "setup_samples": setup,
            "op_tail_s": None if tail is None else
            {"percentile": tail[0], "value": tail[1], "samples": len(latencies)}}
    return metrics, diag


def per_layer(untraced: List[PassResult], traced: List[PassResult]):
    import tracing
    names = traced[0].layers.keys()
    metrics = {name: (statistics.median(p.layers[name] for p in traced),
                      tracing.unit_of(name)) for name in names}
    ratio = (statistics.median(p.wall for p in traced)
             / statistics.median(p.wall for p in untraced) - 1.0)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics, {"untraced_passes": len(untraced), "traced_passes": len(traced)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a set-up probe samples the kernel while it sets up, as ops do; the
    # first sample, taken at once, makes the kernel's lazy imports before
    # a later one can interrupt an import of mtlab
    probe = None
    if args.setup_probe:
        probe = calibration.Sampler()
        probe.tick()
        probe.__enter__()
    if not (SRC / "mtlab" / "__init__.py").is_file():
        print(f"no mtlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = [] if args.setup_probe or args.trace else \
        [setup_sample(args) for _ in range(SETUP_SAMPLES)]

    import mtlab
    if Path(mtlab.__file__).resolve().parent != (SRC / "mtlab").resolve():
        print(f"imported mtlab from {mtlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.build(args.workload, args.seed, str(workdir))
        with deadline(SETUP_TIMEOUT_S):
            workload.warmup.run()
        if args.setup_probe:
            probe.__exit__()
            print("ready " + json.dumps({"spent": probe.spent, "samples": probe.samples}),
                  flush=True)
            return 0
        if args.trace:
            import tracing
            passes = measure(workload, args.seconds / 2.0)
            metrics, diag = {}, {}
            if not passes[-1].overrun:
                with tracing.Tracer().install(workload.specs) as tracer:
                    traced = measure(workload, args.seconds / 2.0, tracer)
                tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
                metrics, diag = per_layer(passes, traced)
                passes += traced
        else:
            passes = measure(workload, args.seconds)
            metrics, diag = end_to_end(passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    diag.update(workload=args.workload, seed=args.seed,
                fail_ratio=failed / attempted)
    print(json.dumps(diag))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
