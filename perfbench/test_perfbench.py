"""Tests of the benchmark itself (one to three minutes on two cores).

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from mtlab import shooting  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# counts that must repeat exactly, and the workloads on which they are nonzero
EXACT_COUNTS = {"radial_ode.nfev": ("sweep", "search", "theory"),
                "analysis.branch_shoots": ("search",),
                "maximizer.fv_calls": ("maximize",),
                "quadrature.neval": ("theory",)}


@pytest.fixture(scope="module")
def refs():
    return wl.load_references()


@pytest.mark.parametrize("mu", [12.0, 24.0])
def test_sweep_check_passes_default_tol_and_fails_loose_tol(refs, mu):
    families = wl.sweep_families()
    op = wl._sweep_row(mu, families, refs)

    def row(tol):
        return {name: mu ** 4 * (shooting.shoot(mu, spec, tol=tol).energy_total - wl.FOUR_PI)
                for name, spec in families.items()}

    op.check(row(1e-11))
    with pytest.raises(wl.CheckFailed):
        op.check(row(1e-8))


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_seeded_inputs_repeat_and_have_references(tmp_path, refs, name):
    assert run.WORKLOADS == wl.WORKLOADS
    labels = {}
    for seed in range(40):
        ops = wl.build(name, seed, str(tmp_path), refs).ops  # KeyError if unreferenced
        labels[seed] = [op.label for op in ops]
        assert labels[seed] == [op.label for op in wl.build(name, seed, str(tmp_path), refs).ops]
    assert len({tuple(v) for v in labels.values()}) > 1


def traced_pass(name, seed, workdir):
    workload = wl.build(name, seed, str(workdir))
    with tracing.Tracer().install(workload.specs) as tracer:
        result = run.run_pass(workload, tracer)
    assert result.failed == 0
    return result.layers


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_counts_repeat(tmp_path, name):
    first = traced_pass(name, 3, tmp_path)
    second = traced_pass(name, 3, tmp_path)
    counts = [m for m in first if tracing.unit_of(m) in ("count", "B")]
    assert set(EXACT_COUNTS) <= set(counts)
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first) | {"trace.overhead_ratio"} == declared
    assert all(NAME.fullmatch(m) for m in declared)
    for m, where in EXACT_COUNTS.items():
        assert (first[m] > 0) == (name in where), m


def test_deadline_counts_a_failure_and_ends_the_pass(tmp_path):
    workload = wl.build("theory", 1, str(tmp_path))
    workload.deadline_s = 1e-4
    result = run.run_pass(workload)
    assert result.overrun and result.failed == 1 and len(result.latencies) == 1


def test_result_line_carries_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_kernel_samples_inside_an_op_are_taken_out_of_its_time():
    sampler = calibration.Sampler()
    t0 = perf_counter()
    with sampler:
        while len(sampler.samples) < 3 and perf_counter() - t0 < 20.0:
            sum(i * i for i in range(10000))
    elapsed = perf_counter() - t0
    assert len(sampler.samples) == 3
    assert 0.0 < sum(sampler.samples) <= sampler.spent < elapsed
    assert calibration.normalize(2.0, [calibration.KERNEL_REF_S / 2]) == 4.0
