"""Tests of the ledger itself, on tiny workloads.

Run from the repository root::

    python3 -m pytest ledger/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from ledger import common, service_load, sweeps  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

TINY_ROW = sweeps.SweepShape(
    name="row64-serial", rows=1, cols=8, bs=(8, 16), algorithms=None,
    star_max_b=8, warmup_b=4, workers=1, oracle_b=8,
)
TINY_GRID = sweeps.SweepShape(
    name="grid16-pool", rows=4, cols=4, bs=(8, 16), algorithms=("tree", "chain"),
    star_max_b=0, warmup_b=4, workers=2, oracle_b=None,
)
TINY_SERVICE = service_load.ServiceShape(
    name="plan-service", row_pes=(8,), row_bs=(16,), grids=((2, 2),),
    grid_bs=(8,),
)
DETERMINISTIC = ("wse_cycles", "model_err_pct", "regret_pct",
                 "fabric.cycles_stepped", "fabric.cycles_strided")


@pytest.fixture
def work(tmp_path, monkeypatch):
    """The environment a ledger run sets up, scoped to the test."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


#: Per-layer metrics each workload must measure above 0 (traced runs).
REQUIRED = {
    "row64-serial": sweeps.REQUIRED + sweeps.REQUIRED_SERIAL,
    "grid16-pool": sweeps.REQUIRED + sweeps.REQUIRED_POOL,
    "plan-service": service_load.REQUIRED,
}


def run_tiny(name, seed, trace, work):
    if name == "plan-service":
        return service_load.run(TINY_SERVICE, seed, 1.0, trace, work)
    shape = TINY_ROW if name == "row64-serial" else TINY_GRID
    return sweeps.run(shape, seed, 0.1, trace)


def test_benchmark_json_keys_and_bounds():
    spec = common.BENCHMARK
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(common.WORKLOADS) == {"row64-serial", "grid16-pool", "plan-service"}
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", common.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace, work):
    report = run_tiny(name, 1, trace, work)
    verdict = report.verdict()
    assert verdict["correct"], report.failures
    assert verdict["attempted"] >= 1 and verdict["failed"] == 0
    registry = common.PER_LAYER if trace else common.END_TO_END
    assert {k: m["unit"] for k, m in verdict["metrics"].items()} == registry
    for metric in verdict["metrics"].values():
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0
    if trace:
        for key in REQUIRED[name]:
            assert verdict["metrics"][key]["value"] > 0, key
    json.dumps(verdict)


def test_a_layer_that_stops_reporting_fails_the_traced_run(work, monkeypatch):
    # A renamed span must not read as a perfect improvement.
    original = sweeps._spans
    monkeypatch.setattr(sweeps, "_spans", lambda events, name: original(
        events, "renamed" if name == "sim.run" else name))
    report = run_tiny("row64-serial", 1, True, work)
    assert not report.correct
    assert any("fabric.sim_run_s" in why for why in report.failures)


def test_host_normalization_keeps_a_library_slowdown(work, monkeypatch):
    """The reference loop samples host speed while the library runs: a
    library that does twice the work must lose about half of its
    normalized throughput, not have the loss scaled away."""
    import time

    import numpy as np

    def measure():
        report = sweeps.run(TINY_ROW, 1, 2.0, False)
        assert report.correct, report.failures
        return report.end_to_end["ops_per_s"], report.notes["raw_ops_per_s"]

    base, raw_base = measure()
    original = repro.run_many
    rows = np.random.default_rng(0).normal(size=(64, 256))

    def twice_the_work(*args, **kwargs):
        started = time.perf_counter()
        outcomes = original(*args, **kwargs)
        spent = time.perf_counter() - started
        until = time.perf_counter() + spent
        while time.perf_counter() < until:
            (rows * 1.0001 + 1.0).sum()
        return outcomes

    monkeypatch.setattr(repro, "run_many", twice_the_work)
    slow, raw_slow = measure()
    raw_ratio = raw_slow / raw_base
    assert raw_ratio < 0.8
    assert slow / base == pytest.approx(raw_ratio, rel=0.15)


@pytest.mark.parametrize("name", ["row64-serial", "grid16-pool"])
def test_deterministic_metrics_repeat_and_match_traced_runs(name, work):
    first = run_tiny(name, 3, False, work).quality
    again = run_tiny(name, 3, False, work).quality
    other_seed = run_tiny(name, 4, False, work).quality
    traced = run_tiny(name, 3, True, work)
    traced_again = run_tiny(name, 3, True, work)
    assert first == again == other_seed == traced.quality
    assert first["wse_cycles"] > 0
    for key in DETERMINISTIC:
        assert traced.metrics()[key] == traced_again.metrics()[key]


@pytest.mark.parametrize("name", ["row64-serial", "grid16-pool"])
def test_wrong_sweep_result_raises_fail_ratio(name, work, monkeypatch):
    target = repro if name == "row64-serial" else sweeps.EngineSession
    attr = "run_many" if name == "row64-serial" else "sweep"
    original = getattr(target, attr)

    def corrupted(*args, **kwargs):
        outcomes = original(*args, **kwargs)
        outcomes[-1].result.flat[0] += 1.0
        return outcomes

    monkeypatch.setattr(target, attr, corrupted)
    report = run_tiny(name, 1, True, work)
    assert not report.correct
    assert report.metrics()["fail_ratio"]["value"] > 0


def test_wrong_service_reply_raises_fail_ratio(work, monkeypatch):
    original = ServiceClient.plan

    def off_by_one(self, spec):
        reply = original(self, spec)
        return type(reply)(reply.spec, reply.algorithm, reply.predicted_cycles + 1,
                           reply.cached, reply.coalesced)

    monkeypatch.setattr(ServiceClient, "plan", off_by_one)
    report = run_tiny("plan-service", 1, False, work)
    assert not report.correct and report.failed == report.attempted


def test_oracle_check_catches_a_simulator_mismatch(work, monkeypatch):
    original = repro.execute

    def skewed(plan, data, backend=None):
        outcome = original(plan, data, backend=backend)
        if backend == "reference":
            outcome.sim.buffers[0][0] += 1.0
        return outcome

    monkeypatch.setattr(repro, "execute", skewed)
    report = run_tiny("row64-serial", 1, False, work)
    assert not report.correct
    assert any("reference oracle" in why for why in report.failures)


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "row64-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / common.SCRATCH.name).exists()


POOLED_RUN = """
import sys
from ledger import common, sweeps
common.adopt_orphans()
shape = sweeps.SweepShape(
    name="grid16-pool", rows=4, cols=4, bs=(16,), algorithms=("chain",),
    star_max_b=0, warmup_b=4, workers=2, oracle_b=None,
)
report = sweeps.run(shape, 1, 0.1, False)
before = common.descendants()
common.stop_children()
print(report.correct, len(before), len(common.descendants()))
"""


def test_a_pooled_run_leaves_no_process_behind(work):
    """The resource tracker started for the pool's shared memory, and
    any orphan, is stopped and reaped before the run reports."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=f"{ROOT}:{ROOT / 'src'}", REPRO_CACHE_DIR=str(work / "cache"))
    done = subprocess.run([sys.executable, "-c", POOLED_RUN], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    correct, before, after = done.stdout.split()[-3:]
    assert correct == "True"
    assert int(before) >= 1  # the tracker outlives the pool ...
    assert int(after) == 0  # ... until stop_children ends it
