"""The two sweep workloads: ``row64-serial`` and ``grid16-pool``.

A *batch* (one pass) is a figure-style sweep over a fixed list of specs,
each run once on seeded random data.  Every pass starts from an empty
plan cache and empty Auto-Gen tables, pays one cold ``repro.plan`` per
distinct spec, then executes all points in one call: ``repro.run_many``
(serial) or ``EngineSession.sweep`` (process pool).  The spec list is the same
for every seed; the seed draws the data, so simulated cycles, model
error and regret repeat exactly across seeds while the arithmetic is
checked on new numbers each run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import PLAN_CACHE, CollectiveSpec, Grid
from repro.autogen import dp as autogen_dp
from repro.autogen import tree as autogen_tree
from repro.core import api as core_api
from repro.core import registry
from repro.core.registry import entries_for
from repro.engine import EngineSession
from repro.fabric import vectorized
from repro.validation.verify import ATOL, RTOL

from .common import (
    SETUP_TRIALS,
    HostSpeed,
    LayerClock,
    Report,
    mean,
    median,
    peak_rss_mb,
    percentile,
    start_resource_tracker,
    usable_cores,
)

KINDS = ("reduce", "allreduce")

#: Cached ``repro.plan`` calls timed per distinct spec on traced runs.
CACHED_PROBES = 40

#: The untouched DP entry point (the traced run wraps the module names).
_AUTOGEN_TABLES = autogen_dp.autogen_tables

#: Library functions timed as their own layer during the traced batch.
LAYER_TARGETS = (
    (autogen_dp, "autogen_tables", "autogen"),
    (autogen_tree, "autogen_tables", "autogen"),
    (registry, "build_schedule", "collectives"),
)

#: The simulator's layers, timed during an in-process traced batch:
#: ``simulate`` self time is the simulator run and its dispatch, and
#: the vectorized backend's construction and lowering get buckets of
#: their own.  ``simulate`` as ``execute`` calls it; the two others as
#: ``simulate`` and the constructor look them up.
FABRIC_TARGETS = (
    (core_api, "simulate", "simulate"),
    (vectorized, "VectorizedSimulator", "sim_setup"),
    (vectorized, "lower_arrays", "lower"),
)

#: Per-layer metrics every traced sweep must measure above 0.
REQUIRED = (
    "core.plan_cold_s", "collectives.build_s", "plan_cold_p50_ms",
    "plan_cached_p50_ms", "plan_cached_p99_ms", "wse_cycles",
    "fabric.sim_run_s", "fabric.cycles_stepped",
    *(f"fabric.phase.{name}_s" for name in ("drain", "deliver", "route", "procs", "stride")),
)
#: ... and in addition, on the in-process (serial) sweep ...
REQUIRED_SERIAL = ("core.execute_self_s", "fabric.lower_s", "fabric.sim_setup_s")
#: ... and on the pooled sweep.
REQUIRED_POOL = ("engine.attach_s", "engine.chunks", "engine.chunk_busy_s", "engine.util")


@dataclass(frozen=True)
class SweepShape:
    """Which points a workload's batch holds and where they run."""

    name: str
    rows: int
    cols: int
    bs: Tuple[int, ...]
    #: forced algorithms, besides ``auto``; ``None`` = every registered one.
    algorithms: Optional[Tuple[str, ...]]
    #: ``star`` points only up to this B (one star point costs seconds).
    star_max_b: int
    #: B of the warm-up spec, which is outside the batch.
    warmup_b: int
    #: 1 = serial ``run_many``; more = an ``EngineSession`` pool of this
    #: size, capped at the usable cores.
    workers: int
    #: B whose points are re-run on the reference oracle; ``None`` = none.
    oracle_b: Optional[int]
    #: passes per measured run at least; throughput is their median.
    min_passes: int = 2


ROW64 = SweepShape(
    name="row64-serial", rows=1, cols=64, bs=(64, 256, 1024),
    algorithms=None, star_max_b=64, warmup_b=32, workers=1, oracle_b=64,
)
GRID16 = SweepShape(
    name="grid16-pool", rows=16, cols=16, bs=(256, 1024),
    algorithms=("tree", "two_phase", "chain", "snake"), star_max_b=0,
    warmup_b=64, workers=2, oracle_b=None, min_passes=3,
)


def batch_specs(shape: SweepShape) -> List[CollectiveSpec]:
    """The batch's specs, in a fixed order independent of the seed."""
    grid = Grid(shape.rows, shape.cols)
    dims = 1 if shape.rows == 1 else 2
    specs = []
    for kind in KINDS:
        names = shape.algorithms or tuple(sorted(entries_for(kind, dims)))
        for b in shape.bs:
            for name in names + ("auto",):
                if name == "star" and b > shape.star_max_b:
                    continue
                specs.append(CollectiveSpec(kind, grid, b, algorithm=name))
    return specs


def make_datas(shape: SweepShape, specs: Sequence[CollectiveSpec],
               rng: np.random.Generator) -> List[np.ndarray]:
    lead = (shape.cols,) if shape.rows == 1 else (shape.rows, shape.cols)
    return [rng.normal(size=lead + (spec.b,)) for spec in specs]


def expected_result(spec: CollectiveSpec, data: np.ndarray) -> np.ndarray:
    total = data.reshape(-1, spec.b).sum(axis=0)
    if spec.kind == "reduce":
        return total
    return np.broadcast_to(total, data.shape)


# -- execution contexts ----------------------------------------------------


class _Runner:
    """Where a batch's points execute: in-process or on a warm pool."""

    def __init__(self, workers: int) -> None:
        self.session: Optional[EngineSession] = None
        self.attach_s = 0.0
        if workers > 1:
            self.session = EngineSession(workers=workers)
            started = time.perf_counter()
            self.session.attach()
            self.attach_s = time.perf_counter() - started

    def run(self, specs, datas):
        if self.session is None:
            return repro.run_many(specs, datas)
        return self.session.sweep(specs, datas)

    def stats(self) -> Dict[str, object]:
        return self.session.stats.as_dict() if self.session is not None else {}

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


def clear_planner_state() -> None:
    """Empty the plan cache and the Auto-Gen DP tables."""
    PLAN_CACHE.clear()
    _AUTOGEN_TABLES.cache_clear()


def set_up(shape: SweepShape, workers: int) -> Tuple[_Runner, float, float]:
    """Repeat pool attach + warm-up; keep the last runner.

    Returns the runner, the median set-up seconds and the median attach
    seconds over :data:`SETUP_TRIALS` trials.
    """
    grid = Grid(shape.rows, shape.cols)
    warm = CollectiveSpec("reduce", grid, shape.warmup_b, algorithm="chain")
    rng = np.random.default_rng(0)
    totals, attaches = [], []
    runner = None
    for trial in range(SETUP_TRIALS):
        if runner is not None:
            runner.close()
        started = time.perf_counter()
        clear_planner_state()
        runner = _Runner(workers)
        runner.run([warm, warm], make_datas(shape, [warm, warm], rng))
        totals.append(time.perf_counter() - started)
        attaches.append(runner.attach_s)
    return runner, median(totals), median(attaches)


# -- one batch -------------------------------------------------------------


@dataclass
class Batch:
    specs: List[CollectiveSpec]
    datas: List[np.ndarray]
    outcomes: list
    #: seconds of cold planning plus execution.
    wall: float
    cold_s: List[float]
    cached_s: List[float]
    hit_ratio: float

    @property
    def ops_per_s(self) -> float:
        return len(self.specs) / self.wall


def _cold_plan(spec: CollectiveSpec, clock: Optional[LayerClock]) -> float:
    started = time.perf_counter()
    if clock is None:
        repro.plan(spec)
    else:
        with clock.timing("core"):
            repro.plan(spec)
    return time.perf_counter() - started


def cached_plans(spec: CollectiveSpec, probes: int = CACHED_PROBES) -> List[float]:
    """Latencies of ``probes`` library ``plan()`` calls on a planned spec."""
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        repro.plan(spec)
        samples.append(time.perf_counter() - started)
    return samples


def run_batch(runner: _Runner, specs, datas, clock: Optional[LayerClock] = None,
              probes: int = 0) -> Batch:
    """One pass over the batch from empty planner state: a cold
    ``repro.plan`` per distinct spec, then every point in one
    ``repro.run_many`` (serial) or ``EngineSession.sweep`` (pool) call.
    ``probes`` cached ``repro.plan`` calls per distinct spec are timed
    after its cold plan and left out of the pass's wall time.
    """
    clear_planner_state()
    cold, cached = [], []
    for spec in dict.fromkeys(specs):
        cold.append(_cold_plan(spec, clock))
        cached += cached_plans(spec, probes)
    started = time.perf_counter()
    outcomes = runner.run(specs, datas)
    wall = sum(cold) + time.perf_counter() - started
    lookups = PLAN_CACHE.stats()
    hit_ratio = lookups["hits"] / max(lookups["hits"] + lookups["misses"], 1)
    return Batch(list(specs), list(datas), outcomes, wall, cold, cached, hit_ratio)


def check_batch(batch: Batch, report: Report,
                reference_cycles: Dict[CollectiveSpec, int]) -> None:
    """Count points whose result or cycle count is wrong."""
    report.attempted += len(batch.specs)
    for spec, data, out in zip(batch.specs, batch.datas, batch.outcomes):
        want = expected_result(spec, data)
        got = np.asarray(out.result)
        if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            report.fail(f"{spec.kind}/{spec.algorithm}/b{spec.b}: result differs from numpy")
            continue
        first = reference_cycles.setdefault(spec, out.measured_cycles)
        if out.measured_cycles != first:
            report.fail(f"{spec.kind}/{spec.algorithm}/b{spec.b}: cycles "
                        f"{out.measured_cycles} != {first} on an earlier batch")


def check_oracle(batch: Batch, oracle_b: int, report: Report) -> int:
    """Re-run the ``oracle_b`` points on the reference simulator; cycles
    and every buffer must match bit for bit.  Returns points checked."""
    checked = 0
    for spec, data, out in zip(batch.specs, batch.datas, batch.outcomes):
        if spec.b != oracle_b:
            continue
        checked += 1
        ref = repro.execute(out.plan, data, backend="reference")
        same = (ref.measured_cycles == out.measured_cycles
                and np.array_equal(ref.result, out.result)
                and ref.sim.buffers.keys() == out.sim.buffers.keys()
                and all(np.array_equal(ref.sim.buffers[pe], out.sim.buffers[pe])
                        for pe in ref.sim.buffers))
        if not same:
            report.fail(f"{spec.kind}/{spec.algorithm}/b{spec.b}: differs from the reference oracle")
    return checked


def quality(batch: Batch) -> Dict[str, float]:
    """Deterministic results of a batch: simulated cycles of the ``auto``
    points, model error and the planner's regret."""
    errors: Dict[str, List[float]] = {}
    all_errors = []
    best: Dict[Tuple[str, int], int] = {}
    chosen: Dict[Tuple[str, int], int] = {}
    wse_cycles = 0
    for spec, out in zip(batch.specs, batch.outcomes):
        key = (spec.kind, spec.b)
        best[key] = min(best.get(key, out.measured_cycles), out.measured_cycles)
        all_errors.append(out.prediction_error)
        if spec.algorithm == "auto":
            wse_cycles += out.measured_cycles
            chosen[key] = out.measured_cycles
        else:
            errors.setdefault(out.algorithm, []).append(out.prediction_error)
    result = {
        "wse_cycles": float(wse_cycles),
        "model_err_pct": 100.0 * mean(all_errors),
        "regret_pct": 100.0 * mean([chosen[k] / best[k] - 1.0 for k in chosen]),
    }
    for name, values in errors.items():
        result[f"model.err_pct.{name}"] = 100.0 * mean(values)
    return result


# -- telemetry -> per-layer numbers ----------------------------------------


def _spans(events, name):
    return [e for e in events if e.get("ph") == "X" and e.get("name") == name]


def _counters(events, name):
    return [e.get("args", {}) for e in events
            if e.get("ph") == "C" and e.get("name") == name]


def layer_metrics(events, clock: LayerClock, batch: Batch,
                  engine_delta: Dict[str, float], workers: int) -> Dict[str, float]:
    run_s = sum(e["dur"] for e in _spans(events, "sim.run")) / 1e6
    cycles = _counters(events, "sim.cycles")
    stepped = sum(c.get("stepped", 0) for c in cycles)
    strided = sum(c.get("strided", 0) for c in cycles)
    phases = _counters(events, "sim.phase.ms")
    out = {
        "core.plan_cold_s": clock.seconds.get("core", 0.0),
        "autogen.dp_s": clock.seconds.get("autogen", 0.0),
        "collectives.build_s": clock.seconds.get("collectives", 0.0),
        "core.plan_hit_ratio": batch.hit_ratio,
        "fabric.sim_run_s": run_s,
        "fabric.cycles_stepped": float(stepped),
        "fabric.cycles_strided": float(strided),
        "fabric.stride_coverage": strided / max(stepped + strided, 1),
        "fabric.us_per_stepped_cycle": 1e6 * run_s / max(stepped, 1),
        "fabric.fallbacks": float(sum(
            1 for e in events if e.get("ph") == "i" and e.get("name") == "sim.fallback")),
    }
    for name in ("drain", "deliver", "route", "procs", "stride"):
        out[f"fabric.phase.{name}_s"] = sum(p.get(name, 0.0) for p in phases) / 1e3
    if workers == 1:  # the simulator ran in this process, under the clock
        execute_s = sum(e["dur"] for e in _spans(events, "execute")) / 1e6
        simulate_s = sum(clock.seconds.get(bucket, 0.0)
                         for _, _, bucket in FABRIC_TARGETS)
        out.update({
            "core.execute_self_s": execute_s - simulate_s,
            "fabric.lower_s": clock.seconds.get("lower", 0.0),
            "fabric.sim_setup_s": clock.seconds.get("sim_setup", 0.0),
        })
    else:
        busy = sum(e["dur"] for e in _spans(events, "engine.chunk")) / 1e6
        wall = sum(e["dur"] for e in _spans(events, "engine.sweep")) / 1e6
        capacity = workers * wall
        out.update({
            "engine.chunks": engine_delta.get("chunks", 0),
            "engine.chunk_busy_s": busy,
            "engine.worker_idle_s": max(capacity - busy, 0.0),
            "engine.util": busy / capacity if capacity > 0 else 0.0,
            **{f"engine.{key}": engine_delta.get(key, 0) for key in (
                "shm_chunks", "shm_bytes", "retries", "timeouts", "quarantined")},
        })
    return out


def _stats_delta(after: Dict[str, object], before: Dict[str, object]) -> Dict[str, float]:
    return {key: float(value) - float(before.get(key, 0))
            for key, value in after.items() if isinstance(value, (int, float))}


# -- shared-memory hygiene -------------------------------------------------

SHM_DIR = "/dev/shm"


def shm_segments() -> set:
    from repro.engine.shm import NAME_PREFIX

    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(NAME_PREFIX)}
    except OSError:
        return set()


# -- the workload ----------------------------------------------------------


def run(shape: SweepShape, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0) -> Report:
    report = Report(shape.name, seed, trace)
    workers = max(1, min(shape.workers, usable_cores()))
    report.notes["workers"] = workers
    shm_before = shm_segments()
    if workers > 1:
        start_resource_tracker()
    with HostSpeed().sampling() as host:
        runner, setup_s, attach_s = set_up(shape, workers)
        try:
            rng = np.random.default_rng(seed)
            specs = batch_specs(shape)
            cycles: Dict[CollectiveSpec, int] = {}
            if trace:
                _traced(runner, shape, specs, rng, report, cycles, workers)
                report.per_layer["engine.attach_s"] = attach_s
                report.require(REQUIRED + (REQUIRED_SERIAL if workers == 1
                                           else REQUIRED_POOL))
            else:
                ops, rss = _measure(runner, shape, specs, rng, seconds, report, cycles)
        finally:
            runner.close()
    if not trace:
        setup_s += import_s
        scale = host.scale()
        report.end_to_end.update(setup_s=setup_s * scale, ops_per_s=ops / scale,
                                 peak_rss_mb=rss)
        report.notes.update(host_scale=scale, raw_setup_s=setup_s, raw_ops_per_s=ops)
    leaked = shm_segments() - shm_before
    if leaked:
        report.fail(f"{len(leaked)} shared-memory segments left behind", len(leaked))
    return report


def _measure(runner, shape, specs, rng, seconds, report, cycles) -> Tuple[float, float]:
    """At least ``shape.min_passes`` passes; another starts only while the
    previous pass's wall time still fits in ``seconds``.  Returns the
    median throughput over passes and the peak RSS."""
    passes: List[Batch] = []
    started = time.perf_counter()
    while True:
        batch = run_batch(runner, specs, make_datas(shape, specs, rng))
        check_batch(batch, report, cycles)
        if passes:  # only the first pass's results are kept
            batch.datas, batch.outcomes = [], []
        passes.append(batch)
        if (len(passes) >= shape.min_passes
                and time.perf_counter() - started + batch.wall > seconds):
            break
    first = passes[0]
    report.quality.update(quality(first))
    if shape.oracle_b is not None:
        report.notes["oracle_points"] = check_oracle(first, shape.oracle_b, report)
    report.notes.update(passes=len(passes), points=sum(len(b.specs) for b in passes))
    # peak RSS now, while the pool workers are still alive
    return median([b.ops_per_s for b in passes]), peak_rss_mb()


def _traced(runner, shape, specs, rng, report, cycles, workers) -> None:
    """One untraced pass, then one under telemetry with the layer clock
    armed; the per-layer numbers come from the second."""
    untraced = run_batch(runner, specs, make_datas(shape, specs, rng),
                         probes=CACHED_PROBES)
    check_batch(untraced, report, cycles)
    report.quality.update(quality(untraced))
    if shape.oracle_b is not None:
        report.notes["oracle_points"] = check_oracle(untraced, shape.oracle_b, report)
    datas = make_datas(shape, specs, rng)
    clock = LayerClock()
    targets = LAYER_TARGETS + (FABRIC_TARGETS if workers == 1 else ())
    before = runner.stats()
    with repro.use_telemetry() as collected, clock.patched(targets):
        traced = run_batch(runner, specs, datas, clock=clock)
    check_batch(traced, report, cycles)
    if quality(traced) != report.quality:
        report.fail("deterministic metrics differ between traced and untraced passes")
    delta = _stats_delta(runner.stats(), before)
    report.per_layer.update(layer_metrics(collected.events, clock, traced, delta, workers))
    report.per_layer["plan_cold_p50_ms"] = 1e3 * median(untraced.cold_s)
    report.per_layer["plan_cached_p50_ms"] = 1e3 * median(untraced.cached_s)
    report.per_layer["plan_cached_p99_ms"] = 1e3 * percentile(untraced.cached_s, 99)
    report.per_layer["obs.overhead_pct"] = 100.0 * (traced.wall / untraced.wall - 1.0)
