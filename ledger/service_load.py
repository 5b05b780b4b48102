"""The ``plan-service`` workload: a closed loop against the planner
service.

``python -m repro.service --port 0 --db -`` runs as a subprocess.  Two
client threads each send ``POST /plan`` and wait for the reply before
sending the next, as callers that execute a plan only once they hold
it.  Most requests repeat a spec that already has a reply (cache reads);
beside them runs a fixed set of first-seen specs (planner writes),
released evenly over the first three quarters of the window in an order
drawn from the seed.  Every run sends the whole set, so the cold-plan
work per run is the same for every seed.  There is no simulation.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro
from repro.core.registry import CollectiveSpec, entries_for
from repro.fabric import Grid
from repro.service.client import ServiceClient, ServiceError
from repro.service.schemas import SpecRequest

from .common import (
    SETUP_TRIALS,
    SRC,
    HostSpeed,
    LayerClock,
    Report,
    median,
    peak_rss_mb,
    percentile,
)
from .sweeps import LAYER_TARGETS, clear_planner_state, cached_plans

KINDS = ("reduce", "allreduce")

#: Share of the window over which the first-seen specs are released.
COLD_WINDOW = 0.75

#: Window over which ``ops_per_s`` counts replies; it reports the
#: median window, so a neighbour's burst of load on the shared host
#: moves a few windows, not the figure.
BUCKET_S = 1.0

#: Knobs set on the server: per-tenant rate limiting would otherwise
#: refuse a closed loop faster than 100 requests/s.
SERVER_KNOBS = {"REPRO_SERVICE_RATE": "1e9", "REPRO_SERVICE_BURST": "1000000000"}

#: Per-layer metrics every traced run must measure above 0.
REQUIRED = (
    "core.plan_cold_s", "core.plan_hit_ratio", "autogen.dp_s", "collectives.build_s",
    "plan_cold_p50_ms", "plan_cached_p50_ms", "plan_cached_p99_ms",
    "service.http_overhead_ms", "service.boot_s",
)


@dataclass(frozen=True)
class ServiceShape:
    name: str
    row_pes: Tuple[int, ...]
    row_bs: Tuple[int, ...]
    grids: Tuple[Tuple[int, int], ...]
    grid_bs: Tuple[int, ...]
    clients: int = 2


PLAN_SERVICE = ServiceShape(
    name="plan-service",
    row_pes=(16, 32, 64, 128, 256),   # 1D P=512 reduce spends 13 s in the DP alone
    row_bs=(64, 256, 1024),
    grids=((4, 4), (8, 8), (16, 16), (8, 32), (32, 32)),
    grid_bs=(64, 1024),
)


def cold_specs(shape: ServiceShape) -> List[SpecRequest]:
    """The first-seen specs: every (grid, kind, B) once with ``auto`` and
    once with a forced algorithm, forced names taken round-robin over
    the feasible registered ones.  Fixed for every seed."""
    cases = [((1, p), b) for p in shape.row_pes for b in shape.row_bs]
    cases += [(grid, b) for grid in shape.grids for b in shape.grid_bs]
    specs, turn = [], 0
    for (rows, cols), b in cases:
        for kind in KINDS:
            spec = CollectiveSpec(kind, Grid(rows, cols), b)
            entries = entries_for(kind, spec.dims)
            names = sorted(entries)
            for step in range(len(names)):
                name = names[(turn + step) % len(names)]
                if entries[name].feasible(spec.with_algorithm(name)):
                    break
            turn += 1
            specs.append(SpecRequest.from_spec(spec))
            specs.append(SpecRequest.from_spec(spec.with_algorithm(name)))
    return specs


# -- the server ------------------------------------------------------------


class Server:
    """One ``python -m repro.service`` subprocess on an ephemeral port;
    it inherits this process's core affinity."""

    def __init__(self, work, metrics_path: Optional[str] = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC), **SERVER_KNOBS)
        if metrics_path is not None:
            env["REPRO_METRICS"] = metrics_path
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--db", "-"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(work),
        )
        try:
            line = self.proc.stdout.readline()
            if "port=" not in line:
                raise RuntimeError(f"service did not report a port: {line!r}")
            self.port = int(line.split("port=", 1)[1].split()[0])
            ServiceClient(port=self.port).wait_ready(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def stats(self) -> Dict[str, float]:
        return ServiceClient(port=self.port).stats().metrics

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- the closed loop -------------------------------------------------------


@dataclass
class LoopResult:
    wall: float = 0.0
    sent: int = 0
    errors: List[str] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    cached_s: List[float] = field(default_factory=list)
    #: when each good reply arrived, in seconds from the loop's start.
    done_at: List[float] = field(default_factory=list)
    #: first reply per spec, and how many replies each spec got.
    first: Dict[SpecRequest, Tuple[str, float]] = field(default_factory=dict)
    replies: Dict[SpecRequest, int] = field(default_factory=dict)
    #: replies that disagreed with the first reply for their spec.
    inconsistent: int = 0

    @property
    def ok(self) -> int:
        return self.sent - len(self.errors)

    def median_rate(self, bucket_s: float = BUCKET_S) -> float:
        """Replies per second in the median of equal windows of at least
        ``bucket_s`` that tile the loop's wall time."""
        n = max(1, int(self.wall // bucket_s))
        width = self.wall / n
        counts = [0] * n
        for t in self.done_at:
            counts[min(int(t / width), n - 1)] += 1
        return median(counts) / width


def closed_loop(port: int, cold: List[SpecRequest], seed: int,
                seconds: float, clients: int) -> LoopResult:
    order = list(cold)
    random.Random(seed).shuffle(order)
    result = LoopResult()
    lock = threading.Lock()
    seen: List[SpecRequest] = []
    # At most one first-seen spec is in flight, so a slow cold plan
    # blocks one client, never both, whatever order the seed draws.
    state = {"next": 0, "cold_in_flight": False}
    spacing = COLD_WINDOW * seconds / max(len(order), 1)
    started = time.perf_counter()

    def pick(rng: random.Random) -> Tuple[Optional[SpecRequest], bool, bool]:
        """(spec, is_cold, stop) under the lock."""
        now = time.perf_counter() - started
        index = state["next"]
        if index < len(order) and now >= index * spacing and not state["cold_in_flight"]:
            state["next"] = index + 1
            state["cold_in_flight"] = True
            return order[index], True, False
        if now >= seconds and index >= len(order) and not state["cold_in_flight"]:
            return None, False, True
        if seen:
            return rng.choice(seen), False, False
        return None, False, False

    def client(number: int) -> None:
        rng = random.Random(seed * 1000 + number)
        conn = ServiceClient(port=port, timeout=120.0)
        while True:
            with lock:
                spec, is_cold, stop = pick(rng)
            if stop:
                return
            if spec is None:
                time.sleep(0.001)
                continue
            t0 = time.perf_counter()
            try:
                reply = conn.plan(spec)
            except (ServiceError, OSError) as exc:
                with lock:
                    result.sent += 1
                    result.errors.append(f"{spec}: {exc}")
                    if is_cold:
                        state["cold_in_flight"] = False
                continue
            done = time.perf_counter()
            answer = (reply.algorithm, reply.predicted_cycles)
            with lock:
                result.sent += 1
                if is_cold:
                    state["cold_in_flight"] = False
                (result.cold_s if is_cold else result.cached_s).append(done - t0)
                result.done_at.append(done - started)
                if result.first.setdefault(spec, answer) != answer:
                    result.inconsistent += 1
                result.replies[spec] = result.replies.get(spec, 0) + 1
                if is_cold:
                    seen.append(spec)

    threads = [threading.Thread(target=client, args=(n,), daemon=True)
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - started
    return result


def check_against_library(loop: LoopResult, report: Report,
                          clock: Optional[LayerClock] = None) -> None:
    """Every reply must equal library ``plan()``: algorithm and
    ``predicted_cycles`` bit for bit.  Plans each spec cold, in order."""
    report.attempted += loop.sent
    for error in loop.errors:
        report.fail(error)
    if loop.inconsistent:
        report.fail("replies for one spec disagreed", loop.inconsistent)
    clear_planner_state()
    for spec, (algorithm, predicted) in loop.first.items():
        if clock is None:
            built = repro.plan(spec.to_spec())
        else:
            with clock.timing("core"):
                built = repro.plan(spec.to_spec())
        if built.algorithm != algorithm or built.predicted_cycles != predicted:
            report.fail(f"{spec}: service said {algorithm}/{predicted!r}, library "
                        f"{built.algorithm}/{built.predicted_cycles!r}", loop.replies[spec])


# -- the workload ----------------------------------------------------------


def boot_servers(work) -> Tuple[Server, float]:
    """Boot :data:`SETUP_TRIALS` servers, keep the last; median boot."""
    boots, server = [], None
    for _ in range(SETUP_TRIALS):
        if server is not None:
            server.stop()
        server = Server(work)
        boots.append(server.boot_s)
    return server, median(boots)


def run(shape: ServiceShape, seed: int, seconds: float, trace: bool, work) -> Report:
    """Clients and server share one core.  On a core each, every request
    wakes the other core from idle, and how long that takes depends on
    the host's other tenants: throughput spread 20-28 % between runs.
    On one core the loop is bound by the CPU both sides spend, which the
    host normalization tracks.  Left to the scheduler, the two processes
    share and swap cores, and throughput swung by half between runs."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[0]})
        return _run(shape, seed, seconds, trace, work, cpus[0])
    finally:
        os.sched_setaffinity(0, cpus)


def _run(shape, seed, seconds, trace, work, cpu) -> Report:
    report = Report(shape.name, seed, trace)
    report.notes.update(server_knobs=SERVER_KNOBS, cpu=cpu)
    cold = cold_specs(shape)
    with HostSpeed([cpu]).sampling() as host:
        server, boot_s = boot_servers(work)
        try:
            loop = closed_loop(server.port, cold, seed, seconds, shape.clients)
            rss = peak_rss_mb()  # us and the live server
        finally:
            server.stop()
    report.notes.update(requests=loop.sent, cold_samples=len(loop.cold_s),
                        cached_samples=len(loop.cached_s))
    if not trace:
        check_against_library(loop, report)
        scale = host.scale()
        ops = loop.median_rate()
        report.end_to_end.update({
            "setup_s": boot_s * scale,
            "ops_per_s": ops / scale,
            "peak_rss_mb": rss,
        })
        report.notes.update(host_scale=scale, raw_setup_s=boot_s, raw_ops_per_s=ops,
                            raw_mean_ops_per_s=loop.ok / loop.wall)
        return report
    # Traced: the same loop against a server with telemetry armed; the
    # library-side layer times come from planning the cold set in-process.
    clock = LayerClock()
    with clock.patched(LAYER_TARGETS):
        check_against_library(loop, report, clock)
    library = [t for spec in loop.first for t in cached_plans(spec.to_spec())]
    traced_server = Server(work, metrics_path=str(work / "server-metrics.jsonl"))
    try:
        traced = closed_loop(traced_server.port, cold, seed, seconds, shape.clients)
        traced_stats = traced_server.stats()
    finally:
        traced_server.stop()
    check_against_library(traced, report)
    hits = traced_stats.get("plan_cache.hits", 0)
    misses = traced_stats.get("plan_cache.misses", 0)
    report.per_layer.update({
        "core.plan_cold_s": clock.seconds.get("core", 0.0),
        "autogen.dp_s": clock.seconds.get("autogen", 0.0),
        "collectives.build_s": clock.seconds.get("collectives", 0.0),
        "core.plan_hit_ratio": hits / max(hits + misses, 1),
        "plan_cold_p50_ms": 1e3 * median(loop.cold_s),
        "plan_cached_p50_ms": 1e3 * median(loop.cached_s),
        "plan_cached_p99_ms": 1e3 * percentile(loop.cached_s, 99),
        "service.http_overhead_ms": 1e3 * (median(loop.cached_s) - median(library)),
        "service.boot_s": boot_s,
        "service.coalesced": _series_sum(traced_stats, "service.coalesced"),
        "service.rejected": _series_sum(traced_stats, "service.rejected"),
        "obs.overhead_pct": 100.0 * ((loop.ok / loop.wall) / (traced.ok / traced.wall) - 1.0),
    })
    report.require(REQUIRED)
    return report


def _series_sum(snapshot: Dict[str, float], name: str) -> float:
    """Sum of a metric over all its label series in a ``/stats`` snapshot."""
    return float(sum(value for key, value in snapshot.items()
                     if key == name or key.startswith(name + "{")))
