"""Shared pieces of the ledger: environment hygiene, the metric
registry, statistics, process memory, host fingerprint, per-layer
self-time accounting and the run report."""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".ledger_tmp"

#: Workloads, metrics, units and bounds, as the driver reads them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

#: End-to-end metrics, printed by every untraced run: name -> unit.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

#: Per-layer metrics, printed by every traced run: name -> unit.  A
#: layer a workload does not exercise reads 0; the layers it does
#: exercise are listed in :meth:`Report.require`'s callers.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Times each set-up step is repeated; ``setup_s`` reports the median.
SETUP_TRIALS = 3


class MissingProgram(RuntimeError):
    """The checkout holds no library to benchmark."""


# -- environment -----------------------------------------------------------


def prepare_environment() -> Tuple[Dict[str, str], Path]:
    """Clear every ``REPRO_*`` knob and keep caches inside the checkout.

    Returns the knobs found (for the record) and a fresh work directory
    under the checkout that holds the TuneDB cache root and every temp
    file this process or its children make.
    """
    cleared = {key: os.environ.pop(key)
               for key in sorted(os.environ) if key.startswith("REPRO_")}
    work = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    return cleared, work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # other runs' directories, or already gone


def import_repro() -> float:
    """Import the library from ``src/`` of this checkout; returns seconds."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro
    elapsed = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"repro imported from {repro.__file__}, not {package}")
    return elapsed


# -- statistics ------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- processes and host ----------------------------------------------------


def _status_kb(pid: int, key: str) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def descendants() -> List[int]:
    """Pids of every live process descending from this one."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb() -> float:
    """High-water resident memory of this process and its live
    descendants, summed, in MiB."""
    pids = {os.getpid(), *descendants()}
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants, so a
    process whose parent ends first (a tracker a pool worker started,
    say) is still this process's to wait for."""
    import ctypes

    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux; stop_children still ends the direct children


def start_resource_tracker() -> None:
    """Start multiprocessing's resource tracker here, before a pool
    forks, so every worker reports its shared-memory segments to this
    one tracker instead of starting its own that outlives it."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait for each to end.

    The resource tracker is told to end by closing its pipe, as
    multiprocessing does at exit; it ends once no process holds the
    pipe.  Anything still alive is sent SIGTERM, which the tracker
    ignores, then SIGKILL once ``grace_s`` has passed; every child,
    orphans adopted by :func:`adopt_orphans` included, is reaped.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_s
    sig = signal.SIGTERM
    while True:
        _reap()
        alive = [pid for pid in descendants() if not _is_zombie(pid)]
        if not alive and not descendants():
            return
        for pid in alive:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        time.sleep(0.05)


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True  # gone


def host_fingerprint() -> Dict[str, Any]:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


class HostSpeed:
    """How fast the host runs right now, from a fixed reference loop.

    On a shared host the same code runs up to ~1.8x slower for minutes
    at a time while neighbours load the machine.  While a measurement
    runs, a sampler thread times a fixed loop — small numpy operations
    plus Python arithmetic, like the simulator's inner loop, calling no
    library code — every :data:`PERIOD_S` in thread CPU time, which
    waiting for a core or for the interpreter lock does not inflate but
    a busy neighbour on the same core does.  :meth:`scale` converts host
    seconds measured in this run to seconds on a host where the loop
    takes :data:`NOMINAL_S`, so a change to the library moves a
    normalized metric and a busy neighbour does not.
    """

    #: Reference-loop CPU seconds that define the nominal host.
    NOMINAL_S = 1.5e-3
    #: Seconds between samples (the loop itself takes ~2 ms).
    PERIOD_S = 0.2

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        import numpy as np

        self._rows = np.random.default_rng(0).normal(size=(64, 256))
        #: cores the sampler visits in turn, since neighbours load each
        #: core differently; default: every core this process may use.
        self.cpus = sorted(cpus or os.sched_getaffinity(0))
        self.samples: List[float] = []

    def sample(self) -> None:
        rows = self._rows
        started = time.thread_time()
        total = 0.0
        for i in range(300):
            total += float((rows[i % 64] * 1.0001 + 1.0).sum())
        self.samples.append(time.thread_time() - started)

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Sample in a background thread for the duration of the block."""
        stop = threading.Event()

        def loop() -> None:
            turn = 0
            while True:
                # Pins this sampler thread only, one core per sample.
                os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
                self.sample()
                turn += 1
                if stop.wait(self.PERIOD_S):
                    return

        thread = threading.Thread(target=loop, name="ledger-host-speed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def scale(self) -> float:
        """Nominal seconds per host second measured in this run."""
        return self.NOMINAL_S / mean(self.samples)


# -- per-layer self time ---------------------------------------------------


class LayerClock:
    """Seconds spent in calls into each layer, exclusive of nested layers.

    :meth:`patched` wraps named public functions of the library for the
    duration of a block; :meth:`timing` times one explicit call.  A
    layer's bucket receives the call's duration minus the part spent in
    nested timed calls, so the buckets of one top-level call add up to
    its wall time.  Single-threaded use only.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._nested: List[float] = []

    @contextmanager
    def timing(self, bucket: str) -> Iterator[None]:
        self._nested.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            inner = self._nested.pop()
            self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed - inner
            if self._nested:
                self._nested[-1] += elapsed

    @contextmanager
    def patched(self, targets: Sequence[Tuple[Any, str, str]]) -> Iterator["LayerClock"]:
        """Wrap ``getattr(module, name)`` as ``bucket`` for each target."""
        originals = []
        try:
            for module, name, bucket in targets:
                original = getattr(module, name)
                originals.append((module, name, original))
                setattr(module, name, self._wrap(original, bucket))
            yield self
        finally:
            for module, name, original in reversed(originals):
                setattr(module, name, original)

    def _wrap(self, fn, bucket: str):
        def timed(*args, **kwargs):
            with self.timing(bucket):
                return fn(*args, **kwargs)
        return timed


# -- the report ------------------------------------------------------------


@dataclass
class Report:
    """What one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: deterministic results (simulated cycles, model error, regret),
    #: filled on traced and untraced runs alike.
    quality: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def require(self, names: Sequence[str]) -> None:
        """Count a failure for each named per-layer metric that is
        missing or not above 0, so that a span or counter renamed in the
        library cannot read as a perfect improvement."""
        values = {**self.quality, **self.per_layer}
        for name in names:
            if not values.get(name, 0.0) > 0:
                self.fail(f"per-layer metric {name} was not measured")

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """The metrics this run prints: per-layer when traced, else
        end-to-end.  Every registered name appears."""
        if self.trace:
            values = {**self.quality, **self.per_layer}
            values["fail_ratio"] = self.failed / max(self.attempted, 1)
            return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in PER_LAYER.items()}
        missing = sorted(set(END_TO_END) - set(self.end_to_end))
        if missing:
            raise RuntimeError(f"{self.workload}: unmeasured metrics {missing}")
        return {name: {"value": float(self.end_to_end[name]), "unit": unit}
                for name, unit in END_TO_END.items()}

    def verdict(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": self.metrics(),
        }
