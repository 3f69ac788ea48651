"""Per-layer ledger for the benchmark's traced runs.

The ledger wraps public functions of each ``repro.<package>`` layer
from the outside - nothing under ``src/`` knows about it:

* **spans** around coarse calls (a strategy run, a sweep cell, a cache
  read, a service request, one ``parallel_for``): name, start, end and
  the enclosing span, kept in memory and written out when the op ends;
* **counters** on fine-grained calls (RAPL deposits, MSR reads, OMPT
  dispatches, RNG constructions), which are too many to span;
* **self time** per layer from a sampling profiler: a ``SIGPROF``
  timer interrupts the main thread every millisecond of process CPU
  time and charges the CPU time since the previous sample to the layer
  of the innermost ``repro`` frame on the stack.  Time in code outside
  ``repro`` (numpy, the standard library, dataclass-generated methods)
  thus goes to the ``repro`` layer that called it.  Unlike cProfile,
  which tripled the replay op and inflated the layers with the most
  calls, sampling costs about 1% and leaves the split as it is.

Sweep cells run in the same process (the benchmark's sweep has one
worker); :func:`traced_task` puts each under a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import signal
import sys
import time
from collections import defaultdict

#: (module, qualified name, span name): calls timed as spans.
SPANS = (
    ("repro.experiments.runner", "run_strategy", "run.strategy"),
    ("repro.workloads.base", "run_application", "workloads.run"),
    ("repro.openmp.runtime", "OpenMPRuntime.parallel_for",
     "openmp.parallel_for"),
    ("repro.experiments.parallel", "ParallelSweepExecutor.run",
     "experiments.executor"),
    ("repro.experiments.cache", "ExperimentCache.get",
     "experiments.cache.read"),
    ("repro.experiments.cache", "ExperimentCache.put",
     "experiments.cache.write"),
    ("repro.experiments.journal", "SweepJournal.append",
     "experiments.journal.append"),
    ("repro.service.client", "ServiceClient.request", "service.request"),
    ("repro.service.daemon", "ThreadedDaemon.stop", "service.stop"),
)

#: (module, qualified name, counter name): calls only counted.
COUNTS = (
    ("repro.openmp.ompt", "OmptInterface.dispatch",
     "openmp.ompt.dispatches"),
    ("repro.machine.rapl", "Rapl.deposit_energy", "machine.rapl.deposits"),
    ("repro.machine.msr", "MsrFile.read", "machine.msr.reads"),
    ("repro.machine.msr", "MsrFile.bump_counter", "machine.msr.bumps"),
    ("repro.apex.policy", "PolicyEngine.timer_started", "apex.callbacks"),
    ("repro.apex.policy", "PolicyEngine.timer_stopped", "apex.callbacks"),
    ("repro.openmp.runtime", "OpenMPRuntime.omp_set_num_threads",
     "core.config_changes"),
    ("repro.openmp.runtime", "OpenMPRuntime.omp_set_schedule",
     "core.config_changes"),
    ("repro.openmp.runtime", "OpenMPRuntime.set_frequency_limit",
     "core.config_changes"),
    ("repro.util.rng", "rng_for", "util.rng.generators"),
    ("repro.experiments.parallel", "ParallelSweepExecutor._attempt_fn",
     "experiments.attempts"),
    ("repro.service.client", "ServiceClient._attempt", "service.attempts"),
)

#: seconds of process CPU time between profiler samples.
SAMPLE_INTERVAL_S = 0.001


class Ledger:
    """Counters and spans of one process, plus grouped self time."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        #: ``[name, start, end, parent index]``; -1 = no parent.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.harmony_points: set = set()

    # ------------------------------------------------------------------
    def span_wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside one span named ``name``."""
        return self.span_wrapper(name, fn)(*args)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def sampled(self, fn, *args):
        """Call ``fn(*args)`` under the sampling profiler, adding the
        self time per layer to the ledger."""
        sampler = Sampler(self.self_s)
        sampler.start()
        try:
            return fn(*args)
        finally:
            sampler.stop()

#: the ledger :func:`install` activated in this process.
ACTIVE: Ledger | None = None


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module-level binding of a function at its
    wrapper (``from x import f`` copies the reference)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch(owner, attr: str, make) -> None:
    original = inspect.getattr_static(owner, attr)
    wrapper = make(original)
    if inspect.isclass(owner):
        setattr(owner, attr, wrapper)
    else:
        _rebind(original, wrapper)


def install(ledger: Ledger) -> None:
    """Wrap the instrumented calls of every layer so they feed
    ``ledger``.  Call once per process, before the workload runs."""
    global ACTIVE
    ACTIVE = ledger
    for module_name, qualname, name in SPANS:
        owner, attr = _resolve(module_name, qualname)
        _patch(owner, attr, functools.partial(ledger.span_wrapper, name))
    for module_name, qualname, name in COUNTS:
        owner, attr = _resolve(module_name, qualname)
        _patch(owner, attr, functools.partial(ledger.count_wrapper, name))
    _install_special(ledger)


def _install_special(ledger: Ledger) -> None:
    """Wrappers that look at arguments or results."""
    counts = ledger.counts
    from repro.harmony.session import TuningSession
    from repro.machine.rapl import Rapl, RaplReadError
    from repro.openmp.batch import BatchEvaluator
    from repro.openmp import schedule
    from repro.service.client import ServiceClient

    def chunks(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["openmp.schedule.chunks"] += len(result)
            return result
        return wrapper

    def rows(fn):
        spanned = ledger.span_wrapper("openmp.batch", fn)

        @functools.wraps(fn)
        def wrapper(self, region, configs):
            counts["openmp.batch.rows"] += len(configs)
            return spanned(self, region, configs)
        return wrapper

    def report(fn):
        # a probe is a report for an outstanding candidate: one region
        # execution measured under a configuration the search proposed
        @functools.wraps(fn)
        def wrapper(self, value):
            point = self._outstanding
            accepted = fn(self, value)
            if point is not None:
                counts["harmony.probes"] += 1
                if accepted:
                    ledger.harmony_points.add((self.name, tuple(point)))
                else:
                    counts["harmony.rejected"] += 1
            return accepted
        return wrapper

    def read(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RaplReadError:
                counts["machine.rapl.read_errors"] += 1
                raise
        return wrapper

    def get(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = fn(*args, **kwargs)
            counts["service.gets"] += 1
            counts["service.get_hits"] += payload is not None
            return payload
        return wrapper

    _patch(schedule, "chunks_for", chunks)
    _patch(BatchEvaluator, "evaluate", rows)
    _patch(TuningSession, "report", report)
    _patch(Rapl, "read_package_energy_j", read)
    _patch(Rapl, "read_dram_energy_j", read)
    _patch(ServiceClient, "get", get)


def traced_task(task):
    """Sweep task function for traced runs: one cell under a span (the
    profiler of the op already covers it)."""
    from repro.experiments.parallel import run_sweep_task

    return ACTIVE.span("experiments.cell", run_sweep_task, task)


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------
def layer_of(filename: str) -> str | None:
    """The ledger layer of a source file, or None outside ``repro``.

    ``openmp`` splits into ``schedule``, ``engine``, ``batch`` and
    ``runtime`` (every other openmp module: OMPT, regions, records);
    ``util.rng`` stands apart from the rest of ``util``."""
    path = filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut < 0 or not path.endswith(".py"):
        return None
    parts = path[cut + len("/repro/"):-3].split("/")
    if parts[0] == "openmp" and len(parts) > 1:
        sub = parts[1] if parts[1] in ("schedule", "engine", "batch") \
            else "runtime"
        return f"openmp.{sub}"
    if parts[:2] == ["util", "rng"]:
        return "util.rng"
    return parts[0]


class Sampler:
    """``SIGPROF`` sampling of the main thread."""

    def __init__(self, self_s: dict[str, float]) -> None:
        self.self_s = self_s
        self._layers: dict[str, str | None] = {}
        self._last = 0.0

    def start(self) -> None:
        self._last = time.process_time()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # a sample already pending must not hit the default action,
        # which terminates the process
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _tick(self, _signum, frame) -> None:
        now = time.process_time()
        spent = now - self._last
        self._last = now
        layers = self._layers
        layer = None
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = layers[filename]
            except KeyError:
                layer = layers[filename] = layer_of(filename)
            if layer is not None:
                break
            frame = frame.f_back
        self.self_s[layer or "external"] += spent
