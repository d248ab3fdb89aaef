"""Per-layer tracing from outside the program.

The traced run wraps the public callables at each layer boundary of
``repro`` and restores them afterwards; nothing under ``src/`` knows it is
being traced.  Each name is patched *where it is used*: ``allocate_lp`` is
imported by name into the GRM and redirect modules, so both module globals
are replaced, and ``linprog`` is imported inside the LP allocator at call
time, so ``scipy.optimize.linprog`` itself is replaced.  Classes are patched
before the objects that capture bound methods are built (the GRM registers
``self.handle`` with the transport when it attaches).

A span's *self time* is its duration minus the durations of the wrapped
calls nested directly inside it, so the self times of all spans add up to
the traced wall time spent inside wrapped calls.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span bookkeeping for wrapped callables (single-threaded).

    ``clock`` is injectable so the self-time arithmetic can be tested with a
    synthetic clock.  While ``enabled`` is false the wrappers pass calls
    straight through and record nothing (setup and check bookkeeping).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        #: last object or value seen per key, kept across :meth:`reset`
        self.seen: dict[object, object] = {}
        self.enabled = True
        self._nested: list[float] = []  # child time per open span

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(tracer, result, args)`` runs on each successful return, to
        count outcomes at the boundary where they happen.
        """
        stats = self.spans.setdefault(name, SpanStats())
        clock = self.clock
        nested = self._nested

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = nested.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if nested:
                    nested[-1] += elapsed
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` of benchmark work out of the open span's self time."""
        if self._nested:
            self._nested[-1] += seconds

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def reset(self) -> None:
        for stats in self.spans.values():
            stats.calls, stats.total_s, stats.self_s = 0, 0.0, 0.0
        self.counts.clear()

    def snapshot(self) -> tuple[dict[str, SpanStats], dict[str, float]]:
        spans = {k: SpanStats(v.calls, v.total_s, v.self_s) for k, v in self.spans.items()}
        return spans, dict(self.counts)


# -- outcome counters, run on return at the boundary -----------------------------


def _after_send(tracer: Tracer, reply, args) -> None:
    from repro.manager.messages import (
        AllocationDenied,
        AllocationRequestMsg,
        AvailabilityBatch,
    )

    # A consult opens with an availability batch; a request that follows a
    # denial within the same consult is a retry.
    message = args[2]
    if isinstance(message, AvailabilityBatch):
        tracer.seen["denied"] = False
    elif isinstance(message, AllocationRequestMsg):
        tracer.count("requests")
        if tracer.seen.get("denied"):
            tracer.count("retries")
        denied = isinstance(reply, AllocationDenied)
        tracer.count("denied", float(denied))
        tracer.seen["denied"] = denied


def _after_handle(tracer: Tracer, reply, args) -> None:
    tracer.peak("open_grants_max", args[0].open_grants())


def _after_topology(tracer: Tracer, topology, args) -> None:
    # A rebuild is seen from outside as a new object for the same bank.
    key = ("topology", id(args[0]))
    if tracer.seen.get(key) is not topology:
        tracer.count("rebuilds")
        tracer.seen[key] = topology


def _after_linprog(tracer: Tracer, res, args) -> None:
    tracer.count("lp_iterations", int(getattr(res, "nit", 0) or 0))


def _after_engine_run(tracer: Tracer, result, args) -> None:
    engine = args[0]
    key = ("engine", id(engine))
    tracer.count("des_events", engine.events_processed - tracer.seen.get(key, 0))
    tracer.seen[key] = engine.events_processed


def _after_generate(tracer: Tracer, streams, args) -> None:
    tracer.count("requests_generated", sum(len(s) for s in streams))


#: (module, attribute path, span name, outcome counter)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.manager.transport", "InProcessTransport.send", "manager.send", _after_send),
    ("repro.manager.grm", "GlobalResourceManager.handle", "manager.grm", _after_handle),
    ("repro.economy.bank", "Bank.topology", "economy.topology", _after_topology),
    ("repro.agreements.topology", "AgreementTopology.coefficients",
     "agreements.coefficients", None),
    ("repro.agreements.topology", "AgreementTopology.view", "agreements.view", None),
    ("repro.agreements.topology", "CapacityView.capacities", "agreements.capacities", None),
    ("repro.manager.grm", "allocate_lp", "allocation.allocate_lp", None),
    ("repro.proxysim.redirect", "allocate_lp", "allocation.allocate_lp", None),
    ("scipy.optimize", "linprog", "lp.linprog", _after_linprog),
    ("repro.proxysim.redirect", "LPPolicy.plan", "proxysim.plan", None),
    ("repro.des.engine", "Engine.run", "des.run", _after_engine_run),
    ("repro.des.queues", "WorkQueue.advance", "des.advance", None),
    ("repro.workload.generator", "generate_streams", "workload.generate", _after_generate),
)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Patch every target with a span wrapper; restore all on exit."""
    saved = []
    try:
        for module_name, path, name, after in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # Read the raw attribute so a method is restored as the plain
            # function it was, not as a bound method.
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, after))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(
    setup: tuple[dict[str, SpanStats], dict[str, float]],
    run: tuple[dict[str, SpanStats], dict[str, float]],
    sim_counts: dict[str, float],
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, ``name -> (value, unit)``.

    Everything comes from the measured phase except the workload layer,
    whose stream generation happens in set-up.
    """
    spans, counts = run
    setup_spans, setup_counts = setup

    def calls(name):
        return (float(spans[name].calls), "count")

    def self_ms(name):
        return (spans[name].self_s * 1e3, "ms")

    requests = counts.get("requests", 0.0)
    first_requests = requests - counts.get("retries", 0.0)
    return {
        "manager.send.calls": calls("manager.send"),
        "manager.send.self_ms": self_ms("manager.send"),
        "manager.grm.self_ms": self_ms("manager.grm"),
        "manager.denied_frac": (counts.get("denied", 0.0) / requests if requests else 0.0,
                                "ratio"),
        "manager.retry_frac": (counts.get("retries", 0.0) / first_requests
                               if first_requests else 0.0, "ratio"),
        "manager.open_grants_max": (counts.get("open_grants_max", 0.0), "count"),
        "economy.topology.calls": calls("economy.topology"),
        "economy.topology.self_ms": self_ms("economy.topology"),
        "economy.topology.rebuilds": (counts.get("rebuilds", 0.0), "count"),
        "agreements.coefficients.calls": calls("agreements.coefficients"),
        "agreements.coefficients.self_ms": self_ms("agreements.coefficients"),
        "agreements.view.self_ms": self_ms("agreements.view"),
        "agreements.capacities.self_ms": self_ms("agreements.capacities"),
        "allocation.allocate_lp.calls": calls("allocation.allocate_lp"),
        "allocation.allocate_lp.self_ms": self_ms("allocation.allocate_lp"),
        "lp.linprog.calls": calls("lp.linprog"),
        "lp.linprog.self_ms": self_ms("lp.linprog"),
        "lp.iterations": (counts.get("lp_iterations", 0.0), "count"),
        "proxysim.plan.self_ms": self_ms("proxysim.plan"),
        "proxysim.consults": (sim_counts.get("consults", 0.0), "count"),
        "proxysim.redirected": (sim_counts.get("redirected", 0.0), "count"),
        "des.run.self_ms": self_ms("des.run"),
        "des.advance.self_ms": self_ms("des.advance"),
        "des.events": (counts.get("des_events", 0.0), "count"),
        "workload.generate.ms": (setup_spans["workload.generate"].total_s * 1e3, "ms"),
        "workload.requests": (setup_counts.get("requests_generated", 0.0), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


#: layer groups whose summed self time is compared for the dominant layer
GROUPS = {
    "manager": ("manager.send", "manager.grm"),
    "economy": ("economy.topology",),
    "agreements.coefficients": ("agreements.coefficients",),
    "agreements.view+capacities": ("agreements.view", "agreements.capacities"),
    "allocation+lp": ("allocation.allocate_lp", "lp.linprog"),
    "proxysim": ("proxysim.plan",),
    "des": ("des.run", "des.advance"),
}


def group_shares(spans: dict[str, SpanStats]) -> dict[str, float]:
    """Each group's share of the self time recorded in all wrapped calls."""
    selfs = {g: sum(spans[s].self_s for s in names) for g, names in GROUPS.items()}
    total = sum(selfs.values())
    return {g: (v / total if total else 0.0) for g, v in selfs.items()}
