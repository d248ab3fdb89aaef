"""The benchmark's three workloads, driven through ``repro``'s public API.

``consult``
    The GRM message path on fig06's structure (10 ISPs, complete graph, 10%
    shares) with stable agreements.  One closed-loop client, a real
    ``ManagerPolicy``: each operation is its ``plan`` (an availability batch
    plus an allocation request, and a re-request of the quoted availability
    after a denial), then the release of the grant issued ``KEEP_OPEN``
    operations earlier.  The LP dominates; the topology cache always hits.
``renegotiate``
    The same client on ``distance_decay_structure(12)``.  Each round makes
    one agreement change on the bank, then a burst of consults; the first
    consult after each change pays a full transitive-coefficient rebuild.
``day``
    One fig06 configuration (``base_config(25)``, gap 3600 s, ``scheme="lp"``):
    a warm-up day plus a measured day of the proxy simulation, consulting
    ``LPPolicy`` directly, so the manager layer is not on its path.

The consults of the GRM workloads are drawn, by the ``seed`` argument, from
consults recorded on real simulated days (``record_consults.py``,
``inputs/``); a seeded ``OVERSIZED_FRACTION`` of them ask for more than is
available, which no recorded consult does, so that the denial path runs.
Every other input also comes from the seed.  Each workload returns an
:class:`Outcome`; checks on it run after the timed region.

The client releases its grants, so the GRM's open-grant table stays
bounded.  ``ManagerPolicy.plan`` itself sends no ``ReleaseMsg``, so a GRM
driven by it alone keeps one open grant per grant ever issued.  That leak
is recorded here, not fixed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

import checks
from speed import HostSpeed
from repro.agreements import AgreementTopology, complete_structure, distance_decay_structure
from repro.economy import TicketKind
from repro.errors import ReproError
from repro.experiments.common import base_config
from repro.manager import AllocationGrant, AllocationRequestMsg, ReleaseMsg
from repro.manager.messages import AllocationDenied
from repro.proxysim import LPPolicy, ProxySimulation
from repro.proxysim.manager_bridge import ManagerPolicy
from repro.workload import generator

clock = time.perf_counter

#: recorded consults of real simulated days, one file per structure
INPUTS = Path(__file__).resolve().parent / "inputs"
#: share of requests larger than everything available, so the GRM denies
#: (synthetic: no recorded consult is denied)
OVERSIZED_FRACTION = 0.05
#: grants the client keeps open before releasing the oldest
KEEP_OPEN = 8
#: grants per run whose theta is re-solved with the faithful simplex
THETA_SAMPLE = 12
#: consults per slot for the tail latency
P99_SLOT = 250


@dataclass(frozen=True)
class Params:
    """A workload's fixed parameters; the command line only sets the seed."""

    n: int
    inputs: str = ""  # the GRM workloads' recorded consults (``INPUTS/<inputs>.csv``)
    setup_reps: int = 3
    cold_reps: int = 25  # day: agreement definitions timed to their first grant
    block: int = 500  # consults per slot of the GRM workloads
    burst: int = 10  # consults per renegotiation round
    scale: float = 25.0
    share: float = 0.1
    gap: float = 3600.0
    warmup_days: int = 1
    measure_days: int = 1


PARAMS = {
    "consult": Params(n=10, inputs="complete10", setup_reps=25),
    "renegotiate": Params(n=12, inputs="decay12", setup_reps=3, block=100),
    "day": Params(n=10, setup_reps=3),
}


@dataclass
class Outcome:
    """What one run of a workload measured and produced."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    errors: list[str]
    #: the amount of work measured, so a traced run can replay exactly it
    work: int
    #: host seconds of the measured work (the traced/untraced ratio's base)
    busy_s: float
    info: dict = field(default_factory=dict)
    setup_trace: tuple | None = None
    run_trace: tuple | None = None
    sim_counts: dict = field(default_factory=dict)


@contextmanager
def _paused(tracer):
    """Record nothing while the benchmark does its own bookkeeping."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _slots(values: list, size: int) -> list[list]:
    """Consecutive whole slots of ``size`` values; a short run is one slot."""
    slots = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    return slots or [values]


def _latency_metrics(latencies, busy_s: float) -> dict[str, tuple[float, str]]:
    # Host stalls of a few milliseconds come in bursts and set whichever
    # slots they hit; the median of per-slot p99s keeps them from setting
    # the run's tail.  Small slots give enough slots (about 20 per run) for
    # that median to hold still across runs: with slots of 1000 consults it
    # spread 15-20% from run to run, with 250 about 5%.
    p99s = [_pct(slot, 99) for slot in _slots(latencies, P99_SLOT)]
    return {
        "consult_per_s": (len(latencies) / busy_s, "1/s"),
        "consult_p50_ms": (_pct(latencies, 50) * 1e3, "ms"),
        "consult_p99_ms": (statistics.median(p99s) * 1e3, "ms"),
    }


def _change_metrics(samples) -> dict[str, tuple[float, str]]:
    return {
        "change_to_grant_p50_ms": (_pct(samples, 50) * 1e3, "ms"),
        "change_to_grant_p90_ms": (_pct(samples, 90) * 1e3, "ms"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- GRM workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One consult's inputs: who asks, for how much, at which availability."""

    requester: int
    avail: np.ndarray
    amount: float


@cache
def recorded(name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A recording's ``(requester, excess, avail)`` columns, read-only."""
    table = np.loadtxt(INPUTS / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
    columns = (table[:, 0].astype(int), table[:, 1], table[:, 2:])
    for column in columns:
        column.flags.writeable = False
    return columns


def consult_ops(seed: int, inputs: str, stream: int) -> Iterator[Op]:
    """An endless, seeded sequence of consult inputs.

    Each is a recorded consult drawn at random; an ``OVERSIZED_FRACTION``
    of them ask for 1.5-3x the total availability instead of the recorded
    excess, so the GRM denies them and the client re-requests what was
    quoted.
    """
    requester, excess, avail = recorded(inputs)
    rng = np.random.default_rng([seed, stream])
    chunk = 256
    while True:
        rows = rng.integers(0, len(excess), chunk)
        amount = excess[rows].copy()
        oversized = rng.random(chunk) < OVERSIZED_FRACTION
        amount[oversized] = avail[rows[oversized]].sum(axis=1) * rng.uniform(
            1.5, 3.0, int(oversized.sum())
        )
        for row, value in zip(rows.tolist(), amount.tolist()):
            yield Op(int(requester[row]), avail[row], value)


class Client:
    """The proxy scheduler's GRM client: a real ``ManagerPolicy``, one consult
    at a time, plus the grant releases it does not send itself.

    The policy's transport ``send`` is shadowed on the instance to record
    the reply to each allocation request for the checks; it looks the
    class's ``send`` up at call time, so a traced run's wrapper is used.
    """

    def __init__(self, structure):
        self.policy = ManagerPolicy(structure)
        self.names = self.policy.principals
        self.bank = self.policy.bank
        self.grm = self.policy.grm
        self._answers: list[tuple[float, object]] = []
        self._open: deque[int] = deque()
        transport = self.policy.transport

        def send(dest, message):
            reply = type(transport).send(transport, dest, message)
            if isinstance(message, AllocationRequestMsg):
                self._answers.append((message.amount, reply))
            return reply

        transport.send = send

    def consult(self, op: Op) -> list[tuple[float, object]]:
        """Run one operation; returns the ``(amount, reply)`` of each request."""
        self._answers = []
        self.policy.plan(op.requester, op.amount, op.avail)
        answers = self._answers
        reply = answers[-1][1]
        if isinstance(reply, AllocationGrant):
            self._open.append(reply.msg_id)
            if len(self._open) > KEEP_OPEN:
                name = self.names[op.requester]
                self.policy.transport.send(
                    "grm", ReleaseMsg(sender=name, grant_id=self._open.popleft())
                )
        return answers


def _granted(answers) -> bool:
    return isinstance(answers[-1][1], AllocationGrant)


def _phase(tracer):
    """The tracer's record of the phase just ended; the next starts afresh."""
    if tracer is None:
        return None
    snapshot = tracer.snapshot()
    tracer.reset()
    return snapshot


def _setup_client(structure_fn, seed, params, tracer, speed):
    """Build the GRM ``setup_reps`` times; keep the last one.

    Each set-up ends with the first grant under the freshly defined
    agreements, which pays the cold coefficient build; the time from the
    built bank to that grant is the set-up's change-to-grant sample.
    """
    setups, cold = [], []
    for _ in range(params.setup_reps):
        if tracer is not None:
            tracer.reset()
        gc.collect()
        speed.probe()
        start = clock()
        client = Client(structure_fn())
        built = clock()
        warmup = consult_ops(seed, params.inputs, stream=0)
        while not _granted(client.consult(next(warmup))):
            pass
        done = clock()
        setups.append((start, done - start))
        cold.append((built, done - built))
    speed.probe()
    return client, setups, cold


def _timed_consult(client, ops, intervals, records, failures):
    """One timed operation; errors raised by the program count as failures."""
    op = next(ops)
    start = clock()
    try:
        answers = client.consult(op)
    except ReproError as exc:
        intervals.append((start, clock() - start))
        failures.append(f"operation failed: {exc!r}")
        return None
    intervals.append((start, clock() - start))
    records.append((op, answers))
    return answers


def _check_answers(view, op: Op, answers, names) -> list[str]:
    errors = []
    for amount, reply in answers:
        errors += checks.check_reply(view, names[op.requester], amount, reply)
    return errors


def _grants(view, op, answers):
    amount, reply = answers[-1]
    return [(view, op, amount, reply)] if isinstance(reply, AllocationGrant) else []


def _theta_sample(seed: int, granted: list, names) -> list[str]:
    """Re-solve a seeded sample of grants with the faithful simplex."""
    rng = np.random.default_rng([seed, 99])
    picks = rng.choice(len(granted), min(THETA_SAMPLE, len(granted)), replace=False)
    errors = []
    for k in sorted(picks):
        view, op, amount, reply = granted[k]
        errors += checks.check_theta(view, names[op.requester], amount, reply.theta)
    return errors


def run_consult(seed, seconds, params=PARAMS["consult"], tracer=None, work=None, check=True):
    speed = HostSpeed()
    client, setups, cold = _setup_client(
        lambda: complete_structure(params.n, share=params.share), seed, params, tracer, speed
    )
    setup_trace = _phase(tracer)

    ops = consult_ops(seed, params.inputs, stream=1)
    intervals, records, failures = [], [], []
    gc.collect()
    start = clock()
    while (clock() - start < seconds) if work is None else (len(intervals) < work):
        speed.maybe_probe()
        _timed_consult(client, ops, intervals, records, failures)
    speed.probe()
    run_trace = _phase(tracer)

    latencies = speed.scale(intervals, "lp")
    busy = sum(latencies)
    blocks = _slots(latencies, params.block)
    metrics = {
        "setup_s": (statistics.median(speed.scale(setups, "all")), "s"),
        **_latency_metrics(latencies, busy),
        **_change_metrics(speed.scale(cold, "all")),
        "run_wall_s": (statistics.median(sum(b) for b in blocks), "s"),
        "mean_wait_s": (statistics.fmean(latencies), "s"),
        "worst_slot_wait_s": (max(statistics.fmean(b) for b in blocks), "s"),
    }

    errors = list(failures)
    if check:
        view_of = client.bank.topology().view
        granted = []
        for op, answers in records:
            view = view_of(op.avail)
            errors += _check_answers(view, op, answers, client.names)
            granted += _grants(view, op, answers)
        errors += _theta_sample(seed, granted, client.names)
    denials = sum(
        isinstance(reply, AllocationDenied) for _, answers in records for _, reply in answers
    )
    return Outcome(
        metrics=metrics,
        attempted=len(intervals),
        failed=len(failures),
        errors=errors,
        work=len(intervals),
        busy_s=busy,
        info={"consults": len(intervals), "denials": denials,
              "open_grants_end": client.grm.open_grants(),
              **_raw_info(speed, intervals)},
        setup_trace=setup_trace,
        run_trace=run_trace,
    )


def _raw_info(speed, intervals) -> dict:
    return {
        "kernel_ms": speed.kernel_ms(),
        "raw_consult_p50_ms": _pct([d for _, d in intervals], 50) * 1e3,
    }


class Renegotiation:
    """Seeded agreement changes that keep every row's shares valid.

    Rounds alternate between revoking one relative ticket and issuing a
    replacement worth 50-100% of the original face value, and inflating a
    currency by 1.2-2x (or deflating an inflated one back to its face
    value).  Both only ever lower a share below its original value, so no
    principal shares more than it did at the start.
    """

    def __init__(self, seed: int, bank):
        self.bank = bank
        self.rng = np.random.default_rng([seed, 2])
        self.tickets = {
            (t.issuer, t.backing): t
            for t in bank.tickets
            if t.kind is TicketKind.RELATIVE and not t.revoked
        }
        self.pairs = sorted(self.tickets)
        self.original = {pair: t.face_value for pair, t in self.tickets.items()}
        self.names = bank.principals()
        self.inflated: dict[str, float] = {}
        self.rounds = 0

    def draw(self):
        """Decide the next change (untimed)."""
        self.rounds += 1
        if self.rounds % 2:
            pair = self.pairs[self.rng.integers(len(self.pairs))]
            return ("reissue", pair, self.original[pair] * self.rng.uniform(0.5, 1.0))
        name = self.names[self.rng.integers(len(self.names))]
        factor = self.inflated.get(name)
        return ("inflate", name, 1.0 / factor if factor else self.rng.uniform(1.2, 2.0))

    def apply(self, change) -> None:
        kind, key, value = change
        if kind == "reissue":
            issuer, backing = key
            self.bank.revoke_ticket(self.tickets[key].ticket_id)
            self.tickets[key] = self.bank.issue_relative_ticket(issuer, backing, value)
        else:
            self.bank.inflate_currency(key, value)
            if key in self.inflated:
                del self.inflated[key]
            else:
                self.inflated[key] = value


@dataclass
class _Round:
    mutation: tuple[float, float]  # (start, seconds) of the agreement change
    ops: slice  # the round's consults in the interval list
    records: slice  # ... and in the record list (failed consults have none)
    to_grant: int | None  # consults up to and including the first grant
    topology: object  # the bank's topology read after the first grant
    exported: tuple  # the bank's (principals, V, S, A) right after the change


def run_renegotiate(
    seed, seconds, params=PARAMS["renegotiate"], tracer=None, work=None, check=True
):
    speed = HostSpeed()
    client, setups, _ = _setup_client(
        lambda: distance_decay_structure(params.n), seed, params, tracer, speed
    )
    setup_trace = _phase(tracer)

    bank = client.bank
    changes = Renegotiation(seed, bank)
    ops = consult_ops(seed, params.inputs, stream=1)
    intervals, records, failures, rounds = [], [], [], []
    gc.collect()
    start = clock()
    while (clock() - start < seconds) if work is None else (len(rounds) < work):
        change = changes.draw()
        speed.maybe_probe()
        t0 = clock()
        try:
            changes.apply(change)
        except ReproError as exc:
            failures.append(f"agreement change {change!r} failed: {exc!r}")
        mutation = (t0, clock() - t0)
        with _paused(tracer):
            exported = bank.to_agreement_system()
        first_op, first_record = len(intervals), len(records)
        to_grant = topology = None
        for k in range(params.burst):
            speed.maybe_probe()
            answers = _timed_consult(client, ops, intervals, records, failures)
            if to_grant is None and answers is not None and _granted(answers):
                to_grant = k + 1
                with _paused(tracer):
                    topology = bank.topology()
        if topology is None:
            with _paused(tracer):
                topology = bank.topology()
        rounds.append(_Round(mutation, slice(first_op, len(intervals)),
                             slice(first_record, len(records)), to_grant, topology, exported))
    speed.probe()
    run_trace = _phase(tracer)

    # A round's first consult holds the coefficient rebuild.
    parts = ["lp"] * len(intervals)
    for r in rounds:
        if r.ops.start < r.ops.stop:
            parts[r.ops.start] = "all"
    latencies = [d * speed.factor(t, part) for (t, d), part in zip(intervals, parts)]
    walls, change_to_grant = [], []
    for r in rounds:
        mutation = speed.scale([r.mutation], "all")[0]
        burst = latencies[r.ops]
        walls.append(mutation + sum(burst))
        if r.to_grant is not None:
            change_to_grant.append(mutation + sum(burst[: r.to_grant]))
    busy = sum(walls)
    metrics = {
        "setup_s": (statistics.median(speed.scale(setups, "all")), "s"),
        **_latency_metrics(latencies, busy),
        **_change_metrics(change_to_grant or [0.0]),
        "run_wall_s": (statistics.median(walls), "s"),
        "mean_wait_s": (busy / len(latencies), "s"),
        "worst_slot_wait_s": (
            max(sum(s) / (len(s) * params.burst)
                for s in _slots(walls, params.block // params.burst)), "s"
        ),
    }

    errors = list(failures)
    if len(change_to_grant) < len(rounds):
        errors.append(f"{len(rounds) - len(change_to_grant)} rounds granted nothing")
    if check:
        errors += _check_rounds(seed, client.names, records, rounds)
    return Outcome(
        metrics=metrics,
        attempted=len(intervals) + len(rounds),
        failed=len(failures),
        errors=errors,
        work=len(rounds),
        busy_s=busy,
        info={"rounds": len(rounds), "consults": len(intervals),
              "bank_version_end": bank.version, **_raw_info(speed, intervals)},
        setup_trace=setup_trace,
        run_trace=run_trace,
    )


#: rounds per run whose first grant is re-solved on a topology rebuilt from scratch
FRESH_SAMPLE = 2


def _check_rounds(seed, names, records, rounds) -> list[str]:
    """Per-reply checks on each round's topology, plus the change checks.

    A round is checked on the bank's cached topology, read right after the
    round's first grant.  It must encode the agreements the bank exported
    right after the change, and the first grant must be the LP's answer on
    it, i.e. it was computed at the new ``Bank.version``.  For a seeded few
    rounds the first grant is also re-solved with the faithful simplex on a
    topology rebuilt from the exported matrices.
    """
    errors, granted, firsts = [], [], []
    for r in rounds:
        principals, _, S, A = r.exported
        errors += checks.check_same_agreements(r.topology, principals, S, A)
        round_grants = []
        for op, answers in records[r.records]:
            view = r.topology.view(op.avail)
            errors += _check_answers(view, op, answers, names)
            round_grants += _grants(view, op, answers)
        if round_grants:
            view, op, amount, reply = round_grants[0]
            errors += checks.check_theta(
                view, names[op.requester], amount, reply.theta,
                formulation="reduced", backend="scipy",
            )
            firsts.append((r.exported, round_grants[0]))
        granted += round_grants
    errors += _theta_sample(seed, granted, names)
    rng = np.random.default_rng([seed, 98])
    for k in sorted(rng.choice(len(firsts), min(FRESH_SAMPLE, len(firsts)), replace=False)):
        (principals, _, S, A), (_, op, amount, reply) = firsts[k]
        fresh = AgreementTopology(principals, S, A if np.any(A) else None)
        errors += checks.check_theta(
            fresh.view(op.avail), names[op.requester], amount, reply.theta
        )
    return errors


# -- the case-study day -----------------------------------------------------------------


def _day_config(seed, params):
    return base_config(
        params.scale,
        scheme="lp",
        gap=params.gap,
        seed=seed,
        n_proxies=params.n,
        warmup_days=params.warmup_days,
        measure_days=params.measure_days,
    )


def _observe_service(queue, served: list) -> None:
    """Record every item a queue serves, for the exactly-once check."""
    advance = queue.advance

    def observed(now, on_served):
        def seen(item, start):
            served.append(item)
            on_served(item, start)

        advance(now, seen)

    queue.advance = observed


def _first_grant(structure, cfg) -> None:
    """One direct LP consult; the first on a structure builds its coefficients,
    which the simulation's policy then shares."""
    avail = cfg.capacities() * cfg.lookahead
    avail[0] = 0.0
    LPPolicy(structure, level=cfg.level).plan(0, cfg.lookahead / 2, avail)


def run_day(seed, seconds, params=PARAMS["day"], tracer=None, work=None, check=True):
    """One warm-up plus one measured day; ``seconds`` does not change its length."""
    speed = HostSpeed()
    cfg = _day_config(seed, params)
    # The change-to-grant samples, taken while the heap is still small: a
    # fresh agreement structure each, timed to its first grant, which
    # builds the coefficients.
    cold = []
    for _ in range(params.cold_reps):
        gc.collect()
        speed.probe()
        start = clock()
        _first_grant(complete_structure(cfg.n_proxies, share=params.share), cfg)
        cold.append((start, clock() - start))
    setups = []
    for _ in range(params.setup_reps):
        if tracer is not None:
            tracer.reset()
        sim = streams = None  # free the previous set-up's streams first
        gc.collect()
        speed.probe()
        start = clock()
        streams = generator.generate_streams(
            cfg.n_proxies, cfg.base_profile(), cfg.gap,
            sizes=cfg.sizes, horizon=cfg.horizon, seed=cfg.seed,
        )
        structure = complete_structure(cfg.n_proxies, share=params.share)
        sim = ProxySimulation(cfg, structure, streams=streams)
        _first_grant(structure, cfg)
        setups.append((start, clock() - start))
    speed.probe()
    setup_trace = _phase(tracer)

    served: list = []
    for queue in sim.queues:
        _observe_service(queue, served)
    intervals: list[tuple[float, float]] = []
    plan = sim.policy.plan

    def timed_plan(requester, excess, avail):
        probed = speed.maybe_probe()
        if tracer is not None:
            tracer.exclude(probed)
        t0 = clock()
        try:
            return plan(requester, excess, avail)
        finally:
            intervals.append((t0, clock() - t0))

    sim.policy.plan = timed_plan
    gc.collect()
    start = clock()
    result = sim.run()
    end = clock()
    speed.probe()
    run_trace = _phase(tracer)

    latencies = speed.scale(intervals, "lp")
    metrics = {
        "setup_s": (statistics.median(speed.scale(setups, "all")), "s"),
        **_latency_metrics(latencies, sum(latencies)),
        **_change_metrics(speed.scale(cold, "all")),
        "run_wall_s": (speed.span(start, end, "lp"), "s"),
        "mean_wait_s": (result.overall_mean_wait(), "s"),
        "worst_slot_wait_s": (
            statistics.fmean(result.worst_case_wait(p) for p in range(cfg.n_proxies)), "s"
        ),
    }
    errors = checks.check_day(streams, served, cfg.max_hops) if check else []
    return Outcome(
        metrics=metrics,
        attempted=len(intervals),
        failed=0,
        errors=errors,
        work=1,
        busy_s=metrics["run_wall_s"][0],
        info={"requests": sum(len(s) for s in streams),
              "consults": result.scheduler_consults,
              "redirected": result.total_redirected,
              "worst_slot_wait_isp0_s": result.worst_case_wait(0),
              "raw_run_wall_s": end - start,
              **_raw_info(speed, intervals)},
        setup_trace=setup_trace,
        run_trace=run_trace,
        sim_counts={"consults": result.scheduler_consults,
                    "redirected": result.total_redirected},
    )


WORKLOADS = {"consult": run_consult, "renegotiate": run_renegotiate, "day": run_day}


def finish(outcome: Outcome) -> Outcome:
    outcome.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return outcome
