"""Tests of the benchmark itself: tracing arithmetic, checks, inputs, runs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from dataclasses import replace

import checks
import layers
import speed
import workloads
from repro.agreements import complete_structure
from repro.des.queues import WorkQueue
from repro.manager import AllocationGrant
from run import END_TO_END


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7], which holds leaf [5, 6]
    tracer = layers.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 7, 10]))
    leaf = tracer.wrap("leaf", lambda: None)
    inner_calls = iter([lambda: None, leaf])
    inner = tracer.wrap("inner", lambda: next(inner_calls)())

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    spans = tracer.spans
    assert (spans["outer"].calls, spans["outer"].total_s, spans["outer"].self_s) == (1, 10, 5)
    assert (spans["inner"].calls, spans["inner"].total_s, spans["inner"].self_s) == (2, 5, 4)
    assert (spans["leaf"].calls, spans["leaf"].self_s) == (1, 1)
    assert sum(s.self_s for s in spans.values()) == spans["outer"].total_s


def test_installed_wrappers_are_restored():
    original = vars(WorkQueue)["advance"]
    target = (("repro.des.queues", "WorkQueue.advance", "des.advance", None),)
    tracer = layers.Tracer()
    with layers.installed(tracer, target):
        assert vars(WorkQueue)["advance"] is not original
        WorkQueue().advance(1.0, lambda item, start: None)
    assert vars(WorkQueue)["advance"] is original
    assert tracer.spans["des.advance"].calls == 1


def test_host_speed_scales_intervals_and_excludes_probes():
    # One probe at t=0: its LP part takes 13 ms and the whole kernel 20 ms,
    # both twice their reference times, so the host runs at half speed.
    host = speed.HostSpeed(clock=FakeClock([0.0, 0.013, 0.020]))
    host.probe()
    assert host.scale([(5.0, 2.0)], "lp") == [1.0]
    # [-1, 9] holds the 20 ms probe, which is not the program's time.
    assert abs(host.span(-1.0, 9.0, "all") - (10.0 - 0.020) / 2) < 1e-12


def _one_grant():
    client = workloads.Client(complete_structure(10, share=0.1))
    ops = workloads.consult_ops(3, "complete10", stream=1)
    while True:
        op = next(ops)
        amount, reply = client.consult(op)[-1]
        if isinstance(reply, AllocationGrant):
            view = client.bank.topology().view(op.avail)
            return view, client.names[op.requester], amount, reply


def test_checker_accepts_a_real_grant_and_rejects_tampered_ones():
    view, requester, amount, grant = _one_grant()
    assert checks.check_reply(view, requester, amount, grant) == []
    assert checks.check_theta(view, requester, amount, grant.theta) == []

    inflated = replace(grant, takes=tuple((p, t * 1.01) for p, t in grant.takes))
    assert any("sum to" in e for e in checks.check_reply(view, requester, amount, inflated))
    negative = replace(grant, theta=-1.0)
    assert checks.check_reply(view, requester, amount, negative)
    assert checks.check_theta(view, requester, amount, grant.theta + 1.0)


def test_seed_determines_the_inputs():
    def first_ops(seed):
        ops = workloads.consult_ops(seed, "complete10", stream=1)
        return [next(ops) for _ in range(5)]

    def same(a, b):
        return all(
            x.requester == y.requester and x.amount == y.amount and (x.avail == y.avail).all()
            for x, y in zip(a, b)
        )

    assert same(first_ops(1), first_ops(1))
    assert not same(first_ops(1), first_ops(2))


def test_recorded_inputs_fit_their_workloads():
    for name in ("consult", "renegotiate"):
        params = workloads.PARAMS[name]
        requester, excess, avail = workloads.recorded(params.inputs)
        assert avail.shape == (len(excess), params.n) and len(requester) == len(excess)
        # the simulator consults with positive excess and zeroes the requester's own
        assert (excess > 0).all() and (avail >= 0).all()
        assert (avail[range(len(requester)), requester] == 0).all()


TINY = {
    "consult": replace(workloads.PARAMS["consult"], setup_reps=2, block=5),
    "renegotiate": replace(workloads.PARAMS["renegotiate"], setup_reps=1, burst=3),
    # scale 1000: fig06's load profile with 40x fewer, longer requests
    "day": workloads.Params(n=3, setup_reps=1, cold_reps=2, scale=1000.0, warmup_days=0),
}


def test_tiny_run_of_each_workload_completes_and_checks_clean():
    for name, run in workloads.WORKLOADS.items():
        outcome = workloads.finish(run(5, 0.3, TINY[name]))
        assert outcome.errors == [], (name, outcome.errors[:3])
        assert outcome.failed == 0 and outcome.attempted > 0
        assert set(END_TO_END) <= set(outcome.metrics)
        assert all(value > 0 for value, _ in outcome.metrics.values()), name


def test_tiny_traced_run_reports_every_layer():
    tracer = layers.Tracer()
    with layers.installed(tracer):
        outcome = workloads.run_day(5, 0.0, TINY["day"], tracer=tracer, check=False)
    metrics = layers.layer_metrics(
        outcome.setup_trace, outcome.run_trace, outcome.sim_counts, 1.0
    )
    assert metrics["manager.send.calls"][0] == 0
    assert metrics["proxysim.consults"][0] == outcome.info["consults"]
    assert metrics["workload.requests"][0] == outcome.info["requests"]
    assert metrics["des.events"][0] > 0
