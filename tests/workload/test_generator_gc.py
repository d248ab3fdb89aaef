"""The stream build pauses the cyclic collector and always restores it.

``RequestStream.sample`` builds its request list with the collector
paused (the tuples cannot form cycles); these tests pin that the result
is still a list of ordinary :class:`Request` objects and that the
caller's collector state survives the call, including when it raises.
"""

import gc

import numpy as np
import pytest

from repro.workload import DiurnalProfile, Request, RequestStream
from repro.workload.sizes import SizeDistribution

PROFILE = DiurnalProfile(requests_per_day=86_400.0)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run the test with the collector on, then off; restore it afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def sample(sizes=None, origin=3):
    stream = RequestStream(PROFILE, sizes=sizes, horizon=3600.0, origin=origin)
    return stream.sample(np.random.default_rng(7))


class RaisingSizes(SizeDistribution):
    def sample(self, rng, n):
        raise RuntimeError("size sampler failed")


class Column:
    """A length column whose values run out halfway through the build."""

    def __init__(self, n, seen):
        self.n = n
        self.seen = seen

    def tolist(self):
        for _ in range(self.n // 2):
            self.seen.append(gc.isenabled())
            yield 1.0
        raise RuntimeError("length column failed")


class FailingColumnSizes(SizeDistribution):
    def __init__(self):
        self.seen = []

    def sample(self, rng, n):
        return Column(n, self.seen)


def test_sample_returns_requests():
    requests = sample()
    assert requests
    for r in requests:
        assert type(r) is Request
        assert r.origin == 3
        assert r == (r.arrival, r.length, r.origin)
    first = requests[0]
    assert 0.0 <= first.arrival <= 3600.0
    assert first.length > 0.0
    assert first._replace(origin=5) == Request(first.arrival, first.length, 5)


def test_collector_state_unchanged(gc_state):
    sample()
    assert gc.isenabled() is gc_state


def test_collector_state_unchanged_when_sizes_raise(gc_state):
    with pytest.raises(RuntimeError, match="size sampler"):
        sample(RaisingSizes())
    assert gc.isenabled() is gc_state


def test_collector_restored_when_build_raises(gc_state):
    sizes = FailingColumnSizes()
    with pytest.raises(RuntimeError, match="length column"):
        sample(sizes)
    assert sizes.seen and not any(sizes.seen)  # paused during the build
    assert gc.isenabled() is gc_state
