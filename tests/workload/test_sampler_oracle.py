"""The batched stream sampler against the per-slot reference loop.

``RequestStream.sample`` draws every in-slot offset with one
``rng.random(total)`` call.  The reference below is the straightforward
loop it replaced — one draw per non-empty slot — kept here only as the
oracle: both consume the generator identically and apply the same float
operations, so their streams must agree bit for bit.
"""

import numpy as np
import pytest

from repro.workload import DiurnalProfile, Request, RequestStream, generate_streams
from repro.workload.sizes import HybridSizes


def reference_sample(stream: RequestStream, rng: np.random.Generator) -> list:
    edges = np.arange(0.0, stream.horizon + stream.slot_width, stream.slot_width)
    edges[-1] = min(edges[-1], stream.horizon)
    mids = (edges[:-1] + edges[1:]) / 2.0
    widths = np.diff(edges)
    lam = stream.profile.rate(mids) * widths
    counts = rng.poisson(lam)
    total = int(counts.sum())
    arrivals = np.empty(total)
    pos = 0
    for k, (lo, w) in enumerate(zip(edges[:-1], widths)):
        c = int(counts[k])
        if c:
            arrivals[pos : pos + c] = lo + rng.random(c) * w
            pos += c
    arrivals.sort()
    lengths = stream.sizes.sample(rng, total)
    return [Request(float(t), float(x), stream.origin) for t, x in zip(arrivals, lengths)]


def reference_generate(n_proxies, profile, gap, *, sizes=None, horizon, seed):
    root = np.random.default_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=n_proxies)
    return [
        reference_sample(
            RequestStream(profile.with_skew(i * gap), sizes, horizon, origin=i),
            np.random.default_rng(seeds[i]),
        )
        for i in range(n_proxies)
    ]


class GappyProfile:
    """A rate that is zero in alternate hours, so many slots stay empty."""

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t // 3600.0) % 2 == 0, 0.2, 0.0)


def assert_bitwise_equal(got: list, want: list) -> None:
    assert len(got) == len(want)
    assert all(type(r) is Request for r in got)
    for field in ("arrival", "length", "origin"):
        a = np.array([getattr(r, field) for r in got])
        b = np.array([getattr(r, field) for r in want])
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99_991])
def test_stream_matches_reference(seed):
    stream = RequestStream(DiurnalProfile(requests_per_day=20_000.0), origin=3)
    got = stream.sample(np.random.default_rng(seed))
    want = reference_sample(stream, np.random.default_rng(seed))
    assert len(got) > 0
    assert_bitwise_equal(got, want)


@pytest.mark.parametrize("seed", [0, 5])
def test_partial_last_slot_matches_reference(seed):
    # 10_000 s is not a multiple of the 60 s slot: the last slot is 40 s.
    stream = RequestStream(
        DiurnalProfile(requests_per_day=50_000.0), horizon=10_000.0, sizes=HybridSizes()
    )
    got = stream.sample(np.random.default_rng(seed))
    assert_bitwise_equal(got, reference_sample(stream, np.random.default_rng(seed)))
    assert max(r.arrival for r in got) <= 10_000.0


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_empty_slots_match_reference(seed):
    stream = RequestStream(GappyProfile(), horizon=7 * 3600.0, slot_width=90.0)
    rng = np.random.default_rng(seed)
    got = stream.sample(rng)
    ref_rng = np.random.default_rng(seed)
    want = reference_sample(stream, ref_rng)
    assert_bitwise_equal(got, want)
    # Both left the generator in the same state.
    assert rng.random() == ref_rng.random()
    assert all((r.arrival // 3600.0) % 2 == 0 for r in got)


def test_no_arrivals_at_all():
    class Silent:
        def rate(self, t):
            return np.zeros_like(np.asarray(t, dtype=float))

    stream = RequestStream(Silent(), horizon=600.0)
    assert stream.sample(np.random.default_rng(0)) == []


@pytest.mark.parametrize("seed", [0, 42])
def test_generate_streams_matches_reference(seed):
    profile = DiurnalProfile(requests_per_day=8_000.0)
    got = generate_streams(4, profile, 3_600.0, horizon=50_000.0, seed=seed)
    want = reference_generate(4, profile, 3_600.0, horizon=50_000.0, seed=seed)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w)


def test_request_is_an_immutable_named_tuple():
    req = Request(1.5, 2048.0)
    assert req == Request(arrival=1.5, length=2048.0, origin=0)
    assert req._fields == ("arrival", "length", "origin")
    with pytest.raises(AttributeError):
        req.arrival = 2.0  # type: ignore[misc]
