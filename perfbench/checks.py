"""Output checks, run after the timed region.

Every GRM reply is checked against the Section-3.1 constraints evaluated on
the topology the reply should have been computed on; a seeded sample of
grants is re-solved with the paper's faithful ``n^2 + n + 1`` formulation on
the in-repo simplex, whose optimal theta is unique even where the donor split
is not, so any later LP kernel stays checkable.  Each check returns a list
of human-readable errors; an empty list means the outputs are correct.
"""

from __future__ import annotations

import numpy as np

from repro.allocation import allocate_lp
from repro.manager import AllocationGrant
from repro.manager.messages import AllocationDenied

TOL = 1e-7


def _tol(scale: float) -> float:
    return TOL * max(1.0, abs(scale))


def check_reply(view, requester: str, amount: float, reply) -> list[str]:
    """A grant or denial is consistent with the view it was computed on.

    Grants: the takes sum to the granted amount, each take lies in
    ``[0, min(U[i, A], V[i])]`` (``V[A]`` for the requester itself),
    theta >= 0 and the amount does not exceed ``C_A``.  Denials: the amount
    really exceeds ``C_A``, and the quoted availability is ``C_A``.
    """
    a = view.index(requester)
    U, C, V = view.u(), view.capacities(), view.V
    cap = float(C[a])
    errors = []
    if isinstance(reply, AllocationGrant):
        total = sum(t for _, t in reply.takes)
        if abs(total - amount) > _tol(amount):
            errors.append(f"takes sum to {total!r}, granted {amount!r}")
        for principal, take in reply.takes:
            i = view.index(principal)
            bound = float(V[a]) if i == a else float(min(U[i, a], V[i]))
            if take < -_tol(bound) or take > bound + _tol(bound):
                errors.append(f"take {take!r} from {principal} outside [0, {bound!r}]")
        if reply.theta < -_tol(amount):
            errors.append(f"theta {reply.theta!r} < 0")
        if amount > cap + _tol(cap):
            errors.append(f"granted {amount!r} exceeds C_A {cap!r}")
    elif isinstance(reply, AllocationDenied):
        if amount <= cap:
            errors.append(f"denied {amount!r} although C_A is {cap!r}")
        if abs(reply.available - cap) > _tol(cap):
            errors.append(f"denial quotes {reply.available!r}, C_A is {cap!r}")
    else:
        errors.append(f"unexpected reply {type(reply).__name__}")
    return errors


def check_theta(
    view, requester: str, amount: float, theta: float,
    formulation: str = "faithful", backend: str = "simplex",
) -> list[str]:
    """theta equals the LP optimum, by default the faithful formulation's on
    the simplex backend."""
    oracle = allocate_lp(
        view, requester, amount, formulation=formulation, backend=backend
    ).theta
    if abs(theta - oracle) > _tol(oracle):
        return [f"theta {theta!r} differs from the {formulation} {backend} optimum {oracle!r}"]
    return []


def check_same_agreements(topology, principals, S, A) -> list[str]:
    """A cached topology encodes the agreements exported by the bank."""
    A = None if not np.any(A) else A
    same = (
        list(topology.principals) == list(principals)
        and np.array_equal(topology.S, S)
        and (topology.A is None) == (A is None)
        and (A is None or np.array_equal(topology.A, A))
    )
    return [] if same else ["grant computed on agreements older than the bank's"]


def check_day(streams, served, max_hops) -> list[str]:
    """Every generated request is served exactly once, within ``max_hops``."""
    generated = {id(req) for stream in streams for req in stream}
    seen: set[int] = set()
    errors = []
    for item in served:
        key = id(item.payload)
        if key in seen:
            errors.append(f"request {item.payload!r} served twice")
        seen.add(key)
        if max_hops is not None and item.hops > max_hops:
            errors.append(f"request {item.payload!r} redirected {item.hops} times")
    if seen != generated:
        errors.append(
            f"{len(generated - seen)} generated requests never served, "
            f"{len(seen - generated)} served requests never generated"
        )
    return errors[:20]
