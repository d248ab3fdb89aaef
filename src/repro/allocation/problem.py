"""Request and result types for the allocation engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidRequestError

__all__ = ["AllocationRequest", "Allocation"]


@dataclass(frozen=True)
class AllocationRequest:
    """A request by ``principal`` for ``amount`` of one resource.

    ``level`` limits the transitivity of agreements considered (``None`` =
    full closure ``n-1``; ``1`` = direct agreements only, matching the
    "level=1" series of Figures 8–11).
    """

    principal: str
    amount: float
    level: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amount) and self.amount >= 0):
            raise InvalidRequestError(f"request amount must be finite and >= 0, got {self.amount}")


@dataclass
class Allocation:
    """Result of an allocation decision.

    Attributes
    ----------
    request:
        The request this answers.
    take:
        ``take[i]`` = quantity drawn from principal ``i``'s raw resources
        (``V_i - V'_i`` in the paper); sums to the satisfied amount.
    theta:
        Value of the perturbation metric at the optimum (``nan`` for
        allocators that do not optimise it).
    satisfied:
        Total amount granted (== request.amount unless partial).
    new_V:
        Raw capacities after the allocation (``V'``).
    new_C:
        Effective capacities after the allocation (``C'``), recomputed from
        ``V'`` at the request's transitivity level.
    scheme:
        Which allocator produced this (``"lp"``, ``"endpoint"``, ...).
    principals:
        Names matching the vector indices.
    """

    request: AllocationRequest
    take: np.ndarray
    theta: float
    satisfied: float
    new_V: np.ndarray
    new_C: np.ndarray
    scheme: str
    principals: list[str] = field(default_factory=list)

    @property
    def local_take(self) -> float:
        """Amount drawn from the requester's own resources."""
        return float(self.take[self.principals.index(self.request.principal)])

    @property
    def remote_take(self) -> float:
        """Amount drawn from other principals' resources (redirected work)."""
        return float(self.satisfied - self.local_take)

    def takes_by_name(self) -> dict[str, float]:
        """Non-zero takes keyed by principal name."""
        return {
            p: float(t)
            for p, t in zip(self.principals, self.take)
            if t > 1e-12
        }

    def __repr__(self) -> str:
        takes = ", ".join(f"{p}:{t:.3g}" for p, t in self.takes_by_name().items())
        return (
            f"Allocation({self.request.principal!r} x={self.request.amount:g} "
            f"via {self.scheme}: [{takes}] theta={self.theta:.3g})"
        )
