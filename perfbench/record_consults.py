"""Record the scheduler consults of real case-study days as benchmark inputs.

    python3 perfbench/record_consults.py

Run from the root of a checkout (about two minutes).  It runs two seeded
simulated days, warm-up plus measured day, through ``LPPolicy`` and records
every consult's ``(requester, excess, availability)`` as the simulator
passes it to the scheduler:

``complete10``
    fig06's configuration: ``base_config(25)``, 10 ISPs, complete 10%
    shares, gap 3600 s.  The ``consult`` workload's inputs.
``decay12``
    fig13's configuration (``distance_decay_structure``, 1.18x the
    requests, gap 3600 s) at 12 ISPs.  The ``renegotiate`` workload's inputs.

A seeded sample of ``KEEP`` consults of each day is written to
``perfbench/inputs/<name>.csv``, one consult per line, and a summary of
the day's inputs is printed.  ``ManagerPolicy`` would send the same
consults to the GRM (it runs the same LP), and a GRM denies exactly those
whose excess exceeds the requester's capacity ``C_A``; the summary counts
them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
#: the seed of the recorded days, and of the sample kept from them
RECORD_SEED = 0
#: consults kept per day
KEEP = 1024


def _days():
    from repro.agreements import complete_structure, distance_decay_structure
    from repro.experiments.common import base_config

    days = dict(scheme="lp", gap=3600.0, seed=RECORD_SEED, warmup_days=1, measure_days=1)
    rpd = base_config(25.0).requests_per_day * 1.18
    return {
        "complete10": (complete_structure(10, share=0.1),
                       base_config(25.0, n_proxies=10, **days)),
        "decay12": (distance_decay_structure(12),
                    base_config(25.0, n_proxies=12, requests_per_day=rpd, **days)),
    }


def record(structure, cfg) -> list[tuple[int, float, np.ndarray]]:
    """Every consult of one simulated run, in order."""
    from repro.proxysim import ProxySimulation

    sim = ProxySimulation(cfg, structure)
    plan = sim.policy.plan
    consults = []

    def recording(requester, excess, avail):
        consults.append((int(requester), float(excess), np.array(avail, dtype=float)))
        return plan(requester, excess, avail)

    sim.policy.plan = recording
    sim.run()
    return consults


def summary(structure, consults) -> dict:
    from repro.proxysim.manager_bridge import bank_for_structure

    topology = bank_for_structure(structure).topology()
    names = structure.principals
    excess = np.array([e for _, e, _ in consults])
    donors = np.array([np.delete(v, r) for r, _, v in consults])
    denied = sum(
        e > topology.view(v).capacities()[topology.index(names[r])] for r, e, v in consults
    )
    return {
        "consults": len(consults),
        "excess_min": float(excess.min()),
        "excess_median": float(np.median(excess)),
        "excess_max": float(excess.max()),
        "donor_zero_share": float(np.mean(donors == 0.0)),
        "donor_avail_median": float(np.median(donors)),
        "donor_avail_max": float(donors.max()),
        "denied_share": float(denied) / len(consults),
    }


def write(path: Path, consults) -> None:
    n = len(consults[0][2])
    lines = ["requester,excess," + ",".join(f"avail{k}" for k in range(n))]
    for requester, excess, avail in consults:
        values = ",".join("0" if v == 0.0 else f"{v:.3f}" for v in avail)
        lines.append(f"{requester},{excess:.3f},{values}")
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import bootstrap

    bootstrap()
    INPUTS.mkdir(exist_ok=True)
    for name, (structure, cfg) in _days().items():
        consults = record(structure, cfg)
        rng = np.random.default_rng(RECORD_SEED)
        kept = sorted(rng.choice(len(consults), min(KEEP, len(consults)), replace=False))
        write(INPUTS / f"{name}.csv", [consults[k] for k in kept])
        print(name, "day", summary(structure, consults))
        print(name, "kept", summary(structure, [consults[k] for k in kept]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
