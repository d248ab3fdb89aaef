"""Run one benchmark workload against ``repro`` and print its metrics.

    python3 perfbench/run.py --workload consult --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped and the
observer and sanitizer off.  ``--trace 1`` runs the same measurement, then
replays the same work with every layer boundary wrapped and prints the
per-layer metrics instead.  Either way the outputs are checked after the
timed region, a stamp identifying the code and machine is printed, and the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 6000, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics, in print order (``fail_frac`` is ``failed / attempted``)
END_TO_END = (
    "setup_s",
    "consult_per_s",
    "consult_p50_ms",
    "consult_p99_ms",
    "change_to_grant_p50_ms",
    "change_to_grant_p90_ms",
    "run_wall_s",
    "mean_wait_s",
    "worst_slot_wait_s",
    "peak_rss_mb",
)

#: each workload's intended dominant layer, confirmed by the traced run.
#: Advisory: a failed prediction is printed but changes neither ``correct``
#: nor the exit code, since an optimisation may rightly move the dominant
#: layer and must not make the benchmark reject the faster program.
PREDICTIONS = {
    "consult": (
        "allocation+lp has the largest self-time share; no topology rebuilds",
        lambda shares, m: _largest(shares, "allocation+lp")
        and m["economy.topology.rebuilds"][0] == 0,
    ),
    "renegotiate": (
        "agreements.coefficients has the largest self-time share",
        lambda shares, m: _largest(shares, "agreements.coefficients"),
    ),
    "day": (
        "allocation+lp has the largest self-time share; no manager calls",
        lambda shares, m: _largest(shares, "allocation+lp")
        and m["manager.send.calls"][0] == 0,
    ),
}


def _largest(shares: dict[str, float], group: str) -> bool:
    return max(shares, key=shares.get) == group


def bootstrap() -> None:
    """Import ``repro`` from the checkout's ``src``, observer and sanitizer off."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    # End-to-end numbers are taken with the observer and the sanitizer off.
    for var in ("REPRO_OBS", "REPRO_OBS_TRACE", "REPRO_OBS_SAMPLE", "REPRO_SANITIZE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(src))


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _stamp(args, params) -> dict:
    import numpy
    import scipy

    from repro import obs, sanitize

    commit = dirty = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": asdict(params),
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "observer_enabled": obs.get_observer().enabled,
        "sanitizer_enabled": sanitize.enabled(),
    }


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("consult", "renegotiate", "day"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import layers
    import workloads

    run = workloads.WORKLOADS[args.workload]
    params = workloads.PARAMS[args.workload]
    outcome = workloads.finish(run(args.seed, args.seconds, params))
    _print_metrics(f"{args.workload}: end-to-end", outcome.metrics)
    fail_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'fail_frac':34s} {fail_frac:14.6g} ({outcome.failed} of "
          f"{outcome.attempted} operations)")
    print("  info " + json.dumps(outcome.info))
    metrics = {name: outcome.metrics[name] for name in END_TO_END}

    if args.trace:
        tracer = layers.Tracer()
        with layers.installed(tracer):
            traced = run(args.seed, args.seconds, replace(params, setup_reps=1, cold_reps=1),
                         tracer=tracer, work=outcome.work, check=False)
        metrics = layers.layer_metrics(
            traced.setup_trace, traced.run_trace, traced.sim_counts,
            traced.busy_s / outcome.busy_s,
        )
        _print_metrics(f"{args.workload}: per layer", metrics)
        shares = layers.group_shares(traced.run_trace[0])
        print("  self-time shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        claim, holds = PREDICTIONS[args.workload]
        verdict = "holds" if holds(shares, metrics) else "FAILS (advisory)"
        print(f"  prediction {verdict}: {claim}")

    print("stamp " + json.dumps(_stamp(args, params)))
    for error in outcome.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
