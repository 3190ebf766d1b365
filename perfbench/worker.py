"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py``; not meant to be run by hand. The process imports the
package from ``src/`` of the checkout, builds the workload's inputs (the
set-up phase) and then repeats passes of the workload for the time budget.
A speed probe runs between requests, so that pass times can be scaled to a
reference speed of the host. With ``--trace 1`` every pass is traced and the
spans are written as JSONL.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import adoptkit  # noqa: E402
import numpy as np  # noqa: E402
from scipy.optimize import least_squares  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


_PROBE_T = np.linspace(0.0, 20.0, 21)
_PROBE_Y = 3.0 / (1.0 + np.exp(-0.8 * (_PROBE_T - 8.0))) + 0.02 * np.sin(7.0 * _PROBE_T)


def _probe_resid(p):
    return p[0] / (1.0 + np.exp(-p[1] * (_PROBE_T - p[2]))) - _PROBE_Y


def speed_probe() -> float:
    """Wall time of a fixed computation that uses numpy, scipy.optimize and
    plain Python, like the workloads, but none of adoptkit.

    The host's speed drifts by tens of percent within a minute; the probe
    drifts with it, while a change to adoptkit cannot move it.
    """
    t0 = time.perf_counter()
    for k in range(8):
        least_squares(_probe_resid, [1.0 + 0.25 * k, 0.5, 5.0])
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs ``speed_probe`` between requests, at most once per ``interval`` seconds."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.interval:
            self.samples.append(speed_probe())
            self._last = time.perf_counter()

    def take(self) -> list[float]:
        """The samples since the last call."""
        samples, self.samples = self.samples, []
        return samples


def run_passes(wl, budget: float, scope=workloads.no_scope, first_inputs=None,
               probe_interval: float = math.inf) -> dict:
    """Run passes 0, 1, ... while the next one is expected to end within ``budget``.

    ``walls[p][j]`` is the wall time of timed request ``j`` in pass ``p``.
    Building a pass's inputs is not timed. ``probe_s[p]`` is the mean
    ``speed_probe`` time over the probes run before the first request of pass
    ``p``, between its requests (at most one per ``probe_interval`` seconds)
    and after its last request; the probes are not part of any request's time.
    """
    walls, totals, digests, passes, probe_s = [], [], [], [], []
    sampler = SpeedSampler(probe_interval)
    wl.between = sampler.tick
    t_start = time.perf_counter()
    try:
        while True:
            p = len(passes)
            inputs = first_inputs if p == 0 and first_inputs is not None else wl.inputs(p)
            sampler.tick(force=True)
            t0 = time.perf_counter()
            reqs = wl.run_pass(inputs, scope)
            sampler.tick(force=True)
            pass_wall = time.perf_counter() - t0
            walls.append([r.wall for r in reqs if r.timed])
            totals.append(sum(r.wall for r in reqs))
            digests.append(workloads.digest([(r.label, r.output) for r in reqs]))
            passes.append(reqs)
            probe_s.append(statistics.fmean(sampler.take()))
            if time.perf_counter() - t_start + pass_wall > budget:
                break
    finally:
        del wl.between
    return {"walls": walls, "totals": totals, "digests": digests, "passes": passes,
            "probe_s": probe_s}


def timed_passes(walls: list[list[float]]) -> list[list[float]]:
    """The first pass warms caches and lazy imports; leave it out when there are others."""
    return walls[1:] or walls


def session_s(walls: list[list[float]]) -> float:
    """Sum over the requests of a pass of each request's median wall time."""
    return sum(statistics.median(col) for col in zip(*timed_passes(walls)))


def at_reference_speed(walls: list[list[float]], probe_s: list[float],
                       reference_s: float) -> list[list[float]]:
    """Each pass's wall times scaled by the reference probe time over its own."""
    return [[w * reference_s / c for w in ws] for ws, c in zip(walls, probe_s)]


def interactive_facts(wl, run: dict) -> dict[str, float]:
    """Per-layer figures of the interactive workload taken from untraced passes."""
    return {
        "cli.request_p50_ms": 1e3 * statistics.median(
            w for p in timed_passes(run["walls"]) for w in p),
        "estimate.fit_sse_ratio": wl.fit_sse_ratio(run["passes"][0]),
    }


def per_layer(wl, spans, run: dict) -> dict[str, float]:
    m = tr.layer_metrics(spans, sum(run["totals"]))
    if isinstance(wl, workloads.Interactive):
        for label in {r.label for r in run["passes"][0]}:
            m[f"cli.{label}.s"] = m[f"cli.{label}.total_s"] / m[f"cli.{label}.calls"]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((Path(__file__).with_name("spec.json")).read_text())
    calib = spec["calibration"]
    wl = workloads.WORKLOADS[args.workload](spec, args.seed)
    first_inputs = wl.inputs(0)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Both workers build and install the tracer, and the untraced one removes
    # it again before its passes: the package's results depend on the heap
    # layout (see README), so both heaps must be laid out alike.
    t = tr.Tracer()
    tr.install(t)
    if not args.trace:
        t.restore()
        t = None
    try:
        run = run_passes(wl, args.seconds, t.request if t else workloads.no_scope,
                         first_inputs, calib["probe_interval_s"])
    finally:
        if t is not None:
            t.restore()
    attempted, failed = wl.tally(run["passes"])
    result = {
        "setup_s": setup_s,
        "session_ref_s": session_s(at_reference_speed(
            run["walls"], run["probe_s"], calib["reference_probe_s"])),
        "session_wall_s": session_s(run["walls"]),
        "probe_ms": 1e3 * statistics.median(timed_passes(run["probe_s"])),
        "probe_s": run["probe_s"],
        "pass_walls": run["totals"],
        "request_walls": run["walls"],
        "units_per_pass": wl.units(),
        "unit": wl.unit,
        "attempted": attempted,
        "failed": failed,
        "digest": run["digests"][0],
        "pass_digests": run["digests"],
        "first_pass": workloads.plain([(r.label, r.output) for r in run["passes"][0]]),
        "errors": wl.check(run["passes"]),
        "adoptkit_file": adoptkit.__file__,
    }
    if isinstance(wl, workloads.Interactive) and t is None:
        result["facts"] = interactive_facts(wl, run)
    if t is not None:
        result["per_layer"] = per_layer(wl, t.spans, run)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for s in t.spans:
                    fh.write(json.dumps(s.to_dict()) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
