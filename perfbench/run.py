"""adoptkit benchmark runner (standard library only).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (``worker.py``) that imports
the package from ``src/``. The runner first starts a few set-up-only
workers to time set-up, then the measuring worker. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` a second, traced worker
follows and the runner prints the per-layer metrics, including the
``import.*`` breakdown from ``python -X importtime``. Output checks that fail
make the result ``"correct": false`` and the exit code 1. The last line of
stdout is one JSON object; a full record is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
IMPORT_MODULES = {"adoptkit": "adoptkit_ms", "scipy.stats": "scipy_stats_ms",
                  "scipy.optimize": "scipy_optimize_ms"}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _worker(args, extra: list[str], timeout: float, seconds: float = 0.0,
            trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--t-spawn", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, env=_env())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_tree(stderr: str) -> list[tuple[int, int, str]]:
    """(depth, cumulative us, module) per ``-X importtime`` line, in output order."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), int(parts[1]), name.strip()))
    return rows


def subtree_ms(rows: list[tuple[int, int, str]], module: str) -> float:
    """Import time of ``module`` with everything first imported beneath it.

    Lines are printed after their children. A package imported lazily (as
    ``scipy.stats`` is) gets no line of its own, so the time is summed over
    its outermost submodule lines instead.
    """
    def inside(name: str) -> bool:
        return name == module or name.startswith(module + ".")

    total = 0
    for i, (depth, cum, name) in enumerate(rows):
        if not inside(name):
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or not inside(parent[2]):
            total += cum
    return total / 1e3


def import_times(runs: int = 3) -> dict[str, float]:
    """Import cost (ms) of selected modules under ``import adoptkit``, median over fresh runs."""
    samples: dict[str, list[float]] = {key: [] for key in IMPORT_MODULES.values()}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import adoptkit"],
                              capture_output=True, text=True, timeout=60, cwd=ROOT, env=_env())
        rows = _import_tree(proc.stderr)
        for module, key in IMPORT_MODULES.items():
            samples[key].append(subtree_ms(rows, module))
    return {f"import.{k}": statistics.median(v) for k, v in samples.items()}


def differ(a, b, rel: float, abs_: float) -> str | None:
    """Where two plain outputs differ by more than the tolerances, or None.

    Strings that hold JSON (captured CLI stdout) are compared as JSON.
    """
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            a, b = json.loads(a), json.loads(b)
        except ValueError:
            return f"{a[:40]!r} != {b[:40]!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"keys {sorted(a)} != {sorted(b)}"
        return next((f"{k}/{d}" for k in a if (d := differ(a[k], b[k], rel, abs_))), None)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"lengths {len(a)} != {len(b)}"
        return next((f"[{i}]/{d}" for i, (x, y) in enumerate(zip(a, b))
                     if (d := differ(x, y, rel, abs_))), None)
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if abs(a - b) <= abs_ + rel * max(abs(a), abs(b)):
            return None
    elif a == b:
        return None
    return f"{a!r} != {b!r}"


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "adoptkit" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'adoptkit'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = [_worker(args, ["--setup-only"], 60)["setup_s"]
              for _ in range(spec["setup_workers"])]
    # a traced run measures untraced and traced passes in two fresh processes
    # and compares their first passes: later passes of one process need not
    # repeat the first pass's last bits (see README)
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    res = _worker(args, [], CHILD_TIMEOUT_S / 2.0, seconds)
    if Path(res["adoptkit_file"]).resolve().parents[1] != ROOT / "src":
        res["errors"].append(f"imported adoptkit from {res['adoptkit_file']}")
    setups.append(res["setup_s"])
    ref_s = spec["calibration"]["reference_probe_s"]
    setup_wall = statistics.median(setups)
    if args.trace:
        traced = _worker(args, ["--spans-out", str(out_dir / f"{stem}-spans.jsonl")],
                         CHILD_TIMEOUT_S / 2.0, seconds, trace=1)
        res["errors"] += traced["errors"]
        res["traced_digest"] = traced["digest"]
        if traced["digest"] != res["digest"]:
            tol = spec["checks"]["trace_tolerance"]
            where = differ(res["first_pass"], traced["first_pass"], tol["rel"], tol["abs"])
            if where:
                res["errors"].append(f"traced output differs from untraced: {where}")
            else:
                print("note: traced and untraced outputs differ in their last bits "
                      f"only (within rel {tol['rel']}, abs {tol['abs']})")
    session = res["session_ref_s"]
    ref_ms = 1e3 * ref_s

    end_to_end = {
        "setup_s": setup_wall * ref_s / (res["probe_ms"] / 1e3),
        "session_ref_s": session,
        "units_per_ref_s": res["units_per_pass"] / session,
        "ok_share": 1.0 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups at the reference speed "
                   f"(wall {setup_wall:.4g} s)",
        "session_ref_s": f"sum of per-request medians over {len(res['pass_walls'])} passes, "
                         f"at the reference speed (probe {ref_ms:.4g} ms; here "
                         f"{res['probe_ms']:.4g} ms, wall {res['session_wall_s']:.4g} s)",
        "units_per_ref_s": f"{res['units_per_pass']} {res['unit']} per pass",
        "ok_share": f"{res['failed']} failed of {res['attempted']} operations",
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    if args.trace:
        overhead = traced["session_ref_s"] - session
        layer = {**traced["per_layer"], **res.get("facts", {}), **import_times(),
                 "host.session_wall_s": res["session_wall_s"], "host.probe_ms": res["probe_ms"],
                 "host.setup_wall_s": setup_wall,
                 "trace.overhead_s": overhead, "trace.overhead_share": overhead / session}
        metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        for name, note in notes.items():
            print(f"{name}: {end_to_end[name]:.6g} ({note})")
    correct = not res["errors"]
    for err in res["errors"]:
        print(f"CHECK FAILED: {err}")
    print(f"digest: {res['digest']}")
    host = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": host, "correct": correct,
        "errors": res["errors"], "digest": res["digest"],
        "pass_digests": res["pass_digests"], "traced_digest": res.get("traced_digest"),
        "setups_s": setups, "pass_walls_s": res["pass_walls"], "probe_s": res["probe_s"],
        "request_walls_s": res["request_walls"], "end_to_end": end_to_end,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
