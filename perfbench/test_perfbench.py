"""Tests of the benchmark itself.

Run from the root of the repo: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(id_, parent, name, start, end):
    s = tr.Span(id_, parent, None, name, start)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "estimate.fit_nls.twocomp_cold", 0.0, 10.0),
        _span(1, 0, "solver.least_squares", 1.0, 4.0),
        _span(2, 0, "solver.least_squares", 3.0, 6.0),  # overlaps the first child
        _span(3, 2, "curves.classify_phase", 3.5, 4.5),
    ]
    self_s = tr.self_times(spans)
    assert self_s == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}


def test_layer_metrics_ratios():
    spans = [
        _span(0, None, "estimate.fit_nls.twocomp_cold", 0.0, 4.0),
        _span(1, 0, "solver.least_squares", 0.0, 1.0),
        _span(2, 0, "solver.least_squares", 1.0, 3.0),
    ]
    spans[0].info = {"nfev": 30}
    spans[1].info = {"nfev": 90, "status": 0}
    spans[2].info = {"nfev": 30, "status": 1}
    m = tr.layer_metrics(spans, traced_wall=8.0)
    assert m["solver.least_squares.calls_per_fit"] == 2
    assert m["solver.useful_nfev_share"] == pytest.approx(0.25)
    assert m["solver.least_squares.exhausted"] == 1
    assert m["estimate.self_s"] == pytest.approx(1.0)
    assert m["trace.layer_cover_share"] == pytest.approx(0.5)


def test_import_subtree_counts_a_package_without_its_own_line():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.optimize._x",
        "import time:        20 |         30 |     scipy.optimize",
        "import time:       100 |        130 |     scipy.stats._a",
        "import time:        50 |         50 |     scipy.stats._b",
        "import time:         5 |        185 |   adoptkit.estimate",
        "import time:         1 |        186 | adoptkit",
    ])
    rows = run._import_tree(stderr)
    assert run.subtree_ms(rows, "scipy.stats") == pytest.approx(0.18)
    assert run.subtree_ms(rows, "scipy.optimize") == pytest.approx(0.03)
    assert run.subtree_ms(rows, "adoptkit") == pytest.approx(0.186)
    assert run.subtree_ms(rows, "numpy") == 0.0


def test_differ_compares_numbers_with_tolerance_and_json_strings_as_json():
    a = {"x": [1.0, "s", {"n": 4.256e-08}], "out": '{"p": 7.6525138e-05}'}
    b = {"x": [1.0, "s", {"n": 4.698e-08}], "out": '{"p": 7.6525123e-05}'}
    assert run.differ(a, b, 1e-6, 1e-6) is None
    assert run.differ(a, {**b, "out": '{"p": 0.5}'}, 1e-6, 1e-6) == "out/p/7.6525138e-05 != 0.5"
    assert run.differ(a, {**b, "x": [1.0, "t", {"n": 4.3e-08}]}, 1e-6, 1e-6).startswith("x/[1]")
    assert run.differ({"k": 1}, {"j": 1}, 1e-6, 1e-6).startswith("keys")


def _one_pass(name: str, traced: bool):
    wl = workloads.WORKLOADS[name](SPEC, 3)
    t = tr.Tracer() if traced else None
    if t is not None:
        tr.install(t)
    try:
        run = worker.run_passes(wl, 0.0, t.request if t else workloads.no_scope)
    finally:
        if t is not None:
            t.restore()
    return wl, run, t


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_run_and_passes_checks(name):
    """Run in separate processes, so that both passes start from the same state."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_reference_speed_scales_each_pass_by_its_own_probe():
    walls = [[1.0, 2.0], [2.0, 4.0]]
    scaled = worker.at_reference_speed(walls, [0.05, 0.1], 0.025)
    assert scaled == [[0.5, 1.0], [0.5, 1.0]]
    assert worker.session_s(scaled) == 1.5


def test_speed_sampler_runs_at_most_once_per_interval():
    sampler = worker.SpeedSampler(interval=3600.0)
    sampler.tick()
    sampler.tick()
    sampler.tick(force=True)
    assert len(sampler.take()) == 2
    assert sampler.take() == []


class _TwoSleeps(workloads.Workload):
    def inputs(self, p):
        return None

    def run_pass(self, inputs, scope=workloads.no_scope):
        return [self._call(f"sleep{i}", scope, time.sleep, 0.0) for i in range(2)]


def test_run_passes_probes_every_pass_outside_its_requests():
    wl = _TwoSleeps()
    run = worker.run_passes(wl, 0.0, probe_interval=0.0)
    assert len(run["walls"]) == len(run["probe_s"]) == 1
    # three probes of ~25 ms ran in the pass, none inside a request
    assert run["probe_s"][0] > 0.005
    assert all(w < 0.005 for w in run["walls"][0])
    assert "between" not in vars(wl)


def test_wrappers_are_removed_after_a_traced_pass():
    from adoptkit import estimate

    _, _, t = _one_pass("refits", traced=True)
    assert t.spans and all(s.layer in tr.LAYERS for s in t.spans)
    assert len({s.request for s in t.spans}) > 1
    assert not hasattr(estimate.fit_nls, "__wrapped__")


def test_every_per_layer_metric_is_produced():
    produced = {f"import.{key}" for key in run.IMPORT_MODULES.values()}
    produced |= {"trace.overhead_s", "trace.overhead_share",
                 "host.session_wall_s", "host.probe_ms", "host.setup_wall_s"}
    for name in workloads.WORKLOADS:
        wl, untraced, _ = _one_pass(name, traced=False)
        if isinstance(wl, workloads.Interactive):
            produced |= set(worker.interactive_facts(wl, untraced))
        wl, traced, t = _one_pass(name, traced=True)
        produced |= set(worker.per_layer(wl, t.spans, traced))
    missing = {m["name"] for m in BENCH["per_layer"]} - produced
    assert not missing


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "refits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
