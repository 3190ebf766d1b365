"""The three benchmark workloads and the checks on their outputs.

Each workload is built from a seed and the pinned sizes in ``spec.json``.
``inputs(p)`` gives the inputs of pass ``p``, a pure function of the seed and
``p``; building them is not timed. ``run_pass`` makes one pass through the
workload's fixed request sequence from a single client and returns what each
request produced; it calls ``between()`` before each request, outside the
request's timing, where the runner samples the host's speed. ``tally`` counts attempted and failed operations over the
passes and ``check`` returns the output checks that failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import statistics
import time
from enum import Enum

import numpy as np
from adoptkit import cli, curves, estimate, fisher, simgen
from adoptkit.curves import ThetaTwoComp
from adoptkit.errors import AdoptkitError


def plain(obj):
    """Convert results to JSON-safe values at full float precision."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def digest(outputs) -> str:
    text = json.dumps(plain(outputs), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()



def wilson(k: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for k successes in n trials."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


def _z(level: float) -> float:
    return statistics.NormalDist().inv_cdf(0.5 + level / 2.0)


def no_scope(label):
    """Request scope of an untraced pass."""
    return contextlib.nullcontext()


class Request:
    """Wall time and output of one call the client waited on.

    ``timed`` is false for a request that is run and checked in every pass
    but left out of the end-to-end time.
    """

    __slots__ = ("label", "wall", "output", "timed")

    def __init__(self, label: str, wall: float, output, timed: bool = True):
        self.label = label
        self.wall = wall
        self.output = output
        self.timed = timed


class Workload:
    def between(self) -> None:
        """Called before every request, outside its timing."""

    def _call(self, label, scope, fn, *args, **kwargs) -> Request:
        self.between()
        t0 = time.perf_counter()
        with scope(label):
            try:
                out = fn(*args, **kwargs)
            except AdoptkitError as exc:
                out = {"raised": type(exc).__name__}
        return Request(label, time.perf_counter() - t0, out)


# ---------------------------------------------------------------------------
# interactive: a fixed CLI session
# ---------------------------------------------------------------------------

EXPECTED_KEYS = {
    "compare": {"n", "models"},
    "fit": {"family", "theta", "residuals", "aic", "converged"},
    "test": {"statistic", "p", "method"},
    "crlb": {"info_full", "info_profiled", "crlb_alpha", "crlb_beta", "corr_alpha_beta"},
    "threshold": {"r_star", "variance", "ci", "robust_r_star"},
    "pilot": {"r_chat", "r_agent", "r_star", "mu_c"},
}


class Interactive(Workload):
    """In-process ``adoptkit.cli.main(argv)`` commands with stdout captured."""

    unit = "commands"

    def __init__(self, spec: dict, seed: int):
        cfg = spec["workloads"]["interactive"]
        self.reference_sse = spec["reference_sse"]
        self.sse_rel_tol = spec["checks"]["sse_rel_tol"]
        self.commands: list[tuple[str, list[str]]] = []
        for ds in cfg["datasets"]:
            data = ["--data", f"builtin:{ds}"]
            self.commands += [
                (f"compare.{ds}", ["compare", *data]),
                (f"fit.{ds}", ["fit", *data]),
                (f"test_lr.{ds}", ["test", *data, "--which", "lr"]),
                (f"test_shape.{ds}", ["test", *data, "--which", "shape",
                                      "--n-boot", str(cfg["shape_n_boot"]), "--seed", str(seed)]),
                (f"test_vuong.{ds}", ["test", *data, "--which", "vuong"]),
                (f"test_dw.{ds}", ["test", *data, "--which", "dw"]),
            ]
        for label, argv in cfg["extra_commands"].items():
            argv = [str(seed) if a == "{seed}" else a for a in argv]
            self.commands.append((label, argv))

    def units(self) -> int:
        return len(self.commands)

    def inputs(self, p: int) -> list[tuple[str, list[str]]]:
        return self.commands  # one fixed session, repeated

    def run_pass(self, commands, scope=no_scope) -> list[Request]:
        out = []
        for label, argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            self.between()
            t0 = time.perf_counter()
            with scope(f"cli.{label}"), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code if isinstance(exc.code, int) else 2
            out.append(Request(label, time.perf_counter() - t0,
                               {"code": code, "stdout": stdout.getvalue()}))
        return out

    @staticmethod
    def _parse(req: Request):
        try:
            return json.loads(req.output["stdout"])
        except ValueError:
            return None

    def tally(self, passes: list[list[Request]]) -> tuple[int, int]:
        attempted = failed = 0
        for req in (r for reqs in passes for r in reqs):
            payload = self._parse(req)
            if req.label.startswith("compare.") and req.output["code"] == 0 and payload:
                rows = payload.get("models", [])
                attempted += len(rows)
                failed += sum(1 for r in rows if "error" in r)
            else:
                attempted += 1
                failed += req.output["code"] != 0
        return attempted, failed

    def sse_pairs(self, reqs: list[Request]) -> list[tuple[str, str, float, float | None]]:
        """(command, dataset/family, SSE, reference SSE) for every fit that succeeded."""
        pairs = []
        for req in reqs:
            payload = self._parse(req)
            if not payload or req.output["code"] != 0:
                continue
            command, ds = req.label.split(".", 1)
            if command == "compare":
                for row in payload.get("models", []):
                    if "error" not in row:
                        key = f"{ds}/{row['family']}"
                        sse = row["rmse"] ** 2 * payload["n"]
                        pairs.append((command, key, sse, self.reference_sse.get(key)))
            elif command == "fit":
                key = f"{ds}/{payload['family']}"
                sse = sum(e * e for e in payload["residuals"])
                pairs.append((command, key, sse, self.reference_sse.get(key)))
        return pairs

    def fit_sse_ratio(self, reqs: list[Request]) -> float:
        """Geometric mean of SSE over reference SSE across the compare fits."""
        logs = [math.log(sse / ref) for command, _, sse, ref in self.sse_pairs(reqs)
                if command == "compare" and ref is not None]
        return math.exp(sum(logs) / len(logs)) if logs else 0.0

    def check(self, passes: list[list[Request]]) -> list[str]:
        errors = []
        for reqs in passes:
            errors += self._check_pass(reqs)
        return sorted(set(errors))

    def _check_pass(self, reqs: list[Request]) -> list[str]:
        errors = []
        for req in reqs:
            if req.output["code"] != 0:
                errors.append(f"{req.label}: exit code {req.output['code']}")
                continue
            text = req.output["stdout"]
            payload = self._parse(req)
            if payload is None:
                errors.append(f"{req.label}: stdout is not JSON")
                continue
            if json.dumps(payload, sort_keys=True, indent=2) + "\n" != text:
                errors.append(f"{req.label}: stdout is not canonical JSON")
            kind = req.label.split(".", 1)[0].split("_", 1)[0]
            missing = EXPECTED_KEYS[kind] - set(payload)
            if missing:
                errors.append(f"{req.label}: missing keys {sorted(missing)}")
        for _, key, sse, ref in self.sse_pairs(reqs):
            if ref is not None and sse > ref * (1.0 + self.sse_rel_tol):
                errors.append(f"{key}: SSE {sse!r} exceeds reference {ref!r}")
        return errors


# ---------------------------------------------------------------------------
# mc_scenarios: the Monte-Carlo replicate loop
# ---------------------------------------------------------------------------

def _error_model(cfg: dict):
    if cfg.get("rho", 0.0):
        return fisher.GaussianAr1(cfg["sigma"], cfg["rho"])
    return fisher.GaussianIid(cfg["sigma"])


class McScenarios(Workload):
    """``simgen.run_benchmark`` over a pinned grid, then ``fisher.crlb_check``.

    Each scenario of the grid is one ``run_benchmark`` request on a grid of
    its own, so that every request has its own wall time. Scenario ``k`` of
    pass ``p`` has master seed ``(seed * 1000 + p) * 100 + k``.

    The ``crlb_check`` request is run, checked and traced in every pass but
    not timed: about half of its calls hit a start that uses the whole
    5000-evaluation budget, so its wall time jumps between ~0.3 s and ~1.5 s
    from one seed to the next and would swamp the grid's timing.
    """

    unit = "replicates"

    def __init__(self, spec: dict, seed: int):
        cfg = spec["workloads"]["mc_scenarios"]
        self.checks = spec["checks"]
        self.cfg = cfg
        self.scenarios = [
            (theta, _error_model(em), n)
            for theta in (simgen.theta_for_depth(d) for d in cfg["depths"])
            for em in cfg["error_models"]
            for n in cfg["n_points"]
        ]
        crlb = cfg["crlb_check"]
        self.crlb_args = (
            ThetaTwoComp(*crlb["theta"]),
            [crlb["horizon"] * i / (crlb["n_points"] - 1) for i in range(crlb["n_points"])],
            fisher.GaussianIid(crlb["sigma"]),
        )
        self.crlb_replicates = crlb["replicates"]
        self.seed = seed

    def inputs(self, p: int):
        grids = [
            simgen.ScenarioGrid(
                thetas=(theta,), error_models=(em,), n_points=(n,),
                horizon=self.cfg["horizon"], replicates=self.cfg["replicates"],
                seed=(self.seed * 1000 + p) * 100 + k, shape_boot=self.cfg["shape_boot"],
            )
            for k, (theta, em, n) in enumerate(self.scenarios)
        ]
        return grids, (self.seed, p)

    def units(self) -> int:
        """Replicates of the timed grid requests."""
        return len(self.scenarios) * self.cfg["replicates"]

    def run_pass(self, inputs, scope=no_scope) -> list[Request]:
        grids, crlb_seed = inputs
        out = [self._call("run_benchmark", scope, simgen.run_benchmark, grid, threads=1)
               for grid in grids]
        crlb = self._call("crlb_check", scope, fisher.crlb_check, *self.crlb_args,
                          replicates=self.crlb_replicates, seed=crlb_seed)
        crlb.timed = False
        return out + [crlb]

    def tally(self, passes: list[list[Request]]) -> tuple[int, int]:
        failed = 0
        sizes = [self.cfg["replicates"]] * len(self.scenarios) + [self.crlb_replicates]
        for reqs in passes:
            for req, n in zip(reqs, sizes):
                if isinstance(req.output, dict):  # the call raised
                    failed += n
                elif req.label == "crlb_check":
                    failed += req.output.n_failed
                else:
                    failed += sum(s.n_failed for s in req.output.scenarios)
        return sum(sizes) * len(passes), failed

    def check(self, passes: list[list[Request]]) -> list[str]:
        """Criterion-9 bands on the pooled passes, widened by Wilson intervals."""
        raised = [r.output for reqs in passes for r in reqs if isinstance(r.output, dict)]
        if raised:
            return [f"raised: {raised}"]
        c = self.checks
        z = _z(c["wilson_level"])
        setting = self.cfg["check_setting"]
        errors = []
        counts = {"type1": [0, 0], "power": [0, 0], "coverage": [0, 0]}

        def add(key, rate, n):
            counts[key][0] += round(rate * n)
            counts[key][1] += n

        for reqs in passes:
            for s in (s for r in reqs[:-1] for s in r.output.scenarios):
                used = s.replicates - s.n_failed
                if s.degraded:
                    errors.append(f"scenario n={s.n_points} depth={s.depth:.2f} degraded")
                if s.well_conditioned and s.coverage_tstar is not None:
                    add("coverage", s.coverage_tstar, used)
                if (type(s.error_model).__name__ == setting["error_model"]
                        and s.n_points == setting["n_points"]):
                    rate = s.type1_lr if s.is_monotone_truth else s.power_lr
                    if rate is None:
                        errors.append(f"LR rate missing at depth {s.depth:.2f}")
                    else:
                        add("type1" if s.is_monotone_truth else "power", rate, used)
            crlb = reqs[-1].output
            # Var ~ chi2(N-1)/(N-1): widen the CRLB floor by its sampling spread
            n_ok = crlb.replicates - crlb.n_failed
            floor = c["crlb_ratio_min"] * (1.0 - z * math.sqrt(2.0 / (n_ok - 1)))
            for name in ("ratio_alpha", "ratio_beta"):
                if getattr(crlb, name) < floor:
                    errors.append(f"crlb {name} {getattr(crlb, name):.3f} < {floor:.3f}")
        bands = {"type1": c["type1_band"], "power": (c["power_min"], 1.0),
                 "coverage": c["coverage_band"]}
        for key, (k, n) in counts.items():
            lo, hi = wilson(k, n, z)
            if n == 0 or hi < bands[key][0] or lo > bands[key][1]:
                errors.append(f"{key} {k}/{n}: Wilson [{lo:.3f}, {hi:.3f}] "
                              f"outside {list(bands[key])}")
        return sorted(set(errors))


# ---------------------------------------------------------------------------
# refits: warm-started block-bootstrap refits and profile-likelihood paths
# ---------------------------------------------------------------------------

class Refits(Workload):
    """``estimate.prepost_delta_beta`` then ``estimate.profile_ci_tstar``.

    The pre/post series follow the piecewise generator of the package's
    pre/post tests; the profile series are noisy trough curves from
    ``simgen.gen_series``. Pass ``p`` draws its noise from ``(seed, p)``.
    """

    unit = "refits"

    def __init__(self, spec: dict, seed: int):
        cfg = spec["workloads"]["refits"]
        self.checks = spec["checks"]
        self.pp = cfg["prepost"]
        self.pr = cfg["profile"]
        self.window = estimate.WindowSpec(intervention_time=self.pp["intervention_time"])
        self.truths = [post - pre for pre, post in self.pp["beta_pairs"]]
        self.theta = ThetaTwoComp(*self.pr["theta"])
        self.t_true = curves.classify_phase(self.theta).t_star
        self.seed = seed

    def inputs(self, p: int):
        pp, pr = self.pp, self.pr
        rng = np.random.default_rng((self.seed, p))
        t = np.arange(0.0, float(pp["n_points"]))
        prepost = []
        for i in range(pp["series"]):
            b_pre, b_post = pp["beta_pairs"][i % len(pp["beta_pairs"])]
            y = np.where(
                t < pp["intervention_time"] + 0.5,
                curves.eval_curve(ThetaTwoComp(*pp["theta_base"], b_pre),
                                  np.maximum(t - pp["pre_origin"], 0.0)),
                curves.eval_curve(ThetaTwoComp(*pp["theta_base"], b_post),
                                  np.maximum(t - pp["post_origin"], 0.0)),
            )
            prepost.append(estimate.TimeSeries(t, y + pp["sigma"] * rng.standard_normal(len(t))))
        em = fisher.GaussianIid(pr["sigma"])
        profile = [
            simgen.gen_series(self.theta, em, pr["n_points"], pr["horizon"],
                              seed=(self.seed, p, i))
            for i in range(pr["series"])
        ]
        return prepost, profile, p

    def run_pass(self, inputs, scope=no_scope) -> list[Request]:
        prepost, profile, p = inputs
        out = [
            self._call("prepost_delta_beta", scope, estimate.prepost_delta_beta, series,
                       self.window, n_boot=self.pp["n_boot"], seed=(self.seed, p, i))
            for i, series in enumerate(prepost)
        ]
        out += [self._call("profile_ci_tstar", scope, estimate.profile_ci_tstar, series)
                for series in profile]
        return out

    def units(self) -> int:
        """Bootstrap window refits (two per replicate) plus one per profile CI."""
        return 2 * self.pp["n_boot"] * self.pp["series"] + self.pr["series"]

    def tally(self, passes: list[list[Request]]) -> tuple[int, int]:
        attempted = failed = 0
        n_boot = self.pp["n_boot"]
        for req in (r for reqs in passes for r in reqs):
            rep = req.output
            if req.label == "prepost_delta_beta":
                attempted += n_boot
                failed += n_boot if isinstance(rep, dict) else rep.n_boot_failed
            else:
                attempted += 1
                failed += isinstance(rep, dict) or rep.n_skipped > 0
        return attempted, failed

    def check(self, passes: list[list[Request]]) -> list[str]:
        """Coverage of the true values at the rates the package's tests assert."""
        c = self.checks
        z = _z(c["wilson_level"])
        errors = []
        pre = [(i, r.output) for reqs in passes
               for i, r in enumerate(r for r in reqs if r.label == "prepost_delta_beta")]
        prof = [r.output for reqs in passes for r in reqs if r.label == "profile_ci_tstar"]
        covered = sum(
            not isinstance(rep, dict)
            and rep.ci[0] <= self.truths[i % len(self.truths)] <= rep.ci[1]
            for i, rep in pre
        )
        if wilson(covered, len(pre), z)[1] < c["prepost_coverage_min"]:
            errors.append(f"pre/post coverage {covered}/{len(pre)} below "
                          f"{c['prepost_coverage_min']}")
        covered = sum(not isinstance(ci, dict) and ci.lower <= self.t_true <= ci.upper
                      for ci in prof)
        if wilson(covered, len(prof), z)[1] < c["profile_coverage_min"]:
            errors.append(f"profile coverage {covered}/{len(prof)} below "
                          f"{c['profile_coverage_min']}")
        return errors


WORKLOADS = {"interactive": Interactive, "mc_scenarios": McScenarios, "refits": Refits}
