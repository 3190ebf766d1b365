"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions on the package's module objects with
thin wrappers. The package's own cross-module calls look these names up on
the module at call time, so nested calls are traced too. Each span records
its name, start, end, parent span and the request it belongs to; self time
is computed afterwards as a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import time
from contextlib import contextmanager

LAYERS = (
    "cli", "curves", "estimate", "fisher", "infer", "econ",
    "simgen", "parallel", "jsonio", "datasets", "solver",
)

INFO_MODELS = {
    "GaussianIid": "iid",
    "GaussianAr1": "ar1",
    "PoissonCounts": "poisson",
    "BinomialCounts": "binomial",
}


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "failed", "info")

    def __init__(self, id_, parent, request, name, start):
        self.id = id_
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.failed = False
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "request": self.request,
            "name": self.name, "start": self.start, "end": self.end,
            "failed": self.failed, "info": self.info,
        }


class Tracer:
    """Span recorder.

    The span table is allocated once, up front: growing a list while the
    package runs moves the C heap under numpy's small arrays, and the
    package's ill-conditioned fits are sensitive to the resulting changes of
    alignment in their last bits.
    """

    def __init__(self, capacity: int = 1 << 20):
        self._table: list[Span | None] = [None] * capacity
        self._n = 0
        self.request_id = None
        self._requests = 0
        self._stack: list[Span] = [None] * 64
        self._depth = 0
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        return self._table[: self._n]

    def _open(self, name: str) -> Span:
        parent = self._stack[self._depth - 1].id if self._depth else None
        span = Span(self._n, parent, self.request_id, name, time.perf_counter())
        if self._n < len(self._table):
            self._table[self._n] = span
        else:
            self._table.append(span)
        self._n += 1
        if self._depth < len(self._stack):
            self._stack[self._depth] = span
        else:
            self._stack.append(span)
        self._depth += 1
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._depth -= 1

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except Exception:
            span.failed = True
            raise
        finally:
            self._close(span)

    @contextmanager
    def request(self, label: str):
        """Scope of one client request: the spans opened in it share an id.

        A request whose label starts with a layer name (the ``cli.*``
        commands) is a span itself.
        """
        self._requests += 1
        self.request_id = f"{self._requests}:{label}"
        try:
            if label.split(".", 1)[0] in LAYERS:
                with self.span(label):
                    yield
            else:
                yield
        finally:
            self.request_id = None

    def wrap(self, module, attr: str, namer, on_result=None) -> None:
        """Replace ``module.attr`` by a traced wrapper; absent names are skipped."""
        orig = getattr(module, attr, None)
        if orig is None:
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.request_id is None:  # outside a client request: not traced
                return orig(*args, **kwargs)
            span = self._open(namer(args, kwargs))
            try:
                result = orig(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                self._close(span)
            if on_result is not None:
                span.info = on_result(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _fit_name(args, kwargs) -> str:
    family = _arg(args, kwargs, 1, "family", "twocomp")
    family = getattr(family, "value", family)
    if family == "twocomp":
        warm = _arg(args, kwargs, 2, "init") is not None
        family = "twocomp_warm" if warm else "twocomp_cold"
    return f"estimate.fit_nls.{family}"


def _fit_info(result, args, kwargs) -> dict:
    # read attributes only: a numpy call here would change the state of
    # numpy's buffer cache, and with it the package's last bits
    nfev = getattr(result, "nfev", None)
    if nfev is None:
        nfev = getattr(result, "n_iter", None)
    return {"nfev": nfev}


def _solver_info(result, args, kwargs) -> dict:
    return {"nfev": int(result.nfev), "status": int(result.status)}


def _info_matrix_name(args, kwargs) -> str:
    em = _arg(args, kwargs, 2, "em")
    return "fisher.info_matrix." + INFO_MODELS.get(type(em).__name__, "other")


def _boot_info(pos: int, default: int):
    def info(result, args, kwargs) -> dict:
        return {"boot": int(_arg(args, kwargs, pos, "n_boot", default))}
    return info


def _fixed(name: str):
    return lambda args, kwargs: name


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions of the ``adoptkit`` package."""
    modules = {}
    for name in ("curves", "datasets", "econ", "estimate", "fisher", "infer",
                 "jsonio", "simgen", "parallel"):
        if importlib.util.find_spec(f"adoptkit.{name}") is not None:
            modules[name] = importlib.import_module(f"adoptkit.{name}")

    def plain(layer: str, func: str, on_result=None):
        if layer in modules:
            tracer.wrap(modules[layer], func, _fixed(f"{layer}.{func}"), on_result)

    est = modules["estimate"]
    tracer.wrap(est, "fit_nls", _fit_name, _fit_info)
    plain("estimate", "prepost_delta_beta", _boot_info(3, 1000))
    plain("estimate", "profile_ci_tstar")
    plain("estimate", "delta_ci_tstar")
    # solver calls: the scipy.optimize names bound in each module that uses them
    for mod in modules.values():
        for func in ("least_squares", "minimize"):
            tracer.wrap(mod, func, _fixed(f"solver.{func}"), _solver_info)
    plain("infer", "constrained_lr")
    plain("infer", "shape_test", _boot_info(1, 1000))
    for func in ("vuong", "durbin_watson", "breusch_pagan"):
        plain("infer", func)
    tracer.wrap(modules["fisher"], "info_matrix", _info_matrix_name)
    plain("fisher", "sample_observations")
    plain("fisher", "crlb_check")
    plain("simgen", "run_benchmark")
    plain("simgen", "gen_series")
    plain("simgen", "pilot_sim")
    # simgen binds indexed_map by name; fisher imports it from parallel per call
    for mod in (modules.get("simgen"), modules.get("parallel")):
        if mod is not None:
            tracer.wrap(mod, "indexed_map", _fixed("parallel.indexed_map"))
    plain("curves", "classify_phase")
    plain("econ", "threshold_uncertainty")
    plain("econ", "agency_threshold")
    plain("jsonio", "dumps_canonical")
    plain("datasets", "load_builtin")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], traced_wall: float) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one set of spans."""
    self_s = self_times(spans)
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.total_s", s.duration)
        add(f"{s.name}.self_s", self_s[s.id])
        add(f"{s.layer}.self_s", self_s[s.id])
        add(f"{s.name}.failed", s.failed)
    for name in {s.name for s in spans}:
        m[f"{name}.ms_per_call"] = 1e3 * m[f"{name}.total_s"] / m[f"{name}.calls"]
    # function-level totals across variants (fit_nls.<family>, info_matrix.<model>)
    for s in spans:
        parts = s.name.split(".")
        if len(parts) == 3:
            base = ".".join(parts[:2])
            add(f"{base}.calls", 1)
            add(f"{base}.self_s", self_s[s.id])
            add(f"{base}.failed", s.failed)

    fits = [s for s in spans if s.name.startswith("estimate.fit_nls.")]
    fit_ids = {s.id for s in fits}
    ls_in_fit = [
        s for s in spans
        if s.name == "solver.least_squares" and s.parent in fit_ids
    ]
    ok_fits = [s for s in fits if not s.failed and s.info and s.info.get("nfev") is not None]
    if fits:
        m["solver.least_squares.calls_per_fit"] = len(ls_in_fit) / len(fits)
    if ok_fits:
        m["estimate.nfev_per_fit"] = sum(s.info["nfev"] for s in ok_fits) / len(ok_fits)
    all_nfev = sum(s.info["nfev"] for s in ls_in_fit if s.info)
    if all_nfev:
        m["solver.useful_nfev_share"] = sum(s.info["nfev"] for s in ok_fits) / all_nfev
    m["solver.least_squares.exhausted"] = sum(
        1 for s in spans
        if s.name == "solver.least_squares" and s.info and s.info["status"] == 0
    )
    for s in spans:
        if s.info and "boot" in s.info:
            add(f"{s.name}.boot_draws", s.info["boot"])

    covered = sum(s.duration for s in spans if s.parent is None and s.layer in LAYERS)
    if traced_wall > 0:
        m["trace.layer_cover_share"] = covered / traced_wall
    m["trace.spans"] = len(spans)
    return m
