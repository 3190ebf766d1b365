"""Command-line interface.

Subcommands: fit, phase, crlb, test, compare, threshold, simulate, benchmark,
pilot. Every command is a deterministic function of (flags, input files,
seed), so repeated runs are byte-identical. Its handler returns the output:
a payload that ``main`` serialises as canonical JSON, or the CSV text of
``simulate``. ``main`` alone writes it to ``--out`` and stdout and sets the
exit status: 0 success, 2 validation error (a malformed flag too: argparse
exits 2; an input file that cannot be read, an output path that cannot be
written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import curves, datasets, econ, estimate, fisher, infer, jsonio, simgen
from .curves import Family, ThetaTwoComp
from .errors import AdoptkitError, ParseError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load_series(spec: str, t_col: str, y_col: str, dow_col: str | None) -> estimate.TimeSeries:
    if spec.startswith("builtin:"):
        return datasets.load_builtin(spec.split(":", 1)[1]).series
    return jsonio.load_csv(spec, t_col=t_col, y_col=y_col, dow_col=dow_col)


def _floats(text: str, kind=float) -> list:
    """An argparse type: comma-separated numbers, empty items skipped."""
    return [kind(v) for v in text.split(",") if v.strip() != ""]


def _seed(text: str) -> int:
    """An argparse type: an RNG seed, an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")
    return int(text)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV path or builtin:<name> "
                   f"(builtins: {', '.join(datasets.builtin_names())})")
    p.add_argument("--t-col", default="t", help="time column name (default t)")
    p.add_argument("--y-col", default="y", help="value column name (default y)")
    p.add_argument("--dow-col", default=None, help="optional day-of-week column name")


def _add_theta_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n0", type=float, required=True, help="initial novelty level")
    p.add_argument("--alpha", type=float, required=True, help="novelty decay rate")
    p.add_argument("--umax", type=float, required=True, help="utility ceiling")
    p.add_argument("--beta", type=float, required=True, help="utility growth rate")


def _add_em_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--error-model", default="gaussian",
                   choices=["gaussian", "ar1", "poisson", "binomial"],
                   help="observation model (default gaussian)")
    p.add_argument("--sigma", type=float, default=0.05, help="gaussian noise scale")
    p.add_argument("--rho", type=float, default=0.0, help="AR(1) lag-1 correlation")
    p.add_argument("--kappa", type=float, default=1.0, help="poisson rate scale")
    p.add_argument("--m", type=float, default=1.0, help="binomial ceiling M")
    p.add_argument("--trials", type=int, default=1, help="binomial trials per point")


def _error_model(args) -> fisher.ErrorModel:
    if args.error_model == "gaussian":
        return fisher.GaussianIid(args.sigma)
    if args.error_model == "ar1":
        return fisher.GaussianAr1(args.sigma, args.rho)
    if args.error_model == "poisson":
        return fisher.PoissonCounts(args.kappa)
    return fisher.BinomialCounts(args.m, args.trials)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> dict:
    series = _load_series(args.data, args.t_col, args.y_col, args.dow_col)
    fit = estimate.fit_nls(series, args.family, init=args.init or None, max_iter=args.max_iter, tol=args.tol)
    return fit.to_dict()


def cmd_phase(args) -> dict:
    theta = ThetaTwoComp(args.n0, args.alpha, args.umax, args.beta)
    report = curves.classify_phase(theta)
    payload = {
        "kind": report.kind.value,
        "t_star": report.t_star,
        "ratio_r": report.ratio_r,
        "second_derivative_at_tstar": report.second_derivative_at_tstar,
        "monotone": curves.monotone_condition(theta),
    }
    if report.t_star is not None:
        sens = curves.tstar_sensitivities(theta)
        payload["tstar_sensitivities"] = {
            "alpha": sens[0], "beta": sens[1], "n0": sens[2], "umax": sens[3],
        }
    return payload


def cmd_crlb(args) -> fisher.InfoReport:
    theta = ThetaTwoComp(args.n0, args.alpha, args.umax, args.beta)
    times = np.array(args.times) if args.times else simgen.equispaced(args.n_points, args.horizon)
    return fisher.info_matrix(theta, times, _error_model(args))


def cmd_test(args) -> dict:
    series = _load_series(args.data, args.t_col, args.y_col, args.dow_col)
    if args.which in ("dw", "bp"):
        fit = estimate.fit_nls(series, "twocomp")
        if args.which == "dw":
            result = infer.durbin_watson(fit.residuals)
        else:
            result = infer.breusch_pagan(fit.residuals, series.times)
    elif args.which == "vuong":
        fit_a = estimate.fit_nls(series, args.family_a)
        fit_b = estimate.fit_nls(series, args.family_b)
        result = infer.vuong(
            infer.gaussian_pointwise_loglik(fit_a),
            infer.gaussian_pointwise_loglik(fit_b),
            curves.family_arity(Family(args.family_a)),
            curves.family_arity(Family(args.family_b)),
        )
    elif args.which == "lr":
        result = infer.constrained_lr(series)
    else:
        result = infer.shape_test(series, n_boot=args.n_boot, seed=args.seed)
    return {"statistic": result.statistic, "p": result.p_value, "method": result.method}


def cmd_compare(args) -> dict:
    series = _load_series(args.data, args.t_col, args.y_col, args.dow_col)
    rows = []
    fitted_curves: dict[str, np.ndarray] = {}
    fits: dict[str, estimate.FitReport] = {}
    for family in Family:
        try:
            fit = estimate.fit_nls(series, family)
        except AdoptkitError as exc:
            rows.append({"family": family.value, "error": str(exc)})
            continue
        fits[family.value] = fit
        dw = infer.durbin_watson(fit.residuals)
        bp = infer.breusch_pagan(fit.residuals, series.times)
        rows.append({
            "family": family.value,
            "aic": fit.aic,
            "rmse": float(np.sqrt(np.mean(fit.residuals**2))),
            "dw": dw.statistic,
            "bp_p": bp.p_value,
            "theta": fit.theta.tolist(),
            "converged": fit.converged,
        })
        fitted_curves[family.value] = series.values - fit.residuals
    rows.sort(key=lambda r: r.get("aic", float("inf")))
    payload = {"n": len(series), "models": rows}
    if "twocomp" in fits:
        ll_a = infer.gaussian_pointwise_loglik(fits["twocomp"])
        vuongs = {}
        for other in ("logistic", "bass", "logisticbump"):
            if other in fits:
                res = infer.vuong(
                    ll_a,
                    infer.gaussian_pointwise_loglik(fits[other]),
                    4,
                    curves.family_arity(Family(other)),
                )
                vuongs[other] = {"t_v": res.statistic, "p": res.p_value}
        payload["vuong_twocomp_vs"] = vuongs
    if args.plot_out:
        jsonio.save_tidy_curves(args.plot_out, series, fitted_curves)
    return payload


def cmd_threshold(args) -> dict | econ.ThresholdReport:
    mu_c = args.mu_c
    if args.economy:
        economy = jsonio.load_task_economy(args.economy, c_time=args.c_time, c_fric=args.c_fric)
        mu_c = sum(t.w * t.c_f for t in economy.tasks)
    if mu_c is None:
        raise ValidationError("either --mu-c or --economy is required")
    if args.sigma_mu is None:
        if args.c_max is not None or args.n_samples is not None:
            raise ValidationError("--c-max and --n-samples need --sigma-mu")
        return {"r_star": econ.agency_threshold(
            args.r_chat, args.delta_tau, args.delta_phi, args.c_time, args.c_fric, mu_c
        )}
    return econ.threshold_uncertainty(
        args.r_chat, args.delta_tau, args.delta_phi, args.c_time, args.c_fric,
        mu_c, args.sigma_mu, level=args.level, c_max=args.c_max, n=args.n_samples,
    )


def cmd_simulate(args) -> str:
    theta = ThetaTwoComp(args.n0, args.alpha, args.umax, args.beta)
    series = simgen.gen_series(theta, _error_model(args), args.n_points, args.horizon, seed=args.seed)
    rows = zip(series.times.tolist(), series.values.tolist())
    return "t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in rows)


def _parse_benchmark_config(path: str) -> dict:
    if not Path(path).is_file():
        raise ParseError(f"no such file: {path}")
    cfg: dict[str, str] = {}
    for raw in jsonio.read_utf8(Path(path)).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key] = value
    return cfg


def cmd_benchmark(args) -> simgen.BenchmarkReport:
    cfg = _parse_benchmark_config(args.config) if args.config else {}

    def value(key: str, default, convert):
        try:
            return convert(cfg.get(key, default))
        except (ValueError, OverflowError):  # the defaults convert
            raise ValidationError(f"config key {key!r}: invalid value {cfg[key]!r}") from None

    depths = value("depths", "0,0.1,0.2,0.3", _floats)
    sigmas = value("sigmas", "0.02,0.05,0.1", _floats)
    rhos = value("rhos", "0,0.3,0.6", _floats)
    ns = value("n_points", "21,41", lambda text: _floats(text, int))
    alpha = value("alpha", 0.8, float)
    beta = value("beta", 0.25, float)
    umax = value("umax", 2.0, float)
    grid = simgen.ScenarioGrid(
        thetas=tuple(simgen.theta_for_depth(d, alpha=alpha, beta=beta, umax=umax) for d in depths),
        error_models=tuple(
            fisher.GaussianIid(s) if r == 0.0 else fisher.GaussianAr1(s, r)
            for s in sigmas for r in rhos
        ),
        n_points=tuple(ns),
        horizon=value("horizon", 20.0, float),
        replicates=value("replicates", 200, int),
        seed=value("seed", args.seed, int),
        shape_boot=value("shape_boot", 200, int),
    )
    report = simgen.run_benchmark(grid, threads=args.threads)
    if args.out_csv:
        _write_benchmark_csv(report, args.out_csv)
    return report


def _write_benchmark_csv(report, path: str) -> None:
    cols = [
        "depth", "n_points", "error_model", "sigma", "rho", "replicates", "n_failed", "degraded",
        "well_conditioned", "near_degenerate", "coverage_tstar", "type1_lr",
        "type1_shape", "power_lr", "power_shape", "mean_crlb_ratio",
    ]

    def cell(s, col):
        if col == "error_model":
            return type(s.error_model).__name__
        if col in ("sigma", "rho"):
            # iid Gaussian noise is the grid's rho = 0; count models have neither
            val = getattr(s.error_model, col, 0.0 if isinstance(s.error_model, fisher.GaussianIid) else "")
        else:
            val = getattr(s, col)
        return f"{val:.{jsonio.FLOAT_SIG_DIGITS}g}" if isinstance(val, float) else val

    jsonio.write_csv(path, cols, ([cell(s, col) for col in cols] for s in report.scenarios))


def cmd_pilot(args) -> simgen.PilotResult:
    cfg = simgen.PilotConfig(seed=args.seed, n_tasks=args.n_tasks)
    return simgen.pilot_sim(cfg)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use (a few ms) and shared by every
    later call: parsing does not change it, and callers must not either."""
    parser = argparse.ArgumentParser(
        prog="adoptkit",
        description="Two-component adoption curves: fitting, phase analysis, "
        "information bounds, diagnostics, economics, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one curve family to a series")
    _add_data_args(p)
    p.add_argument("--family", default="twocomp", choices=[f.value for f in Family])
    p.add_argument("--init", type=_floats, default=None, help="comma-separated start values")
    p.add_argument("--max-iter", type=int, default=1000, help="LM iteration budget")
    p.add_argument("--tol", type=float, default=1e-6, help="stationarity tolerance")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("phase", help="classify a parameter vector (trough/overshoot/monotone)")
    _add_theta_args(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("crlb", help="Fisher information and profiled CRLBs for a design")
    _add_theta_args(p)
    _add_em_args(p)
    p.add_argument("--times", type=_floats, default=None, help="comma-separated design times")
    p.add_argument("--n-points", type=int, default=21, help="equispaced design size")
    p.add_argument("--horizon", type=float, default=20.0, help="equispaced design horizon")
    p.set_defaults(func=cmd_crlb)

    p = sub.add_parser("test", help="diagnostics and model-comparison tests")
    _add_data_args(p)
    p.add_argument("--which", default="shape", choices=["dw", "bp", "vuong", "lr", "shape"])
    p.add_argument("--family-a", default="twocomp", choices=[f.value for f in Family],
                   help="vuong: model a")
    p.add_argument("--family-b", default="bass", choices=[f.value for f in Family],
                   help="vuong: model b")
    p.add_argument("--n-boot", type=int, default=1000, help="shape-test bootstrap resamples")
    p.add_argument("--seed", type=_seed, default=0, help="bootstrap seed")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("compare", help="fit all six families and tabulate AIC/RMSE/DW/BP")
    _add_data_args(p)
    p.add_argument("--plot-out", default=None, help="write tidy (series,t,value) CSV here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("threshold", help="agency threshold R* and its uncertainty")
    p.add_argument("--r-chat", type=float, required=True, help="chat reliability")
    p.add_argument("--delta-tau", type=float, required=True, help="extra agent time cost")
    p.add_argument("--delta-phi", type=float, required=True, help="extra agent friction")
    p.add_argument("--c-time", type=float, default=1.0, help="cost per unit time")
    p.add_argument("--c-fric", type=float, default=1.0, help="cost per friction unit")
    p.add_argument("--mu-c", type=float, default=None, help="mean failure cost")
    p.add_argument("--economy", default=None,
                   help="task-economy CSV (columns v,c_f,tau,phi,w); sets mu-c from E[c_f]")
    p.add_argument("--sigma-mu", type=float, default=None, help="SE of the mean failure cost")
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.add_argument("--c-max", type=float, default=None, help="failure-cost upper bound")
    p.add_argument("--n-samples", type=int, default=None, help="failure-cost sample size")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="generate one synthetic series as CSV")
    _add_theta_args(p)
    _add_em_args(p)
    p.add_argument("--n-points", type=int, default=21, help="number of points")
    p.add_argument("--horizon", type=float, default=20.0, help="time horizon")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="coverage/type-I/power benchmark over a scenario grid")
    p.add_argument("--config", default=None, help="key = value grid file (# comments)")
    p.add_argument("--seed", type=_seed, default=0, help="master seed (config overrides)")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored (output-invariant)")
    p.add_argument("--out-csv", default=None, help="write per-scenario rows as CSV here")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("pilot", help="chat-vs-agent pilot simulation")
    p.add_argument("--seed", type=_seed, default=42, help="RNG seed")
    p.add_argument("--n-tasks", type=int, default=200, help="number of tasks")
    p.set_defaults(func=cmd_pilot)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="also write the output to this path")
    return parser


def main(argv=None) -> int:
    """Run one command, write its output to ``--out`` (when given) and then to
    stdout, and return the exit status. Nothing reaches stdout on an error."""
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
        text = payload if isinstance(payload, str) else jsonio.dumps_canonical(payload)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AdoptkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
