"""Series generation, the pilot simulation, and the benchmark harness."""

import numpy as np
import pytest

import adoptkit as ak
from adoptkit import curves, estimate, fisher, infer, jsonio, simgen
from adoptkit.curves import PhaseKind, ThetaTwoComp
from adoptkit.errors import RECOVERABLE, ValidationError
from adoptkit.fisher import BinomialCounts, GaussianAr1, GaussianIid, PoissonCounts

THETA = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)


class TestGenSeries:
    def test_zero_sigma_reproduces_curve(self):
        s = simgen.gen_series(THETA, GaussianIid(0.0), 21, 20.0, seed=5)
        assert s.values == pytest.approx(ak.eval_curve(THETA, s.times), abs=0.0)
        assert s.times[0] == 0.0 and s.times[-1] == 20.0

    @pytest.mark.parametrize("n_points,horizon,named", [
        (1, 20.0, "n_points"), (21, 0.0, "horizon"), (21, float("inf"), "horizon"),
        (21, float("nan"), "horizon"),
    ])
    def test_design_checks(self, n_points, horizon, named):
        with pytest.raises(ValidationError, match=named):
            simgen.gen_series(THETA, GaussianIid(0.05), n_points, horizon)

    def test_deterministic_per_seed(self):
        a = simgen.gen_series(THETA, GaussianIid(0.05), 21, 20.0, seed=7)
        b = simgen.gen_series(THETA, GaussianIid(0.05), 21, 20.0, seed=7)
        c = simgen.gen_series(THETA, GaussianIid(0.05), 21, 20.0, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_poisson_mean_matches_rate(self):
        kappa = 7.0
        t_fix = 4.0
        lam = kappa * float(ak.eval_curve(THETA, t_fix))
        rng = np.random.default_rng(11)
        draws = np.array([
            fisher.sample_observations(THETA, [t_fix], PoissonCounts(kappa), rng)[0]
            for _ in range(10_000)
        ])
        se = np.sqrt(lam / len(draws))
        assert abs(draws.mean() - lam) <= 3 * se

    def test_ar1_lag1_autocorrelation(self):
        s = simgen.gen_series(THETA, GaussianAr1(0.2, 0.5), 10_000, 30.0, seed=3)
        noise = s.values - ak.eval_curve(THETA, s.times)
        r = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert r == pytest.approx(0.5, abs=0.02)

    def test_binomial_counts_within_bounds(self):
        em = BinomialCounts(m=5.0, trials=40)
        s = simgen.gen_series(THETA, em, 21, 20.0, seed=9)
        assert np.all(s.values >= 0) and np.all(s.values <= 40)
        assert np.all(s.values == np.round(s.values))

    def test_validation(self):
        with pytest.raises(ValidationError):
            simgen.gen_series(THETA, GaussianIid(0.1), 1, 20.0)
        # before: nan returned the depth-0 boundary
        for depth in (float("nan"), -0.1, float("inf")):
            with pytest.raises(ValidationError, match="depth"):
                simgen.theta_for_depth(depth)
        with pytest.raises(ValidationError):
            simgen.gen_series(THETA, GaussianIid(0.1), 21, -1.0)


class TestPilot:
    def test_reference_stream(self):
        res = simgen.pilot_sim()
        assert res.r_chat == pytest.approx(0.59)
        assert res.r_agent == pytest.approx(0.775)
        assert res.r_star == pytest.approx(res.r_chat + 0.4 / res.mu_c, rel=1e-12)

    def test_means_near_beta_expectations(self):
        res = simgen.pilot_sim(simgen.PilotConfig(seed=42, n_tasks=200))
        assert abs(res.r_chat - 0.6) <= 3 * np.sqrt(0.6 * 0.4 / 200)
        assert abs(res.r_agent - 0.8) <= 3 * np.sqrt(0.8 * 0.2 / 200)

    def test_zero_deltas_reduce_to_chat(self):
        cfg = simgen.PilotConfig(seed=1, n_tasks=50, delta_tau=0.0, delta_phi=0.0)
        res = simgen.pilot_sim(cfg)
        assert res.r_star == res.r_chat


class TestDepthParameterization:
    def test_zero_depth_is_monotone_boundary(self):
        th = simgen.theta_for_depth(0.0)
        assert th.beta * th.umax == pytest.approx(th.alpha * th.n0, rel=1e-12)
        assert ak.monotone_condition(th)
        assert simgen.trough_depth(th) == 0.0

    def test_target_depth_reached(self):
        for d in (0.1, 0.2, 0.3):
            th = simgen.theta_for_depth(d)
            assert simgen.trough_depth(th) == pytest.approx(d, abs=1e-8)
            assert ak.classify_phase(th).kind == PhaseKind.TROUGH

    def test_depth_increases_with_n0(self):
        d1 = simgen.trough_depth(ThetaTwoComp(1.0, 0.8, 2.0, 0.25))
        d2 = simgen.trough_depth(ThetaTwoComp(2.0, 0.8, 2.0, 0.25))
        assert d2 > d1


class TestBenchmark:
    def small_grid(self, depths=(0.0, 0.2), reps=40, seed=17):
        return simgen.ScenarioGrid(
            thetas=tuple(simgen.theta_for_depth(d) for d in depths),
            error_models=(GaussianIid(0.05),),
            n_points=(21,),
            replicates=reps,
            seed=seed,
            shape_boot=60,
        )

    @pytest.mark.parametrize("field", [{"shape_boot": 0}, {"shape_boot": -3}, {"seed": -1}])
    def test_grid_range_checks(self, field):
        # shape_boot 0 made every shape test fail and type1_shape read null
        with pytest.raises(ValidationError):
            simgen.ScenarioGrid(thetas=(simgen.theta_for_depth(0.0),), error_models=(GaussianIid(0.05),),
                                n_points=(21,), **field)

    @pytest.mark.parametrize("field", [
        {"level": 1.5}, {"level": 0.0}, {"level": float("nan")},
        {"horizon": 0.0}, {"horizon": -20.0}, {"horizon": float("inf")}, {"horizon": float("nan")},
    ], ids=["level1.5", "level0", "level-nan", "horizon0", "horizon-negative", "horizon-inf", "horizon-nan"])
    def test_grid_level_and_horizon_checks(self, field):
        # before: level 1.5 reported coverage_tstar 0.0 (every delta-method CI
        # raised and counted as a miss), horizon 0 failed every replicate
        with pytest.raises(ValidationError):
            simgen.ScenarioGrid(thetas=(simgen.theta_for_depth(0.2),), error_models=(GaussianIid(0.05),),
                                n_points=(21,), **field)

    def test_bitwise_reproducible_across_threads(self):
        grid = self.small_grid()
        a = simgen.run_benchmark(grid, threads=1)
        b = simgen.run_benchmark(grid, threads=4)
        assert jsonio.dumps_canonical(a) == jsonio.dumps_canonical(b)

    def test_monotone_and_trough_roles(self):
        report = simgen.run_benchmark(self.small_grid())
        mono, trough = report.scenarios
        assert mono.is_monotone_truth and mono.type1_lr is not None
        assert mono.coverage_tstar is None and mono.power_lr is None
        assert not trough.is_monotone_truth
        assert trough.power_lr is not None and trough.coverage_tstar is not None
        assert trough.mean_crlb_ratio is not None
        assert report.totals["coverage_tstar_wellconditioned"] == trough.coverage_tstar

    def test_power_monotone_in_depth(self):
        grid = simgen.ScenarioGrid(
            thetas=tuple(simgen.theta_for_depth(d) for d in (0.05, 0.15, 0.3)),
            error_models=(GaussianIid(0.05),),
            n_points=(21,),
            replicates=60,
            seed=29,
            shape_boot=60,
        )
        report = simgen.run_benchmark(grid, threads=2)
        powers = [s.power_lr for s in report.scenarios]
        assert powers[1] >= powers[0] - 0.03
        assert powers[2] >= powers[1] - 0.03

    def test_near_degenerate_flagged_and_excluded(self):
        theta = ThetaTwoComp(1.95, 0.8, 2.0, 0.25)  # |umax-n0|/umax = 0.025
        grid = simgen.ScenarioGrid(
            thetas=(theta,),
            error_models=(GaussianIid(0.05),),
            n_points=(21,),
            replicates=30,
            seed=5,
            shape_boot=40,
        )
        report = simgen.run_benchmark(grid)
        s = report.scenarios[0]
        assert s.near_degenerate and not s.well_conditioned
        assert report.totals["coverage_tstar_wellconditioned"] is None

    def test_ar1_scenarios_not_headline(self):
        grid = simgen.ScenarioGrid(
            thetas=(simgen.theta_for_depth(0.2),),
            error_models=(GaussianAr1(0.05, 0.6),),
            n_points=(21,),
            replicates=30,
            seed=6,
            shape_boot=40,
        )
        report = simgen.run_benchmark(grid)
        assert not report.scenarios[0].well_conditioned

    def test_every_row_through_the_fallback_matches_the_per_replicate_loop(self, monkeypatch):
        grid = simgen.ScenarioGrid(
            thetas=tuple(simgen.theta_for_depth(d) for d in (0.0, 0.2)),
            error_models=(GaussianIid(0.05), GaussianAr1(0.05, 0.3)),
            n_points=(21,),
            replicates=12,
            seed=23,
            shape_boot=30,
        )
        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        batch = jsonio.dumps_canonical(simgen.run_benchmark(grid))
        monkeypatch.setattr(simgen, "_run_scenario", scenario_per_replicate)
        assert batch == jsonio.dumps_canonical(simgen.run_benchmark(grid))

    def test_failed_replicates_are_counted_by_class(self, monkeypatch):
        # one Bernoulli trial per point at A(t)/40 ~ 0.05: many replicates are
        # all zeros, which the batch leaves to fit_nls, which raises
        # SingularJacobian on a constant series
        grid = simgen.ScenarioGrid(
            thetas=(simgen.theta_for_depth(0.2),),
            error_models=(BinomialCounts(m=40.0, trials=1),),
            n_points=(21,),
            replicates=20,
            seed=3,
            shape_boot=20,
        )
        s = simgen.run_benchmark(grid).scenarios[0]
        assert sum(s.failures.values()) == s.n_failed > 0 and "SingularJacobian" in s.failures
        oracle = scenario_per_replicate(grid.thetas[0], grid.error_models[0], 21, grid, 0)
        assert oracle.failures == s.failures


def scenario_per_replicate(theta, em, n_points, grid, scenario_index):
    """``simgen._run_scenario`` as one cold ``fit_nls`` and one
    ``constrained_lr`` per replicate, one replicate at a time."""
    times = np.linspace(0.0, grid.horizon, n_points)
    phase = curves.classify_phase(theta)
    has_trough = phase.kind == PhaseKind.TROUGH
    try:
        crlb_beta = fisher.info_matrix(theta, times, em).crlb_beta
    except RECOVERABLE:
        crlb_beta = None
    ok, names = [], []
    for i in range(grid.replicates):
        seed = (grid.seed, scenario_index, i)
        series = estimate.TimeSeries(times, fisher.sample_observations(theta, times, em, np.random.default_rng(seed)))
        try:
            fit = estimate.fit_nls(series, "twocomp")
        except RECOVERABLE as exc:
            names.append(type(exc).__name__)
            continue
        out = {"beta_hat": float(fit.theta[3])}
        if has_trough:
            try:
                ci = estimate.delta_ci_tstar(fit, level=grid.level).ci
                out["covered"] = ci[0] <= phase.t_star <= ci[1]
            except RECOVERABLE:
                out["covered"] = False
        try:
            out["lr_reject"] = infer.constrained_lr(series, fit=fit).p_value < 0.05
        except RECOVERABLE:
            out["lr_reject"] = None
        try:
            out["shape_reject"] = infer.shape_test(series, n_boot=grid.shape_boot, seed=(*seed, 1)).p_value < 0.05
        except RECOVERABLE:
            out["shape_reject"] = None
        ok.append(out)

    def rate(key):
        vals = [r[key] for r in ok if r.get(key) is not None]
        k = sum(bool(v) for v in vals)
        return (k / len(vals), simgen.wilson_interval(k, len(vals))) if vals else (None, None)

    cov, cov_ci = rate("covered") if has_trough else (None, None)
    lr, lr_ci = rate("lr_reject")
    shape_rate = rate("shape_reject")[0]
    betas = np.array([r["beta_hat"] for r in ok])
    near_degenerate = theta.umax > 0 and abs(theta.umax - theta.n0) / theta.umax < 0.05
    monotone = not has_trough
    return simgen.ScenarioResult(
        theta=theta, error_model=em, n_points=n_points, depth=simgen.trough_depth(theta),
        is_monotone_truth=monotone, near_degenerate=near_degenerate,
        well_conditioned=isinstance(em, GaussianIid) and has_trough and not near_degenerate,
        replicates=grid.replicates, n_failed=len(names),
        failures={name: names.count(name) for name in sorted(names)},
        degraded=len(names) > 0.2 * grid.replicates, coverage_tstar=cov, coverage_ci=cov_ci,
        type1_lr=lr if monotone else None, type1_lr_ci=lr_ci if monotone else None,
        type1_shape=shape_rate if monotone else None, power_lr=None if monotone else lr,
        power_lr_ci=None if monotone else lr_ci, power_shape=None if monotone else shape_rate,
        mean_crlb_ratio=float(np.var(betas, ddof=1) / crlb_beta) if crlb_beta is not None and len(ok) >= 2 else None,
    )
