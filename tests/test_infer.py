"""Diagnostics and model-comparison tests."""

import numpy as np
import pytest
from scipy import stats

import adoptkit as ak
from adoptkit import datasets, estimate, fisher, infer, simgen
from adoptkit.curves import ComparatorParams, Family, ThetaTwoComp
from adoptkit.errors import (
    DegenerateRegressor,
    NonConvergence,
    TooShort,
    ValidationError,
    ZeroResidualNorm,
    ZeroVariance,
)
from adoptkit.estimate import TimeSeries


class TestDurbinWatson:
    def test_constant_residuals(self):
        assert infer.durbin_watson([1.0, 1.0, 1.0, 1.0]).statistic == 0.0

    def test_alternating_residuals(self):
        e = np.resize([1.0, -1.0], 20)
        assert infer.durbin_watson(e).statistic == pytest.approx(4.0 * 19 / 20)

    def test_zero_norm(self):
        with pytest.raises(ZeroResidualNorm):
            infer.durbin_watson([0.0, 0.0, 0.0])

    def test_range_sign_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            e = rng.normal(0, 1, 30)
            dw = infer.durbin_watson(e).statistic
            assert 0.0 <= dw <= 4.0
            assert infer.durbin_watson(-e).statistic == pytest.approx(dw)
            assert infer.durbin_watson(3.7 * e).statistic == pytest.approx(dw)

    def test_embedded_series_regression_value(self):
        # the embedded series' residuals around its (monotone) optimum are
        # strongly positively autocorrelated; pinned actual value
        fit = ak.fit_nls(datasets.synthetic21().series)
        dw = infer.durbin_watson(fit.residuals)
        assert dw.statistic == pytest.approx(0.522, abs=0.02)


class TestBreuschPagan:
    def test_matches_statsmodels(self):
        sm_diag = pytest.importorskip("statsmodels.stats.diagnostic")
        rng = np.random.default_rng(5)
        for n in (20, 35, 60):
            t = np.arange(float(n))
            e = rng.normal(0, 1, n) * np.linspace(0.5, 2.0, n)
            ours = infer.breusch_pagan(e, t)
            exog = np.column_stack([np.ones(n), t])
            _, _, fval, fp = sm_diag.het_breuschpagan(e, exog)
            assert ours.statistic == pytest.approx(fval, rel=1e-10)
            assert ours.p_value == pytest.approx(fp, rel=1e-10)

    def test_null_rejection_rate_calibrated(self):
        t = np.arange(50.0)
        rejections = 0
        for r in range(500):
            rng = np.random.default_rng((101, r))
            e = rng.normal(0, 1, 50)
            rejections += infer.breusch_pagan(e, t).p_value < 0.05
        assert 0.032 <= rejections / 500 <= 0.072

    def test_null_pvalues_uniform(self):
        t = np.arange(50.0)
        ps = []
        for r in range(500):
            rng = np.random.default_rng((103, r))
            ps.append(infer.breusch_pagan(rng.normal(0, 1, 50), t).p_value)
        assert stats.kstest(ps, "uniform").statistic < 0.08

    def test_power_against_increasing_variance(self):
        t = np.arange(50.0)
        rejections = 0
        for r in range(200):
            rng = np.random.default_rng((107, r))
            scale = 1.0 + 3.0 * (t / t[-1]) ** 2
            e = rng.normal(0, 1, 50) * scale
            rejections += infer.breusch_pagan(e, t).p_value < 0.05
        assert rejections / 200 > 0.8

    def test_degenerate_regressor(self):
        with pytest.raises(DegenerateRegressor):
            infer.breusch_pagan([1.0, -1.0, 0.5], [2.0, 2.0, 2.0])

    def test_embedded_series_regression_value(self):
        fit = ak.fit_nls(datasets.synthetic21().series)
        bp = infer.breusch_pagan(fit.residuals, datasets.synthetic21().series.times)
        assert bp.p_value == pytest.approx(0.070, abs=0.01)


class TestVuong:
    def test_identical_models_tie(self):
        ll = np.linspace(-1.0, -0.5, 10)
        res = infer.vuong(ll, ll.copy(), 4, 4)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_zero_variance_with_arity_gap(self):
        ll = np.linspace(-1.0, -0.5, 10)
        with pytest.raises(ZeroVariance):
            infer.vuong(ll, ll.copy(), 4, 3)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        la, lb = rng.normal(-1, 0.3, 25), rng.normal(-1, 0.3, 25)
        ab = infer.vuong(la, lb, 4, 3).statistic
        ba = infer.vuong(lb, la, 3, 4).statistic
        assert ab == pytest.approx(-ba, rel=1e-12)

    def test_embedded_series_beats_bass(self):
        series = datasets.synthetic21().series
        f2 = ak.fit_nls(series)
        fb = ak.fit_nls(series, Family.BASS)
        res = infer.vuong(
            infer.gaussian_pointwise_loglik(f2), infer.gaussian_pointwise_loglik(fb), 4, 3
        )
        assert res.statistic > 1.96
        assert res.decision_at_05

    def test_bass_truth_rarely_favors_two_component(self):
        bass = ComparatorParams(Family.BASS, (3.2, 0.05, 0.4))
        t = np.arange(0.0, 21.0)
        mean = ak.eval_curve(bass, t)
        favored = 0
        for r in range(200):
            rng = np.random.default_rng((33, r))
            series = TimeSeries(t, mean + 0.05 * rng.standard_normal(len(t)))
            f2 = ak.fit_nls(series)
            fb = ak.fit_nls(series, Family.BASS)
            res = infer.vuong(
                infer.gaussian_pointwise_loglik(f2),
                infer.gaussian_pointwise_loglik(fb),
                4,
                3,
            )
            favored += res.statistic > 1.96
        assert favored / 200 <= 0.10


class TestConstrainedLR:
    def test_lambda_nonnegative_and_zero_in_monotone_basin(self):
        theta = ThetaTwoComp(1.0, 0.8, 5.0, 0.3)
        series = simgen.gen_series(theta, fisher.GaussianIid(0.03), 41, 20.0, seed=4)
        res = infer.constrained_lr(series)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_trough_truth_power(self):
        theta = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)
        rejections = 0
        for r in range(200):
            series = simgen.gen_series(theta, fisher.GaussianIid(0.05), 41, 20.0, seed=(201, r))
            rejections += infer.constrained_lr(series).p_value < 0.05
        assert rejections / 200 > 0.8

    def test_boundary_truth_calibration(self):
        theta = simgen.theta_for_depth(0.0)
        rejections = 0
        for r in range(200):
            series = simgen.gen_series(theta, fisher.GaussianIid(0.05), 41, 20.0, seed=(21, r))
            rejections += infer.constrained_lr(series).p_value < 0.05
        # binomial 95% band around nominal 0.05 at 200 replicates
        assert 0.0198 <= rejections / 200 <= 0.0802

    def test_lambda_nonnegative_randomized(self):
        rng = np.random.default_rng(17)
        for r in range(20):
            theta = ThetaTwoComp(
                float(rng.uniform(0.3, 3)),
                float(rng.uniform(0.2, 1.5)),
                float(rng.uniform(0.3, 3)),
                float(rng.uniform(0.05, 1.0)),
            )
            series = simgen.gen_series(theta, fisher.GaussianIid(0.05), 21, 20.0, seed=(301, r))
            assert infer.constrained_lr(series).statistic >= 0.0

    def test_caller_fit_gives_the_same_result(self):
        cases = [(ThetaTwoComp(3.0, 0.8, 2.0, 0.25), (201, r)) for r in range(10)]
        cases += [(simgen.theta_for_depth(0.0), (21, r)) for r in range(10)]
        for theta, seed in cases:
            series = simgen.gen_series(theta, fisher.GaussianIid(0.05), 41, 20.0, seed=seed)
            fit = ak.fit_nls(series, "twocomp")
            assert infer.constrained_lr(series, fit=fit) == infer.constrained_lr(series)

    def test_rejects_a_fit_of_another_family(self):
        series = datasets.load_builtin("enterprise78").series
        with pytest.raises(ValidationError):
            infer.constrained_lr(series, fit=ak.fit_nls(series, "logistic"))

    def test_stuck_free_fit_gives_zero(self):
        # the free LM fit stops at SSE ~748.8, above the monotone optimum ~729.5
        res = infer.constrained_lr(datasets.load_builtin("enterprise78raw").series)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_enterprise_regression_value(self):
        res = infer.constrained_lr(datasets.load_builtin("enterprise78").series)
        assert res.statistic == pytest.approx(1.3605407946, rel=1e-9)

    def test_rounding_noise_gives_zero(self):
        # the free fit lies outside the monotone region only by rounding: the
        # constrained SSE exceeds it by less than the solve's resolution
        series = simgen.gen_series(
            simgen.theta_for_depth(0), fisher.GaussianAr1(0.05, 0.3), 21, 20.0, seed=(902, 178)
        )
        res = infer.constrained_lr(series)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_deep_trough_reaches_the_ridge(self):
        # the monotone fit has no minimiser here: its infimum is the beta -> 0
        # limit n0*exp(-alpha*t) + c*t, whose SSE gives this value exactly
        series = simgen.gen_series(
            ThetaTwoComp(3.0, 0.8, 2.0, 0.25), fisher.GaussianIid(0.05), 41, 20.0, seed=(201, 194)
        )
        assert infer.constrained_lr(series).statistic == pytest.approx(151.33259, rel=1e-6)

    def test_exhausted_budget_raises(self, monkeypatch):
        series = datasets.load_builtin("enterprise78").series
        fit = ak.fit_nls(series, "twocomp")
        leastsq = estimate.leastsq
        monkeypatch.setattr(estimate, "leastsq", lambda *a, **kw: leastsq(*a, **{**kw, "maxfev": 1}))
        # no batched step either, so the row goes to the capped polish
        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        with pytest.raises(NonConvergence):
            infer.constrained_lr(series, fit=fit)


class TestShapeTest:
    def test_strictly_increasing_large_p(self):
        t = np.arange(21.0)
        series = TimeSeries(t, np.linspace(0, 2, 21) + 0.001 * np.sin(t))
        assert infer.shape_test(series, n_boot=500, seed=1).p_value > 0.5

    def test_embedded_series_rejects(self):
        res = infer.shape_test(datasets.synthetic21().series, n_boot=2000, seed=0)
        assert res.p_value < 0.05
        assert res.statistic == pytest.approx(-0.13, abs=1e-12)

    def test_deep_trough_power(self):
        # dip of ~30% of the realized range: A falls 1.35 -> 1.03 then climbs
        # to ~1.99; noise at sigma = 0.01 keeps the dip well resolved
        theta = ThetaTwoComp(1.35, 0.8, 2.0, 0.25)
        rejections = 0
        for r in range(200):
            series = simgen.gen_series(theta, fisher.GaussianIid(0.01), 41, 20.0, seed=(11, r))
            rejections += infer.shape_test(series, n_boot=400, seed=(11, r, 1)).p_value < 0.01
        assert rejections / 200 > 0.9

    def test_too_short(self):
        with pytest.raises(TooShort):
            infer.shape_test(TimeSeries(np.arange(5.0), np.ones(5) + np.arange(5)), n_boot=10)

    @pytest.mark.parametrize("window, n_boot", [(0, 100), (-2, 100), (3, 0)])
    def test_window_and_n_boot_below_one_raise(self, window, n_boot):
        # before: a raw numpy error (window 0), a statistic of 2.06 with
        # p = 0.83 (window -2), p = 1 from no resamples (n_boot 0)
        with pytest.raises(ValidationError):
            infer.shape_test(datasets.synthetic21().series, n_boot=n_boot, window=window)

    def test_deterministic_given_seed(self):
        series = datasets.synthetic21().series
        a = infer.shape_test(series, n_boot=300, seed=9)
        b = infer.shape_test(series, n_boot=300, seed=9)
        assert a == b

    def test_matches_one_draw_per_resample(self):
        # reference: the loop of one size-n draw and one statistic per resample
        for series in (datasets.synthetic21().series, datasets.enterprise78().series):
            y = series.values
            s_obs = float(np.min(y[3:] - y[:-3]))
            fit = infer.isotonic_fit(y)
            rng = np.random.default_rng(4)
            count = 0
            for _ in range(300):
                ystar = fit + rng.choice(y - fit, size=len(y), replace=True)
                count += float(np.min(ystar[3:] - ystar[:-3])) <= s_obs
            res = infer.shape_test(series, n_boot=300, seed=4)
            assert res.p_value == (1.0 + count) / 301.0


    @staticmethod
    def reference(y, n_boot, seed, window=3):
        """The one-series p-value as it was computed before the tests ran in batches."""
        s_obs = float(np.min(y[window:] - y[:-window]))
        fit = infer.isotonic_fit(y)
        ystar = fit + np.random.default_rng(seed).choice(y - fit, size=(n_boot, len(y)), replace=True)
        s_boot = np.min(ystar[:, window:] - ystar[:, :-window], axis=1)
        return s_obs, (1.0 + int(np.count_nonzero(s_boot <= s_obs))) / (1.0 + n_boot)

    @pytest.mark.parametrize("n, window", [(21, 3), (21, 1), (41, 3), (41, 6)])
    def test_batch_rows_match_single_series(self, n, window):
        # the Monte-Carlo loop's batch: each row keeps its own seed, and its
        # statistic and p-value are those of the series alone, in any order
        # monotone and deep-trough truths in turn, so that both decisions occur
        t = np.linspace(0.0, 20.0, n)
        Y = np.array([simgen.gen_series(simgen.theta_for_depth(0.4 * (s % 2)), fisher.GaussianIid(0.02), n, 20.0,
                                        seed=(65, s)).values for s in range(12)])
        seeds = [(65, s, 1) for s in range(12)]
        batch = infer._shape_tests(Y, 150, seeds, window)
        back = infer._shape_tests(Y[::-1], 150, seeds[::-1], window)[::-1]
        assert batch == back
        for y, seed, res in zip(Y, seeds, batch):
            assert res == infer.shape_test(TimeSeries(t, y), n_boot=150, seed=seed, window=window)
            assert (res.statistic, res.p_value) == self.reference(y, 150, seed, window)
            assert type(res.statistic) is float and type(res.p_value) is float
        assert sum(res.p_value < 0.05 for res in batch) not in (0, len(batch))

    def test_a_too_short_batch_raises_as_one_series_does(self):
        Y = np.ones((3, 7)) + np.arange(7)
        with pytest.raises(TooShort):
            infer._shape_tests(Y, 10, [0, 1, 2])
        with pytest.raises(TooShort):
            infer.shape_test(TimeSeries(np.arange(7.0), Y[0]), n_boot=10)


class TestIsotonicFit:
    def test_pools_adjacent_violators(self):
        assert infer.isotonic_fit([3.0, 1.0, 2.0]).tolist() == [2.0, 2.0, 2.0]

    def test_matches_scipy(self):
        from scipy import optimize

        if not hasattr(optimize, "isotonic_regression"):
            pytest.skip("scipy.optimize.isotonic_regression needs scipy >= 1.12")
        for r in range(50):
            rng = np.random.default_rng((93, r))
            y = np.cumsum(rng.normal(0.1, 1.0, rng.integers(1, 60)))
            want = optimize.isotonic_regression(y).x
            assert np.allclose(infer.isotonic_fit(y), want, rtol=0.0, atol=1e-12 * np.max(np.abs(y)))


class TestGaussianLoglik:
    def test_matches_normal_logpdf(self):
        fit = ak.fit_nls(datasets.synthetic21().series)
        ll = infer.gaussian_pointwise_loglik(fit)
        s2 = np.mean(fit.residuals**2)
        want = stats.norm.logpdf(fit.residuals, scale=np.sqrt(s2))
        assert ll == pytest.approx(want, rel=1e-12)
