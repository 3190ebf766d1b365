"""Fitting, identification, and uncertainty machinery."""

import dataclasses
import functools
import itertools
import math
import zlib
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adoptkit as ak
from adoptkit import curves, datasets, estimate, fisher, jsonio, simgen
from adoptkit.curves import Family, ThetaTwoComp
from adoptkit.errors import (
    RECOVERABLE,
    DegenerateDesign,
    DegenerateIdentification,
    InsufficientData,
    NonConvergence,
    SingularJacobian,
    ValidationError,
    WindowInfeasible,
)
from adoptkit.estimate import TimeSeries, WindowSpec


def noiseless_series(theta, n=41, horizon=20.0):
    t = np.linspace(0.0, horizon, n)
    return TimeSeries(t, ak.eval_curve(theta, t))


class TestFitNls:
    def test_recovers_noiseless_truth(self):
        theta = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)
        fit = ak.fit_nls(noiseless_series(theta))
        assert fit.theta == pytest.approx(theta.as_array(), rel=1e-4)
        assert fit.converged

    def test_embedded_series_deterministic_optimum(self):
        # The embedded 21-point series rises, dips, then rises again; the
        # two-component family admits at most one interior extremum, so its
        # least-squares optimum lies in the monotone region. The fit is
        # deterministic; SSE beats the Bass fit on the same data.
        series = datasets.synthetic21().series
        fit = ak.fit_nls(series)
        assert fit.converged
        assert fit.theta == pytest.approx([1.2357, 0.2735, 4.0640, 0.1037], rel=2e-3)
        bass = ak.fit_nls(series, Family.BASS)
        assert fit.sse < bass.sse
        assert fit.aic < bass.aic

    def test_constant_series_is_not_silently_fit(self):
        t = np.arange(0.0, 12.0)
        series = TimeSeries(t, np.full_like(t, 2.0))
        with pytest.raises((SingularJacobian, NonConvergence)):
            ak.fit_nls(series)

    @pytest.mark.parametrize("init", [
        [1.0, -0.5, 2.0, 0.1],  # a negative rate: was fit at alpha = 4e-18, converged=True
        [1.0, 0.5, 2.0, math.inf],  # was NonConvergence, so the CLI exited 3
        [math.nan, 0.5, 2.0, 0.1],  # was accepted
    ])
    def test_invalid_init_raises(self, init):
        with pytest.raises(ValidationError, match="init"):
            ak.fit_nls(datasets.synthetic21().series, init=init)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_raises(self, max_iter):
        # was handed to MINPACK as its own default budget
        with pytest.raises(ValidationError, match="max_iter"):
            ak.fit_nls(datasets.load_builtin("enterprise78raw").series, "logisticbump", max_iter=max_iter)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6, math.inf])
    def test_tol_not_finite_and_positive_raises(self, tol):
        # before: nan marked every fit not converged, <= 0 every fit of a
        # series not fit exactly, inf every fit converged
        with pytest.raises(ValidationError, match="tol"):
            ak.fit_nls(datasets.synthetic21().series, tol=tol)

    def test_insufficient_data(self):
        series = TimeSeries([0.0, 1.0, 2.0], [1.0, 1.1, 1.3])
        with pytest.raises(InsufficientData):
            ak.fit_nls(series, Family.TWO_COMP)

    def test_analytic_and_numeric_jacobian_agree(self):
        series = datasets.synthetic21().series
        fit = ak.fit_nls(series)

        def cov(J):
            return fit.sigma2 * np.linalg.inv(J.T @ J)

        analytic = cov(curves._gradient_values(fit.theta, series.times)[:, curves.FIT_ORDER])
        numeric = cov(estimate._jacobian(Family.TWO_COMP, series.times, fit.theta[None])[0])
        assert np.allclose(analytic, numeric, rtol=1e-3)
        assert np.allclose(fit.cov, analytic, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", ["synthetic21", "enterprise78raw"])
    def test_logistic_cov_matches_closed_form_derivatives(self, name):
        series = datasets.load_builtin(name).series
        fit = ak.fit_nls(series, Family.LOGISTIC)
        k, c, g = fit.theta
        t = series.times
        e = np.exp(-g * t)
        d = 1.0 + c * e
        J = np.column_stack([1.0 / d, -k * e / d**2, k * c * t * e / d**2])
        assert np.allclose(fit.cov, fit.sigma2 * np.linalg.inv(J.T @ J), rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
    def test_complex_step_jacobian_matches_central_differences(self, family):
        # guards the complex step: an operation in curves._eval_values that is
        # not complex-analytic (abs, a cast to float) would corrupt every
        # covariance without failing a fit
        series = datasets.synthetic21().series
        theta = ak.fit_nls(series, family).theta
        J = estimate._jacobian(family, series.times, theta[None])[0]
        for j in range(len(theta)):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            diff = (curves._eval_values(family, up, series.times)
                    - curves._eval_values(family, dn, series.times)) / (2.0 * h)
            assert np.max(np.abs(J[:, j] - diff)) <= 1e-6 * np.max(np.abs(J[:, j]))

    def test_aic_matches_definition(self):
        series = datasets.synthetic21().series
        for family in (Family.TWO_COMP, Family.LOGISTIC):
            fit = ak.fit_nls(series, family)
            n, k = len(series), len(fit.theta)
            assert fit.aic == pytest.approx(2 * k + n * math.log(np.mean(fit.residuals**2)))

    def test_covariance_symmetric_psd(self):
        fit = ak.fit_nls(datasets.enterprise78().series)
        assert np.max(np.abs(fit.cov - fit.cov.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(fit.cov)) > -1e-10

    def test_families_fit_enterprise(self):
        # the redundant 5/6-parameter families may legitimately end up
        # unidentified on this gently curved series; those reports carry the
        # singular/cov_unreliable flags instead of failing
        series = datasets.enterprise78().series
        for family in (Family.TWO_COMP, Family.LOGISTIC, Family.BASS, Family.LOGISTIC_BUMP):
            fit = ak.fit_nls(series, family)
            assert np.all(np.isfinite(fit.theta))
            assert fit.sse < 1e3
        for family in (Family.BI_LOGISTIC, Family.DOUBLE_EXP):
            try:
                fit = ak.fit_nls(series, family)
            except NonConvergence:
                continue
            assert np.all(np.isfinite(fit.theta))
            if fit.singular:
                assert fit.cov_unreliable

    def test_logistic_aic_invariant_to_time_shift(self):
        # the logistic family is closed under re-timing (c absorbs the shift)
        series = datasets.synthetic21().series
        shifted = TimeSeries(series.times + 3.0, series.values)
        a = ak.fit_nls(series, Family.LOGISTIC).aic
        b = ak.fit_nls(shifted, Family.LOGISTIC).aic
        assert a == pytest.approx(b, abs=1e-6)


class TestDoubleExp:
    # SSE of the Levenberg-Marquardt fit this variable-projection fit replaced
    LM_SSE = {"synthetic21": 0.6189310377857326, "enterprise78raw": 748.8419596597827}

    @pytest.mark.parametrize("name", ["synthetic21", "enterprise78", "enterprise78raw"])
    def test_rates_ordered(self, name):
        k, b1, r1, b2, r2 = ak.fit_nls(datasets.load_builtin(name).series, Family.DOUBLE_EXP).theta
        assert r1 >= r2 > 0
        assert min(k, b1, b2) >= 0.0

    @pytest.mark.parametrize("name", sorted(LM_SSE))
    def test_sse_within_lm_reference(self, name):
        fit = ak.fit_nls(datasets.load_builtin(name).series, Family.DOUBLE_EXP)
        assert fit.sse <= self.LM_SSE[name] * (1.0 + 1e-6)

    def test_enterprise_collapse_is_flagged_quickly(self, monkeypatch):
        # the LM fit used up 2 x 6000 evaluations here and raised NonConvergence
        nfev = []
        least_squares = estimate.least_squares

        def counted(*args, **kwargs):
            res = least_squares(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(estimate, "least_squares", counted)
        fit = ak.fit_nls(datasets.enterprise78().series, Family.DOUBLE_EXP)
        assert not fit.converged
        assert fit.cov_unreliable
        assert fit.sse <= 8.5
        assert sum(nfev) <= 500

    def test_zero_amplitude_has_canonical_form(self):
        # NNLS zeroes the fast amplitude; its rate is reported as the slow one
        k, b1, r1, b2, r2 = ak.fit_nls(datasets.enterprise78().series, Family.DOUBLE_EXP).theta
        assert b1 == 0.0
        assert r1 == r2
        assert k > 0 and b2 > 0

    def test_recovers_noiseless_truth(self):
        truth = (5.0, 2.0, 1.0, 1.5, 0.1)
        t = np.linspace(0.0, 20.0, 41)
        series = TimeSeries(t, ak.eval_curve(ak.ComparatorParams(Family.DOUBLE_EXP, truth), t))
        fit = ak.fit_nls(series, Family.DOUBLE_EXP)
        assert fit.theta == pytest.approx(truth, rel=1e-6)
        assert fit.converged
        assert not fit.cov_unreliable


class TestIdentifyFromMoments:
    def test_reference_candidates(self):
        cands = ak.identify_from_moments(3.0, -1.9, 1.795, 2.0)
        rates = sorted((round(c.alpha, 6), round(c.beta, 6)) for c in cands)
        assert rates == [(0.8, 0.25), (3.0, 3.55)]

    def test_d3_disambiguation(self):
        d3 = -(0.8**3) * 3.0 + 0.25**3 * 2.0
        cands = ak.identify_from_moments(3.0, -1.9, 1.795, 2.0, d3=d3)
        assert len(cands) == 1
        assert (cands[0].alpha, cands[0].beta) == pytest.approx((0.8, 0.25))

    def test_degenerate_when_levels_match(self):
        with pytest.raises(DegenerateIdentification):
            ak.identify_from_moments(2.0, -1.0, 0.5, 2.0)

    def test_no_positive_root(self):
        # a0 = 0 collapses the quadratic entirely: no admissible rate pair
        from adoptkit.errors import NoPositiveRoot

        with pytest.raises(NoPositiveRoot):
            ak.identify_from_moments(0.0, 0.5, -0.1, 2.0)
        # negative discriminant: moments inconsistent with any real rates
        with pytest.raises(NoPositiveRoot):
            ak.identify_from_moments(1.1, 0.38, -0.1, 3.41)

    def test_candidates_reproduce_moments_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            theta = ThetaTwoComp(
                float(rng.uniform(0.2, 4.0)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.2, 4.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            if abs(theta.umax - theta.n0) < 1e-3:
                continue
            d1 = -theta.alpha * theta.n0 + theta.beta * theta.umax
            d2 = theta.alpha**2 * theta.n0 - theta.beta**2 * theta.umax
            cands = ak.identify_from_moments(theta.n0, d1, d2, theta.umax)
            assert any(
                c.alpha == pytest.approx(theta.alpha, rel=1e-6)
                and c.beta == pytest.approx(theta.beta, rel=1e-6)
                for c in cands
            )
            for c in cands:
                d1_c = -c.alpha * c.n0 + c.beta * c.umax
                d2_c = c.alpha**2 * c.n0 - c.beta**2 * c.umax
                assert d1_c == pytest.approx(d1, abs=1e-10 * max(1, abs(d1)))
                assert d2_c == pytest.approx(d2, abs=1e-10 * max(1, abs(d2)))


class TestDeltaCiTstar:
    def test_zero_covariance_gives_degenerate_ci(self):
        fit = ak.fit_nls(noiseless_series(ThetaTwoComp(3.0, 0.8, 2.0, 0.25)))
        frozen = estimate.FitReport(
            family=fit.family,
            theta=fit.theta,
            cov=np.zeros((4, 4)),
            residuals=fit.residuals,
            sigma2=fit.sigma2,
            aic=fit.aic,
            converged=fit.converged,
            n_iter=fit.n_iter,
            jtj_condition=fit.jtj_condition,
            cov_unreliable=fit.cov_unreliable,
            grad_norm=fit.grad_norm,
        )
        d = ak.delta_ci_tstar(frozen)
        assert d.variance == 0.0
        assert d.ci[0] == pytest.approx(d.t_star) and d.ci[1] == pytest.approx(d.t_star)

    def test_monotone_fit_rejected(self):
        fit = ak.fit_nls(noiseless_series(ThetaTwoComp(1.0, 0.8, 5.0, 0.3)))
        with pytest.raises(ak.errors.NoInteriorExtremum):
            ak.delta_ci_tstar(fit)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_level_outside_unit_interval_raises(self, level):
        # before: NaN or infinite bounds
        fit = ak.fit_nls(noiseless_series(ThetaTwoComp(3.0, 0.8, 2.0, 0.25)))
        with pytest.raises(ValidationError, match="level"):
            ak.delta_ci_tstar(fit, level=level)

    def test_against_parametric_bootstrap_oracle(self):
        # delta-method SE within a factor-2 band of a 500-refit parametric
        # bootstrap; the enterprise fit sits in the ill-conditioned r ~ 1
        # regime, where the first-order delta approximation is stressed
        series = datasets.enterprise78().series
        fit = ak.fit_nls(series)
        d = ak.delta_ci_tstar(fit)
        sig = math.sqrt(fit.sigma2)
        theta_hat = fit.theta_two_comp()
        mean = ak.eval_curve(theta_hat, series.times)
        tstars = []
        for r in range(500):
            rng = np.random.default_rng((777, r))
            y = mean + sig * rng.standard_normal(len(series))
            try:
                refit = ak.fit_nls(TimeSeries(series.times, y), init=fit.theta)
            except RECOVERABLE:
                continue
            ts = ak.critical_time(refit.theta_two_comp())
            if ts is not None:
                tstars.append(ts)
        assert len(tstars) > 300
        boot_se = float(np.std(tstars, ddof=1))
        assert 0.5 <= math.sqrt(d.variance) / boot_se <= 2.0

    def test_reference_scale_interval(self):
        # trough near 5.2 with noise sized so the 95% delta CI has width ~1.2
        theta = ThetaTwoComp(4.8, 0.5, 3.0, 0.1)
        series = simgen.gen_series(theta, fisher.GaussianIid(0.22), 41, 20.0, seed=123)
        d = ak.delta_ci_tstar(ak.fit_nls(series))
        width = d.ci[1] - d.ci[0]
        assert d.t_star == pytest.approx(5.2, abs=0.8)
        assert width == pytest.approx(1.2, abs=0.36)


def prepost_series(beta_pre, beta_post, sigma, seed):
    """Piecewise generator: each window follows the two-component curve from
    its own window origin (pre [5,15) origins at 5; post (15,25] at 16)."""
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, 31.0)
    th_pre = ThetaTwoComp(1.0, 0.5, 2.0, beta_pre)
    th_post = ThetaTwoComp(1.0, 0.5, 2.0, beta_post)
    y = np.where(
        t < 15.5,
        ak.eval_curve(th_pre, np.maximum(t - 5.0, 0.0)),
        ak.eval_curve(th_post, np.maximum(t - 16.0, 0.0)),
    )
    return TimeSeries(t, y + sigma * rng.standard_normal(len(t)))


class TestPrePost:
    def test_growth_shift_detected(self):
        series = prepost_series(0.05, 0.10, 0.01, seed=1)
        rep = ak.prepost_delta_beta(series, WindowSpec(intervention_time=15.0), n_boot=200, seed=5)
        assert rep.window_used == 10
        assert rep.ci[0] <= 0.05 <= rep.ci[1]
        assert rep.ci[0] > 0.0
        assert rep.delta_beta == pytest.approx(0.05, abs=0.03)

    def test_identical_generators_cover_zero(self):
        cover = 0
        n_rep = 200
        for r in range(n_rep):
            series = prepost_series(0.07, 0.07, 0.01, seed=100 + r)
            rep = ak.prepost_delta_beta(
                series, WindowSpec(intervention_time=15.0), n_boot=120, seed=r
            )
            if rep.ci[0] <= 0.0 <= rep.ci[1]:
                cover += 1
        assert cover / n_rep >= 0.90

    def test_too_few_points_on_one_side(self):
        t = np.arange(0.0, 16.0)
        th = ThetaTwoComp(1.0, 0.5, 2.0, 0.05)
        series = TimeSeries(t, ak.eval_curve(th, t))
        # only 5 observations available after the intervention at t = 10.5
        with pytest.raises(WindowInfeasible):
            ak.prepost_delta_beta(series, WindowSpec(intervention_time=10.5), n_boot=50)

    def test_too_few_replicates_raise_before_fitting(self, monkeypatch):
        series = prepost_series(0.05, 0.10, 0.01, seed=2)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_nls called")

        monkeypatch.setattr(estimate, "fit_nls", no_fit)
        with pytest.raises(ValidationError):
            ak.prepost_delta_beta(series, WindowSpec(intervention_time=15.0), n_boot=9)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_level_outside_unit_interval_raises_before_fitting(self, monkeypatch, level):
        # before: NaN or infinite bounds after all the refits
        series = prepost_series(0.05, 0.10, 0.01, seed=2)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_nls called")

        monkeypatch.setattr(estimate, "fit_nls", no_fit)
        with pytest.raises(ValidationError, match="level"):
            ak.prepost_delta_beta(series, WindowSpec(intervention_time=15.0), n_boot=20, level=level)

    @pytest.mark.parametrize("block_len", [0, -3])
    def test_block_len_below_one_raises_before_fitting(self, monkeypatch, block_len):
        # before: silently raised to 1
        series = prepost_series(0.05, 0.10, 0.01, seed=2)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_nls called")

        monkeypatch.setattr(estimate, "fit_nls", no_fit)
        with pytest.raises(ValidationError, match="block_len"):
            ak.prepost_delta_beta(series, WindowSpec(intervention_time=15.0), block_len=block_len, n_boot=20)

    def test_deterministic_given_seed(self):
        series = prepost_series(0.05, 0.10, 0.01, seed=2)
        spec = WindowSpec(intervention_time=15.0)
        a = ak.prepost_delta_beta(series, spec, n_boot=80, seed=9)
        b = ak.prepost_delta_beta(series, spec, n_boot=80, seed=9)
        assert a == b

    def test_weekend_rule_counts_pairs(self):
        # adjacent (dow=5, dow=6) observation pairs: an alternating 5,6
        # labeling makes every candidate window exceed a budget of 1, while a
        # budget of 5 admits the base window
        base = prepost_series(0.05, 0.10, 0.01, seed=3)
        dow = np.tile([5, 6], len(base.times))[: len(base.times)]
        series = TimeSeries(base.times, base.values, dow=dow)
        with pytest.raises(WindowInfeasible):
            ak.prepost_delta_beta(
                series, WindowSpec(intervention_time=15.0, max_weekends=1), n_boot=10
            )
        rep = ak.prepost_delta_beta(
            series,
            WindowSpec(intervention_time=15.0, max_weekends=5),
            n_boot=30,
            seed=0,
        )
        assert rep.weekend_rule_applied
        assert rep.window_used == 10

    @pytest.mark.parametrize("field", [
        {"intervention_time": math.nan}, {"intervention_time": math.inf},
        {"window_length_days": 10.5}, {"max_weekends": -1},
    ], ids=["time-nan", "time-inf", "length-10.5", "weekends-negative"])
    def test_window_spec_range_checks(self, field):
        # before: a bare ValueError, an OverflowError and a TypeError inside
        # prepost_delta_beta, and every window with dow data infeasible
        with pytest.raises(ValidationError):
            WindowSpec(**{"intervention_time": 15.0, **field})

    def test_every_row_through_the_fallback_matches_the_per_replicate_loop(self, monkeypatch):
        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        for series, n_boot, seed in [
            (prepost_series(0.05, 0.10, 0.01, seed=1), 40, 5),
            (prepost_series(0.07, 0.07, 0.01, seed=100), 30, 0),
        ]:
            spec = WindowSpec(intervention_time=15.0)
            rep = ak.prepost_delta_beta(series, spec, n_boot=n_boot, seed=seed)
            oracle = prepost_per_replicate(series, spec, n_boot, seed)
            assert repr(rep) == repr(oracle)

    def test_failed_fallback_refits_are_counted_by_class(self, monkeypatch):
        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        fit_nls = estimate.fit_nls
        calls, raised = itertools.count(1), []

        def failing(series, family=Family.TWO_COMP, init=None, **kwargs):
            # the window fits pass no init; every bootstrap refit does
            if init is not None:
                kind = {1: NonConvergence, 3: SingularJacobian, 5: np.linalg.LinAlgError}.get(next(calls) % 6)
                if kind is not None:
                    raised.append(kind.__name__)
                    raise kind("injected")
            return fit_nls(series, family, init=init, **kwargs)

        monkeypatch.setattr(estimate, "fit_nls", failing)
        series = prepost_series(0.05, 0.10, 0.01, seed=1)
        rep = ak.prepost_delta_beta(series, WindowSpec(intervention_time=15.0), n_boot=40, seed=5)
        assert raised
        assert rep.n_boot_failed == len(raised) == sum(rep.failures.values())
        assert rep.failures == {name: raised.count(name) for name in sorted(set(raised))}
        assert math.isfinite(rep.se)

    def test_batch_matches_per_row_fits(self, monkeypatch):
        # 2 series x 100 bootstrap rows of both windows, one batch per series
        batches = []
        polish = estimate._polish_betas

        def record(t, Y, theta):
            batches.append((t, Y, theta))
            return polish(t, Y, theta)

        monkeypatch.setattr(estimate, "_polish_betas", record)
        spec = WindowSpec(intervention_time=15.0)
        reports = [ak.prepost_delta_beta(series, spec, n_boot=100, seed=3)
                   for series in (prepost_series(0.05, 0.10, 0.01, seed=1), prepost_series(0.07, 0.07, 0.01, seed=2))]
        assert [len(Y) for _, Y, _ in batches] == [200, 200]
        sep = estimate._SEPARABLE[Family.TWO_COMP]
        certified = 0
        for rep, (t, Y, theta) in zip(reports, batches):
            W, _, _, ok = estimate._polish_many(sep, t, Y, sep.coords(theta))
            raising = 0
            for i, y in enumerate(Y):
                try:
                    ref = estimate.fit_nls(TimeSeries(t, y), Family.TWO_COMP, init=theta[i]).sse
                except RECOVERABLE:
                    raising += 1
                    continue
                if ok[i]:
                    certified += 1
                    A, c = sep.solve(W[i], t, y)
                    assert np.sum((c @ A - y) ** 2) <= ref * (1.0 + 1e-5)
            # only a row whose own refit raises can fail its replicate
            assert rep.n_boot_failed <= raising
        assert certified >= 360

    @staticmethod
    def data_keyed_failures(fit_nls):
        """``fit_nls`` whose warm refits raise by the bytes of the series, not
        by the order of the calls: about one in three, in two classes."""
        def fit(series, family=Family.TWO_COMP, init=None, **kwargs):
            if init is not None:
                key = zlib.crc32(series.values.tobytes()) % 6
                if key in (1, 4):
                    raise (NonConvergence if key == 1 else SingularJacobian)("injected")
            return fit_nls(series, family, init=init, **kwargs)
        return fit

    def test_one_batch_matches_a_batch_per_window(self, monkeypatch):
        # equal windows: the one batch of both windows' rows gives the bytes
        # of a batch per window
        polish = estimate._polish_betas

        def per_window(t, Y, theta):
            B = len(Y) // 2
            parts = [polish(t, Y[:B], theta[0]), polish(t, Y[B:], theta[B])]
            return tuple(np.concatenate(part) for part in zip(*parts))

        spec = WindowSpec(intervention_time=15.0)
        for series, seed in [(prepost_series(0.05, 0.10, 0.01, seed=1), 3), (prepost_series(0.07, 0.07, 0.01, seed=2), 4)]:
            reports = []
            for polishes in (polish, per_window):
                with monkeypatch.context() as m:
                    m.setattr(estimate, "_polish_betas", polishes)
                    reports.append(ak.prepost_delta_beta(series, spec, n_boot=100, seed=seed))
            merged, split = reports
            assert jsonio.dumps_canonical(merged) == jsonio.dumps_canonical(split)
            assert repr(merged) == repr(split)

    @pytest.mark.parametrize("drop", [None, 8.0])
    def test_failed_pre_row_skips_its_post_row(self, monkeypatch, drop):
        # every row through the single refits, a third of them failing: a
        # post row whose pre row failed is neither refit nor counted, as in
        # the per-replicate loop, for equal windows (one batch) and for a
        # 9-point pre window against a 10-point post window (two batches)
        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        monkeypatch.setattr(estimate, "fit_nls", self.data_keyed_failures(estimate.fit_nls))
        polish, batches = estimate._polish_many, []

        def record(sep, t, Y, *args):
            batches.append((len(t), len(Y)))
            return polish(sep, t, Y, *args)

        monkeypatch.setattr(estimate, "_polish_many", record)
        series = prepost_series(0.05, 0.10, 0.01, seed=5)
        if drop is not None:
            series = TimeSeries(series.times[series.times != drop], series.values[series.times != drop])
        spec = WindowSpec(intervention_time=15.0)
        rep = ak.prepost_delta_beta(series, spec, n_boot=40, seed=6)
        assert batches == ([(9, 40), (10, 40)] if drop else [(10, 80)])
        assert repr(rep) == repr(prepost_per_replicate(series, spec, 40, 6))
        assert rep.n_boot_failed > 0 and len(rep.failures) == 2

    @staticmethod
    def third_series(seed):
        """The third series drawn from ``default_rng(seed)``, as the pre/post
        Monte-Carlo workload draws them (sigma 0.01, beta 0.05 -> 0.10)."""
        t = np.arange(0.0, 31.0)
        noise = np.random.default_rng(seed).standard_normal((3, len(t)))[2]
        y = np.where(
            t < 15.5,
            ak.eval_curve(ThetaTwoComp(1.0, 0.5, 2.0, 0.05), np.maximum(t - 5.0, 0.0)),
            ak.eval_curve(ThetaTwoComp(1.0, 0.5, 2.0, 0.10), np.maximum(t - 16.0, 0.0)),
        )
        return TimeSeries(t, y + 0.01 * noise)

    def test_flagged_window_fit_is_reported(self):
        # the pre-window fit converges at beta ~ 0.007, where umax ~ 12 and
        # beta trade off: cond(J'J) ~ 2.7e11
        spec = WindowSpec(intervention_time=15.0)
        rep = ak.prepost_delta_beta(self.third_series((2, 7)), spec, n_boot=20, seed=(2, 7, 2))
        assert rep.beta_pre == pytest.approx(0.00702, rel=1e-3)
        assert rep.pre_cov_unreliable and not rep.post_cov_unreliable
        unflagged = ak.prepost_delta_beta(prepost_series(0.05, 0.10, 0.01, seed=1), spec, n_boot=20)
        assert not unflagged.pre_cov_unreliable and not unflagged.post_cov_unreliable

    def test_window_fit_does_not_stop_at_a_rounding_edge(self):
        # with 1 - exp(-beta*t) evaluated by subtraction, this pre-window fit
        # stopped at beta = 6.1e-15, umax = 1.3e13 (SSE 1.0074e-3), flagged,
        # where the column was rounding noise; its interior optimum is lower
        series = self.third_series((2, 0))
        _, pre, _, _ = estimate._select_window(series, WindowSpec(intervention_time=15.0))
        fit = estimate.fit_nls(estimate._window_series(series, pre))
        assert fit.sse <= 4.1057e-4
        assert fit.theta_two_comp().beta == pytest.approx(0.04235, rel=1e-3)
        assert fit.converged and not fit.cov_unreliable


def prepost_per_replicate(series, spec, n_boot, seed, level=0.95):
    """``prepost_delta_beta`` as two warm ``fit_nls`` refits per replicate, one
    replicate at a time, drawing each replicate's block starts in turn."""
    w, pre_mask, post_mask, weekend_rule = estimate._select_window(series, spec)
    windows = [estimate._window_series(series, mask) for mask in (pre_mask, post_mask)]
    fits = [estimate.fit_nls(win, Family.TWO_COMP) for win in windows]
    scaled = [f.residuals * math.sqrt(len(win) / max(len(win) - 4, 1)) for f, win in zip(fits, windows)]
    resid = np.concatenate(scaled)
    m, npre = len(resid), len(windows[0])
    block_len = int(math.ceil(m ** (1.0 / 3.0)))
    n_blocks = int(math.ceil(m / block_len))
    rng = np.random.default_rng(seed)
    pairs, names = [], []
    for _ in range(n_boot):
        starts = rng.integers(0, m - block_len + 1, size=n_blocks)
        estar = np.concatenate([resid[s : s + block_len] for s in starts])[:m]
        try:
            betas = [
                estimate.fit_nls(TimeSeries(win.times, win.values - f.residuals + e),
                                 Family.TWO_COMP, init=f.theta).theta[3]
                for win, f, e in zip(windows, fits, (estar[:npre], estar[npre:]))
            ]
        except RECOVERABLE as exc:
            names.append(type(exc).__name__)
            continue
        pairs.append(betas)
    arr = np.asarray(pairs)
    var_pre = float(np.var(arr[:, 0], ddof=1))
    var_post = float(np.var(arr[:, 1], ddof=1))
    cov = float(np.cov(arr[:, 0], arr[:, 1], ddof=1)[0, 1])
    se = math.sqrt(max(var_post + var_pre - 2.0 * cov, 0.0))
    z = scipy.special.ndtri(0.5 + level / 2.0)
    beta_pre, beta_post = (float(f.theta[3]) for f in fits)
    delta = beta_post - beta_pre
    return estimate.PrePostReport(
        beta_pre=beta_pre, beta_post=beta_post, delta_beta=delta, se=se,
        ci=(delta - z * se, delta + z * se), window_used=w,
        weekend_rule_applied=weekend_rule, cov_pre_post=cov, n_boot=n_boot,
        n_boot_failed=len(names), failures={name: names.count(name) for name in sorted(names)},
        pre_cov_unreliable=not fits[0].converged or fits[0].cov_unreliable,
        post_cov_unreliable=not fits[1].converged or fits[1].cov_unreliable,
    )


# The batched Levenberg-Marquardt as it was before its state was packed into
# one array, its sums became einsums and lmpar's iteration moved to the
# eigenbasis: kept verbatim as the oracle of ``estimate._polish_many``.


def lmpar_reference(g00, g01, g11, b0, b1, d0, d1, delta, par):
    """MINPACK's lmpar for two coordinates, elementwise over rows.

    From J'J = [[g00, g01], [g01, g11]], J'f = (b0, b1), the scaling
    diagonal (d0, d1), the trust radius ``delta`` and the previous ``par``:
    the Levenberg-Marquardt parameter par >= 0 and the step
    p = -(J'J + par*D^2)^-1 J'f with ||D p|| within 10% of delta, or par = 0
    and the Gauss-Newton step when that is no longer than 1.1*delta. The 2x2
    systems are solved in closed form; a singular J'J takes its Gauss-Newton
    step along its longer column alone, as MINPACK's pivoted QR does.
    Returns (par, p0, p1).
    """

    def solve(m00, m11):
        det = m00 * m11 - g01 * g01
        return (g01 * b1 - m11 * b0) / det, (g01 * b0 - m00 * b1) / det, det

    def q_norm2(p0, p1, dxnorm, m00, m11, det):
        # ||R^-T D^2 p|| squared, D^2 p normalised by ||D p||
        q0, q1 = d0 * d0 * p0 / dxnorm, d1 * d1 * p1 / dxnorm
        return (m11 * q0 * q0 - 2.0 * g01 * q0 * q1 + m00 * q1 * q1) / det

    p0, p1, det = solve(g00, g11)
    full = det > 0.0
    if not full.all():
        first = g00 >= g11
        p0 = np.where(full, p0, np.where(first & (g00 > 0.0), -b0 / g00, 0.0))
        p1 = np.where(full, p1, np.where(~first & (g11 > 0.0), -b1 / g11, 0.0))
    dxnorm = np.hypot(d0 * p0, d1 * p1)
    fp = dxnorm - delta
    live = fp > 0.1 * delta
    if not live.any():
        return np.zeros_like(par), p0, p1
    parl = np.where(full, fp / delta / q_norm2(p0, p1, dxnorm, g00, g11, det), 0.0)
    gnorm = np.hypot(b0 / d0, b1 / d1)
    paru = gnorm / delta
    paru = np.where(paru == 0.0, np.finfo(float).tiny / np.minimum(delta, 0.1), paru)
    par = np.minimum(np.maximum(par, parl), paru)
    par = np.where(live, np.where(par == 0.0, gnorm / dxnorm, par), 0.0)
    for it in range(10):
        par = np.where(live & (par == 0.0), np.maximum(np.finfo(float).tiny, 0.001 * paru), par)
        m00, m11 = g00 + par * d0 * d0, g11 + par * d1 * d1
        q0, q1, det = solve(m00, m11)
        p0, p1 = np.where(live, q0, p0), np.where(live, q1, p1)
        dxnorm = np.hypot(d0 * p0, d1 * p1)
        last, fp = fp, np.where(live, dxnorm - delta, fp)
        live &= ~((np.abs(fp) <= 0.1 * delta) | ((parl == 0.0) & (fp <= last) & (last < 0.0)))
        if it == 9 or not live.any():
            break
        parc = fp / delta / q_norm2(p0, p1, dxnorm, m00, m11, det)
        parl = np.where(live & (fp > 0.0), np.maximum(parl, par), parl)
        paru = np.where(live & (fp < 0.0), np.minimum(paru, par), paru)
        par = np.where(live, np.maximum(parl, par + parc), par)
    return par, p0, p1


def polish_many_reference(sep: estimate._Separable, t: np.ndarray, Y: np.ndarray, w0: np.ndarray, floored: bool = True):
    """Levenberg-Marquardt polish of the coordinates of every row of ``Y``
    (shape (B, n), one series per row on the times ``t``) from ``w0``, one
    start per row (shape (B, 2)) or one for all (shape (2,)), for a family of
    two coordinates and one or two amplitudes: the package's one batched LM.

    It follows MINPACK's lmdif (Moré 1978, *LNM* 630:105) with ``_lmdif``'s
    tolerances: column-norm scaling, a trust radius with ``_lmpar``'s
    parameter, the 0.25/0.75 ratio rules, and the ftol (SOLVE_FTOL), xtol
    (1e-12, on ``_lmdif``'s shifted coordinates) and gtol (1e-12) tests.
    Each row's Jacobian of the projected residual is taken by forward
    differences with lmdif's step, and each trial point and its two
    difference neighbours are evaluated in one call, so an accepted step has
    its Jacobian ready. Every operation is elementwise or a sum along a row:
    a row's numbers do not depend on the other rows of the batch, and
    nothing raises.

    A row is certified when it meets one of the three tests. It is left
    uncertified when it is still active after ``_BATCH_MAX_ITER`` trial
    steps, when its SSE or step is not finite, when it is fitted exactly
    (where ``fit_nls`` may raise SingularJacobian), and, when ``floored``,
    when its start or an accepted step has a coordinate below the start
    grid's box: there the two-component column ``1 - exp(-beta*t)`` loses
    its digits as beta -> 0 and the data do not identify the rate (the
    cone's ``expm1`` columns stay exact, so it is not floored). Returns (W,
    SSE, evaluations, certified), shapes (B, 2), (B,), (B,) and (B,).
    """
    h = 1.4901161193847656e-06  # lmdif's difference step at x = 100
    neighbours = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])[:, None, :]

    def evaluate(W, Yr):
        """SSE and J0'J0, J0'J1, J1'J1, J0'r, J1'r at each row of W."""
        m = len(W)
        Y3 = np.concatenate([Yr, Yr, Yr])
        A = sep.design((W + neighbours).reshape(3 * m, 2), t)
        G = [[(a * c).sum(axis=-1) for c in A] for a in A]
        c = estimate._amplitudes(G, [(a * Y3).sum(axis=-1) for a in A], sep.nonneg, np.where)[0]
        R = -Y3
        for ci, a in zip(c, A):
            R = R + ci[:, None] * a
        r, J0, J1 = R[:m], (R[m : 2 * m] - R[:m]) / h, (R[2 * m :] - R[:m]) / h
        return (r * r).sum(axis=-1), [(J0 * J0).sum(axis=-1), (J0 * J1).sum(axis=-1),
                                      (J1 * J1).sum(axis=-1), (J0 * r).sum(axis=-1),
                                      (J1 * r).sum(axis=-1)]

    def inside(W):
        return (W >= lo).all(axis=-1) if floored else np.ones(len(W), dtype=bool)

    lo = np.array([estimate._ranges(t)[name][0] for name in sep.box])
    B, n = Y.shape
    W0 = np.array(np.broadcast_to(np.asarray(w0, dtype=float), (B, 2)))
    with np.errstate(all="ignore"):
        S, gram = evaluate(W0, Y)
        W_out, S_out, nfev_out = W0.copy(), S.copy(), np.full(B, 3)
        certified = np.zeros(B, dtype=bool)
        d0, d1 = (np.where(g > 0.0, np.sqrt(g), 1.0) for g in (gram[0], gram[2]))
        # lmdif iterates x = w - w0 + 100 (``_lmdif``): its radius and xtol scale with ||D x||
        xnorm = np.hypot(d0 * 100.0, d1 * 100.0)
        # ``first``: no step accepted yet (lmdif's iter == 1), the radius follows the step
        delta, par, first = 100.0 * xnorm, np.zeros(B), np.ones(B, dtype=bool)
        state = [np.arange(B), Y, W0, W0, S, *gram, d0, d1, xnorm, delta, par, first, nfev_out]
        keep = np.isfinite(S) & inside(W0)
        for _ in range(estimate._BATCH_MAX_ITER):
            state = [a[keep] for a in state]
            rows, Yr, W, W0, S, g00, g01, g11, b0, b1, d0, d1, xnorm, delta, par, first, nfev = state
            if not len(rows):
                break
            fnorm = np.sqrt(S)
            c0, c1 = np.sqrt(g00), np.sqrt(g11)
            d0, d1 = np.maximum(d0, c0), np.maximum(d1, c1)
            # gtol: the cosine of each column with the residual is at most 1e-12
            gtol = 1e-12 * fnorm
            stop_g = (np.abs(b0) <= gtol * c0) & (np.abs(b1) <= gtol * c1)
            par, p0, p1 = lmpar_reference(g00, g01, g11, b0, b1, d0, d1, delta, par)
            pnorm = np.hypot(d0 * p0, d1 * p1)
            delta = np.where(first, np.minimum(delta, pnorm), delta)
            Wt = W + np.stack([p0, p1], axis=-1)
            St, gram_t = evaluate(Wt, Yr)
            nfev = nfev + 3
            fnorm1 = np.sqrt(St)
            actred = np.where(0.1 * fnorm1 < fnorm, 1.0 - St / S, -1.0)
            t1 = (g00 * p0 * p0 + 2.0 * g01 * p0 * p1 + g11 * p1 * p1) / S
            t2 = par * pnorm * pnorm / S
            prered, dirder = t1 + 2.0 * t2, -(t1 + t2)
            ratio = np.where(prered != 0.0, actred / prered, 0.0)
            shrink = np.where(actred >= 0.0, 0.5, 0.5 * dirder / (dirder + 0.5 * actred))
            shrink = np.where((0.1 * fnorm1 >= fnorm) | (shrink < 0.1), 0.1, shrink)
            grow = (par == 0.0) | (ratio >= 0.75)
            low = ratio <= 0.25
            delta = np.where(low, shrink * np.minimum(delta, pnorm / 0.1),
                             np.where(grow, pnorm / 0.5, delta))
            par = np.where(low, par / shrink, np.where(grow, 0.5 * par, par))
            ok = (ratio >= 1e-4) & ~stop_g
            left = ok & ~inside(Wt)
            ok &= ~left
            W = np.where(ok[:, None], Wt, W)
            S = np.where(ok, St, S)
            g00, g01, g11, b0, b1 = (np.where(ok, a, b) for a, b in zip(gram_t, (g00, g01, g11, b0, b1)))
            xnorm = np.where(ok, np.hypot(d0 * (W[:, 0] - W0[:, 0] + 100.0),
                                          d1 * (W[:, 1] - W0[:, 1] + 100.0)), xnorm)
            first &= ~ok
            stop_f = (np.abs(actred) <= estimate.SOLVE_FTOL) & (prered <= estimate.SOLVE_FTOL) & (ratio <= 2.0)
            done = stop_g | (~left & (stop_f | (delta <= 1e-12 * xnorm)))
            W_out[rows], S_out[rows], nfev_out[rows] = W, S, nfev
            certified[rows[done]] = True
            keep = ~(done | left | ~np.isfinite(pnorm))
            state = [rows, Yr, W, W0, S, g00, g01, g11, b0, b1, d0, d1, xnorm, delta, par, first, nfev]
        scale = np.maximum(1.0, np.abs(Y).max(axis=-1))
        certified &= S_out / n >= (1e-8 * scale) ** 2
    return W_out, S_out, nfev_out, certified


class TestPolishMany:
    SEP = estimate._SEPARABLE[Family.TWO_COMP]

    @staticmethod
    def rows(count, seed, sigma):
        t = np.arange(10.0)
        theta = np.array([1.0, 0.5, 2.0, 0.07])
        y = ak.eval_curve(ThetaTwoComp(*theta), t)
        return t, y + sigma * np.random.default_rng(seed).standard_normal((count, len(t))), theta

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.0, 0.001, 0.01, 0.1]))
    def test_a_row_does_not_depend_on_its_batch(self, count, seed, sigma):
        t, Y, theta = self.rows(count, seed, sigma)
        w0 = self.SEP.coords(theta)
        W, _, _, ok = estimate._polish_many(self.SEP, t, Y, w0)
        for i in range(count):
            Wi, _, _, oki = estimate._polish_many(self.SEP, t, Y[i : i + 1], w0)
            assert Wi.tobytes() == W[i : i + 1].tobytes() and oki[0] == ok[i]
        Wr, _, _, okr = estimate._polish_many(self.SEP, t, Y[::-1], w0)
        assert Wr[::-1].tobytes() == W.tobytes() and (okr[::-1] == ok).all()

    def test_exact_fit_is_not_certified(self):
        t, Y, theta = self.rows(3, 0, 0.0)
        assert not estimate._polish_many(self.SEP, t, Y, self.SEP.coords(theta) + 0.1)[3].any()

    def test_a_start_below_the_box_is_certified(self):
        # beta below the start grid's box: the columns stay exact there, so the
        # polish ends where a single warm fit from that start does
        t, Y, theta = self.rows(5, 1, 0.01)
        w0 = self.SEP.coords(theta)
        w0[1] = estimate._ranges(t)["rate"][0] - 1.0
        _, S, _, ok = estimate._polish_many(self.SEP, t, Y, w0)
        assert ok.all()
        init = self.SEP.theta(w0, [1.0, 1.0])
        for y, sse in zip(Y, S):
            assert sse == pytest.approx(estimate.fit_nls(TimeSeries(t, y), init=init).sse, rel=1e-9, abs=0.0)

    @staticmethod
    def cold_rows(count, seed, sigma, depth):
        t = np.linspace(0.0, 20.0, 21)
        y = ak.eval_curve(simgen.theta_for_depth(depth), t)
        return t, y + sigma * np.random.default_rng(seed).standard_normal((count, len(t)))

    @staticmethod
    def assert_rows_independent(sep, t, Y, starts):
        """Each row's bytes and certified flag are those of a batch of that
        row alone, and of the batch in reverse order."""
        out = estimate._polish_many(sep, t, Y, starts)
        for i in range(len(Y)):
            alone = estimate._polish_many(sep, t, Y[i : i + 1], starts[i : i + 1])
            assert all(a.tobytes() == b[i : i + 1].tobytes() for a, b in zip(alone, out))
        back = estimate._polish_many(sep, t, Y[::-1], starts[::-1])
        assert all(a[::-1].tobytes() == b.tobytes() for a, b in zip(back, out))

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.0, 0.02, 0.05, 0.2]), depth=st.sampled_from([0.0, 0.2]))
    def test_cold_rows_do_not_depend_on_their_batch(self, count, seed, sigma, depth):
        t, Y = self.cold_rows(count, seed, sigma, depth)
        # both grid starts of every row, the alpha > beta sides first
        starts = np.concatenate(estimate._grid_best(*estimate._grid(self.SEP, t, Y, np.zeros(2), 0), True))
        self.assert_rows_independent(self.SEP, t, np.concatenate([Y, Y]), starts)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.0, 0.02, 0.05, 0.2]), depth=st.sampled_from([0.0, 0.2, 0.4]))
    def test_cold_pairs_do_not_depend_on_their_batch(self, count, seed, sigma, depth):
        # with partners (row i and row i + count, as _fit_cold_many pairs its
        # starts), each pair's bytes and flags are those of a batch of that
        # pair alone, and of the batch in reverse order
        t, Y = self.cold_rows(count, seed, sigma, depth)
        starts = np.concatenate(estimate._grid_best(*estimate._grid(self.SEP, t, Y, np.zeros(2), 0), True))
        Y2, mates = np.concatenate([Y, Y]), ((np.arange(2 * count) + count) % (2 * count))[:, None]
        out = estimate._polish_many(self.SEP, t, Y2, starts, mates)
        for i in range(count):
            pair = [i, i + count]
            alone = estimate._polish_many(self.SEP, t, Y2[pair], starts[pair], np.array([[1], [0]]))
            assert all(a.tobytes() == b[pair].tobytes() for a, b in zip(alone, out))
        back = estimate._polish_many(self.SEP, t, Y2[::-1], starts[::-1], 2 * count - 1 - mates[::-1])
        assert all(a[::-1].tobytes() == b.tobytes() for a, b in zip(back, out))

    def test_a_beaten_cold_start_retires(self, monkeypatch):
        # crlb_check's inputs in the benchmark: deep troughs, whose alpha < beta
        # starts lose. A row that retires once its certified partner is below
        # its Gauss-Newton model minimum loses to that partner; the winners
        # keep their bytes, and the batch takes fewer steps
        theta, em, t = ThetaTwoComp(3.0, 0.8, 2.0, 0.25), fisher.GaussianIid(0.05), np.linspace(0.0, 20.0, 41)
        Y = np.array([fisher.sample_observations(theta, t, em, np.random.default_rng((1, 0, i))) for i in range(100)])
        B = len(Y)
        starts = np.concatenate(estimate._grid_best(*estimate._grid(self.SEP, t, Y, np.zeros(2), 0), True))
        calls, lmpar = [0], estimate._lmpar

        def counted(*args):
            calls[0] += 1
            return lmpar(*args)

        monkeypatch.setattr(estimate, "_lmpar", counted)
        partner = (np.arange(2 * B) + B) % (2 * B)
        W, S, nfev, ok = estimate._polish_many(self.SEP, t, np.concatenate([Y, Y]), starts, partner[:, None])
        paired, calls[0] = calls[0], 0
        W0, S0, nfev0, ok0 = estimate._polish_many(self.SEP, t, np.concatenate([Y, Y]), starts)
        retired = (nfev != nfev0) | (S != S0) | (W != W0).any(axis=1)
        assert retired.any()
        assert ok[retired].all() and ok[partner[retired]].all()
        assert (S[partner[retired]] < S[retired]).all()
        win = np.where(S[B:] < S[:B], np.arange(B, 2 * B), np.arange(B))[ok[:B] & ok[B:]]
        assert len(win) == B and not retired[win].any()
        assert W[win].tobytes() == W0[win].tobytes() and S[win].tobytes() == S0[win].tobytes()
        assert nfev[win].tobytes() == nfev0[win].tobytes()
        assert paired < calls[0]

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.02, 0.05, 0.2]), depth=st.sampled_from([0.0, 0.2]))
    def test_cone_rows_do_not_depend_on_their_batch(self, count, seed, sigma, depth):
        cone = estimate._MONOTONE_CONE
        t, Y = self.cold_rows(count, seed, sigma, depth)
        W, val = estimate._grid(cone, t, Y, np.zeros(2), 0)
        # even rows start from a free fit (some with alpha <= beta, on the
        # alpha = beta limit), odd rows from the best local minimum of their grid
        rng = np.random.default_rng(seed)
        thetas = [ThetaTwoComp(*np.exp(rng.uniform(-1.5, 1.0, 4))) for _ in range(count)]
        best = estimate._grid_minima(W, val, 1)[0][0]
        starts = np.array([best[i] if i % 2 else estimate._cone_free(th) for i, th in enumerate(thetas)])
        self.assert_rows_independent(cone, t, Y, starts)

    @staticmethod
    def cone_batch(t, Y, thetas):
        """The arguments of the one ``_polish_many`` call that
        ``_monotone_sse_many`` makes: three starts per row, with mates."""
        with mock.patch.object(estimate, "_polish_many", wraps=estimate._polish_many) as polish:
            estimate._monotone_sse_many(t, Y, thetas)
        return polish.call_args_list[0].args

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.02, 0.05, 0.2]), depth=st.sampled_from([0.0, 0.2, 0.4]))
    def test_cone_groups_do_not_depend_on_their_batch(self, count, seed, sigma, depth):
        # with each start's two group-mates, a group's bytes and flags are
        # those of a batch of that group alone and of the reversed batch, and
        # its least SSE is that of the batch without mates
        t, Y = self.cold_rows(count, seed, sigma, depth)
        rng = np.random.default_rng(seed)
        thetas = [ThetaTwoComp(*np.exp(rng.uniform(-1.5, 1.0, 4))) for _ in range(count)]
        cone, _, Y3, starts, mates, margin = self.cone_batch(t, Y, thetas)
        out = estimate._polish_many(cone, t, Y3, starts, mates, margin)
        for g in range(count):
            group = slice(3 * g, 3 * g + 3)
            alone = estimate._polish_many(cone, t, Y3[group], starts[group], mates[group] - 3 * g, margin)
            assert all(a.tobytes() == b[group].tobytes() for a, b in zip(alone, out))
        back = estimate._polish_many(cone, t, Y3[::-1], starts[::-1], 3 * count - 1 - mates[::-1], margin)
        assert all(a[::-1].tobytes() == b.tobytes() for a, b in zip(back, out))
        _, S0, _, ok0 = estimate._polish_many(cone, t, Y3, starts)
        both = out[3].reshape(-1, 3).all(axis=1) & ok0.reshape(-1, 3).all(axis=1)
        least = out[1].reshape(-1, 3).min(axis=1)[both]
        assert least == pytest.approx(S0.reshape(-1, 3).min(axis=1)[both], rel=1e-12, abs=0.0)

    def test_a_cone_start_that_cannot_improve_retires(self):
        # deep troughs under AR(1) noise, the slowest cone batches: with mates
        # the batch takes fewer steps, and each series' least SSE is unchanged
        t = np.linspace(0.0, 20.0, 21)
        Y = fisher._sample_many(simgen.theta_for_depth(0.4), t, fisher.GaussianAr1(0.05, 0.3),
                                [np.random.default_rng((67, s)) for s in range(15)])
        fits, _ = estimate._fit_cold_many(t, Y)
        free = [i for i, fit in enumerate(fits) if not curves.monotone_condition(fit.theta_two_comp())]
        assert len(free) == 15
        args = self.cone_batch(t, Y, [fit.theta_two_comp() for fit in fits])
        calls, least = [], []
        for extra in (args[4:], ()):
            with mock.patch.object(estimate, "_lmpar", wraps=estimate._lmpar) as lmpar:
                _, S, _, ok = estimate._polish_many(*args[:4], *extra)
            assert ok.all()
            calls.append(lmpar.call_count)
            least.append(S.reshape(-1, 3).min(axis=1))
        assert calls[0] < calls[1]
        assert least[0] == pytest.approx(least[1], rel=1e-12, abs=0.0)

    def test_certified_cold_and_cone_rows_match_the_per_row_fits(self, monkeypatch):
        # seeded trough and boundary series: no SSE of the batch paths may be
        # worse than the per-row path's, and most rows must not fall back
        fit_nls, fit_coords, cone = estimate.fit_nls, estimate._fit_coords, estimate._MONOTONE_CONE
        fallbacks = {"fit_nls": 0, "cone": 0}

        def counted_fit_nls(*args):
            fallbacks["fit_nls"] += 1
            return fit_nls(*args)

        def counted_fit_coords(sep, *args):
            fallbacks["cone"] += sep is cone
            return fit_coords(sep, *args)

        def monotone_sse(t, y, theta):
            # the per-row polish: lmdif from the series' free fit and the two
            # best local minima of its cone grid
            W, val = estimate._grid(cone, t, y, np.zeros(2), 0)
            minima, k = estimate._grid_minima(W, val[:, None], 2)
            starts = [np.array(estimate._cone_free(theta)), *minima[: k[0], 0]]
            return 2.0 * fit_coords(cone, t, y, starts, 5000).cost

        monkeypatch.setattr(estimate, "fit_nls", counted_fit_nls)
        monkeypatch.setattr(estimate, "_fit_coords", counted_fit_coords)
        rows = cone_rows = 0
        noise = (fisher.GaussianIid(0.05), fisher.GaussianAr1(0.05, 0.3))
        # part of a seeded set of 960 series, and overshoots (alpha < beta),
        # whose fits come from the other side of alpha = beta
        cases = [(simgen.theta_for_depth(depth), em, n, (7300 + di, ni, n))
                 for (di, depth), (ni, em), n in itertools.product([(0, 0.0), (2, 0.2), (3, 0.4)], enumerate(noise), (21, 41))]
        cases.append((ThetaTwoComp(1.5, 0.15, 2.0, 0.6), noise[0], 21, (7310,)))
        for theta, em, n, seed in cases:
            t = np.linspace(0.0, 20.0, n)
            Y = np.array([simgen.gen_series(theta, em, n, 20.0, seed=(*seed, s)).values for s in range(45, 60)])
            fits, errors = estimate._fit_cold_many(t, Y)
            assert not errors
            for fit, y in zip(fits, Y):
                assert fit.sse <= fit_nls(TimeSeries(t, y), Family.TWO_COMP).sse * (1.0 + 1e-9)
            free = [i for i, fit in enumerate(fits) if not curves.monotone_condition(fit.theta_two_comp())]
            thetas = [fits[i].theta_two_comp() for i in free]
            sse, errors = estimate._monotone_sse_many(t, Y[free], thetas)
            assert not errors
            for j, i in enumerate(free):
                assert sse[j] == pytest.approx(monotone_sse(t, Y[i], thetas[j]), rel=1e-9)
            rows, cone_rows = rows + len(Y), cone_rows + len(free)
        assert fallbacks["fit_nls"] <= 0.2 * rows
        assert fallbacks["cone"] <= 0.1 * cone_rows

    def test_matches_the_reference(self, monkeypatch):
        # the batches of seeded pre/post bootstraps (warm), and of cold free
        # and cone fits of trough and boundary series, against the verbatim
        # reference. The reference sums in another order, so rounding can send
        # a row along another path: a start on the cone's flat alpha = beta
        # or beta -> 0 limit may stop elsewhere on it, with another SSE. The
        # callers keep each series' least SSE over its starts, so cold and
        # cone SSEs are compared per series. W agrees to the resolution of the
        # ftol stop (a step with ||J p||^2 <= 1e-12 SSE), at most ~3e-6 here.
        batches, polish = [], estimate._polish_many

        def captured(sep, t, Y, w0, mates=None, margin=1.0 + 1e-6):
            batches.append((sep, t, Y, w0))
            return polish(sep, t, Y, w0, mates, margin)

        monkeypatch.setattr(estimate, "_polish_many", captured)
        for s in range(4):
            ak.prepost_delta_beta(prepost_series(0.05, 0.10, 0.01, seed=s), WindowSpec(15.0), n_boot=100, seed=(63, s))
        warm = len(batches)
        for depth, n, s in itertools.product([0.0, 0.2, 0.4], [21, 41], range(2)):
            t = np.linspace(0.0, 20.0, n)
            noise = np.random.default_rng((62, n, s, int(10 * depth))).standard_normal((20, n))
            Y = ak.eval_curve(simgen.theta_for_depth(depth), t) + 0.05 * noise
            fits = estimate._fit_cold_many(t, Y)[0]
            free = [i for i, fit in enumerate(fits) if not curves.monotone_condition(fit.theta_two_comp())]
            estimate._monotone_sse_many(t, Y[free], [fits[i].theta_two_comp() for i in free])
        monkeypatch.undo()
        flags = {"warm": [0, 0], "cold": [0, 0], "cone": [0, 0]}
        for k, (sep, t, Y, w0) in enumerate(batches):
            kind = "warm" if k < warm else "cone" if sep is estimate._MONOTONE_CONE else "cold"
            W, S, _, ok = polish(sep, t, Y, w0)
            # the reference's box floor guarded the loss of digits the columns no longer have
            Wr, Sr, _, okr = polish_many_reference(sep, t, Y, w0, floored=False)
            flags[kind][0] += int((ok != okr).sum())
            flags[kind][1] += len(ok)
            if kind == "warm":
                both = ok & okr
                assert S[both] == pytest.approx(Sr[both], rel=1e-12, abs=0.0)
                assert np.abs(W - Wr)[both].max(initial=0.0) <= 1e-5
                continue
            # series by row: the cold batch is both sides, the cone batch three starts per series
            split = (lambda a: a.reshape(2, -1).T) if kind == "cold" else (lambda a: a.reshape(-1, 3))
            both = split(ok).all(axis=1) & split(okr).all(axis=1)
            assert split(S).min(axis=1)[both] == pytest.approx(split(Sr).min(axis=1)[both], rel=1e-12, abs=0.0)
        for kind, (differ, rows) in flags.items():
            assert rows >= 400 and differ <= 0.01 * rows, kind


# ``fit_nls``'s report rule and its Jacobian as they were, one fit per call,
# before the reports were taken in batches: kept verbatim as the oracle of
# ``estimate._fit_reports``.


def jacobian_reference(family: Family, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """d curve / d theta at ``t``, shape (n, k): column j is Im f(theta + i*h*e_j) / h,
    exact to rounding because ``curves._eval_values`` is complex-analytic."""
    h = 1e-30
    # row i: parameter i in each of the k steps, a column against t
    steps = theta[:, None] + 1j * h * np.eye(len(theta))
    return curves._eval_values(family, steps[..., None], t).imag.T / h


def fit_report_reference(family: Family, t: np.ndarray, y: np.ndarray, theta: np.ndarray, nfev: int,
                         degenerate: bool = False, tol: float = 1e-6) -> estimate.FitReport:
    """``fit_nls``'s report of the fit ``theta`` of ``y`` on the times ``t``:
    residuals, AIC, covariance, the flags and the stationarity check, or
    SingularJacobian for a singular exact fit. A fit with a parameter
    iterated in logs at the clip exp(+-40) is on an edge, as a ``degenerate`` one."""
    k, n = len(theta), len(t)
    sep = estimate._SEPARABLE[family]
    logs = [i for i, log in zip(sep.nonlinear, sep.logs) if log]
    degenerate = degenerate or any(abs(math.log(theta[i])) >= 40.0 - 1e-9 for i in logs)
    fitted = curves._eval_values(family, theta, t)
    e = y - fitted
    sse = float(np.dot(e, e))
    msr = sse / n
    aic = 2.0 * k + n * (math.log(msr) if msr > 0 else -math.inf)
    sigma2 = sse / (n - k)

    J = jacobian_reference(family, t, theta)
    jtj = J.T @ J
    cond = float(np.linalg.cond(jtj))
    scale = max(1.0, float(np.max(np.abs(y))))
    singular = not np.isfinite(cond) or cond > estimate.COND_SINGULAR
    if singular and msr < (1e-8 * scale) ** 2:
        raise SingularJacobian(
            f"J'J condition number {cond:.3g} with an exact fit: the data "
            "admit a continuum of perfect fits (e.g. a constant series)",
            condition=cond,
        )
    if singular:
        cov = sigma2 * np.linalg.pinv(jtj, hermitian=True)
    else:
        cov = sigma2 * np.linalg.inv(jtj)
    cov = 0.5 * (cov + cov.T)

    chain = np.where(curves.FAMILY_POSITIVE[family], theta, 1.0)
    grad = 2.0 * (J * chain).T @ e
    grad_norm = float(np.linalg.norm(grad))
    converged = not degenerate and grad_norm < tol * (1.0 + sse)
    return estimate.FitReport(
        family=family,
        theta=theta,
        cov=cov,
        residuals=e,
        sigma2=float(sigma2),
        aic=float(aic),
        converged=bool(converged),
        n_iter=int(nfev),
        jtj_condition=cond,
        cov_unreliable=bool(degenerate or singular or cond > estimate.COND_UNRELIABLE),
        grad_norm=grad_norm,
        singular=bool(singular),
    )


def report_bytes(report: estimate.FitReport) -> list:
    """Every field of a report: arrays as bytes, the rest by repr (type included)."""
    return [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
            for v in (getattr(report, f.name) for f in dataclasses.fields(report))]


class TestFitReports:
    """``estimate._fit_reports``: each row's report is that of a batch of it
    alone and that of the one-fit rule it replaced, byte for byte."""

    def test_rows_match_one_row_batches_and_the_reference(self):
        t = np.linspace(0.0, 20.0, 41)
        Y, Theta = [], []
        for s in range(6):
            y = simgen.gen_series(simgen.theta_for_depth(0.1 * s), fisher.GaussianIid(0.05), 41, 20.0, seed=(64, s)).values
            Y.append(y)
            Theta.append(estimate.fit_nls(TimeSeries(t, y)).theta)
        # umax = 0: the beta column is 0 and J'J singular, fitted with noise (pinv) and
        # exactly (raises); with n0 = 1e308 the alpha column overflows and J'J has a NaN (raises)
        flat = np.array([1.0, 0.5, 0.0, 0.3])
        exact = ak.eval_curve(ThetaTwoComp(*flat), t)
        Y += [exact + 0.01 * np.random.default_rng(64).standard_normal(41), exact, exact]
        Theta += [flat, flat, np.array([1e308, 1e-3, 0.0, 0.3])]
        Y, Theta, nfev = np.array(Y), np.array(Theta), np.arange(30, 39)
        raised = {7: SingularJacobian, 8: np.linalg.LinAlgError}
        with np.errstate(all="ignore"):
            reports, errors = estimate._fit_reports(Family.TWO_COMP, t, Y, Theta, nfev)
            assert {i: type(exc) for i, exc in errors.items()} == raised
            assert reports[6].singular and reports[7] is None and reports[8] is None
            for i in range(len(Y)):
                alone, alone_errors = estimate._fit_reports(Family.TWO_COMP, t, Y[i : i + 1], Theta[i : i + 1],
                                                            nfev[i : i + 1])
                if i in raised:
                    assert isinstance(alone_errors[0], raised[i])
                    with pytest.raises(raised[i]):
                        fit_report_reference(Family.TWO_COMP, t, Y[i], Theta[i], int(nfev[i]))
                    continue
                expected = report_bytes(reports[i])
                assert report_bytes(alone[0]) == expected
                assert report_bytes(fit_report_reference(Family.TWO_COMP, t, Y[i], Theta[i], int(nfev[i]))) == expected

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_every_family_matches_the_reference(self, family, degenerate):
        series = datasets.synthetic21().series
        fit = estimate.fit_nls(series, family)
        # fit_nls's own report: the double exponential is flagged here only on its edge
        assert report_bytes(fit) == report_bytes(
            fit_report_reference(family, series.times, series.values, fit.theta, fit.n_iter,
                                 family == Family.DOUBLE_EXP and not fit.converged))
        reports, _ = estimate._fit_reports(family, series.times, series.values[None], fit.theta[None],
                                           [fit.n_iter], degenerate)
        assert report_bytes(reports[0]) == report_bytes(
            fit_report_reference(family, series.times, series.values, fit.theta, fit.n_iter, degenerate))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(B=st.integers(1, 29))
    @example(B=29)
    def test_rows_match_one_row_batches_on_any_kernel(self, B):
        # 21 points: a row of a (B, 21) array starts on 8 bytes when i is odd, and
        # some BLAS kernels (OpenBLAS's Prescott) sum such a row in another order
        S = [simgen.gen_series(simgen.theta_for_depth(0.2), fisher.GaussianIid(0.05), 21, 20.0, seed=(B, i))
             for i in range(B)]
        t, Y = S[0].times, np.array([s.values for s in S])
        fits = [estimate.fit_nls(s) for s in S]
        Theta, nfev = np.array([f.theta for f in fits]), [f.n_iter for f in fits]
        reports, errors = estimate._fit_reports(Family.TWO_COMP, t, Y, Theta, nfev)
        assert not errors
        for i, report in enumerate(reports):
            alone = estimate._fit_reports(Family.TWO_COMP, t, Y[i : i + 1], Theta[i : i + 1], nfev[i : i + 1])[0][0]
            assert report_bytes(report) == report_bytes(alone)
            e = np.array(report.residuals)
            assert report.sse == float(np.dot(e, e))


class TestLmpar:
    """``estimate._lmpar`` against the contract of MINPACK's lmpar."""

    row = st.tuples(
        st.floats(-4.0, 4.0),  # log10 of J'J's larger eigenvalue
        st.floats(0.0, 8.0),  # log10 of its condition number
        st.floats(0.0, math.pi),  # the angle of its eigenvectors
        st.floats(0.0, 2.0 * math.pi),  # the direction of J'f
        st.floats(-4.0, 4.0),  # log10 ||J'f||
        st.floats(-2.0, 2.0),  # log10 d0
        st.floats(-2.0, 2.0),  # log10 d1
        st.floats(-3.0, 1.0),  # log10 of delta over the Gauss-Newton step's ||D p||
        st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda x: 10.0**x)),  # the previous par
    )

    @staticmethod
    def systems(rows):
        """J'J (shape (m, 2, 2)), J'f, D, delta and the previous par of ``rows``."""
        big, cond, angle, direction, size, d0, d1, radius, par = np.array(rows).T
        c, s = np.cos(angle), np.sin(angle)
        V = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
        lam = np.array([10.0**big / 10.0**cond, 10.0**big]).T
        JtJ = V @ (lam[:, :, None] * V.transpose(0, 2, 1))
        JtJ = 0.5 * (JtJ + JtJ.transpose(0, 2, 1))
        Jf = 10.0**size * np.array([np.cos(direction), np.sin(direction)])
        d = 10.0 ** np.array([d0, d1])
        newton = -np.linalg.solve(JtJ, Jf.T[..., None])[..., 0].T
        delta = np.hypot(*(d * newton)) * 10.0**radius
        return JtJ, Jf, d, delta, par, np.hypot(*(d * newton))

    @staticmethod
    def lmpar(JtJ, Jf, d, delta, par):
        with np.errstate(all="ignore"):
            return estimate._lmpar(np.array([JtJ[:, 0, 0], JtJ[:, 1, 1]]), JtJ[:, 0, 1], Jf, d, delta, par)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(row, min_size=1, max_size=6))
    def test_contract(self, rows):
        JtJ, Jf, d, delta, par0, newton = self.systems(rows)
        par, p = self.lmpar(JtJ, Jf, d, delta, par0)
        assert (par >= 0.0).all()
        # par = 0 exactly when the Gauss-Newton step is no longer than 1.1 delta
        # (to the rounding of the two solves of that step)
        clear = np.abs(newton / (1.1 * delta) - 1.0) > 1e-6
        assert ((par == 0.0) == (newton <= 1.1 * delta))[clear].all()
        length = np.hypot(*(d * p))
        assert (np.abs(length - delta) <= 0.1 * delta)[par > 0.0].all()
        # p solves (J'J + par D^2) p = -J'f, backward-stable to 1e-9: the
        # residual relative to ||J'J + par D^2|| ||p|| + ||J'f||
        M = JtJ + par[:, None, None] * (d.T[:, :, None] ** 2 * np.eye(2))
        residual = np.hypot(*(np.einsum("mij,jm->im", M, p) + Jf))
        assert (residual <= 1e-9 * (np.linalg.norm(M, 2, axis=(1, 2)) * np.hypot(*p) + np.hypot(*Jf))).all()
        # each row's bytes do not depend on its batch
        for i in range(len(rows)):
            alone = self.lmpar(JtJ[i : i + 1], Jf[:, i : i + 1], d[:, i : i + 1], delta[i : i + 1], par0[i : i + 1])
            assert alone[0].tobytes() == par[i : i + 1].tobytes()
            assert alone[1].tobytes() == np.ascontiguousarray(p[:, i : i + 1]).tobytes()

    def test_badly_scaled_system(self):
        # a cold row of a seeded Monte-Carlo batch: beta's column has norm
        # 2e-9 against its scale 0.26, so H = D^-1 J'J D^-1 has a condition
        # number ~1e17, and its small eigenvalue must come from det(J'J)
        g00, g01, g11 = 0.6755348136560365, -1.7386298600818861e-09, 4.996003610813204e-18
        b0, b1, d0, d1 = 0.017577217523206262, -1.3131874533190052e-10, 1.0212688637777552, 0.2556351248323003
        delta, par0 = np.array([0.338242823773705]), np.array([0.008643474897825862])
        JtJ, Jf, d = np.array([[[g00, g01], [g01, g11]]]), np.array([[b0], [b1]]), np.array([[d0], [d1]])
        par, p = self.lmpar(JtJ, Jf, d, delta, par0)
        assert abs(np.hypot(*(d * p))[0] - delta[0]) <= 0.1 * delta[0]
        reference = lmpar_reference(*(np.array([x]) for x in (g00, g01, g11, b0, b1, d0, d1)), delta, par0)
        assert par == pytest.approx(reference[0], rel=1e-6)
        assert p[:, 0] == pytest.approx(np.ravel(reference[1:]), rel=1e-6)


class TestProfileCi:
    THETA = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)
    T_TRUE = 2.852028941661537

    def test_noiseless_collapses_to_truth(self):
        series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.0), 21, 20.0, seed=0)
        ci = ak.profile_ci_tstar(series)
        assert ci.upper - ci.lower < 1e-4
        assert abs(ci.t_star - self.T_TRUE) < 1e-4
        assert abs(ci.lower - self.T_TRUE) < 1e-4 and abs(ci.upper - self.T_TRUE) < 1e-4

    def test_coverage_under_noise(self):
        cover = 0
        n_rep = 200
        for r in range(n_rep):
            series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(42, r))
            ci = ak.profile_ci_tstar(series, level=0.95)
            if ci.lower <= self.T_TRUE <= ci.upper:
                cover += 1
        assert cover / n_rep >= 0.90

    def test_monotone_truth_raises(self):
        series = noiseless_series(ThetaTwoComp(1.0, 0.8, 5.0, 0.3), n=21)
        with pytest.raises(ak.errors.NoInteriorExtremum):
            ak.profile_ci_tstar(series)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_level_outside_unit_interval_raises_before_fitting(self, monkeypatch, level):
        # before: level 1.5 ran 419 refits and returned (0, 59.96), flagged not reached
        series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(42, 0))
        monkeypatch.setattr(estimate, "_lmdif", mock.Mock(side_effect=AssertionError("fit run")))
        with pytest.raises(ValidationError, match="level"):
            ak.profile_ci_tstar(series, level=level)

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_raises_before_fitting(self, monkeypatch, max_steps):
        # before: max_steps 0 gave a zero-width CI at t-hat*
        series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(42, 0))
        monkeypatch.setattr(estimate, "_lmdif", mock.Mock(side_effect=AssertionError("fit run")))
        with pytest.raises(ValidationError, match="max_steps"):
            ak.profile_ci_tstar(series, max_steps=max_steps)

    def test_truncated_walk_is_flagged(self):
        series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(42, 0))
        ci = ak.profile_ci_tstar(series)
        assert ci.lower_reached and ci.upper_reached
        short = ak.profile_ci_tstar(series, max_steps=1)
        assert not short.lower_reached and not short.upper_reached
        assert ci.lower < short.lower < short.t_star < short.upper < ci.upper

    def test_failed_refits_are_skipped_and_counted(self, monkeypatch):
        series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(88, 0))
        leastsq = estimate.leastsq

        def capped(*args, **kwargs):
            # only the profile's refits exhaust their budget: 4000 evaluations,
            # half of them of the function's when lmder also evaluates the Jacobian
            if kwargs.get("maxfev") == 2000:
                kwargs["maxfev"] = 1
            return leastsq(*args, **kwargs)

        monkeypatch.setattr(estimate, "leastsq", capped)
        ci = ak.profile_ci_tstar(series, max_steps=3)
        assert ci.n_skipped == 6
        assert not ci.lower_reached and not ci.upper_reached
        assert ci.lower == ci.upper == ci.t_star

    # seed 5: lmdif tries rates whose profile column would overflow
    @pytest.mark.parametrize(
        "sigma, seed", [(0.1, (43, 1)), (0.1, (43, 0)), (0.3, (43, 3)), (0.1, (43, 5))],
        ids=["sigma0.1-seed1", "sigma0.1-seed0", "sigma0.3-seed3", "sigma0.1-seed5"],
    )
    def test_bound_clipped_at_zero_is_flagged(self, sigma, seed):
        theta = ThetaTwoComp(1.0, 2.0, 2.0, 0.5)
        series = simgen.gen_series(theta, fisher.GaussianIid(sigma), 21, 20.0, seed=seed)
        ci = ak.profile_ci_tstar(series)
        assert ci.lower == 0.0 and not ci.lower_reached
        assert ci.upper_reached


class TestEmbeddingGradient:
    def test_reference_cohorts(self):
        rows = datasets.cohorts()
        fit = ak.embedding_gradient([c.e for c in rows], [c.beta_hat for c in rows])
        assert fit.slope == pytest.approx(0.168, abs=1e-3)
        assert fit.ci[0] < fit.slope < fit.ci[1]
        assert fit.t_stat > 0

    def test_flat_cohorts_give_zero_slope(self):
        fit = ak.embedding_gradient([0.2, 0.8], [0.1, 0.1])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            ak.embedding_gradient([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])

    def test_weighted_variant_close_to_unweighted_for_equal_se(self):
        rows = datasets.cohorts()
        e = [c.e for c in rows]
        b = [c.beta_hat for c in rows]
        w = ak.embedding_gradient(e, b, se=[0.01] * 3, weighted=True)
        u = ak.embedding_gradient(e, b)
        assert w.slope == pytest.approx(u.slope, rel=1e-9)

    @pytest.mark.parametrize("se", [
        [0.01, 0.0, 0.02],  # a zero se would be an infinite weight
        [0.01, -0.02, 0.02],  # a negative se would be squared away
        [0.01, float("nan"), 0.02],  # a NaN se would give a NaN slope
        [0.01, float("inf"), 0.02],
        [0.01, 0.02],  # one se per cohort
    ], ids=["zero", "negative", "nan", "inf", "length"])
    def test_weighted_rejects_bad_se(self, se):
        rows = datasets.cohorts()
        with pytest.raises(ValidationError, match="se"):
            ak.embedding_gradient([c.e for c in rows], [c.beta_hat for c in rows], se=se, weighted=True)

    def test_monte_carlo_recovery(self):
        # cohorts simulated around a known gradient; the CI covers the truth
        # in at least 90% of replicates
        truth = 0.15
        cover = 0
        n_rep = 200
        es = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        for r in range(n_rep):
            rng = np.random.default_rng((31, r))
            betas = 0.05 + truth * es + rng.normal(0.0, 0.01, len(es))
            fit = ak.embedding_gradient(es, betas)
            if fit.ci[0] <= truth <= fit.ci[1]:
                cover += 1
        assert cover / n_rep >= 0.90


class TestEstimateHprime0:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(0)
        dv = rng.uniform(-1, 1, 50)
        controls = rng.normal(0, 1, (50, 2))
        y = 0.073 * dv + controls @ np.array([0.2, -0.1]) + 0.01
        fit = ak.estimate_hprime0(y, dv, controls)
        assert fit.slope == pytest.approx(0.073, abs=1e-10)
        assert fit.se == pytest.approx(0.0, abs=1e-10)

    def test_degenerate_dv(self):
        with pytest.raises(DegenerateDesign):
            ak.estimate_hprime0([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])

    def test_monte_carlo_recovery(self):
        truth = 0.073
        cover = 0
        n_rep = 200
        for r in range(n_rep):
            rng = np.random.default_rng((57, r))
            dv = rng.uniform(-0.5, 0.5, 120)
            controls = rng.normal(0, 1, (120, 2))
            noise = rng.normal(0, 0.02, 120) * (1.0 + np.abs(dv))  # heteroskedastic
            y = truth * dv + controls @ np.array([0.05, -0.02]) + noise
            fit = ak.estimate_hprime0(y, dv, controls)
            if fit.ci[0] <= truth <= fit.ci[1]:
                cover += 1
        assert cover / n_rep >= 0.90


class TestReferenceSse:
    # SSE of fit_nls per (dataset, family) from perfbench/spec.json
    # ``reference_sse``; enterprise78/doubleexp has no reference there (that
    # fit raised NonConvergence when the benchmark was added) and is held to
    # the variable-projection fit's 8.49245
    REF = {
        "synthetic21/twocomp": 0.554797941878325,
        "synthetic21/logistic": 0.5040725824235641,
        "synthetic21/bass": 3.236314606457789,
        "synthetic21/bilogistic": 0.09907091244481703,
        "synthetic21/doubleexp": 0.6189310377857326,
        "synthetic21/logisticbump": 0.07575292977406886,
        "enterprise78/twocomp": 5.859430528951772,
        "enterprise78/logistic": 8.270649616221476,
        "enterprise78/bass": 760.8235208154274,
        "enterprise78/bilogistic": 6.000012221032306,
        "enterprise78/doubleexp": 8.49245,
        "enterprise78/logisticbump": 5.844885586923394,
        "enterprise78raw/twocomp": 748.8072862230831,
        "enterprise78raw/logistic": 691.6062274517843,
        "enterprise78raw/bass": 986.8878386677521,
        "enterprise78raw/bilogistic": 279.89895831165916,
        "enterprise78raw/doubleexp": 748.8419596597827,
        "enterprise78raw/logisticbump": 47.56718253153176,
    }

    @pytest.mark.parametrize("key", sorted(REF))
    def test_sse_within_reference(self, key):
        name, family = key.split("/")
        fit = ak.fit_nls(datasets.load_builtin(name).series, family)
        assert fit.sse <= self.REF[key] * (1.0 + 1e-6)


class TestBiLogisticOrder:
    def test_swapped_init_gives_same_theta(self):
        series = datasets.synthetic21().series
        theta = ak.fit_nls(series, Family.BI_LOGISTIC).theta
        assert theta[2] >= theta[5]
        swapped = theta[[3, 4, 5, 0, 1, 2]]
        a = ak.fit_nls(series, Family.BI_LOGISTIC, init=theta).theta
        b = ak.fit_nls(series, Family.BI_LOGISTIC, init=swapped).theta
        assert np.array_equal(a, b)
        assert a == pytest.approx(theta, rel=1e-6)


class TestProfileSse:
    @pytest.mark.parametrize("seed", range(5))
    def test_at_fitted_tstar_equals_free_fit(self, seed):
        # with t0 = t*(theta_hat) the pinned fit contains the free optimum
        series = simgen.gen_series(
            ThetaTwoComp(3.0, 0.8, 2.0, 0.25), fisher.GaussianIid(0.05), 21, 20.0, seed=(88, seed)
        )
        fit = ak.fit_nls(series)
        theta = fit.theta_two_comp()
        start = np.log([theta.alpha, theta.beta])
        sse, _ = estimate._profile_sse(series, ak.critical_time(theta), start)
        assert sse == pytest.approx(fit.sse, rel=1e-8)

    @pytest.mark.parametrize("theta", [ThetaTwoComp(3.0, 0.8, 2.0, 0.25), ThetaTwoComp(1.0, 2.0, 2.0, 0.5),
                                       ThetaTwoComp(5.0, 0.3, 2.0, 0.1)], ids=str)
    def test_noise_free_trough_recovered(self, theta):
        # pinned at the truth's t*, the refit from half a log unit away finds the truth
        series = noiseless_series(theta, n=21)
        truth = np.log([theta.alpha, theta.beta])
        sse, w = estimate._profile_sse(series, ak.critical_time(theta), truth + 0.5)
        assert sse <= 1e-24 * float(series.values @ series.values)
        np.testing.assert_allclose(w, truth, rtol=0.0, atol=1e-12)


def central_differences(residual, w, h=1e-6):
    """d residual / dw by central differences, shape (2, n)."""
    return np.array([(residual(w + h * e) - residual(w - h * e)) / (2.0 * h) for e in np.eye(2)])


def profile_sse_reference(series, t0, start, evaluations=None):
    """The pinned-t* refit as ``_profile_sse`` ran before its exact
    Jacobian: MINPACK's lmdif, which differences the residual forward, on
    the shifted coordinates w - start + 100 with the same tolerances and a
    budget of 4000 evaluations. Appends lmdif's evaluation count to
    ``evaluations`` when given. Returns (SSE, w)."""
    t, y = series.times, series.values

    def residual(w):
        alpha, beta = np.exp(np.clip(w, -30.0, 30.0))
        e = t0 * (alpha - beta) - alpha * t
        m = max(float(e[0]) - 300.0, 0.0)
        a = (beta / alpha) * np.exp(e - m) + np.exp(-m) - np.exp(-m - beta * t)
        return max(float(a @ y), 0.0) / float(a @ a) * a - y

    shift = np.asarray(start, dtype=float) - 100.0
    x, _, info, _, ier = scipy.optimize.leastsq(
        lambda x: residual(x + shift), start - shift, full_output=True,
        xtol=1e-12, ftol=estimate.SOLVE_FTOL, gtol=1e-12, maxfev=4000,
    )
    if evaluations is not None:
        evaluations.append(info["nfev"])
    if ier == 5:
        raise NonConvergence(f"profile fit did not converge at t0={t0}")
    return float(info["fvec"] @ info["fvec"]), x + shift


class TestExactJacobian:
    """The closed-form variable-projection Jacobians against central differences."""

    T = np.linspace(0.0, 20.0, 21)
    SERIES = simgen.gen_series(ThetaTwoComp(3.0, 0.8, 2.0, 0.25), fisher.GaussianIid(0.05), 21, 20.0,
                               seed=(88, 0))

    @staticmethod
    def assert_matches(J, residual, w):
        reference = central_differences(residual, w)
        np.testing.assert_allclose(J, reference, rtol=1e-6, atol=1e-6 * np.abs(reference).max())

    def twocomp_jacobian(self, y, w):
        sep = estimate._SEPARABLE[Family.TWO_COMP]

        def residual(w):
            A, c = sep.solve(w, self.T, y)
            return c @ A - y

        A, c = sep.solve(w, self.T, y)
        J = estimate._vp_jacobian(A, c, c @ A - y, sep.dcolumns(w, self.T, A))
        self.assert_matches(J, residual, w)
        return c, J

    def test_twocomp_both_amplitudes_active(self):
        c, _ = self.twocomp_jacobian(self.SERIES.values, np.log([0.8, 0.25]))
        assert (c > 0.0).all()

    def test_twocomp_one_amplitude_clipped(self):
        # a decay to below 0: the utility amplitude would be negative
        y = 2.0 * np.exp(-0.5 * self.T) - 0.3
        c, _ = self.twocomp_jacobian(y, np.log([0.4, 0.1]))
        assert c[0] > 0.0 and c[1] == 0.0

    @pytest.mark.parametrize("w", [[45.0, math.log(0.25)], [math.log(0.8), -45.0]], ids=["alpha", "beta"])
    def test_twocomp_rate_past_the_clip(self, w):
        # the clipped rate is constant: its column of the Jacobian is 0
        w = np.array(w)
        _, J = self.twocomp_jacobian(self.SERIES.values, w)
        assert not J[np.abs(w) > 40.0].any() and J[np.abs(w) < 40.0].any()

    def profile_jacobian(self, y, t0, w):
        sep = estimate._PinnedTstar(t0)

        def residual(w):
            A, c = sep.solve(w, self.T, y)
            return c @ A - y

        A, c = sep.solve(w, self.T, y)
        J = estimate._vp_jacobian(A, c, c @ A - y, sep.dcolumns(w, self.T, A))
        self.assert_matches(J, residual, w)
        return J

    def test_profile_overflow_rescale(self):
        # t0*(alpha - beta) = 375 > 300: the column is divided by exp(75)
        J = self.profile_jacobian(self.SERIES.values, 500.0, np.log([1.0, 0.25]))
        assert np.abs(J).max() > 0.1

    def test_profile_amplitude_clipped(self):
        # a negative series: umax is clipped to 0 and the residual is -y nearby
        J = self.profile_jacobian(-self.SERIES.values, 3.0, np.log([0.8, 0.25]))
        assert not J.any()


class TestScalarLmder:
    """The scalar two-component polishes on lmder with the exact Jacobian,
    against lmdif's forward differences."""

    THETA = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)

    def test_profile_ci_matches_forward_differences(self, monkeypatch):
        # 32 series like the refits workload's: the CI ends agree to 1e-6
        series = [simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(1, 0, i))
                  for i in range(32)]
        exact = [ak.profile_ci_tstar(s) for s in series]
        monkeypatch.setattr(estimate, "_profile_sse", profile_sse_reference)
        for ci, s in zip(exact, series):
            reference = ak.profile_ci_tstar(s)
            assert (ci.lower_reached, ci.upper_reached, ci.n_skipped) == (
                reference.lower_reached, reference.upper_reached, reference.n_skipped)
            assert ci.lower == pytest.approx(reference.lower, rel=1e-6)
            assert ci.upper == pytest.approx(reference.upper, rel=1e-6)

    def test_fewer_evaluations_than_forward_differences(self, monkeypatch):
        series = simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(88, 0))
        lmdif = estimate._lmdif

        def evaluations(call, exact):
            counts = []

            def counted(residual, z0, max_nfev, jacobian=None):
                if not exact:  # the difference points one by one: ``_PinnedTstar`` has no batched design
                    one = residual
                    residual = lambda w: np.array([one(v) for v in w]) if w.ndim > 1 else one(w)  # noqa: E731
                res = lmdif(residual, z0, max_nfev, jacobian if exact else None)
                counts.append(res.nfev)
                return res

            monkeypatch.setattr(estimate, "_lmdif", counted)
            out = call(series)
            return out, sum(counts)

        fit, cold = evaluations(ak.fit_nls, True)
        fit_fd, cold_fd = evaluations(ak.fit_nls, False)
        assert fit.sse == pytest.approx(fit_fd.sse, rel=1e-9)
        assert fit.n_iter <= cold < cold_fd
        ci, profile = evaluations(ak.profile_ci_tstar, True)
        ci_fd, profile_fd = evaluations(ak.profile_ci_tstar, False)
        assert (ci.lower, ci.upper) == pytest.approx((ci_fd.lower, ci_fd.upper), rel=1e-6)
        assert profile < profile_fd


class TestScalarMeritFilter:
    """The scalar cold two-component fit's merit filter (``estimate._beaten``
    in ``_fit_coords``) against the same fits with a filter that never
    retires, on 21-point trough series like the refits workload's."""

    THETA = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)

    @staticmethod
    def fits(monkeypatch, series, retire):
        """(reports, each fit's finished polishes, residual evaluations)."""
        evaluations, polishes = [0], []
        solve, lmdif = estimate._Separable.solve, estimate._lmdif

        def counted(self, *args):
            evaluations[0] += 1
            return solve(self, *args)

        def recorded(*args):
            res = lmdif(*args)
            polishes[-1].append(res)
            return res

        with monkeypatch.context() as m:
            m.setattr(estimate._Separable, "solve", counted)
            m.setattr(estimate, "_lmdif", recorded)
            if not retire:
                m.setattr(estimate, "_beaten", lambda *args, **kwargs: False)
            reports = []
            for s in series:
                polishes.append([])
                reports.append(estimate.fit_nls(s))
        return reports, polishes, evaluations[0]

    def series(self):
        return [simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(1, 0, i))
                for i in range(64)]

    def test_a_beaten_start_moves_no_byte(self, monkeypatch):
        # where the alpha < beta start ends more than 1e-6 above the first, the
        # filter stops it and the report keeps every byte
        series = self.series()
        fits, polishes, _ = self.fits(monkeypatch, series, True)
        fits0, polishes0, _ = self.fits(monkeypatch, series, False)
        beaten = [i for i, (first, second) in enumerate(polishes0) if second.cost > first.cost * (1.0 + 1e-6)]
        assert len(beaten) == 63
        for i in beaten:
            assert len(polishes[i]) == 1
            a, b = fits[i], fits0[i]
            assert (a.theta.tobytes(), a.cov.tobytes(), a.residuals.tobytes(), a.n_iter) == (
                b.theta.tobytes(), b.cov.tobytes(), b.residuals.tobytes(), b.n_iter)

    def test_a_tie_goes_to_the_first_start(self, monkeypatch):
        # series 27: the alpha < beta start ends ~1e-15 below the alpha > beta
        # start, within the margin, and is stopped before it gets there
        series = self.series()[27:28]
        (fit,), _, _ = self.fits(monkeypatch, series, True)
        (fit0,), ((first, second),), _ = self.fits(monkeypatch, series, False)
        assert second.cost < first.cost < second.cost * (1.0 + 1e-12)
        assert fit0.n_iter == second.nfev
        assert fit.n_iter == first.nfev and fit.sse == pytest.approx(2.0 * first.cost, rel=1e-12)
        assert fit.sse == pytest.approx(fit0.sse, rel=1e-12)

    @pytest.mark.parametrize("which", ["64 series", "seed (88, 0)"])
    def test_fewer_residual_evaluations(self, monkeypatch, which):
        series = self.series() if which == "64 series" else [
            simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(88, 0))]
        fits, _, filtered = self.fits(monkeypatch, series, True)
        fits0, _, unfiltered = self.fits(monkeypatch, series, False)
        assert filtered < (0.5 if len(series) > 1 else 1.0) * unfiltered
        assert [f.sse for f in fits] == pytest.approx([f.sse for f in fits0], rel=1e-12)


class TestEdgeFlag:
    """A fit with a parameter iterated in logs at the clip exp(+-40) is
    flagged as the double exponential's edge is: ``converged=False``,
    ``cov_unreliable``, the scalar report as the batched one."""

    EDGE = math.exp(-40.0)

    @staticmethod
    def assert_flagged_as_degenerate(family, t, y, fit):
        assert not fit.converged and fit.cov_unreliable
        # the report is the one of a fit flagged degenerate
        reports, _ = estimate._fit_reports(family, t, y[None], fit.theta[None], [fit.n_iter], True)
        assert report_bytes(fit) == report_bytes(reports[0])

    @pytest.mark.parametrize("name, family, at_edge", [
        ("synthetic21", Family.BASS, ["q"]),
        ("enterprise78", Family.BASS, ["q"]),
        ("enterprise78raw", Family.BASS, ["q"]),
        ("enterprise78", Family.BI_LOGISTIC, ["c2", "g2"]),
    ])
    def test_builtin_fit_at_the_clip(self, name, family, at_edge):
        series = datasets.load_builtin(name).series
        fit = estimate.fit_nls(series, family)
        params = dict(zip(curves.FAMILY_PARAMS[family], fit.theta.tolist()))
        at_clip = [p for p, v in params.items() if v == pytest.approx(self.EDGE, rel=1e-9, abs=0.0)]
        if family == Family.BI_LOGISTIC:
            # the second logistic ends as the constant k2: the data leave c2
            # and g2 free, and which of them lands on the clip depends on the
            # last bits of the BLAS kernel. The fit and its curve do not
            assert at_clip and set(at_clip) <= set(at_edge)
            assert fit.sse == pytest.approx(6.000012153, rel=1e-9)
            assert (params["c2"] * np.exp(-params["g2"] * series.times)).max() <= 1e-9
        else:
            assert at_clip == at_edge
        self.assert_flagged_as_degenerate(family, series.times, series.values, fit)

    def test_twocomp_fit_at_alpha_to_zero(self):
        # constrained760 key (0, 0, 31, 3): the novelty term is a constant
        series = simgen.gen_series(simgen.theta_for_depth(0.0), fisher.GaussianIid(0.15), 31, 20.0,
                                   seed=(7800, 0, 31, 3))
        fit = estimate.fit_nls(series)
        assert fit.theta[1] == pytest.approx(self.EDGE, rel=1e-9, abs=0.0)
        self.assert_flagged_as_degenerate(Family.TWO_COMP, series.times, series.values, fit)

    def test_batched_fits_at_alpha_to_zero(self):
        # constrained760 keys (0, 1, 31, s): s = 4 and 5 end at the clip in the
        # batch, s = 0 to 3 short of it (s = 1 at alpha ~ 9e-16)
        Y = np.array([simgen.gen_series(simgen.theta_for_depth(0.0), fisher.GaussianAr1(0.1, 0.5), 31, 20.0,
                                        seed=(7800, 1, 31, s)).values for s in range(6)])
        t = np.linspace(0.0, 20.0, 31)
        fits, errors = estimate._fit_cold_many(t, Y)
        assert not errors
        edge = [f.theta[1] == pytest.approx(self.EDGE, rel=1e-9, abs=0.0) for f in fits]
        assert edge == [False] * 4 + [True] * 2
        for y, fit, on_edge in zip(Y, fits, edge):
            if on_edge:
                self.assert_flagged_as_degenerate(Family.TWO_COMP, t, y, fit)
            else:
                assert fit.converged


class TestLogClip:
    """A coordinate iterated in logs is taken at exp(w), w clipped at
    +-``_LOG_CLIP``; ``coords`` inverts ``params`` up to the clip."""

    @pytest.mark.parametrize("family", list(estimate._SEPARABLE), ids=lambda f: f.value)
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_coords_invert_params(self, family, data):
        # before: coords floored p at 1e-12, log -27.6
        sep = estimate._SEPARABLE[family]
        d = len(sep.nonlinear)
        w = np.array(data.draw(st.lists(st.floats(-40.0, 40.0), min_size=d, max_size=d)))
        theta = sep.theta(w, np.ones(len(sep.amplitudes)))
        np.testing.assert_allclose(sep.coords(theta), w, rtol=0.0, atol=1e-12)

    def test_warm_start_from_an_edge_fit_is_that_fit(self, monkeypatch):
        # constrained760 key (0, 0, 31, 3) ends at alpha = exp(-40): the block
        # bootstrap's warm start is that fit, not alpha = 1e-12
        series = simgen.gen_series(simgen.theta_for_depth(0.0), fisher.GaussianIid(0.15), 31, 20.0,
                                   seed=(7800, 0, 31, 3))
        fit = estimate.fit_nls(series)
        sep, polish_many, starts = estimate._SEPARABLE[Family.TWO_COMP], estimate._polish_many, []

        def recorded(sep, t, Y, w0, *args):
            starts.append(w0)
            return polish_many(sep, t, Y, w0, *args)

        monkeypatch.setattr(estimate, "_polish_many", recorded)
        estimate._polish_betas(series.times, series.values[None], fit.theta)
        (w0,) = starts
        np.testing.assert_allclose(w0, [-40.0, math.log(fit.theta[3])], rtol=0.0, atol=1e-12)
        assert sep.theta(w0, fit.theta[sep.amplitudes]) == pytest.approx(fit.theta, rel=1e-12, abs=0.0)


def unit_amplitude_curves(sep, p, t):
    """The reference for ``sep.design``'s columns at the parameters ``p``
    (floats, or one (g, 1) array per coordinate): the family's curve
    (``curves._eval_values``) with one amplitude 1 and the others 0, one
    curve per amplitude."""
    for i in sep.amplitudes:
        values = [float(j == i) for j in range(curves.family_arity(sep.family))]
        for j, v in zip(sep.nonlinear, p):
            values[j] = v
        yield curves._eval_values(sep.family, values, t)


class TestDesignColumns:
    """Each family's ``design``, its columns in closed form, is bit-equal
    to its curve with one amplitude 1 and the others 0, at one point and
    over a grid, coordinates over the whole clip (so exp underflows: a
    column -e would read -0.0 where the curve reads +0.0). The monotone
    cone's columns are not a family's curve bit for bit: a grid row is
    bit-equal to its point's columns, which equal the cone's two-component
    curves to rounding."""

    COORDS = st.lists(st.floats(-40.0, 40.0), min_size=4, max_size=4)

    @pytest.mark.parametrize("name", [*(f.value for f in Family), "cone"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(w=COORDS, grid=st.lists(COORDS, min_size=1, max_size=5),
           t=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=10))
    @example(w=[40.0] * 4, grid=[[40.0] * 4, [-40.0] * 4], t=[0.0, 1.0])
    def test_columns_are_the_unit_amplitude_curves(self, name, w, grid, t):
        sep = estimate._MONOTONE_CONE if name == "cone" else estimate._SEPARABLE[Family(name)]
        d, m, t = len(sep.box), len(sep.amplitudes), np.array(t)
        w, W = np.array(w[:d]), np.array(grid)[:, :d]
        A, AW = sep.design(w, t), sep.design(W, t)
        assert A.shape == (m, len(t)) and AW.shape == (m, len(W), len(t))
        if name == "cone":
            for r, v in enumerate(W):
                assert AW[:, r].tobytes() == sep.design(v, t).tobytes()
            beta, gap = sep.params(w).tolist()
            alpha = beta + gap
            for a, theta in zip(A, [[0.0, alpha, 1.0 / beta, beta], [1.0, alpha, alpha / beta, beta]]):
                np.testing.assert_allclose(a, curves._eval_values(Family.TWO_COMP, theta, t), rtol=1e-12, atol=0.0)
            return
        for a, ref in zip(A, unit_amplitude_curves(sep, sep.params(w).tolist(), t)):
            assert a.tobytes() == ref.tobytes()
        for a, ref in zip(AW, unit_amplitude_curves(sep, sep.params(W).T[..., None], t)):
            assert a.tobytes() == ref.tobytes()


class TestStartGridMemo:
    """``estimate._box_grid``: the last full-box start grid formed is kept
    with its separable and times, read-only, and a fit that takes it from
    there has the bytes of one that forms it anew."""

    THETA = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)

    @staticmethod
    def forget(monkeypatch):
        monkeypatch.setattr(estimate, "_box_grid_memo", None)
        monkeypatch.setattr(estimate, "_logistic_memo", None)

    @pytest.mark.parametrize("family", list(Family))
    def test_fit_after_a_memo_hit_is_that_of_an_empty_memo(self, monkeypatch, family):
        first, second = (simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), 21, 20.0, seed=(5, i))
                         for i in range(2))
        self.forget(monkeypatch)
        estimate.fit_nls(first, family)
        sep = estimate._SEPARABLE[Family.LOGISTIC if len(estimate._SEPARABLE[family].box) == 4 else family]
        memo = estimate._box_grid_memo
        assert memo[0] is sep
        hit = estimate.fit_nls(second, family)
        assert estimate._box_grid_memo is memo
        self.forget(monkeypatch)
        assert report_bytes(hit) == report_bytes(estimate.fit_nls(second, family))

    def test_constrained_lr_after_a_memo_hit_is_that_of_an_empty_memo(self, monkeypatch):
        # constrained_lr grids the two-component family, then the cone: its
        # first grid hits the memo a two-component fit left
        from adoptkit import infer

        series = [simgen.gen_series(simgen.theta_for_depth(0.2), fisher.GaussianIid(0.05), 21, 20.0, seed=(6, i))
                  for i in range(2)]
        self.forget(monkeypatch)
        estimate.fit_nls(series[0])
        with mock.patch.object(estimate, "_grid_design", wraps=estimate._grid_design) as grid_design:
            hit = repr(infer.constrained_lr(series[1]))
            formed = [call.args[0] for call in grid_design.call_args_list]
        assert formed == [estimate._MONOTONE_CONE]
        assert estimate._box_grid_memo[0] is estimate._MONOTONE_CONE
        self.forget(monkeypatch)
        assert hit == repr(infer.constrained_lr(series[1]))

    def test_memo_is_read_only_and_one_design(self, monkeypatch):
        self.forget(monkeypatch)
        for family, n in ((Family.TWO_COMP, 21), (Family.LOGISTIC, 21), (Family.TWO_COMP, 11)):
            estimate.fit_nls(simgen.gen_series(self.THETA, fisher.GaussianIid(0.05), n, 20.0, seed=(7, n)), family)
        sep, key, W, A, G = estimate._box_grid_memo
        t = np.linspace(0.0, 20.0, 11)
        assert sep is estimate._SEPARABLE[Family.TWO_COMP] and key == (t.dtype.str, 11, t.tobytes())
        assert W.shape == (estimate.GRID_POINTS**2, 2) and A.shape == (2, len(W), 11) and G.shape == (2, 2, len(W))
        for a in (W, A, G):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_another_family_or_times_miss(self, monkeypatch):
        self.forget(monkeypatch)
        logistic, bass = estimate._SEPARABLE[Family.LOGISTIC], estimate._SEPARABLE[Family.BASS]
        t = np.linspace(0.0, 20.0, 21)
        W, A, G = estimate._box_grid(logistic, t)
        assert estimate._box_grid(logistic, t.copy())[1] is A
        for sep, other in ((logistic, t[:-1]), (logistic, t.astype(np.float32)), (bass, t)):
            B = estimate._box_grid(sep, other)[1]
            assert B is not A and B.shape[-1] == len(other)
            assert estimate._box_grid_memo[0] is sep
        assert estimate._box_grid(logistic, t)[1] is not A


class TestSolveMany:
    """``_Separable.solve_many``: each row's amplitudes, and its theta
    through ``theta``, are ``solve``'s at that row to the bit, whatever the
    batch's size and the row's place in it."""

    @pytest.mark.parametrize("name", ["twocomp", "logistic", "bass", "cone"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([11, 21, 41, 78]), size=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_rows_are_solve_bit_for_bit(self, name, n, size, seed):
        sep = estimate._MONOTONE_CONE if name == "cone" else estimate._SEPARABLE[Family(name)]
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 40.0, n))
        W = rng.uniform(-8.0, 3.0, (size, 2))
        Y = rng.normal(1.0, 1.0, (size, n))
        C, Cr = sep.solve_many(W, t, Y)[1], sep.solve_many(W[::-1], t, Y[::-1])[1][::-1]
        Theta = sep.theta(W, C)
        for r in range(size):
            c = sep.solve(W[r], t, Y[r])[1]
            assert C[r].tobytes() == Cr[r].tobytes() == c.tobytes()
            assert Theta[r].tobytes() == sep.theta(W[r], c).tobytes()


class TestMonotoneCone:
    T = np.linspace(0.0, 20.0, 41)

    def test_limits_are_finite_columns(self):
        cone = estimate._MONOTONE_CONE
        alpha = math.exp(-40.0) + 0.7
        ridge = cone.design(np.array([-40.0, math.log(0.7)]), self.T)
        assert ridge[0] == pytest.approx(self.T, rel=1e-12, abs=1e-12)
        assert ridge[1] == pytest.approx(np.exp(-alpha * self.T) + alpha * self.T, rel=1e-12)
        beta = 0.3
        equal = cone.design(np.array([math.log(beta), -40.0]), self.T)
        assert equal[0] == pytest.approx(-np.expm1(-beta * self.T) / beta, rel=1e-12, abs=1e-12)
        assert equal[1] == pytest.approx(np.ones_like(self.T), rel=1e-12)

    def test_grid_takes_the_same_columns(self):
        cone = estimate._MONOTONE_CONE
        W = np.array([[-40.0, math.log(0.7)], [math.log(0.3), -40.0], [-1.0, -2.0]])
        A = cone.design(W, self.T)
        for i, w in enumerate(W):
            assert A[:, i] == pytest.approx(cone.design(w, self.T), rel=1e-15)


def lmdif_reference(residual, z0, max_nfev):
    """The forward-difference polish as ``_lmdif`` ran it on MINPACK's
    lmdif: ``leastsq`` without ``Dfun``, which differences ``residual``
    itself, one point per call, on the shifted coordinates z - z0 + 100
    with ``_lmdif``'s tolerances and a budget of ``max_nfev`` function
    calls. Returns (x, cost, nfev, status), status 0 where lmdif used up its
    budget."""
    shift = np.asarray(z0, dtype=float) - 100.0
    x, _, info, _, ier = scipy.optimize.leastsq(
        lambda x: residual(x + shift), z0 - shift, full_output=True,
        xtol=1e-12, ftol=estimate.SOLVE_FTOL, gtol=1e-12, maxfev=max_nfev,
    )
    f = info["fvec"]
    return x + shift, 0.5 * float(f @ f), int(info["nfev"]), int(ier != 5)


def bump_series(s: int) -> TimeSeries:
    """Seeded series s: a logistic plus a Gaussian bump (or dip) plus noise,
    on 15, 31 or 61 points."""
    rng = np.random.default_rng((55, s))
    t = np.linspace(0.0, 20.0, (15, 31, 61)[s % 3])
    k, g, t0 = rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.5), rng.uniform(4.0, 12.0)
    a, mu, sigma = rng.uniform(-0.5, 0.5), rng.uniform(3.0, 17.0), rng.uniform(0.8, 3.0)
    y = k / (1.0 + np.exp(-g * (t - t0))) + a * np.exp(-0.5 * ((t - mu) / sigma) ** 2)
    return TimeSeries(t, y + rng.normal(0.0, 0.03, len(t)))


#: the families whose scalar polish takes forward differences
FORWARD_DIFFERENCE = [Family.LOGISTIC, Family.BASS, Family.BI_LOGISTIC, Family.LOGISTIC_BUMP]
BUILTINS = ["synthetic21", "enterprise78", "enterprise78raw"]


def cone_polish(series, max_nfev=5000):
    """``_fit_coords`` on the monotone cone from the two best minima of its grid
    (``_monotone_sse_many``'s fallback)."""
    t, y = series.times, series.values
    W, val = estimate._grid(estimate._MONOTONE_CONE, t, y[None], np.zeros(2), 0)
    minima, k = estimate._grid_minima(W, val, 2)
    return estimate._fit_coords(estimate._MONOTONE_CONE, t, y, list(minima[: k[0], 0]), max_nfev)


class TestForwardDifferenceLmder:
    """The forward-difference polishes on lmder, with fdjac2's Jacobian from
    one batched residual call, against verbatim lmdif: the same iterates,
    cost, evaluation count and status, byte for byte."""

    @staticmethod
    def recorded(monkeypatch, calls):
        """(residual, z0, max_nfev, result) of each forward-difference
        ``_lmdif`` call made by running ``calls``."""
        lmdif, polishes = estimate._lmdif, []

        def recorded(residual, z0, max_nfev, jacobian=None):
            res = lmdif(residual, z0, max_nfev, jacobian)
            if jacobian is None:
                polishes.append((residual, np.array(z0, dtype=float), max_nfev, res))
            return res

        with monkeypatch.context() as m:
            m.setattr(estimate, "_lmdif", recorded)
            for call in calls:
                m.setattr(estimate, "_logistic_memo", None)  # each call polishes its own logistic lead
                call()
        return polishes

    @staticmethod
    def assert_lmdif(res, reference):
        x, cost, nfev, status = reference
        assert (res.x.tobytes(), float(res.cost).hex(), res.nfev, res.status) == (
            x.tobytes(), cost.hex(), nfev, status)

    def builtin_polishes(self, monkeypatch):
        series = [datasets.load_builtin(name).series for name in BUILTINS]
        calls = [functools.partial(estimate.fit_nls, s, f) for s in series for f in FORWARD_DIFFERENCE]
        return self.recorded(monkeypatch, calls + [functools.partial(cone_polish, s) for s in series])

    def test_builtins_and_cone_match_lmdif(self, monkeypatch):
        polishes = self.builtin_polishes(monkeypatch)
        assert len(polishes) >= 40
        for residual, z0, max_nfev, res in polishes:
            self.assert_lmdif(res, lmdif_reference(residual, z0, max_nfev))

    def test_seeded_bump_series_match_lmdif(self, monkeypatch):
        calls = [functools.partial(estimate.fit_nls, bump_series(s), f)
                 for s in range(40) for f in FORWARD_DIFFERENCE]
        polishes = self.recorded(monkeypatch, calls)
        for residual, z0, max_nfev, res in polishes:
            self.assert_lmdif(res, lmdif_reference(residual, z0, max_nfev))

    def test_tight_budgets_match_lmdif(self, monkeypatch):
        # every budget from 1 to 60 evaluations, from each builtin and cone start
        for residual, z0, _, _ in self.builtin_polishes(monkeypatch):
            for max_nfev in range(1, 61):
                self.assert_lmdif(estimate._lmdif(residual, z0, max_nfev),
                                  lmdif_reference(residual, z0, max_nfev))

    def test_count_ignores_the_calls_at_the_start(self, monkeypatch):
        # the count starts at MINPACK's first Jacobian, so it does not depend
        # on how often leastsq evaluates z0 before it
        polishes = self.builtin_polishes(monkeypatch)[::5]
        leastsq = scipy.optimize.leastsq

        def leastsq_more_calls(fun, x0, *args, **kwargs):
            fun(x0)
            fun(x0)
            return leastsq(fun, x0, *args, **kwargs)

        monkeypatch.setattr(estimate, "leastsq", leastsq_more_calls)
        for residual, z0, _, _ in polishes:
            for max_nfev in (1, 2, 3, 6, 13, 5000):
                self.assert_lmdif(estimate._lmdif(residual, z0, max_nfev),
                                  lmdif_reference(residual, z0, max_nfev))

    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("family, max_iter", [(Family.BI_LOGISTIC, 21), (Family.LOGISTIC_BUMP, 8),
                                                  (Family.BI_LOGISTIC, 3), (Family.LOGISTIC_BUMP, 2),
                                                  (Family.LOGISTIC, 2), (Family.BASS, 5)])
    def test_tight_budget_fits_match_lmdif(self, monkeypatch, name, family, max_iter):
        # the fit's starts depend on each polish's end, the exhausted ones included
        series, lmdif = datasets.load_builtin(name).series, estimate._lmdif

        def fit():
            monkeypatch.setattr(estimate, "_logistic_memo", None)
            try:
                return report_bytes(estimate.fit_nls(series, family, max_iter=max_iter))
            except NonConvergence as exc:
                return str(exc)

        def reference(residual, z0, max_nfev, jacobian=None):
            if jacobian is not None:
                return lmdif(residual, z0, max_nfev, jacobian)
            return estimate._Polish(*lmdif_reference(residual, z0, max_nfev))

        expected = fit()
        monkeypatch.setattr(estimate, "_lmdif", reference)
        assert fit() == expected

    @pytest.mark.parametrize("family", [Family.LOGISTIC, Family.BI_LOGISTIC], ids=lambda f: f.value)
    def test_each_evaluation_is_one_batch(self, monkeypatch, family):
        # every point lmdif evaluates is one residual call with its d difference
        # points; ``solve`` is never called, and the points are lmdif's, in order
        series = datasets.load_builtin("enterprise78").series
        lmdif, residuals, solve = estimate._lmdif, estimate._Separable.residuals, estimate._Separable.solve
        polishes, batches = [], [None]  # the running polish's residual calls, else None

        def recorded(residual, z0, max_nfev, jacobian=None):
            if jacobian is not None:
                return lmdif(residual, z0, max_nfev, jacobian)
            polishes.append((residual, np.array(z0, dtype=float), max_nfev, []))
            batches[0] = polishes[-1][3]
            try:
                return lmdif(residual, z0, max_nfev)
            finally:
                batches[0] = None

        def counted(self, W, *args):
            batches[0].append(np.array(W))
            return residuals(self, W, *args)

        def forbidden(self, *args):
            assert batches[0] is None, "solve called in a polish"
            return solve(self, *args)

        with monkeypatch.context() as m:
            m.setattr(estimate, "_lmdif", recorded)
            m.setattr(estimate._Separable, "residuals", counted)
            m.setattr(estimate._Separable, "solve", forbidden)
            m.setattr(estimate, "_logistic_memo", None)
            estimate.fit_nls(series, family)
        assert len(polishes) >= 1 + (family == Family.BI_LOGISTIC)
        for residual, z0, max_nfev, batches in polishes:
            d = len(z0)
            points = []
            lmdif_reference(lambda w: points.append(w) or residual(w), z0, max_nfev)
            assert batches and all(W.shape == (d + 1, d) for W in batches)
            steps = [W[1:] - W[0] for W in batches]
            assert all((D == np.diag(np.diag(D))).all() and (np.diag(D) > 0.0).all() for D in steps)
            differences = {w.tobytes() for W in batches for w in W[1:]}
            evaluated = [w.tobytes() for w in points if w.tobytes() not in differences]
            evaluated = [w for i, w in enumerate(evaluated) if i == 0 or w != evaluated[i - 1]]
            assert [W[0].tobytes() for W in batches] == evaluated

    @pytest.mark.parametrize("sep", [*(estimate._SEPARABLE[f] for f in FORWARD_DIFFERENCE), estimate._MONOTONE_CONE],
                             ids=[*(f.value for f in FORWARD_DIFFERENCE), "cone"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batched_residual_row_is_solve(self, sep, data):
        # any batch size, any row position: each row's bytes are those of ``solve``
        series = datasets.load_builtin(data.draw(st.sampled_from(BUILTINS))).series
        t, y = series.times, series.values
        m = data.draw(st.integers(1, 9))
        W = np.array(data.draw(st.lists(st.lists(st.floats(-12.0, 12.0), min_size=len(sep.box),
                                                 max_size=len(sep.box)), min_size=m, max_size=m)))
        R = sep.residuals(W, t, y)
        assert R.shape == (m, len(t))
        for w, r in zip(W, R):
            A, c = sep.solve(w, t, y)
            assert r.tobytes() == (c @ A - y).tobytes()


class TestLogisticMemo:
    """``estimate._logistic_fit``: the last logistic fit by the start rule
    is kept with its times and values, and the logistic fit and the
    four-coordinate families' lead take it from there only where their own
    polish would have ended at the same point, so a fit after a hit has
    the bytes of one with an empty memo."""

    LEAD = [Family.LOGISTIC, Family.BI_LOGISTIC, Family.LOGISTIC_BUMP]

    @staticmethod
    def forget(monkeypatch):
        monkeypatch.setattr(estimate, "_logistic_memo", None)

    @staticmethod
    def logistic_polishes(calls):
        """How many times running ``calls`` polishes the logistic family."""
        logistic = estimate._SEPARABLE[Family.LOGISTIC]
        with mock.patch.object(estimate, "_fit_coords", wraps=estimate._fit_coords) as fit_coords:
            for call in calls:
                call()
        return sum(c.args[0] is logistic and c.args[3] is not None for c in fit_coords.call_args_list)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_fits_after_a_hit_are_those_of_an_empty_memo(self, monkeypatch, name):
        series = datasets.load_builtin(name).series
        empty = {}
        for family in self.LEAD:
            self.forget(monkeypatch)
            empty[family] = report_bytes(estimate.fit_nls(series, family))
        for order in itertools.permutations(self.LEAD):
            self.forget(monkeypatch)
            reports = {}
            calls = [lambda f=f: reports.__setitem__(f, report_bytes(estimate.fit_nls(series, f))) for f in order]
            assert self.logistic_polishes(calls) == 1, order
            assert reports == empty, order

    def test_other_values_times_dtype_or_length_miss(self, monkeypatch):
        self.forget(monkeypatch)
        series = datasets.load_builtin("synthetic21").series
        t, y = series.times, series.values
        res = estimate._logistic_fit(t, y, 4000)
        assert not res.x.flags.writeable
        assert estimate._logistic_fit(t.copy(), y.copy(), 4000) is res
        y2 = y.copy()
        y2[3] += 1e-3
        for other in ((t, y2), (t + 1.0, y), (t.astype(">f8"), y), (t, y.astype(">f8")), (t[:-1], y[:-1])):
            assert estimate._logistic_fit(*other, 4000) is not res
            assert estimate._logistic_memo[1] is not res
            res = estimate._logistic_fit(t, y, 4000)

    def test_a_fit_over_the_budget_is_not_reused(self, monkeypatch):
        series = datasets.load_builtin("enterprise78").series
        t, y = series.times, series.values
        self.forget(monkeypatch)
        res = estimate._logistic_fit(t, y, 4000)
        assert estimate._logistic_fit(t, y, res.nfev + 1) is res
        assert estimate._logistic_fit(t, y, res.nfev) is not res
        for family in self.LEAD:
            per_iter = curves.family_arity(family) + 1  # fit_nls's budget is max_iter times this
            # a budget the kept polish used up (polished anew), then one above it (reused)
            for max_iter, polishes in ((res.nfev // per_iter, 1), (res.nfev // per_iter + 1, 0)):
                def fit():
                    try:
                        return report_bytes(estimate.fit_nls(series, family, max_iter=max_iter))
                    except NonConvergence as exc:
                        return str(exc)

                estimate._logistic_fit(t, y, 4000)
                hit = []
                assert self.logistic_polishes([lambda: hit.append(fit())]) == polishes, (family, max_iter)
                self.forget(monkeypatch)
                assert hit[0] == fit(), (family, max_iter)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_compare_polishes_the_logistic_once(self, monkeypatch, capsys, name):
        from adoptkit import cli

        self.forget(monkeypatch)
        assert self.logistic_polishes([lambda: cli.main(["compare", "--data", f"builtin:{name}"])]) == 1


class TestEquivariance:
    """A fit does not depend on the units: under t -> 7t and y -> 1000y
    each family's SSE scales by 1000^2, to 1e-6 relative."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(s=st.integers(0, 10**6))
    def test_sse_scales(self, family, s):
        series = bump_series(s) if family != Family.TWO_COMP else simgen.gen_series(
            ThetaTwoComp(3.0, 0.8, 2.0, 0.25), fisher.GaussianIid(0.05), 21, 20.0, seed=(56, s))
        scaled = TimeSeries(7.0 * series.times, 1000.0 * series.values)
        sse = estimate.fit_nls(series, family).sse
        assert estimate.fit_nls(scaled, family).sse / 1000.0**2 == pytest.approx(sse, rel=1e-6)
