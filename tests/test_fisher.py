"""Information matrices, profiling, CRLBs, and design comparison."""

import math

import numpy as np
import pytest

import adoptkit as ak
from adoptkit import fisher
from adoptkit.curves import ThetaTwoComp
from adoptkit.errors import (
    RECOVERABLE,
    BinomialBoundary,
    InsufficientData,
    NonConvergence,
    NonMonotoneTime,
    PoissonBoundary,
    SingularNuisance,
    ValidationError,
)
from adoptkit.fisher import (
    BinomialCounts,
    GaussianAr1,
    GaussianIid,
    design_compare,
    gradient_matrix,
    info_ar1_dense,
    info_ar1_simplified,
    info_ar1_whitened,
    info_matrix,
    PoissonCounts,
    sample_observations,
)

THETA = ThetaTwoComp(3.0, 0.8, 2.0, 0.25)


class TestGradientMatrix:
    def test_time_zero_row(self):
        G = gradient_matrix(THETA, [0.0])
        assert G.shape == (1, 4)
        assert G[0] == pytest.approx([0.0, 0.0, 1.0, 0.0])

    def test_alpha_entry_closed_form(self):
        G = gradient_matrix(THETA, [1.0])
        assert G[0, 0] == pytest.approx(-3.0 * math.exp(-0.8), rel=1e-14)

    def test_rows_match_finite_differences(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0, 25, 20)
        times.sort()
        G = gradient_matrix(THETA, times)
        base = THETA.as_array()
        for j_fit, j_grad in ((0, 2), (1, 0), (2, 3), (3, 1)):
            h = 1e-6 * max(1.0, base[j_fit])
            up, dn = base.copy(), base.copy()
            up[j_fit] += h
            dn[j_fit] -= h
            fd = (
                ak.eval_curve(ThetaTwoComp.from_array(up), times)
                - ak.eval_curve(ThetaTwoComp.from_array(dn), times)
            ) / (2 * h)
            assert G[:, j_grad] == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestInfoMatrix:
    def test_single_point_is_nuisance_singular_with_correct_block(self):
        t = 1.7
        with pytest.raises(SingularNuisance) as excinfo:
            info_matrix(THETA, [t], GaussianIid(0.1))
        i_aa = excinfo.value.unprofiled[0, 0]
        expected = t**2 * THETA.n0**2 * math.exp(-2 * THETA.alpha * t) / 0.1**2
        assert i_aa == pytest.approx(expected, rel=1e-12)

    def test_ar1_rho_zero_reduces_to_iid(self):
        times = np.linspace(0, 20, 21)
        iid = info_matrix(THETA, times, GaussianIid(0.05))
        ar = info_matrix(THETA, times, GaussianAr1(0.05, 0.0))
        assert np.max(np.abs(iid.info_full - ar.info_full)) <= 1e-12 * np.max(iid.info_full)

    def test_ar1_whitened_matches_dense(self):
        times = np.linspace(0, 20, 21)
        dense = info_ar1_dense(THETA, times, 0.05, 0.6)
        whitened = info_ar1_whitened(THETA, times, 0.05, 0.6)
        rel = np.max(np.abs(whitened - dense)) / np.max(np.abs(dense))
        assert rel < 1e-8

    def test_ar1_info_matrix_matches_dense_oracle_at_n1826(self):
        times = np.linspace(0.0, 1825.0, 1826)
        report = info_matrix(THETA, times, GaussianAr1(0.05, 0.3))
        dense = info_ar1_dense(THETA, times, 0.05, 0.3)
        rel = np.max(np.abs(report.info_full - dense)) / np.max(np.abs(dense))
        assert rel < 1e-10

    def test_ar1_simplified_form_differs_and_is_reported(self):
        times = np.linspace(0, 20, 21)
        report = info_matrix(THETA, times, GaussianAr1(0.05, 0.6))
        assert report.ar1_simplified_info is not None
        assert report.ar1_simplified_max_rel_diff > 0
        # the simplified form overcounts exactly rho^2 g1 g1' / (s^2 (1-r^2))
        g1 = gradient_matrix(THETA, times)[0]
        excess = 0.6**2 * np.outer(g1, g1) / (0.05**2 * (1 - 0.6**2))
        assert np.allclose(
            info_ar1_simplified(THETA, times, 0.05, 0.6)
            - info_ar1_dense(THETA, times, 0.05, 0.6),
            excess,
            rtol=1e-6,
            atol=1e-8,
        )

    def test_gaussian_scaling(self):
        times = np.linspace(0, 20, 21)
        a = info_matrix(THETA, times, GaussianIid(0.05)).info_full
        b = info_matrix(THETA, times, GaussianIid(0.10)).info_full
        assert np.allclose(a, 4.0 * b, rtol=1e-12)

    def test_poisson_matches_score_covariance(self):
        times = np.linspace(0.0, 18.0, 10)
        kappa = 50.0
        report = info_matrix(THETA, times, PoissonCounts(kappa))
        lam = kappa * ak.eval_curve(THETA, times)
        G = gradient_matrix(THETA, times)
        rng = np.random.default_rng(12)
        reps = 100_000
        y = rng.poisson(lam, size=(reps, len(times)))
        scores = ((y / lam) - 1.0) @ (kappa * G)
        mc = np.cov(scores, rowvar=False)
        info = report.info_full
        se = np.sqrt(
            (np.outer(np.diag(info), np.diag(info)) + info**2) / reps
        )
        assert np.all(np.abs(mc - info) <= 3.0 * se + 1e-9)

    def test_poisson_boundary(self):
        theta = ThetaTwoComp(0.0, 1.0, 0.0, 1.0)  # A identically zero
        with pytest.raises(PoissonBoundary):
            info_matrix(theta, [1.0, 2.0, 3.0, 4.0, 5.0], PoissonCounts(1.0))

    def test_binomial_boundary_and_value(self):
        times = np.linspace(0, 20, 21)
        with pytest.raises(BinomialBoundary):
            info_matrix(THETA, times, BinomialCounts(m=2.0))  # A(0)=3 > m
        report = info_matrix(THETA, times, BinomialCounts(m=5.0, trials=30))
        p = ak.eval_curve(THETA, times) / 5.0
        G = gradient_matrix(THETA, times)
        expected = G.T @ (G * (30.0 / (25.0 * p * (1 - p)))[:, None])
        assert np.allclose(report.info_full, expected, rtol=1e-12)

    @pytest.mark.parametrize("trials", [2.5, 0, np.array([3.0, 4.0])], ids=["fraction", "zero", "float-array"])
    def test_binomial_trials_must_be_integers(self, trials):
        # before: info_matrix took 2.5 and sampling raised numpy's TypeError
        with pytest.raises(ValidationError, match="trial counts"):
            BinomialCounts(m=5.0, trials=trials)

    def test_binomial_trials_one_per_design_point(self):
        # before: numpy's ValueError, which the scenario loop does not catch
        em, times = BinomialCounts(m=5.0, trials=np.arange(1, 6)), np.linspace(0.0, 20.0, 21)
        with pytest.raises(ValidationError, match="one trial count per design point"):
            info_matrix(THETA, times, em)
        with pytest.raises(ValidationError, match="one trial count per design point"):
            sample_observations(THETA, times, em, np.random.default_rng(0))

    def test_score_correlation_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            theta = ThetaTwoComp(
                float(rng.uniform(0.2, 4)),
                float(rng.uniform(0.1, 2)),
                float(rng.uniform(0.2, 4)),
                float(rng.uniform(0.05, 1.5)),
            )
            times = np.sort(rng.uniform(0.1, 25, rng.integers(2, 12)))
            try:
                report = info_matrix(theta, times, GaussianIid(0.1))
            except SingularNuisance as exc:
                block = exc.unprofiled
                assert block[0, 1] < 0
                continue
            assert report.corr_alpha_beta < 0

    def test_profiled_block_is_schur_complement(self):
        times = np.linspace(0, 20, 21)
        report = info_matrix(THETA, times, GaussianIid(0.05))
        info = report.info_full
        schur = info[:2, :2] - info[:2, 2:] @ np.linalg.solve(info[2:, 2:], info[2:, :2])
        assert np.max(np.abs(report.info_profiled - schur)) < 1e-10 * np.max(np.abs(schur))
        # profiled CRLBs coincide with the full-inverse diagonal (block identity)
        full_inv = np.linalg.inv(info)
        assert report.crlb_alpha == pytest.approx(full_inv[0, 0], rel=1e-9)
        assert report.crlb_beta == pytest.approx(full_inv[1, 1], rel=1e-9)

    def test_profiled_bound_never_below_naive(self):
        times = np.linspace(0, 20, 21)
        report = info_matrix(THETA, times, GaussianIid(0.05))
        naive = np.linalg.inv(report.info_full[:2, :2])
        assert report.crlb_alpha >= naive[0, 0] - 1e-15
        assert report.crlb_beta >= naive[1, 1] - 1e-15

    def test_ar1_inflates_crlb_beta(self):
        times = np.linspace(0, 20, 21)
        iid = info_matrix(THETA, times, GaussianIid(0.05))
        ar = info_matrix(THETA, times, GaussianAr1(0.05, 0.6))
        assert ar.crlb_beta > iid.crlb_beta

    def test_info_symmetric_psd(self):
        times = np.linspace(0, 20, 21)
        for em in (GaussianIid(0.05), GaussianAr1(0.05, 0.4), PoissonCounts(10.0),
                   BinomialCounts(m=5.0, trials=20)):
            report = info_matrix(THETA, times, em)
            info = report.info_full
            assert np.max(np.abs(info - info.T)) < 1e-12 * np.max(np.abs(info))
            assert np.min(np.linalg.eigvalsh(info)) > -1e-10 * np.max(np.abs(info))


class TestDesignCompare:
    EARLY_LATE = [0.0, 1.0, 2.0, 18.0, 19.0, 20.0]
    MID = [4.0, 5.0, 6.0, 7.0, 8.0]

    def test_identical_designs_ratio_one(self):
        cmp = design_compare(THETA, self.MID, self.MID, GaussianIid(0.1))
        assert cmp.crlb_ratio_alpha == pytest.approx(1.0, rel=1e-12)
        assert cmp.crlb_ratio_beta == pytest.approx(1.0, rel=1e-12)

    def test_empty_design_rejected(self):
        with pytest.raises(ValidationError):
            design_compare(THETA, self.MID, [], GaussianIid(0.1))

    def test_early_late_tightens_bounds_and_decorrelates_estimates(self):
        cmp = design_compare(THETA, self.MID, self.EARLY_LATE, GaussianIid(0.1))
        assert cmp.crlb_ratio_alpha > 1.0
        assert cmp.crlb_ratio_beta > 1.0
        assert abs(cmp.est_corr_b) < abs(cmp.est_corr_a)

    def test_score_correlation_values_regression(self):
        # the score-space heuristic moves the other way for this design pair;
        # pinned so the behavior is visible and stable
        cmp = design_compare(THETA, self.MID, self.EARLY_LATE, GaussianIid(0.1))
        assert cmp.corr_a == pytest.approx(-0.8392, abs=2e-4)
        assert cmp.corr_b == pytest.approx(-0.9451, abs=2e-4)


class TestSampling:
    def test_gaussian_zero_sigma_exact(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0, 20, 21)
        y = sample_observations(THETA, times, GaussianIid(0.0), rng)
        assert y == pytest.approx(ak.eval_curve(THETA, times), abs=0.0)

    def test_ar1_marginal_variance_matches_sigma(self):
        rng = np.random.default_rng(4)
        times = np.linspace(0, 1, 20_000)
        y = sample_observations(THETA, times, GaussianAr1(0.3, 0.6), rng)
        noise = y - ak.eval_curve(THETA, times)
        assert np.std(noise) == pytest.approx(0.3, rel=0.05)


    @staticmethod
    def reference(theta, times, em, rng):
        """One draw as it was made before the draws ran in batches."""
        mean = ak.eval_curve(theta, times)
        if isinstance(em, GaussianIid):
            return mean + em.sigma * rng.standard_normal(len(times))
        if isinstance(em, GaussianAr1):
            z = rng.standard_normal(len(times))
            e = np.empty(len(times))
            e[0] = em.sigma * z[0]
            innov = em.sigma * math.sqrt(1.0 - em.rho**2)
            for i in range(1, len(times)):
                e[i] = em.rho * e[i - 1] + innov * z[i]
            return mean + e
        if isinstance(em, PoissonCounts):
            return rng.poisson(em.kappa * mean).astype(float)
        trials = np.broadcast_to(np.asarray(em.trials), times.shape)
        return rng.binomial(trials, mean / em.m).astype(float)

    @pytest.mark.parametrize("em", [GaussianIid(0.05), GaussianAr1(0.05, 0.3), PoissonCounts(20.0),
                                    BinomialCounts(6.0, np.arange(1, 22))])
    def test_batch_rows_match_single_draws(self, em):
        # each row draws from its own generator: its bytes are those of
        # sample_observations and of the per-draw rule it replaced
        times = np.linspace(0.0, 20.0, 21)
        Y = fisher._sample_many(THETA, times, em, [np.random.default_rng((66, s)) for s in range(9)])
        assert Y.shape == (9, 21) and Y.dtype == float
        for s, y in enumerate(Y):
            assert y.tobytes() == sample_observations(THETA, times, em, np.random.default_rng((66, s))).tobytes()
            assert y.tobytes() == self.reference(THETA, times, em, np.random.default_rng((66, s))).tobytes()

    @pytest.mark.parametrize("em, error", [(PoissonCounts(5.0), PoissonBoundary), (BinomialCounts(2.5), BinomialBoundary)])
    def test_a_boundary_batch_raises_as_one_draw_does(self, em, error):
        # n0 = 0 puts A(0) = 0 on the Poisson boundary; A(20) ~ 2.9 > 2.5 = m on the binomial one
        theta, times = ThetaTwoComp(0.0, 0.8, 3.0, 0.25), np.linspace(0.0, 20.0, 21)
        with pytest.raises(error):
            fisher._sample_many(theta, times, em, [np.random.default_rng(s) for s in range(3)])
        with pytest.raises(error):
            sample_observations(theta, times, em, np.random.default_rng(0))


class TestCrlbCheck:
    def test_ratios_near_one_and_thread_invariant(self):
        times = np.linspace(0, 20, 41)
        a = fisher.crlb_check(THETA, times, GaussianIid(0.05), replicates=120, seed=3)
        b = fisher.crlb_check(THETA, times, GaussianIid(0.05), replicates=120, seed=3, threads=4)
        assert a == b
        assert a.n_failed == 0
        assert 0.7 <= a.ratio_alpha <= 2.0
        assert 0.7 <= a.ratio_beta <= 2.0

    def test_replicate_floor(self):
        with pytest.raises(ValidationError):
            fisher.crlb_check(THETA, [0, 1, 2], GaussianIid(0.1), replicates=10)

    @pytest.mark.parametrize("times, error", [
        ([0.0, 1.0, 2.0, 10.0, 9.0, 20.0], NonMonotoneTime),
        ([0.0, 1.0, 1.0, 10.0, 19.0, 20.0], NonMonotoneTime),
        ([0.0, 1.0, 18.0, 20.0], InsufficientData),
        ([0.0, 1.0, math.nan, 18.0, 19.0, 20.0], ValidationError),
    ], ids=["back", "repeat", "four-points", "nan"])
    def test_design_is_checked_before_any_replicate(self, monkeypatch, times, error):
        # before: these designs drew and refit every replicate, then raised
        # NonConvergence "100/100 refits failed"
        from adoptkit import estimate

        def unreachable(*args, **kwargs):
            raise AssertionError("a replicate was drawn or fit")

        for module, name in [(fisher, "_sample_many"), (estimate, "_fit_cold_many"), (estimate, "fit_nls")]:
            monkeypatch.setattr(module, name, unreachable)
        with pytest.raises(error):
            fisher.crlb_check(THETA, times, GaussianIid(0.05), replicates=100)

    @pytest.mark.parametrize("n_ok", [0, 1])
    def test_fewer_than_two_refits_raise(self, monkeypatch, n_ok):
        from adoptkit import estimate

        # every refit goes to estimate.fit_nls only when the batch certifies none
        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        fit_nls = estimate.fit_nls
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) > n_ok:
                raise NonConvergence("forced")
            return fit_nls(*args, **kwargs)

        monkeypatch.setattr(estimate, "fit_nls", failing)
        times = np.linspace(0, 20, 21)
        with pytest.raises(NonConvergence, match=f"{100 - n_ok}/100 refits failed"):
            fisher.crlb_check(THETA, times, GaussianIid(0.05), replicates=100)

    def test_every_row_through_the_fallback_matches_the_per_replicate_loop(self, monkeypatch):
        from adoptkit import estimate

        monkeypatch.setattr(estimate, "_BATCH_MAX_ITER", 0)
        for times, em, seed in [
            (np.linspace(0, 20, 41), GaussianIid(0.05), 3),
            (np.linspace(0, 20, 21), GaussianAr1(0.05, 0.3), (4, 1)),
        ]:
            a = fisher.crlb_check(THETA, times, em, replicates=100, seed=seed)
            assert repr(a) == repr(crlb_per_replicate(THETA, times, em, 100, seed))

    def test_failed_refits_are_counted_by_class(self):
        # Bernoulli points at A(t)/200: the all-zero replicates are constant
        # series, which fit_nls refuses with SingularJacobian
        times = np.linspace(0, 20, 21)
        em = BinomialCounts(m=200.0, trials=1)
        a = fisher.crlb_check(THETA, times, em, replicates=100, seed=7)
        assert sum(a.failures.values()) == a.n_failed > 0 and "SingularJacobian" in a.failures
        assert a.failures == crlb_per_replicate(THETA, times, em, 100, 7).failures


def crlb_per_replicate(theta, times, em, replicates, seed):
    """``fisher.crlb_check`` as one cold ``fit_nls`` per replicate, one
    replicate at a time."""
    from adoptkit import estimate

    report = info_matrix(theta, times, em)
    ok, names = [], []
    for i in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence((fisher._seed_int(seed), 0, i)))
        y = sample_observations(theta, times, em, rng)
        try:
            fit = estimate.fit_nls(estimate.TimeSeries(times, y), "twocomp")
        except RECOVERABLE as exc:
            names.append(type(exc).__name__)
            continue
        ok.append((float(fit.theta[1]), float(fit.theta[3])))
    arr = np.asarray(ok)
    var_alpha, var_beta = float(np.var(arr[:, 0], ddof=1)), float(np.var(arr[:, 1], ddof=1))
    return fisher.CrlbCheck(
        mc_var_alpha=var_alpha, mc_var_beta=var_beta, crlb_alpha=report.crlb_alpha,
        crlb_beta=report.crlb_beta, ratio_alpha=var_alpha / report.crlb_alpha,
        ratio_beta=var_beta / report.crlb_beta, replicates=replicates, n_failed=len(names),
        failures={name: names.count(name) for name in sorted(names)},
    )
