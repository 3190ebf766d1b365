"""Task economics, hazards, thresholds, and microfoundations."""

import math

import numpy as np
import pytest

from adoptkit.econ import (
    ExponentialHazard,
    LinearHazard,
    LogitHazard,
    ProbitHazard,
    Task,
    TaskEconomy,
    agency_threshold,
    beta_from_hazard,
    embedding_beta_gradient,
    friction_calibration,
    friction_expectation,
    friction_expectation_gradient,
    hazard_hprime0,
    hazard_value,
    micro_n0,
    micro_umax,
    preference_probability,
    task_utility,
    threshold_uncertainty,
    utility_reliability_gradient,
)
from adoptkit.errors import CollinearDesign, NonpositiveLowerBound, ValidationError


def one_task(v=1.0, c_f=1.0, tau=0.0, phi=0.0, w=1.0):
    return Task(v=v, c_f=c_f, tau=tau, phi=phi, w=w)


class TestTaskUtility:
    def test_full_reliability_drops_failure_term(self):
        assert task_utility(one_task(v=2.0, c_f=5.0), 1.0, 1.0, 1.0) == 2.0

    def test_mixed_case(self):
        t = one_task(v=1.0, c_f=1.0, tau=0.2, phi=0.1)
        assert task_utility(t, 0.8, 1.0, 1.0) == pytest.approx(0.3)

    def test_zero_reliability(self):
        t = one_task(v=3.0, c_f=2.0, tau=0.5, phi=0.25)
        assert task_utility(t, 0.0, 2.0, 4.0) == pytest.approx(-2.0 - 1.0 - 1.0)

    def test_reliability_out_of_range(self):
        with pytest.raises(ValidationError):
            task_utility(one_task(), 1.2, 1.0, 1.0)

    def test_affine_in_reliability(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = one_task(
                v=float(rng.uniform(0, 5)),
                c_f=float(rng.uniform(0, 5)),
                tau=float(rng.uniform(0, 2)),
                phi=float(rng.uniform(0, 2)),
            )
            u0 = task_utility(t, 0.0, 1.0, 1.0)
            u1 = task_utility(t, 1.0, 1.0, 1.0)
            r = float(rng.uniform(0, 1))
            assert task_utility(t, r, 1.0, 1.0) == pytest.approx(u0 + (u1 - u0) * r)
            assert u1 - u0 == pytest.approx(t.v + t.c_f)


class TestReliabilityGradient:
    def test_single_task_no_oversight_effect(self):
        e = TaskEconomy((one_task(v=1.0, c_f=1.0),))
        assert utility_reliability_gradient(e, 0.0) == 2.0

    def test_oversight_reduction_raises_gradient(self):
        e = TaskEconomy((one_task(v=1.0, c_f=1.0),))
        assert utility_reliability_gradient(e, -0.5) > utility_reliability_gradient(e, 0.0)

    def test_matches_finite_difference(self):
        # fold the oversight response into tau(R) = tau0 + dtau*R
        tasks = (
            Task(v=2.0, c_f=1.0, tau=0.5, phi=0.3, w=0.6),
            Task(v=1.0, c_f=3.0, tau=0.45, phi=0.1, w=0.4),
        )
        e = TaskEconomy(tasks, c_time=1.3, c_fric=0.7)
        dtau = -0.4

        def total_utility(r):
            out = 0.0
            for t in tasks:
                shifted = Task(v=t.v, c_f=t.c_f, tau=t.tau + dtau * r, phi=t.phi, w=t.w)
                out += t.w * task_utility(shifted, r, e.c_time, e.c_fric)
            return out

        h = 1e-7
        fd = (total_utility(0.5 + h) - total_utility(0.5 - h)) / (2 * h)
        assert utility_reliability_gradient(e, dtau) == pytest.approx(fd, rel=1e-6)


class TestHazards:
    def test_hprime0_closed_forms(self):
        assert hazard_hprime0(LogitHazard(1.0, 0.0, 4.0)) == pytest.approx(1.0)
        assert hazard_hprime0(ProbitHazard(1.0, 0.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi)
        )
        assert hazard_hprime0(LinearHazard(0.5)) == 0.5
        assert hazard_hprime0(ExponentialHazard(2.0, 3.0)) == 6.0

    def test_hprime0_positive_for_all_specs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            lam, a, b = rng.uniform(0.1, 5), rng.uniform(-2, 2), rng.uniform(0.1, 5)
            for spec in (
                LinearHazard(lam),
                LogitHazard(lam, a, b),
                ProbitHazard(lam, a, b),
                ExponentialHazard(lam, b),
            ):
                assert hazard_hprime0(spec) > 0

    def test_hazard_zero_at_origin_when_centered(self):
        assert hazard_value(LinearHazard(2.0), 0.0) == 0.0
        assert hazard_value(LogitHazard(1.0, 0.0, 2.0), 0.0) == 0.0
        assert hazard_value(ProbitHazard(1.0, 0.0, 2.0), 0.0) == 0.0
        assert hazard_value(ExponentialHazard(1.0, 2.0), 0.0) == 0.0
        # the displayed forms with a != 0 expose a nonzero offset at 0
        assert hazard_value(LogitHazard(1.0, 0.5, 2.0), 0.0) != 0.0

    def test_beta_from_hazard(self):
        assert beta_from_hazard(LogitHazard(1.0, 0.0, 4.0), 1.0, 0.05) == pytest.approx(0.05)
        assert beta_from_hazard(ExponentialHazard(1.0, 1.0), 2.0, 0.0) == 0.0
        with pytest.raises(ValidationError):
            beta_from_hazard(LinearHazard(1.0), 0.0, 0.1)

    def test_embedding_gradient_positive_across_families(self):
        for spec in (
            LinearHazard(0.7),
            LogitHazard(0.7, 0.3, 2.0),
            ProbitHazard(0.7, -0.2, 1.5),
            ExponentialHazard(0.7, 1.1),
        ):
            assert embedding_beta_gradient(spec, 1.5, 1.0, 1.1) > 0


class TestFriction:
    def test_expectation_endpoints(self):
        assert friction_expectation(1.0, 2.3) == 0.0
        assert friction_expectation(0.0, 2.3) == 2.3
        assert friction_expectation(0.6, 1.1) == pytest.approx(0.44)
        assert friction_expectation_gradient(1.1) == -1.1

    def test_calibration_exact_recovery(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(0, 10, 40)
        i = rng.uniform(0, 6, 40)
        phi = 0.79 * s + 0.52 * i
        cal = friction_calibration(s, i, phi)
        assert cal.kappa_s == pytest.approx(0.79, abs=1e-10)
        assert cal.kappa_i == pytest.approx(0.52, abs=1e-10)
        assert cal.se_s == pytest.approx(0.0, abs=1e-10)

    def test_collinear_design(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(CollinearDesign):
            friction_calibration(s, 2.0 * s, 0.79 * s + 1.04 * s)

    def test_noisy_recovery_within_two_se(self):
        hits = 0
        n_rep = 200
        for r in range(n_rep):
            rng = np.random.default_rng((61, r))
            s = rng.uniform(0, 10, 200)
            i = rng.uniform(0, 6, 200)
            phi = 0.79 * s + 0.52 * i + rng.normal(0, 0.1, 200)
            cal = friction_calibration(s, i, phi)
            ok = abs(cal.kappa_s - 0.79) <= 2 * cal.se_s and abs(cal.kappa_i - 0.52) <= 2 * cal.se_i
            hits += ok
        assert hits / n_rep >= 0.90


class TestAgencyThreshold:
    def test_pilot_configuration(self):
        rng = np.random.default_rng(42)
        mu_c = float(rng.uniform(0.5, 1.5, 200).mean())
        r_star = agency_threshold(0.51, 0.3, 0.1, 1.0, 1.0, mu_c)
        assert r_star - 0.51 == pytest.approx(0.4 / mu_c)
        assert 0.36 <= r_star - 0.51 <= 0.45
        assert r_star == pytest.approx(0.9125, abs=5e-4)

    def test_zero_gap_matches_chat(self):
        assert agency_threshold(0.7, 0.0, 0.0, 1.0, 1.0, 1.0) == 0.7

    def test_cheaper_agent_lowers_threshold(self):
        assert agency_threshold(0.7, -0.2, -0.1, 1.0, 1.0, 1.0) <= 0.7

    def test_strictly_decreasing_in_mu(self):
        lo = agency_threshold(0.5, 0.3, 0.1, 1.0, 1.0, 0.8)
        hi = agency_threshold(0.5, 0.3, 0.1, 1.0, 1.0, 1.6)
        assert lo > hi

    @pytest.mark.parametrize("at", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_raises(self, at, value):
        # before: a nan r_chat returned nan, which the CLI printed as null
        args = [0.5, 0.3, 0.1, 1.0, 1.0, 1.0]
        args[at] = value
        with pytest.raises(ValidationError, match="finite"):
            agency_threshold(*args)
        with pytest.raises(ValidationError, match="finite"):
            threshold_uncertainty(*args, 0.05)

    def test_nan_sigma_mu_raises(self):
        with pytest.raises(ValidationError, match="sigma_mu"):
            threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, math.nan)


class TestThresholdUncertainty:
    def test_zero_sigma_degenerate(self):
        rep = threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.0)
        assert rep.variance == 0.0
        assert rep.robust_r_star == pytest.approx(rep.r_star)
        assert rep.ci == (pytest.approx(rep.r_star), pytest.approx(rep.r_star))

    def test_ci_half_width(self):
        rep = threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.05)
        half = (rep.ci[1] - rep.ci[0]) / 2
        assert half == pytest.approx(1.959963985 * 0.4 * 0.05, rel=1e-6)

    def test_hoeffding_penalty(self):
        rep = threshold_uncertainty(
            0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.05, level=0.95, c_max=2.0, n=100
        )
        assert rep.hoeffding_penalty == pytest.approx(
            2.0 * math.sqrt(math.log(20.0) / 200.0), rel=1e-9
        )
        assert rep.hoeffding_penalty == pytest.approx(0.2448, abs=5e-4)
        assert rep.hoeffding_r_star > rep.r_star

    @pytest.mark.parametrize("c_max, n, match", [
        (None, 0, "together"), (0.5, None, "together"), (2.0, None, "together"),
        (math.inf, 10, "c_max"), (math.nan, 10, "c_max"), (0.5, 10, "c_max"), (-1.0, 10, "c_max"),
        (2.0, 0, "n must"), (2.0, -3, "n must"), (2.0, 2.5, "n must"), (2.0, 10.0, "n must"),
        (2.0, True, "n must"),
    ])
    def test_hoeffding_inputs_are_checked(self, c_max, n, match):
        # each was ignored or reported before: a lone c_max or n, a Hoeffding
        # floor from c_max < mu_C (C_f in [0, c_max] cannot average mu_C), a
        # null penalty for c_max = inf, and n = 2.5
        with pytest.raises(ValidationError, match=match):
            threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.05, c_max=c_max, n=n)

    def test_hoeffding_bound_at_mu_c(self):
        # c_max = mu_C is the least bound C_f in [0, c_max] allows; n may be a numpy integer
        rep = threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.05, c_max=1.0, n=np.int64(200))
        assert rep.hoeffding_penalty == pytest.approx(math.sqrt(math.log(20.0) / 400.0), rel=1e-12)

    def test_robust_exceeds_point_threshold(self):
        rep = threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.08)
        assert rep.robust_r_star >= rep.r_star

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_level_outside_unit_interval_raises(self, level):
        # level 1.5 gave a CI and a robust threshold of NaN
        with pytest.raises(ValidationError, match="level"):
            threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 1.0, 0.05, level=level)

    def test_nonpositive_lower_bound(self):
        with pytest.raises(NonpositiveLowerBound):
            threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, 0.1, 1.0)

    def test_robust_rule_coverage_uniform_cf(self):
        # robust threshold exceeds the true R* in at least 95% of samples
        true_mu = 1.0
        true_r = agency_threshold(0.5, 0.3, 0.1, 1.0, 1.0, true_mu)
        n = 100
        covered = 0
        reps = 2000
        for r in range(reps):
            rng = np.random.default_rng((71, r))
            sample = rng.uniform(0.5, 1.5, n)
            mu_hat = float(sample.mean())
            se = float(sample.std(ddof=1) / math.sqrt(n))
            rep = threshold_uncertainty(0.5, 0.3, 0.1, 1.0, 1.0, mu_hat, se)
            covered += rep.robust_r_star >= true_r
        assert covered / reps >= 0.94


class TestPreferenceProbability:
    def test_uniform_closed_form(self):
        p = preference_probability(("uniform", 0.5, 1.5), 0.4, 0.30)
        assert p == pytest.approx(1.0 / 6.0, abs=1e-4)

    def test_uniform_against_mc_oracle(self):
        rng = np.random.default_rng(15)
        sample = rng.uniform(0.5, 1.5, 1_000_000)
        mc = preference_probability(sample, 0.4, 0.30)
        assert mc == pytest.approx(1.0 / 6.0, abs=2e-3)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValidationError):
            preference_probability(("uniform", 0.5, 1.5), 0.4, 0.0)

    def test_zero_cost_gap_prefers_agent_always(self):
        assert preference_probability(("uniform", 0.5, 1.5), 0.0, 0.3) == 1.0

    def test_heavier_tail_raises_probability(self):
        # lognormal with the same mean (1.0) but a heavy right tail, at a
        # threshold above the mean
        p_uniform = preference_probability(("uniform", 0.5, 1.5), 0.4, 0.30)
        p_lognormal = preference_probability(("lognormal", -0.5, 1.0), 0.4, 0.30)
        assert math.exp(-0.5 + 0.5) == pytest.approx(1.0)  # matched means
        assert p_lognormal >= p_uniform


class TestMicrofoundations:
    def test_full_mass_when_all_positive(self):
        tasks = tuple(one_task(v=2.0, c_f=0.5, w=0.25) for _ in range(4))
        e = TaskEconomy(tasks)
        assert micro_umax(e, [0.9] * 4) == pytest.approx(1.0)

    def test_indicator_mass(self):
        tasks = (
            Task(v=5.0, c_f=0.1, tau=0.0, phi=0.0, w=0.4),
            Task(v=0.1, c_f=5.0, tau=0.0, phi=0.0, w=0.6),
        )
        e = TaskEconomy(tasks)
        assert micro_umax(e, [0.9, 0.1]) == pytest.approx(0.4)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = 100
            w = rng.dirichlet(np.ones(m))
            tasks = tuple(
                Task(
                    v=float(rng.uniform(0, 3)),
                    c_f=float(rng.uniform(0, 3)),
                    tau=float(rng.uniform(0, 1)),
                    phi=float(rng.uniform(0, 1)),
                    w=float(w[j]),
                )
                for j in range(m)
            )
            e = TaskEconomy(tasks, c_time=0.8, c_fric=0.6)
            rel = rng.uniform(0, 1, m)
            brute = sum(
                t.w
                for t, r in zip(tasks, rel)
                if task_utility(t, float(r), 0.8, 0.6) > 0
            )
            assert micro_umax(e, rel) == pytest.approx(brute, abs=1e-12)

    def test_monotone_in_single_reliability(self):
        tasks = (
            Task(v=1.0, c_f=1.0, tau=0.1, phi=0.1, w=0.5),
            Task(v=2.0, c_f=0.5, tau=0.2, phi=0.0, w=0.5),
        )
        e = TaskEconomy(tasks)
        grid = np.linspace(0, 1, 50)
        vals = [micro_umax(e, [r, 0.3]) for r in grid]
        assert np.all(np.diff(vals) >= 0)

    def test_smooth_saturation_variant(self):
        tasks = (one_task(v=1.0, c_f=1.0, w=1.0),)
        e = TaskEconomy(tasks)
        s = lambda du: 1.0 / (1.0 + math.exp(-10.0 * du))
        assert 0.0 < micro_umax(e, [0.5], saturation=s) < 1.0

    def test_micro_n0(self):
        assert micro_n0([0.3, 0.3, 0.3], [0.2, 0.5, 0.3]) == pytest.approx(0.3)
        assert micro_n0([0.0, 0.0], [0.5, 0.5]) == 0.0
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, 50)
        w = rng.dirichlet(np.ones(50))
        assert micro_n0(p, w) == pytest.approx(float(np.dot(p, w)), abs=1e-14)

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            TaskEconomy((one_task(w=0.5), one_task(w=0.4)))
        with pytest.raises(ValidationError):
            micro_n0([0.5, 1.2], [0.5, 0.5])
