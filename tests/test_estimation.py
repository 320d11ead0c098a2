"""Estimator and oracle checks.

The closed loops run each estimator against the analytic oracle of a
known ground-truth law and require the generating parameters back; the
simulation oracle is compared against the analytic one statistically.
"""

import math

import numpy as np
import pytest

from qpk import (DegenerateError, DelayModel, DomainError,
                 InsufficientDataError, PreconditionError, PriceVector,
                 StabilityError, SystemConfig, Uniform,
                 discover_classes, discrete_class_oracle, des_oracle,
                 estimate_density, estimate_exponential, estimate_parametric,
                 exact_oracle, infer_threshold, noisy_oracle,
                 solve_equilibrium, threshold_of_rate)
from qpk.estimation import Measurement


# --- exact oracle -------------------------------------------------------------


def test_exact_oracle_identical_servers_balanced(ex3):
    m = exact_oracle(ex3).measure(2.0, 2.0)
    assert m.gamma1 == m.gamma2 == 1.5
    assert m.d1 == m.d2


def test_exact_oracle_saturated_example(sat_power):
    m = exact_oracle(sat_power).measure(5.0, 5.0)
    assert m.gamma1 == pytest.approx(2.5, abs=1e-9)
    assert threshold_of_rate(sat_power, m.gamma1) == pytest.approx(2.828, abs=5e-4)


def test_exact_oracle_example1_optimum(ex1_uniform):
    m = exact_oracle(ex1_uniform).measure(3.106, 1.0)
    assert m.gamma1 == pytest.approx(0.62, abs=0.005)
    assert m.gamma1 + m.gamma2 == pytest.approx(3.0, abs=1e-10)
    assert m.d2 > m.d1  # pricier server runs faster


def test_exact_oracle_threshold_consistency(ex1_uniform, ex1_gamma):
    for cfg, c1 in ((ex1_uniform, 2.9), (ex1_gamma, 3.6)):
        m = exact_oracle(cfg).measure(c1, 1.0)
        assert infer_threshold(m) == pytest.approx(
            threshold_of_rate(cfg, m.gamma1), abs=1e-8)


# --- noisy oracle --------------------------------------------------------------


def test_noisy_oracle_zero_noise_is_exact(ex1_uniform):
    base = exact_oracle(ex1_uniform)
    noisy = noisy_oracle(base, 0.0, seed=1)
    assert noisy.measure(3.0, 1.0) == base.measure(3.0, 1.0)


def test_noisy_oracle_seed_determinism(ex1_uniform):
    base = exact_oracle(ex1_uniform)
    a = noisy_oracle(base, 0.02, seed=7)
    b = noisy_oracle(base, 0.02, seed=7)
    seq_a = [a.measure(3.0 + 0.1 * i, 1.0) for i in range(5)]
    seq_b = [b.measure(3.0 + 0.1 * i, 1.0) for i in range(5)]
    assert seq_a == seq_b
    c = noisy_oracle(base, 0.02, seed=8)
    assert [c.measure(3.0, 1.0)] != seq_a[:1]


def test_noisy_oracle_renormalizes_rates(ex1_uniform):
    noisy = noisy_oracle(exact_oracle(ex1_uniform), 0.05, seed=3)
    m = noisy.measure(3.0, 1.0)
    assert m.gamma1 + m.gamma2 == pytest.approx(3.0, rel=1e-12)


def test_noisy_density_estimate_reported(sat_power, capsys):
    # robustness is reported, not asserted: small noise perturbs the bins
    exact = estimate_density(exact_oracle(sat_power), 5.0, 5.0, 0.2, 9)
    noisy = estimate_density(noisy_oracle(exact_oracle(sat_power), 0.01, seed=5),
                             5.0, 5.0, 0.2, 9)
    devs = [abs(z_n - z_e) for (_, _, z_n), (_, _, z_e)
            in zip(noisy.bins, exact.bins)]
    print(f"noisy-vs-exact density deviation: max {max(devs):.4f}")
    assert len(noisy.bins) >= 1


# --- simulation oracle ----------------------------------------------------------


def test_des_oracle_matches_analytic_rates(ex2_uniform):
    oracle = des_oracle(ex2_uniform, horizon=200_000.0, seed=12345)
    m = oracle.measure(3.0, 1.0)
    split = solve_equilibrium(ex2_uniform, PriceVector(3.0, 1.0))
    window = 0.9 * 200_000.0
    for emp, ana in ((m.gamma1, split.gamma1), (m.gamma2, split.gamma2)):
        se = math.sqrt(ana * window) / window
        assert abs(emp - ana) < 3.0 * se
    # empirical sojourns near the mm1 formula at these utilizations
    assert m.d1 == pytest.approx(1.0 / (3.3 - split.gamma1), rel=0.05)
    assert m.d2 == pytest.approx(1.0 / (4.0 - split.gamma2), rel=0.05)


def test_des_oracle_rate_mean_over_seeds(ex2_uniform):
    split = solve_equilibrium(ex2_uniform, PriceVector(3.0, 1.0))
    estimates = []
    for seed in range(20):
        m = des_oracle(ex2_uniform, horizon=3000.0, seed=seed).measure(3.0, 1.0)
        estimates.append(m.gamma1)
    mean = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(mean - split.gamma1) < 2.0 * se


def test_des_oracle_deterministic_per_seed(ex2_uniform):
    a = des_oracle(ex2_uniform, horizon=500.0, seed=77).measure(3.0, 1.0)
    b = des_oracle(ex2_uniform, horizon=500.0, seed=77).measure(3.0, 1.0)
    assert a == b
    # successive calls on one instance use fresh randomness
    oracle = des_oracle(ex2_uniform, horizon=500.0, seed=77)
    assert oracle.measure(3.0, 1.0) != oracle.measure(3.0, 1.0)


def test_des_oracle_insufficient_data():
    cfg = SystemConfig(1e-4, DelayModel.mm1(1.0), DelayModel.mm1(1.00005),
                       Uniform(2.0, 6.0))
    oracle = des_oracle(cfg, horizon=1.0, seed=0)
    with pytest.raises(InsufficientDataError):
        oracle.measure(2.0, 1.0)


def test_des_oracle_stability_error(sat_power):
    oracle = des_oracle(sat_power, horizon=100.0, seed=0)
    with pytest.raises(StabilityError):
        oracle.measure(5.0, 1e9)  # drives server 1 onto its service rate


def test_des_oracle_requires_mm1(ex1_uniform):
    with pytest.raises(PreconditionError):
        des_oracle(ex1_uniform, horizon=100.0, seed=0)


# --- threshold inference ----------------------------------------------------------


def test_infer_threshold_ratio():
    m = Measurement(c1=2.0, c2=1.0, gamma1=1.0, gamma2=1.0, d1=0.5, d2=1.0)
    assert infer_threshold(m) == 2.0


def test_infer_threshold_degenerate():
    with pytest.raises(DegenerateError):
        infer_threshold(Measurement(2.0, 2.0, 1.0, 1.0, 0.5, 0.5))
    with pytest.raises(DegenerateError):
        infer_threshold(Measurement(3.0, 1.0, 1.0, 1.0, 0.7, 0.7))


# --- exponential fit ---------------------------------------------------------------


def test_estimate_exponential_recovers_tau4(ex1_expo):
    fit = estimate_exponential(exact_oracle(ex1_expo), 3.0, 1.0, 0.2)
    assert fit.tau == pytest.approx(4.0, abs=1e-6)
    assert fit.rate == pytest.approx(0.25, abs=1e-7)


def test_estimate_exponential_recovers_tau20(fig_threshold):
    fit = estimate_exponential(exact_oracle(fig_threshold), 3.0, 1.0, 0.2)
    assert fit.tau == pytest.approx(20.0, abs=1e-5)


def test_estimate_exponential_mass_identity(ex1_expo):
    oracle = exact_oracle(ex1_expo)
    fit = estimate_exponential(oracle, 3.0, 1.0, 0.2)
    m0 = oracle.measure(3.0, 1.0)
    m1 = oracle.measure(3.2, 1.0)
    b0, b1 = infer_threshold(m0), infer_threshold(m1)
    lhs = math.exp(-b0 / fit.tau) - math.exp(-b1 / fit.tau)
    assert lhs == pytest.approx((m0.gamma1 - m1.gamma1) / 3.0, abs=1e-10)


def test_estimate_exponential_input_checks(ex1_expo, ex1_uniform):
    oracle = exact_oracle(ex1_expo)
    with pytest.raises(DomainError):
        estimate_exponential(oracle, 1.0, 3.0, 0.2)
    with pytest.raises(DomainError):
        estimate_exponential(oracle, 3.0, 1.0, 0.0)
    # choked measurements carry no information (bounded law, huge price)
    with pytest.raises(DegenerateError):
        estimate_exponential(exact_oracle(ex1_uniform), 20.0, 1.0, 0.2)


# --- parametric fits ----------------------------------------------------------------


def test_estimate_parametric_gamma(ex1_gamma):
    fit = estimate_parametric(exact_oracle(ex1_gamma), "gamma", 1.0,
                              [3.0, 3.05, 3.1, 3.15])
    assert fit.converged
    assert fit.params[0] == pytest.approx(2.0, abs=0.02)
    assert fit.params[1] == pytest.approx(2.0, abs=0.02)
    assert fit.residual_norm < 1e-6


def test_estimate_parametric_uniform(ex1_uniform):
    fit = estimate_parametric(exact_oracle(ex1_uniform), "uniform", 1.0,
                              [3.0, 3.05, 3.1])
    assert fit.params[0] == pytest.approx(2.0, abs=0.05)
    assert fit.params[1] == pytest.approx(6.0, abs=0.05)


def test_estimate_parametric_power(sat_power):
    fit = estimate_parametric(exact_oracle(sat_power), "power", 5.0,
                              [5.2, 5.4, 5.6])
    assert fit.params[0] == pytest.approx(2.0, abs=0.02)
    assert fit.params[1] == pytest.approx(4.0, abs=0.02)


def test_estimate_parametric_exponential_agrees_with_direct(ex1_expo):
    oracle = exact_oracle(ex1_expo)
    direct = estimate_exponential(oracle, 3.0, 1.0, 0.05)
    fitted = estimate_parametric(oracle, "exponential", 1.0, [3.0, 3.05])
    assert fitted.params[0] == pytest.approx(direct.tau, abs=1e-4)


def test_estimate_parametric_closed_loop_one_percent(ex1_gamma, ex1_uniform):
    # delta = 0.05 sweeps recover the generators within 1% relative
    fit_g = estimate_parametric(exact_oracle(ex1_gamma), "gamma", 1.0,
                                [3.0, 3.05, 3.1])
    assert fit_g.params[0] == pytest.approx(2.0, rel=0.01)
    assert fit_g.params[1] == pytest.approx(2.0, rel=0.01)
    fit_u = estimate_parametric(exact_oracle(ex1_uniform), "uniform", 1.0,
                                [3.0, 3.05, 3.1])
    assert fit_u.params[0] == pytest.approx(2.0, rel=0.01)
    assert fit_u.params[1] == pytest.approx(6.0, rel=0.01)


def test_estimate_parametric_input_checks(ex1_gamma):
    oracle = exact_oracle(ex1_gamma)
    with pytest.raises(DomainError):
        estimate_parametric(oracle, "gamma", 1.0, [3.0, 3.1])  # needs 3 points
    with pytest.raises(DomainError):
        estimate_parametric(oracle, "gamma", 1.0, [3.0, 3.0, 3.1])
    with pytest.raises(DomainError):
        estimate_parametric(oracle, "gamma", 4.0, [3.0, 3.1, 3.2])
    with pytest.raises(DomainError):
        estimate_parametric(oracle, "weibull", 1.0, [3.0, 3.1, 3.2])


# --- density estimation ---------------------------------------------------------------


def test_density_sweep_reproduces_true_density(sat_power):
    est = estimate_density(exact_oracle(sat_power), 5.0, 5.0, 0.2, 9)
    assert len(est.bins) == 9
    for lo, hi, z in est.bins:
        mid = 0.5 * (lo + hi)
        assert z == pytest.approx(mid / 8.0, abs=0.05)
    zs = [z for _, _, z in est.bins]
    assert all(a < b for a, b in zip(zs, zs[1:]))
    # corridor of the published z range
    assert all(0.37 - 0.03 <= z <= 0.47 + 0.03 for z in zs)
    # nothing below the balance threshold is coverable
    assert est.bins[0][0] >= 4.0 / math.sqrt(2.0) - 0.01


def test_density_sweep_mass_accounting(sat_power):
    oracle = exact_oracle(sat_power)
    est = estimate_density(oracle, 5.0, 5.0, 0.2, 9)
    g_first = oracle.measure(5.0, 5.0).gamma1
    g_last = oracle.measure(5.0 + 9 * 0.2, 5.0).gamma1
    assert est.covered_mass == pytest.approx((g_first - g_last) / 5.0, abs=1e-9)
    assert est.covered_mass == pytest.approx(
        math.fsum(z * (hi - lo) for lo, hi, z in est.bins), abs=1e-15)
    assert est.covered_mass <= 1.0 + 1e-9


def test_density_sweep_monotone_thresholds(sat_power):
    oracle = exact_oracle(sat_power)
    ms = [oracle.measure(5.0 + 0.2 * i, 5.0) for i in range(1, 10)]
    gammas = [m.gamma1 for m in ms]
    betas = [infer_threshold(m) for m in ms]
    assert all(a >= b - 1e-10 for a, b in zip(gammas, gammas[1:]))
    assert all(a <= b + 1e-10 for a, b in zip(betas, betas[1:]))


def test_density_sweep_converges_in_delta(sat_power):
    oracle = exact_oracle(sat_power)

    def max_err(delta, steps):
        est = estimate_density(oracle, 5.0, 5.0, delta, steps)
        return max(abs(z - 0.5 * (lo + hi) / 8.0) for lo, hi, z in est.bins)

    errs = [max_err(0.2, 9), max_err(0.1, 18), max_err(0.05, 36)]
    assert errs[0] > errs[1] > errs[2]


def test_density_sweep_gap_recording(ex1_uniform):
    # choke price is 5.5 at c2 = 1; the sweep walks past it
    est = estimate_density(exact_oracle(ex1_uniform), 1.0, 4.8, 0.3, 4)
    assert len(est.gaps) >= 1
    assert len(est.bins) >= 1


def test_density_sweep_degenerate_when_choked(ex1_uniform):
    with pytest.raises(DegenerateError):
        estimate_density(exact_oracle(ex1_uniform), 1.0, 8.0, 0.2, 3)


def test_density_sweep_input_checks(sat_power):
    oracle = exact_oracle(sat_power)
    with pytest.raises(DomainError):
        estimate_density(oracle, 5.0, 4.0, 0.2, 9)
    with pytest.raises(DomainError):
        estimate_density(oracle, 5.0, 5.0, -0.1, 9)
    with pytest.raises(DomainError):
        estimate_density(oracle, 5.0, 5.0, 0.2, 0)


# --- discrete class discovery -----------------------------------------------------------


def test_discrete_oracle_equilibrium():
    oracle = discrete_class_oracle([(4.0, 1.0), (2.0, 1.5)],
                                   DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    # entry prices bracket the known class-1 split band
    assert oracle.measure(1.7, 0.0).gamma1 == 0.0
    m = oracle.measure(1.0, 0.0)
    assert 0.0 < m.gamma1 < 1.0
    # class 1 fully in, class 2 not yet: the plateau at rate 1
    assert oracle.measure(0.2, 0.0).gamma1 == pytest.approx(1.0, abs=1e-9)


def _rate_by_200_halvings(oracle, c1, c2):
    """DiscreteClassOracle.measure's rate by the full 200-step bisection,
    kept here as the reference."""
    delta = c1 - c2
    demand = lambda g: sum(r for b, r in oracle.classes if b * oracle._delay_gap(g) > delta)
    lo, hi = 0.0, oracle.lam
    if demand(0.0) <= 0.0:
        return 0.0
    if demand(oracle.lam) >= oracle.lam:
        return oracle.lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if demand(mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_discrete_oracle_bisection_matches_200_halvings():
    # measure stops halving once lo and hi are adjacent doubles, about 55
    # halvings, and must land where all 200 do
    rng = np.random.default_rng(5)
    bisected = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        betas = rng.choice(np.arange(1, 20), n, replace=False) * rng.uniform(0.1, 2.0)
        classes = list(zip(betas, rng.uniform(0.1, 2.0, n)))
        lam = sum(r for _, r in classes)
        oracle = discrete_class_oracle(classes, DelayModel.mm1(lam * rng.uniform(1.1, 3.0)),
                                       DelayModel.linear(rng.uniform(0.5, 3.0)))
        gap = oracle._delay_gap
        spread = max(betas) * max(gap(0.0), -gap(oracle.lam))
        c1 = float(rng.uniform(-spread, spread))
        calls = []

        def counted(g):
            calls.append(g)
            return gap(g)
        oracle._delay_gap = counted
        gamma1 = oracle.measure(c1, 0.0).gamma1
        n_measure = len(calls)
        calls.clear()
        assert gamma1 == _rate_by_200_halvings(oracle, c1, 0.0)
        if len(calls) > 2 * n:  # the rate was bisected
            bisected += 1
            assert n_measure < len(calls) // 2
    assert bisected > 50


def test_discover_two_classes():
    oracle = discrete_class_oracle([(4.0, 1.0), (2.0, 1.5)],
                                   DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    dc = discover_classes(oracle, lam=2.5, delta=0.01, eps=2.5e-3, c1_init=2.0)
    assert len(dc.classes) == 2
    (b1, l1), (b2, l2) = dc.classes
    assert b1 == pytest.approx(4.0, abs=0.05)
    assert b2 == pytest.approx(2.0, abs=0.05)
    assert l1 == pytest.approx(1.0, abs=0.005)
    assert l2 == pytest.approx(1.5, abs=0.005)
    assert b1 > b2
    assert not dc.complete          # the low class can never fully migrate
    assert dc.residual_rate > 0.0


def test_discover_single_class():
    oracle = discrete_class_oracle([(3.0, 1.0)],
                                   DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    dc = discover_classes(oracle, lam=1.0, delta=0.005, eps=1e-3, c1_init=1.0)
    assert len(dc.classes) == 1
    assert dc.classes[0][0] == pytest.approx(3.0, abs=0.05)
    assert dc.classes[0][1] == pytest.approx(1.0, abs=1e-6)
    assert not dc.complete


def test_discover_classes_error_paths():
    oracle = discrete_class_oracle([(4.0, 1.0)],
                                   DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    with pytest.raises(PreconditionError):
        discover_classes(oracle, lam=1.0, delta=0.01, eps=1e-3, c1_init=0.05)
    tiny = discrete_class_oracle([(0.001, 1.0)],
                                 DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    with pytest.raises(DegenerateError):
        discover_classes(tiny, lam=1.0, delta=0.01, eps=1e-3, c1_init=2.0)
    with pytest.raises(DomainError):
        discover_classes(oracle, lam=1.0, delta=-0.01, eps=1e-3, c1_init=2.0)
