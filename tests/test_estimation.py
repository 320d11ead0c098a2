"""Estimator and oracle checks.

The closed loops run each estimator against the analytic oracle of a
known ground-truth law and require the generating parameters back; the
simulation oracle is compared against the analytic one statistically.
"""

import math
import random
import signal
import time

import numpy as np
import pytest

from qpk import (DegenerateError, DelayModel, DomainError, Gamma,
                 InsufficientDataError, Power, PreconditionError, PriceVector,
                 StabilityError, SystemConfig, Uniform, balanced_load,
                 discover_classes, discrete_class_oracle, des_oracle,
                 estimate_density, estimate_exponential, estimate_parametric,
                 exact_oracle, infer_threshold, noisy_oracle,
                 solve_equilibrium, threshold_of_rate)
from qpk import _special, estimation, models
from qpk.estimation import Measurement, _sample_sensitivities
from qpk.wardrop import Regime, delay_gap, price_of_rate_1

from conftest import random_config
from test_array_kernel import _wall_bound


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


@pytest.fixture
def ex2_power():
    """The mm1 servers of ex2 with F(x) = x^2 / 16 on [0, 4]."""
    return SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0), Power(2.0, 4.0))


EX2_LAWS = ["ex2_uniform", "ex2_expo", "ex2_gamma", "ex2_power"]
# c1 > c2 sends high sensitivities to server 1, c1 < c2 to server 2
BOTH_REGIMES = pytest.mark.parametrize("prices", [(3.0, 1.0), (0.5, 1.0)],
                                       ids=["high_to_1", "high_to_2"])


@BOTH_REGIMES
@pytest.mark.parametrize("name", EX2_LAWS)
def test_des_oracle_matches_analytic_rates(name, prices, request):
    cfg = request.getfixturevalue(name)
    oracle = des_oracle(cfg, horizon=200_000.0, seed=12345)
    m = oracle.measure(*prices)
    split = solve_equilibrium(cfg, PriceVector(*prices))
    window = 0.9 * 200_000.0
    for emp, ana in ((m.gamma1, split.gamma1), (m.gamma2, split.gamma2)):
        se = math.sqrt(ana * window) / window
        assert abs(emp - ana) < 3.0 * se
    # empirical sojourns near the mm1 formula at these utilizations
    assert m.d1 == pytest.approx(1.0 / (3.3 - split.gamma1), rel=0.05)
    assert m.d2 == pytest.approx(1.0 / (4.0 - split.gamma2), rel=0.05)


@BOTH_REGIMES
@pytest.mark.parametrize("name", EX2_LAWS)
def test_des_routing_by_cdf_matches_inverse_transform(name, prices, request):
    # DesOracle routes on u > F(beta1); the inverse-transform sensitivity
    # F^{-1}(u) > beta1 is the reference. The endpoints exercise the clamp.
    cfg = request.getfixturevalue(name)
    split = solve_equilibrium(cfg, PriceVector(*prices))
    u = np.concatenate([np.random.default_rng(2024).random(20_000),
                        [0.0, 1e-13, 1.0 - 1e-13, np.nextafter(1.0, 0.0)]])
    clamped = u if cfg.dist.bounded else np.clip(u, models.P_MIN, 1.0 - models.P_MIN)
    by_cdf = clamped > models.cdf(cfg.dist, split.beta1)
    by_quantile = _sample_sensitivities(cfg.dist, u) > split.beta1
    np.testing.assert_array_equal(by_cdf, by_quantile)
    assert 0 < np.count_nonzero(by_cdf) < u.size
    assert (split.regime is Regime.HIGH_BETA_TO_SERVER_2) == (prices[0] < prices[1])


def test_des_oracle_gamma_makes_no_inversion(ex2_gamma, monkeypatch):
    # the equilibrium solve inverts the gamma cdf at each rate it tries;
    # routing the arrivals compares uniforms with F(beta1) and inverts nothing
    def forbidden(*args):
        raise AssertionError("the simulation called the quantile")
    calls = []
    inverse = _special.gamma_p_inverse

    def counted(k, p):
        calls.append(p)
        return inverse(k, p)
    monkeypatch.setattr(models, "quantile", forbidden)
    monkeypatch.setattr(_special, "gamma_p_inverse", counted)
    solve_equilibrium(ex2_gamma, PriceVector(3.0, 1.0))
    solve_calls = len(calls)
    m = des_oracle(ex2_gamma, horizon=1e4, seed=3).measure(3.0, 1.0)
    assert len(calls) == 2 * solve_calls
    assert 0.0 < m.gamma1 < m.gamma2


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


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_des_oracle_rejects_bad_horizon(ex2_uniform, horizon):
    with pytest.raises(DomainError, match="horizon"):
        des_oracle(ex2_uniform, horizon=horizon, seed=0)


@pytest.mark.parametrize("sigma_rel", [math.nan, math.inf, -0.1])
def test_noisy_oracle_rejects_bad_sigma(ex1_uniform, sigma_rel):
    with pytest.raises(DomainError, match="sigma_rel"):
        noisy_oracle(exact_oracle(ex1_uniform), sigma_rel, seed=0)


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


@pytest.mark.parametrize("sigma_rel, seed", [(0.5, 13), (1.0, 49)])
def test_estimate_exponential_rejects_a_nonpositive_threshold(ex1_expo, sigma_rel, seed):
    # noisy rates that put the first threshold at or below 0 fail the
    # sweep's check, where the fit's log and exp used to fail on them
    oracle = noisy_oracle(exact_oracle(ex1_expo), sigma_rel, seed=seed)
    with pytest.raises(DegenerateError, match="not positive"):
        estimate_exponential(oracle, 3.0, 1.0, 0.2)


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


def test_estimate_parametric_gamma_repro_converges():
    # the repro in perfbench/NOTES.md: residuals below 1.2e-10 at the true law
    cfg = SystemConfig(4.4218, DelayModel.linear(5.2820), DelayModel.linear(11.7575),
                       Gamma(3.2937, 1.2208))
    fit = estimate_parametric(exact_oracle(cfg), "gamma", 1.6674,
                              [2.0610, 2.3373, 2.6523, 3.0185])
    assert fit.converged
    assert fit.params[0] == pytest.approx(3.2937, rel=1e-6)
    assert fit.params[1] == pytest.approx(1.2208, rel=1e-6)


@pytest.mark.parametrize("family", ["uniform", "expo", "power", "gamma"])
def test_estimate_parametric_generated_laws_converge(family):
    rng = random.Random(2024)
    for _ in range(16):
        cfg = random_config(rng, (family,))
        c2 = rng.uniform(0.0, 3.0)
        gp = balanced_load(cfg)
        prices = [price_of_rate_1(cfg, c2, gp * (0.8 - 0.12 * j)) for j in range(4)]
        fit = estimate_parametric(exact_oracle(cfg), cfg.dist.family, c2, prices)
        assert fit.converged, cfg
        truth = [getattr(cfg.dist, name) for name in cfg.dist.param_names()]
        # uniform's location a may lie near zero: hold it to 1e-6 of b
        floor = 1e-6 * cfg.dist.b if family == "uniform" else 0.0
        assert fit.params == pytest.approx(truth, rel=1e-6, abs=floor), cfg


def test_estimate_parametric_rejects_nonpositive_threshold():
    # noise that inverts the delay gap implies a negative sensitivity
    exact = exact_oracle(SystemConfig(3.0, DelayModel.linear(3.3),
                                      DelayModel.linear(4.0), Gamma(2.0, 2.0)))

    class Inverted:
        def measure(self, c1, c2):
            m = exact.measure(c1, c2)
            return Measurement(c1, c2, m.gamma1, m.gamma2, m.d2, m.d1)
    with pytest.raises(DegenerateError, match="not positive"):
        estimate_parametric(Inverted(), "gamma", 1.0, [3.0, 3.05, 3.1])


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
    for steps in (0, 2.5, math.nan):
        with pytest.raises(DomainError, match="steps must be at least 1 and an integer"):
            estimate_density(oracle, 5.0, 5.0, 0.2, steps)


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
    """The equilibrium rate by a 200-step bisection of the excess demand:
    the accuracy the oracle's walk must match."""
    delta, gap = c1 - c2, delay_gap(oracle.d1, oracle.d2, oracle.lam)[0]
    demand = lambda g: sum(r for b, r in oracle.classes if b * gap(g) > delta)
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


def test_discrete_oracle_walk_matches_the_reference(monkeypatch):
    # every rate within 4 eps * lam of the 40-digit fixed point, the
    # sample's worst no worse than the bisection's, and no delay-gap
    # evaluation beyond the walk's own: one at 0 and one at each step's top,
    # with a split class's rate in closed form
    pytest.importorskip("mpmath")
    import reference_mp
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    worst_walk = worst_bisection = 0.0
    split = 0
    calls = []

    def counted_gap(d1, d2, lam):
        delta, *slopes = delay_gap(d1, d2, lam)
        return (lambda g: calls.append(g) or delta(g)), *slopes
    monkeypatch.setattr(estimation, "delay_gap", counted_gap)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        betas = rng.choice(np.arange(1, 20), n, replace=False) * rng.uniform(0.1, 2.0)
        classes = list(zip(betas.tolist(), rng.uniform(0.1, 2.0, n).tolist()))
        lam = sum(r for _, r in classes)
        d1, d2 = (DelayModel.mm1(lam * rng.uniform(1.1, 3.0)) if rng.random() < 0.5
                  else DelayModel.linear(rng.uniform(0.5, 3.0)) for _ in range(2))
        oracle = discrete_class_oracle(classes, d1, d2)
        gap = delay_gap(d1, d2, oracle.lam)[0]
        spread = max(betas) * max(abs(gap(0.0)), abs(gap(oracle.lam)))
        c1 = float(rng.uniform(-spread, spread))
        calls.clear()
        gamma1 = oracle.measure(c1, 0.0).gamma1
        # the walk's own points: 0, then each class's step top in walk order
        tops = [0.0]
        for _, r in oracle.classes if c1 >= 0.0 else oracle.classes[::-1]:
            tops.append(min(tops[-1] + r, oracle.lam))
        assert calls == tops[:len(calls)]
        split += gamma1 not in tops + [oracle.lam]
        want = reference_mp.discrete_equilibrium_rate(classes, d1, d2, c1, 0.0)
        err = float(abs(gamma1 - want)) / oracle.lam
        assert err <= 4.0 * eps
        worst_walk = max(worst_walk, err)
        worst_bisection = max(worst_bisection, float(
            abs(_rate_by_200_halvings(oracle, c1, 0.0) - want)) / oracle.lam)
    assert worst_walk <= worst_bisection
    assert split > 30


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


def test_discover_classes_steps_each_price_from_the_start():
    # stepping by repeated subtraction drifted: step 2,000 of 1e-3 from 2
    # landed at 1.09e-13 instead of 0, where the low class seemed to enter
    # with no delay gap, and discovery raised DegenerateError
    oracle = discrete_class_oracle([(4.0, 1.0), (2.0, 1.5)],
                                   DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    prices = []

    class Recording:
        def measure(self, c1, c2):
            prices.append(c1)
            return oracle.measure(c1, c2)
    dc = discover_classes(Recording(), lam=2.5, delta=1e-3, eps=2.5e-3, c1_init=2.0)
    assert prices == [2.0 - i * 1e-3 for i in range(2000)]
    assert 2.0 - 2000 * 1e-3 == 0.0
    assert all(abs(b - 4.0) < 1e-12 or abs(b - 2.0) < 1e-12 for b, _ in dc.classes)


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


@pytest.mark.parametrize("delta, eps, c1_init", [
    (math.nan, 1e-3, 2.0), (math.inf, 1e-3, 2.0), (0.01, math.nan, 2.0),
    (0.01, 1e-3, math.nan), (0.01, 1e-3, math.inf),
    (1e-300, 1e-3, 2.0),  # 2.0 - 1e-300 == 2.0: no step lowers c1
])
@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_discover_classes_rejects_steps_that_never_end(delta, eps, c1_init):
    # unchecked, each of these steps loops forever
    oracle = discrete_class_oracle([(4.0, 1.0)],
                                   DelayModel.mm1(4.0), DelayModel.mm1(4.0))
    start = time.perf_counter()
    with _wall_bound(5), pytest.raises(DomainError):
        discover_classes(oracle, lam=1.0, delta=delta, eps=eps, c1_init=c1_init)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("classes", [
    [(math.nan, 1.0), (2.0, 1.5)], [(4.0, math.nan)],
    [(math.inf, 1.0)], [(4.0, math.inf), (2.0, 1.5)],
    [(4.0, 0.0)], [(-4.0, 1.0)],
])
def test_discrete_oracle_rejects_nonfinite_or_nonpositive_classes(classes):
    # unchecked, a NaN sensitivity counts in the total rate but never in demand
    with pytest.raises(DomainError, match="finite and positive"):
        discrete_class_oracle(classes, DelayModel.linear(4.0), DelayModel.linear(4.0))
