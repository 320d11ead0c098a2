"""Inference of the delay-sensitivity law from price sweeps.

All estimators consume an oracle: any object mapping a price pair to one
Measurement of the resulting equilibrium (rates and mean delays). Three
backends are provided -- analytic, noisy, and discrete-event simulation --
plus a discrete-class analytic oracle used to drive class discovery.
Estimation never touches the underlying distribution object; only prices,
rates, and delays enter the formulas.
"""

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import models
from ._solve import bisect_decreasing
from .errors import (DegenerateError, DomainError, InsufficientDataError,
                     NoRootError, PreconditionError, StabilityError)
from .models import DelayFamily, DelayModel, SystemConfig
from .wardrop import PriceVector, Regime, solve_equilibrium

_D_TOL = 1e-12
# Levenberg-Marquardt: trial cap, convergence step, least damping, and the
# forward-difference step
_LM_MAX_ITER = 100
_LM_STEP_TOL = 1e-10
_LM_MU_MIN = 1e-12
_FD_STEP = 1.5e-8


@dataclass(frozen=True)
class Measurement:
    """One oracle observation at a fixed price pair."""

    c1: float
    c2: float
    gamma1: float
    gamma2: float
    d1: float
    d2: float

    @property
    def lam(self) -> float:
        return self.gamma1 + self.gamma2


class Oracle(Protocol):
    def measure(self, c1: float, c2: float) -> Measurement: ...


@dataclass(frozen=True)
class DensityEstimate:
    """Piecewise-constant density estimate over inferred threshold bins.

    bins are (beta_lo, beta_hi, z) triples, disjoint and increasing;
    covered_mass is the total probability the bins account for; gaps
    records (c1_lo, c1_hi) price pairs that produced no information.
    """

    bins: tuple
    covered_mass: float
    gaps: tuple = ()


@dataclass(frozen=True)
class DiscreteClasses:
    """Discovered point masses of a discrete sensitivity law.

    classes are (beta_i, rate_i) in discovery order (beta decreasing).
    complete is True only when the full arrival mass was observed to
    migrate; otherwise residual_rate reports the mass never confirmed at
    a plateau (the final class's rate is then attributed from the known
    total rather than measured, and plateau-confirmed rates plus
    residual_rate sum to the total).
    """

    classes: tuple
    complete: bool
    residual_rate: float


@dataclass(frozen=True)
class ExponentialFit:
    tau: float

    @property
    def rate(self) -> float:
        return 1.0 / self.tau


@dataclass(frozen=True)
class ParametricFit:
    family: str
    params: tuple
    residual_norm: float
    converged: bool


# --- oracle backends --------------------------------------------------------


class ExactOracle:
    """Analytic oracle: solves the equilibrium and reports exact delays."""

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg

    def measure(self, c1: float, c2: float) -> Measurement:
        split = solve_equilibrium(self.cfg, PriceVector(c1, c2))
        return Measurement(
            c1=c1, c2=c2,
            gamma1=split.gamma1, gamma2=split.gamma2,
            d1=self.cfg.delay1(split.gamma1),
            d2=self.cfg.delay2(split.gamma2),
        )


def exact_oracle(cfg: SystemConfig) -> ExactOracle:
    return ExactOracle(cfg)


class NoisyOracle:
    """Multiplies rate and delay readings by lognormal(1, sigma_rel) factors.

    gamma2 is re-normalized to lam - gamma1 so the rates still sum to the
    total. Reproducible: rebuilding with the same seed replays the same
    factor sequence.
    """

    def __init__(self, inner, sigma_rel: float, seed: int):
        if not (math.isfinite(sigma_rel) and sigma_rel >= 0.0):
            raise DomainError(f"sigma_rel must be finite and nonnegative, got {sigma_rel}")
        self.inner = inner
        self.sigma_rel = sigma_rel
        self.seed = seed
        self._rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def _factor(self) -> float:
        if self.sigma_rel == 0.0:
            return 1.0
        s = self.sigma_rel
        return math.exp(s * self._rng.standard_normal() - 0.5 * s * s)

    def measure(self, c1: float, c2: float) -> Measurement:
        m = self.inner.measure(c1, c2)
        lam = m.gamma1 + m.gamma2
        g1 = m.gamma1 * self._factor()
        return Measurement(
            c1=c1, c2=c2,
            gamma1=g1, gamma2=lam - g1,
            d1=m.d1 * self._factor(),
            d2=m.d2 * self._factor(),
        )


def noisy_oracle(inner, sigma_rel: float, seed: int) -> NoisyOracle:
    return NoisyOracle(inner, sigma_rel, seed)


def _fcfs_departures(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    # d_i = max_{j<=i}(a_j + sum_{k=j..i} s_k), vectorized via running max
    cs = np.cumsum(services)
    return cs + np.maximum.accumulate(arrivals - (cs - services))


def _sample_sensitivities(dist, u: np.ndarray) -> np.ndarray:
    """Inverse-transform samples at uniforms u: the reference DesOracle's
    routing must match, and the arrival-count hook of the bench tracer."""
    return models.quantile_array(dist, u)


class DesOracle:
    """Event-driven simulation of two FCFS exponential single-server queues.

    Arrivals are Poisson with the configured total rate; each arrival
    routes through the analytic threshold kernel for the queried prices
    by comparing its uniform, clamped as quantile_array clamps it, with
    F(beta1) (F^{-1}(u) > beta1 iff u > F(beta1)). Rates and mean
    sojourn times are measured over [warmup, horizon], warmup = 10% of
    the horizon. Deterministic per seed (counter-based generator, one
    stream per measure call); a single instance is not safe for
    concurrent measure calls.
    """

    def __init__(self, cfg: SystemConfig, horizon: float, seed: int):
        if cfg.d1.family is not DelayFamily.MM1 or cfg.d2.family is not DelayFamily.MM1:
            raise PreconditionError(
                "simulation requires mm1 delay models on both servers")
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise DomainError(f"horizon must be finite and positive, got {horizon}")
        self.cfg = cfg
        self.horizon = float(horizon)
        self.seed = seed
        self._calls = 0

    def measure(self, c1: float, c2: float) -> Measurement:
        cfg = self.cfg
        split = solve_equilibrium(cfg, PriceVector(c1, c2))
        # utilization within 1e-9 of one never mixes over a finite horizon
        if (split.gamma1 >= cfg.d1.mu * (1.0 - 1e-9)
                or split.gamma2 >= cfg.d2.mu * (1.0 - 1e-9)):
            raise StabilityError(
                f"unstable at prices ({c1}, {c2}): split "
                f"({split.gamma1:.6g}, {split.gamma2:.6g}) vs service rates "
                f"({cfg.d1.mu}, {cfg.d2.mu})")

        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self._calls,))))
        self._calls += 1

        horizon = self.horizon
        warmup = 0.1 * horizon
        n_draw = max(16, int(cfg.lam * horizon + 6.0 * math.sqrt(cfg.lam * horizon) + 16))
        arrivals = np.cumsum(-np.log1p(-rng.random(n_draw)) / cfg.lam)
        while arrivals.size and arrivals[-1] < horizon:
            extra = np.cumsum(-np.log1p(-rng.random(n_draw)) / cfg.lam) + arrivals[-1]
            arrivals = np.concatenate([arrivals, extra])
        arrivals = arrivals[arrivals <= horizon]
        if arrivals.size == 0:
            raise InsufficientDataError("no arrivals within the horizon")

        u = rng.random(arrivals.size)
        if not cfg.dist.bounded:
            u = np.clip(u, models.P_MIN, 1.0 - models.P_MIN)
        high = u > models.cdf(cfg.dist, split.beta1)
        to_one = ~high if split.regime is Regime.HIGH_BETA_TO_SERVER_2 else high

        window = horizon - warmup
        g_emp, d_emp = [], []
        for server, mask, mu in ((1, to_one, cfg.d1.mu), (2, ~to_one, cfg.d2.mu)):
            arr = arrivals[mask]
            if arr.size == 0:
                raise InsufficientDataError(
                    f"server {server} received no arrivals within the horizon")
            services = -np.log1p(-rng.random(arr.size)) / mu
            sojourn = _fcfs_departures(arr, services) - arr
            in_window = arr >= warmup
            if not np.any(in_window):
                raise InsufficientDataError(
                    f"server {server} received no arrivals after warmup")
            g_emp.append(float(np.count_nonzero(in_window)) / window)
            d_emp.append(float(np.mean(sojourn[in_window])))

        return Measurement(c1=c1, c2=c2, gamma1=g_emp[0], gamma2=g_emp[1],
                           d1=d_emp[0], d2=d_emp[1])


def des_oracle(cfg: SystemConfig, horizon: float, seed: int) -> DesOracle:
    return DesOracle(cfg, horizon, seed)


class DiscreteClassOracle:
    """Analytic equilibrium oracle for a finite set of customer classes.

    classes are (beta, rate) point masses. At prices (c1, c2) a class
    prefers server 1 iff beta * (d2 - d1) exceeds c1 - c2; the equilibrium
    rate is the unique fixed point of that preference map, located by
    bisection on the excess-demand function (one class may split).
    """

    def __init__(self, classes, d1: DelayModel, d2: DelayModel):
        cl = sorted(((float(b), float(r)) for b, r in classes), reverse=True)
        if not cl:
            raise DomainError("at least one customer class is required")
        if any(b <= 0.0 or r <= 0.0 for b, r in cl):
            raise DomainError("class sensitivities and rates must be positive")
        if len({b for b, _ in cl}) != len(cl):
            raise DomainError("class sensitivities must be distinct")
        self.classes = tuple(cl)
        self.lam = sum(r for _, r in cl)
        self.d1 = d1
        self.d2 = d2
        # every rate measure() evaluates lies in [0, total], below an mm1 mu
        self._delay1, self._delay2 = models.delay_formula(d1), models.delay_formula(d2)
        for name, model in (("server 1", d1), ("server 2", d2)):
            if model.family is DelayFamily.MM1 and model.mu <= self.lam:
                raise DomainError(f"{name}: mm1 needs mu > total rate "
                                  f"(mu={model.mu}, total={self.lam})")

    def _delay_gap(self, gamma1: float) -> float:
        return self._delay2(self.lam - gamma1) - self._delay1(gamma1)

    def measure(self, c1: float, c2: float) -> Measurement:
        delta = c1 - c2
        def demand(g):
            gap = self._delay_gap(g)
            return sum(r for b, r in self.classes if b * gap > delta)
        lo, hi = 0.0, self.lam
        if demand(0.0) <= 0.0:
            gamma1 = 0.0
        elif demand(self.lam) >= self.lam:
            gamma1 = self.lam
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break  # lo and hi are adjacent doubles: no step narrows them
                if demand(mid) - mid > 0.0:
                    lo = mid
                else:
                    hi = mid
            gamma1 = 0.5 * (lo + hi)
        return Measurement(
            c1=c1, c2=c2, gamma1=gamma1, gamma2=self.lam - gamma1,
            d1=self._delay1(gamma1),
            d2=self._delay2(self.lam - gamma1),
        )


def discrete_class_oracle(classes, d1: DelayModel, d2: DelayModel) -> DiscreteClassOracle:
    return DiscreteClassOracle(classes, d1, d2)


# --- estimators -------------------------------------------------------------


def infer_threshold(m: Measurement) -> float:
    """Threshold from one measurement: (c1 - c2) / (d2 - d1).

    Equal prices or balanced delays carry no threshold information and
    raise DegenerateError.
    """
    if m.c1 == m.c2 or abs(m.d2 - m.d1) < _D_TOL:
        raise DegenerateError(
            "equal prices / balanced delays carry no threshold information")
    return (m.c1 - m.c2) / (m.d2 - m.d1)


def _interior(m: Measurement) -> bool:
    lam = m.lam
    return 0.0 < m.gamma1 < lam


def estimate_exponential(oracle, c1: float, c2: float, delta: float) -> ExponentialFit:
    """Fit an exponential sensitivity law from two measurements.

    Measures at (c1, c2) and (c1 + delta, c2), infers both thresholds, and
    solves exp(-b/tau) - exp(-b_d/tau) = (g - g_d)/lam for tau on
    [1e-6, 1e6]. The interval equation alone admits up to two roots, one on
    each side of the residual's peak at tau = (b_d - b)/ln(b_d/b), and each
    side gets its own root search; the root consistent with the observed
    rate level exp(-b/tau) ~ gamma1/lam is returned.
    """
    if not c1 > c2:
        raise DomainError(f"need c1 > c2, got ({c1}, {c2})")
    if delta <= 0.0:
        raise DomainError(f"price step must be positive, got {delta}")
    m0 = oracle.measure(c1, c2)
    m1 = oracle.measure(c1 + delta, c2)
    if not (_interior(m0) and _interior(m1)):
        raise DegenerateError("both measurements must yield an interior split")
    b0, b1 = infer_threshold(m0), infer_threshold(m1)
    if b1 <= b0 or m1.gamma1 >= m0.gamma1:
        raise DegenerateError("price step moved no probability mass")
    lam = m0.lam
    mass = (m0.gamma1 - m1.gamma1) / lam

    def resid(tau):
        return math.exp(-b0 / tau) - math.exp(-b1 / tau) - mass

    tau_lo, tau_hi = 1e-6, 1e6
    tau_peak = (b1 - b0) / math.log(b1 / b0)
    roots = []
    # the residual rises up to its peak and falls after it
    for f, a, b in ((lambda t: -resid(t), tau_lo, tau_peak), (resid, tau_peak, tau_hi)):
        try:
            roots.append(bisect_decreasing(f, a, b))
        except NoRootError:
            pass
    if not roots:
        raise NoRootError("interval-mass equation has no root in [1e-6, 1e6]")

    level = m0.gamma1 / lam
    tau = min(roots, key=lambda t: abs(math.exp(-b0 / t) - level))
    return ExponentialFit(tau=tau)


def _levenberg_marquardt(residuals, u):
    """Minimize |residuals(u)|^2 by Levenberg-Marquardt (Moré 1978).

    residuals returns None off the family's domain, which rejects the
    trial. Returns (u, r, converged): whether a step fell below
    _LM_STEP_TOL before _LM_MAX_ITER trials.
    """
    r = residuals(u)
    mu = 1e-3
    scale = None
    for _ in range(_LM_MAX_ITER):
        if scale is None:
            jac = np.zeros((r.size, u.size))
            for j in range(u.size):
                shifted = u.copy()
                shifted[j] += _FD_STEP * max(1.0, abs(u[j]))
                rj = residuals(shifted)
                if rj is not None:
                    jac[:, j] = (rj - r) / (shifted[j] - u[j])
            # Moré's scaling: unit columns, so mu damps every parameter alike
            scale = np.linalg.norm(jac, axis=0)
            scale[scale == 0.0] = 1.0
            jac /= scale
            normal, grad = jac.T @ jac, jac.T @ r
        # unit columns and mu >= _LM_MU_MIN keep the damped matrix regular
        step = -np.linalg.solve(normal + mu * np.eye(u.size), grad) / scale
        trial = residuals(u + step)
        if trial is not None and trial @ trial < r @ r:
            u, r, scale = u + step, trial, None
            mu = max(0.1 * mu, _LM_MU_MIN)
        else:
            mu *= 10.0
        if np.linalg.norm(step) <= _LM_STEP_TOL * (1.0 + np.linalg.norm(u)):
            return u, r, True
    return u, r, False


def estimate_parametric(oracle, family, c2: float, price_points) -> ParametricFit:
    """Fit a parametric sensitivity law from a sweep of price points.

    Builds the interval-mass residuals from consecutive measurement pairs
    plus the rate-level residual of the first measurement (intervals alone
    cannot identify location parameters), and minimizes their sum of
    squares by one Levenberg-Marquardt solve in log-parameters (a location
    parameter ``a`` stays linear) from the family's ``initial_guess``.
    converged means a step fell below tolerance before the iteration cap;
    a fit that reaches the cap is still returned, flagged unconverged.
    """
    if hasattr(family, "__name__"):
        family = family.__name__
    family = str(family).lower()
    if family not in models.FAMILIES:
        raise DomainError(f"unknown family {family!r}; "
                          f"expected one of {sorted(models.FAMILIES)}")
    law = models.FAMILIES[family]
    names = law.param_names()
    n_params = len(names)
    points = [float(p) for p in price_points]
    if len(points) < n_params + 1:
        raise DomainError(
            f"{family} needs at least {n_params + 1} price points, got {len(points)}")
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        raise DomainError("price points must be strictly increasing")
    if points[0] <= c2:
        raise DomainError("all price points must exceed c2")

    ms = [oracle.measure(p, c2) for p in points]
    if not all(_interior(m) for m in ms):
        raise DegenerateError("every measurement must yield an interior split")
    betas = [infer_threshold(m) for m in ms]
    lam = ms[0].lam
    gammas = [m.gamma1 for m in ms]
    if betas[0] <= 0.0:
        raise DegenerateError(f"inferred threshold {betas[0]} is not positive")
    for i in range(len(ms) - 1):
        if betas[i + 1] <= betas[i] or gammas[i + 1] >= gammas[i]:
            raise DegenerateError(
                f"price step {points[i]} -> {points[i + 1]} moved no probability mass")
    masses = [(gammas[i] - gammas[i + 1]) / lam for i in range(len(ms) - 1)]
    levels = [1.0 - g / lam for g in gammas]

    log_mask = [name != "a" for name in names]
    targets = np.array(levels[:1] + masses)

    def params_of(u):
        return [math.exp(v) if lm else float(v) for v, lm in zip(u, log_mask)]

    def residuals(u):
        try:
            dist = law(*params_of(u))
        except (DomainError, OverflowError):
            return None
        # the law must cover every inferred threshold
        lo, hi = dist.support
        if not hi > betas[-1]:
            return None
        fs = np.array([models.cdf(dist, b) if b > lo else 0.0 for b in betas])
        r = np.concatenate([fs[:1], np.diff(fs)]) - targets
        return r if np.all(np.isfinite(r)) else None

    guess = law.initial_guess(betas, levels, lam, gammas)
    u, r, converged = _levenberg_marquardt(residuals, np.array(
        [math.log(g) if lm else g for g, lm in zip(guess, log_mask)]))
    return ParametricFit(family=family, params=tuple(params_of(u)),
                         residual_norm=float(np.linalg.norm(r)),
                         converged=converged)


def estimate_density(oracle, c2: float, c1_start: float, delta: float,
                     steps: int) -> DensityEstimate:
    """Piecewise-constant density estimate from an increasing price sweep.

    Measures at c1 = c1_start + i * delta for i = 0..steps; each
    informative consecutive pair becomes one bin between the two inferred
    thresholds with height z = moved mass / (lam * bin width). A sweep that
    starts at c1_start == c2 opens with a degenerate balanced measurement;
    its threshold is recovered by quadratic extrapolation of the next
    three inferred thresholds back to zero price gap (the balance
    threshold itself is the floor below which no density can ever be
    estimated). Pairs that move no mass are skipped and recorded as gaps.
    """
    if c1_start < c2:
        raise DomainError(f"c1_start must be at least c2, got {c1_start} < {c2}")
    if delta <= 0.0:
        raise DomainError(f"price step must be positive, got {delta}")
    if steps < 1:
        raise DomainError(f"need at least one step, got {steps}")

    ms = [oracle.measure(c1_start + i * delta, c2) for i in range(steps + 1)]
    lam = ms[0].lam
    betas = []
    for m in ms:
        try:
            betas.append(infer_threshold(m))
        except DegenerateError:
            betas.append(None)

    if betas[0] is None and len(betas) >= 4 and all(
            b is not None for b in betas[1:4]):
        betas[0] = 3.0 * betas[1] - 3.0 * betas[2] + betas[3]

    bins, gaps = [], []
    for i in range(steps):
        b_lo, b_hi = betas[i], betas[i + 1]
        moved = ms[i].gamma1 - ms[i + 1].gamma1
        if b_lo is None or b_hi is None or moved <= 0.0 or b_hi <= b_lo:
            gaps.append((ms[i].c1, ms[i + 1].c1))
            continue
        bins.append((b_lo, b_hi, moved / (lam * (b_hi - b_lo))))
    if not bins:
        raise DegenerateError("price sweep produced no informative pairs")

    covered = math.fsum(z * (hi - lo) for lo, hi, z in bins)
    return DensityEstimate(bins=tuple(bins), covered_mass=covered, gaps=tuple(gaps))


def discover_classes(oracle, lam: float, delta: float, eps: float,
                     c1_init: float) -> DiscreteClasses:
    """Discover discrete sensitivity classes by descending server 1's price.

    With c2 fixed at zero, c1 descends from c1_init (which must choke
    server 1) in steps of delta. A rise of the server-1 rate by eps above
    the previous plateau marks a class entry, whose sensitivity is
    c1 / (d2 - d1); a plateau (two consecutive sub-eps changes) confirms
    the class's rate as the level jump. The walk stops at c1 <= 0 or full
    migration. A class still migrating at the end receives the remaining
    mass (total rate is known a priori) but does not count as confirmed.
    """
    if delta <= 0.0 or eps <= 0.0:
        raise DomainError("delta and eps must be positive")
    first = oracle.measure(c1_init, 0.0)
    if first.gamma1 >= eps:
        raise PreconditionError(
            f"c1_init={c1_init} does not choke server 1 (gamma1={first.gamma1})")

    classes = []          # [beta, rate-or-None]
    plateau_level = 0.0
    in_flight = False
    flat_streak = 0
    last_gamma = first.gamma1
    c1 = c1_init

    while True:
        c1 -= delta
        if c1 <= 0.0:
            break
        m = oracle.measure(c1, 0.0)
        gamma = m.gamma1
        if not in_flight:
            if gamma - plateau_level >= eps:
                gap = m.d2 - m.d1
                if gap <= _D_TOL:
                    raise DegenerateError(
                        f"no delay gap at entry price {c1}; cannot infer beta")
                classes.append([m.c1 / gap, None])
                in_flight = True
                flat_streak = 0
        else:
            if abs(gamma - last_gamma) < eps:
                flat_streak += 1
                if flat_streak >= 2:
                    classes[-1][1] = gamma - plateau_level
                    plateau_level = gamma
                    in_flight = False
            else:
                flat_streak = 0
        last_gamma = gamma
        if not in_flight and lam - plateau_level <= eps:
            break

    if not classes:
        raise DegenerateError(
            "server 1's rate never rose above eps before the price reached zero")

    residual = lam - plateau_level
    complete = residual <= eps
    if in_flight:
        classes[-1][1] = residual
        complete = False
    return DiscreteClasses(
        classes=tuple((b, r) for b, r in classes),
        complete=complete,
        residual_rate=residual,
    )
