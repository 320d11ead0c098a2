"""Delay models, delay-sensitivity distributions, and system configurations.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely across threads.
"""

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from . import _special
from .errors import DomainError, ValidationError

#: Probability clamp applied to quantile queries on unbounded-support
#: families; keeps every downstream evaluation finite.
P_MIN = 1e-12


class DelayFamily(str, Enum):
    LINEAR = "linear"
    MM1 = "mm1"


@dataclass(frozen=True)
class DelayModel:
    """A server's mean-delay curve D(rate).

    Two families: ``linear`` has D(g) = g/mu, ``mm1`` has D(g) = 1/(mu - g)
    for g < mu. The family set is closed in v1; evaluation dispatches
    through :func:`delay_formula` and its array twin, the derivative
    through :func:`delay_deriv`.
    """

    family: DelayFamily
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"service rate mu must be positive, got {self.mu}")

    @classmethod
    def linear(cls, mu: float) -> "DelayModel":
        return cls(DelayFamily.LINEAR, mu)

    @classmethod
    def mm1(cls, mu: float) -> "DelayModel":
        return cls(DelayFamily.MM1, mu)


def delay_formula(model: DelayModel):
    """The map gamma -> D(gamma) as plain arithmetic, with no domain checks:
    for rates already known to lie in [0, lam] of a config, where an mm1
    rate reaches mu only in saturation mode."""
    mu = model.mu
    if model.family is DelayFamily.LINEAR:
        return lambda gamma: gamma / mu
    return lambda gamma: math.inf if gamma == mu else 1.0 / (mu - gamma)


def delay_slope(model: DelayModel):
    """The map gamma -> D'(gamma), :func:`delay_formula`'s twin: plain
    arithmetic with no domain checks."""
    mu = model.mu
    if model.family is DelayFamily.LINEAR:
        return lambda gamma: 1.0 / mu
    return lambda gamma: math.inf if gamma == mu else 1.0 / (mu - gamma) ** 2


def _check_rate(model: DelayModel, gamma: float, saturation: bool, what: str) -> None:
    """DomainError unless gamma lies where the model's curve is defined."""
    if gamma < 0.0:
        raise DomainError(f"arrival rate must be nonnegative, got {gamma}")
    mu = model.mu
    if model.family is DelayFamily.MM1 and (gamma > mu or (gamma == mu and not saturation)):
        raise DomainError(f"mm1 {what} undefined at gamma={gamma} for mu={mu}"
                          + ("" if saturation else " (outside saturation mode)"))


def delay_eval(model: DelayModel, gamma: float, saturation: bool = False) -> float:
    """Mean delay at arrival rate gamma; strictly increasing in gamma.

    For mm1 models the rate must stay below mu, unless ``saturation`` is
    set, which admits gamma == mu and returns +inf there.
    """
    _check_rate(model, gamma, saturation, "delay")
    return delay_formula(model)(gamma)


def delay_formula_array(model: DelayModel, gamma: np.ndarray) -> np.ndarray:
    """:func:`delay_formula` elementwise over an array, with no checks."""
    if model.family is DelayFamily.LINEAR:
        return gamma / model.mu
    with np.errstate(divide="ignore"):
        return 1.0 / (model.mu - gamma)


def delay_deriv(model: DelayModel, gamma: float, saturation: bool = False) -> float:
    """Derivative of the mean delay; strictly positive on the domain."""
    _check_rate(model, gamma, saturation, "delay derivative")
    return delay_slope(model)(gamma)


@dataclass(frozen=True)
class SensitivityDistribution:
    """Law of the per-customer delay-cost coefficient.

    Each family is a subclass with a ``family`` name, its key in
    :data:`FAMILIES`, in JSON and in the parametric fitter. Its dataclass
    fields are its parameters, in constructor order, and its
    ``__post_init__`` raises DomainError outside their domain.

    Subclasses implement ``_cdf``, ``_sf`` = 1 - F (to its relative accuracy
    where it is small), ``_quantile`` and ``_density`` on the support
    interior; use the module-level :func:`cdf`, :func:`quantile` and
    :func:`density` entry points, which own the domain checks and the
    quantile clamp for unbounded families. Point solves run in threshold
    space on every law (``wardrop.Thresholds``) and read each rate off
    ``_cdf`` or ``_sf``. ``_scan_points(p, low, anchors)`` is the grid
    scans' hook: for a numpy array of levels p it returns thresholds at or
    near their quantiles and each one's rate as a share of lam, 1 - F where
    ``low`` and F elsewhere, or None when the thresholds are the quantiles.
    It defaults to (``_quantile``(p), None), which serves as is wherever
    the scalar quantile is plain arithmetic. ``_near_quantile(p)`` is the
    optimizers' scalar twin, a threshold at or near one level's quantile;
    it defaults to ``_quantile``(p).

    A law whose quantile is a numerical inverse sets ``numeric_quantile``:
    its scan places its thresholds near the quantiles, must return shares,
    and gets as ``anchors`` (level, threshold) pairs of scalar quantiles:
    the low branch's end at gamma+ (the top, if every level is low), the
    upper branch's start at gamma+ and the top, its last level; a pair for
    a branch with no levels is None. The scan's ends take the scalar
    thresholds. Other laws get None.
    """

    family: ClassVar[str]
    numeric_quantile: ClassVar[bool] = False

    @classmethod
    def param_names(cls) -> tuple:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def initial_guess(cls, betas, levels, lam, gammas) -> tuple:
        """The one parameter tuple the parametric fitter starts from, read
        off the level identity F(beta_i) = p_i for thresholds betas inferred
        at server-1 rates gammas and levels p_i = 1 - gammas[i] / lam (both
        increasing). It must lie in the family's domain and cover every
        threshold; the fit itself refines it by least squares."""
        raise NotImplementedError

    @property
    def support(self) -> tuple:
        raise NotImplementedError

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.support[1])

    @property
    def levels(self) -> tuple:
        """The clamp of every quantile level, which keeps thresholds finite."""
        return (0.0, 1.0) if self.bounded else (P_MIN, 1.0 - P_MIN)

    def _cdf(self, x: float) -> float:
        raise NotImplementedError

    def _quantile(self, p: float) -> float:
        raise NotImplementedError

    def _scan_points(self, p: np.ndarray, low: np.ndarray, anchors) -> tuple:
        return self._quantile(p), None

    def _near_quantile(self, p: float) -> float:
        return self._quantile(p)

    def _density(self, x: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(SensitivityDistribution):
    family: ClassVar[str] = "uniform"
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < math.inf):
            raise DomainError(f"uniform support needs 0 <= a < b, got [{self.a}, {self.b}]")

    @property
    def support(self):
        return (self.a, self.b)

    @classmethod
    def initial_guess(cls, betas, levels, lam, gammas):
        # the line beta = a + (b - a) * p through the first and last points
        width = lam * (betas[-1] - betas[0]) / (gammas[0] - gammas[-1])
        a0 = betas[0] - width * levels[0]
        return (max(0.0, a0), max(a0 + width, betas[-1] * (1.0 + 1e-6)))

    def _cdf(self, x):
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def _sf(self, x):
        return (self.b - x) / (self.b - self.a)

    def _quantile(self, p):
        return self.a + p * (self.b - self.a)

    def _density(self, x):
        return 0.0 if x > self.b else 1.0 / (self.b - self.a)


@dataclass(frozen=True)
class Exponential(SensitivityDistribution):
    """Exponential law parameterized by its mean tau (rate is 1/tau)."""

    family: ClassVar[str] = "exponential"
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise DomainError(f"exponential mean must be positive, got {self.tau}")

    @property
    def support(self):
        return (0.0, math.inf)

    @classmethod
    def initial_guess(cls, betas, levels, lam, gammas):
        # the law through the first level
        return (betas[0] / math.log(lam / gammas[0]),)

    def _cdf(self, x):
        return -math.expm1(-x / self.tau)

    def _sf(self, x):
        return math.exp(-x / self.tau)

    def _quantile(self, p):
        return -self.tau * math.log1p(-p)

    def _scan_points(self, p, low, anchors):
        return -self.tau * np.log1p(-p), None

    def _density(self, x):
        return math.exp(-x / self.tau) / self.tau


@dataclass(frozen=True)
class Gamma(SensitivityDistribution):
    """Gamma law with shape k and scale theta."""

    family: ClassVar[str] = "gamma"
    numeric_quantile: ClassVar[bool] = True
    k: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise DomainError(f"gamma shape must be positive, got {self.k}")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise DomainError(f"gamma scale must be positive, got {self.theta}")

    @property
    def support(self):
        return (0.0, math.inf)

    @classmethod
    def initial_guess(cls, betas, levels, lam, gammas):
        # the exponential law, k = 1
        return (1.0, *Exponential.initial_guess(betas, levels, lam, gammas))

    def _cdf(self, x):
        return _special.gamma_p(self.k, x / self.theta)

    def _sf(self, x):
        return _special.gamma_q(self.k, x / self.theta)

    def _quantile(self, p):
        return _special.gamma_p_inverse(self.k, p) * self.theta

    def _scan_points(self, p, low, anchors):
        # no inversion: points placed in closed form, and the rates they give
        theta = self.theta
        x, share = _special.gamma_scan_points(
            self.k, p, low, tuple(None if a is None else (a[0], a[1] / theta) for a in anchors))
        return x * theta, share

    def _near_quantile(self, p):
        return _special.gamma_start(self.k, p) * self.theta

    def _density(self, x):
        if x == 0.0:
            if self.k < 1.0:
                return math.inf
            return (1.0 / self.theta) if self.k == 1.0 else 0.0
        log_pdf = ((self.k - 1.0) * math.log(x) - x / self.theta
                   - _special.log_gamma(self.k) - self.k * math.log(self.theta))
        return math.exp(log_pdf)


@dataclass(frozen=True)
class Power(SensitivityDistribution):
    """Power law with CDF (x/b)**n on [0, b]."""

    family: ClassVar[str] = "power"
    n: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise DomainError(f"power exponent must be positive, got {self.n}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise DomainError(f"power upper bound must be positive, got {self.b}")

    @property
    def support(self):
        return (0.0, self.b)

    @classmethod
    def initial_guess(cls, betas, levels, lam, gammas):
        # the curve p = (beta / b)**n through the first and last points
        n0 = math.log(levels[-1] / levels[0]) / math.log(betas[-1] / betas[0])
        n0 = max(n0, 1e-3)
        b0 = betas[0] * levels[0] ** (-1.0 / n0)
        return (n0, max(b0, betas[-1] * (1.0 + 1e-6)))

    def _cdf(self, x):
        if x >= self.b:
            return 1.0
        return (x / self.b) ** self.n

    def _sf(self, x):
        if x >= self.b:
            return 0.0
        # above b/2, x - b is exact, where 1 - (x/b)**n would cancel
        r = x / self.b
        return -math.expm1(self.n * (math.log1p((x - self.b) / self.b) if r > 0.5 else math.log(r)))

    def _quantile(self, p):
        return self.b * p ** (1.0 / self.n)

    def _density(self, x):
        if x > self.b:
            return 0.0
        return self.n * x ** (self.n - 1.0) / self.b ** self.n


#: Every sensitivity family by name.
FAMILIES = {cls.family: cls for cls in (Uniform, Exponential, Gamma, Power)}


def cdf(dist: SensitivityDistribution, x: float) -> float:
    """F(x); DomainError strictly below the support."""
    if x < dist.support[0]:
        raise DomainError(f"{x} is below the support of {dist}")
    return dist._cdf(x)


def quantile(dist: SensitivityDistribution, p: float) -> float:
    """F^{-1}(p) for one p in [0, 1].

    Exact inverse for the uniform, exponential and power families; Halley
    root-finding on the regularized incomplete gamma for the gamma family,
    which stops once |F(x) - p| < 1e-13 p, or for p > 0.5 once
    |(1 - F(x)) - (1 - p)| < 1e-13 (1 - p), so both tails are relative.
    Below shape k ~ 0.1 the stop is not reached (the ``_special`` docstring
    has the measured limits). p is clamped to the law's ``levels``, which
    for unbounded-support families is [P_MIN, 1 - P_MIN], so the result
    stays finite. ``wardrop.Thresholds`` applies the same clamp: its
    rate-space maps past their own rate check, its grid scan to the levels
    it samples; its point solves invert only the ends of their brackets and
    read each rate off its threshold.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"quantile probability must lie in [0, 1], got {p}")
    lo, hi = dist.levels
    return dist._quantile(lo if p < lo else hi if p > hi else p)


def density(dist: SensitivityDistribution, x: float) -> float:
    """f(x); DomainError strictly below the support."""
    if x < dist.support[0]:
        raise DomainError(f"{x} is below the support of {dist}")
    return dist._density(x)


@dataclass(frozen=True)
class SystemConfig:
    """Total arrival rate plus the two servers' delay models and the
    sensitivity law.

    Valid by construction: ``__post_init__`` runs :func:`validate_config`,
    so building a config that breaks a joint regularity condition raises
    ValidationError with the complete list, and solvers never check a
    config again. ``saturation_ok`` opts into mm1 models with mu == lam,
    in which case D(lam) evaluates to +inf and solvers operate strictly
    inside (0, lam).
    """

    lam: float
    d1: DelayModel
    d2: DelayModel
    dist: SensitivityDistribution
    saturation_ok: bool = False

    def __post_init__(self):
        validate_config(self)

    def delay1(self, gamma: float) -> float:
        return delay_eval(self.d1, gamma, self.saturation_ok)

    def delay2(self, gamma: float) -> float:
        return delay_eval(self.d2, gamma, self.saturation_ok)

    def identical_servers(self) -> bool:
        return self.d1 == self.d2

    def swapped(self) -> "SystemConfig":
        """The same system with the servers' labels exchanged.

        Server 2's problem is server 1's problem on the swapped system, so
        every server-2 function runs its server-1 twin on this; the joint
        conditions are symmetric in the labels, so its check always passes.
        Identical servers return self, which keeps cached per-config
        lookups (``balanced_load``) hitting by identity. The mirror is
        built, and so checked, once per config.
        """
        return self._mirror

    @functools.cached_property
    def _mirror(self) -> "SystemConfig":
        if self.identical_servers():
            return self
        return replace(self, d1=self.d2, d2=self.d1)


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Return cfg unchanged if every regularity condition holds; every
    SystemConfig runs this once, when it is built.

    Raises ValidationError carrying the complete list of violations:
    positive arrival rate, mm1 stability (mu > lam, or mu >= lam in
    saturation mode), and the two delay-gap conditions
    D1(0) < D2(lam) and D2(0) < D1(lam) (finite unless saturated).
    """
    failures = []
    if not (math.isfinite(cfg.lam) and cfg.lam > 0.0):
        failures.append(f"total arrival rate must be positive, got {cfg.lam}")

    for name, model in (("server 1", cfg.d1), ("server 2", cfg.d2)):
        if model.family is DelayFamily.MM1 and math.isfinite(cfg.lam):
            if cfg.saturation_ok:
                if model.mu < cfg.lam:
                    failures.append(
                        f"{name}: mm1 needs mu >= lam even in saturation mode "
                        f"(mu={model.mu}, lam={cfg.lam})")
            elif model.mu <= cfg.lam:
                failures.append(
                    f"{name}: mm1 needs mu > lam (mu={model.mu}, lam={cfg.lam}); "
                    "set saturation_ok for mu == lam")

    if not failures:
        sat = cfg.saturation_ok
        d1_0, d2_0 = delay_eval(cfg.d1, 0.0, sat), delay_eval(cfg.d2, 0.0, sat)
        d1_lam, d2_lam = delay_eval(cfg.d1, cfg.lam, sat), delay_eval(cfg.d2, cfg.lam, sat)
        if not d1_0 < d2_lam:
            failures.append(
                f"gap condition D1(0) < D2(lam) fails ({d1_0} >= {d2_lam})")
        if not d2_0 < d1_lam:
            failures.append(
                f"gap condition D2(0) < D1(lam) fails ({d2_0} >= {d1_lam})")
        if not cfg.saturation_ok:
            if not math.isfinite(d2_lam):
                failures.append("D2(lam) must be finite outside saturation mode")
            if not math.isfinite(d1_lam):
                failures.append("D1(lam) must be finite outside saturation mode")

    if failures:
        raise ValidationError(failures)
    return cfg


# --- JSON interchange (schema "qpk/1") -------------------------------------

SCHEMA_ID = "qpk/1"


def _dist_to_dict(dist: SensitivityDistribution) -> dict:
    if type(dist) not in FAMILIES.values():
        raise DomainError(f"unknown sensitivity distribution {dist!r}")
    return {"family": dist.family, **asdict(dist)}


def _object(value, where: str, required, optional=()) -> dict:
    """value, if it is a JSON object with every required key and no key
    beyond the optional ones; one ValidationError lists every unknown and
    every missing key."""
    if not isinstance(value, dict):
        raise ValidationError([f"{where} must be a JSON object, got {value!r}"])
    unknown = sorted(set(value) - set(required) - set(optional))
    failures = [f"unknown {where} keys: {unknown}"] if unknown else []
    failures += [f"{where} key {k!r} is required" for k in required if k not in value]
    if failures:
        raise ValidationError(failures)
    return value


def _number(value, where: str) -> float:
    """value as a float, if it is a JSON number (not a bool, not a string)."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer literal past the double range
            pass
    raise ValidationError([f"{where} must be a JSON number, got {value!r}"])


def _name(value, where: str, names) -> str:
    """value, if it is one of the strings in names."""
    if not (isinstance(value, str) and value in names):
        raise ValidationError([f"{where} must be one of {sorted(names)}, got {value!r}"])
    return value


def _dist_from_dict(obj) -> SensitivityDistribution:
    # the family names the parameters, so the other keys wait for it
    family = _object(obj, "beta", ("family",), optional=obj)["family"]
    law = FAMILIES[_name(family, "beta.family", FAMILIES)]
    names = law.param_names()
    _object(obj, "beta", ("family", *names))
    return law(*(_number(obj[f], f"beta.{f}") for f in names))


def _delay_from_dict(obj, where: str) -> DelayModel:
    delay = _object(_object(obj, where, ("delay",))["delay"], f"{where}.delay", ("family", "mu"))
    family = _name(delay["family"], f"{where}.delay.family", [f.value for f in DelayFamily])
    return DelayModel(DelayFamily(family), _number(delay["mu"], f"{where}.delay.mu"))


def config_to_json(cfg: SystemConfig) -> str:
    """Serialize to the versioned JSON interchange document."""
    doc = {
        "schema": SCHEMA_ID,
        "lambda": cfg.lam,
        "server1": {"delay": {"family": cfg.d1.family.value, "mu": cfg.d1.mu}},
        "server2": {"delay": {"family": cfg.d2.family.value, "mu": cfg.d2.mu}},
        "beta": _dist_to_dict(cfg.dist),
        "saturation_ok": cfg.saturation_ok,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def config_from_json(text: str) -> SystemConfig:
    """Parse and validate a config document; unknown keys are errors."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValidationError([f"config is not valid JSON: {exc}"]) from exc
    _object(doc, "config", ("lambda", "server1", "server2", "beta"), ("schema", "saturation_ok"))
    schema = doc.get("schema", SCHEMA_ID)
    if schema != SCHEMA_ID:
        raise ValidationError([f"unsupported schema {schema!r}; expected {SCHEMA_ID!r}"])
    saturation_ok = doc.get("saturation_ok", False)
    if type(saturation_ok) is not bool:
        raise ValidationError([f"saturation_ok must be a JSON boolean, got {saturation_ok!r}"])
    lam = _number(doc["lambda"], "lambda")
    d1 = _delay_from_dict(doc["server1"], "server1")
    d2 = _delay_from_dict(doc["server2"], "server2")
    try:
        return SystemConfig(lam, d1, d2, _dist_from_dict(doc["beta"]), saturation_ok)
    except DomainError as exc:
        raise ValidationError([str(exc)]) from exc
