"""Best-response computation and symmetric Nash analysis for the duopoly.

Given the rival's price c, server j's best response maximizes
(g_j(gamma) + c) * gamma over the feasible rates. On each branch of g_j,
either side of its balanced load, the search runs in the threshold: a few
samples of the revenue's slope and one root for each fall through 0
(wardrop.Thresholds.local_maxima). The symmetric-equilibrium candidate
price for identical servers is
alpha = -gamma+ * g'(gamma+); it is necessary but not sufficient, and
check_symmetric_nash tests it by running the best response at that price.
"""

import math
from dataclasses import dataclass
from enum import Enum

from ._solve import check_count
from .errors import DomainError, PreconditionError
from .models import P_MIN, SystemConfig
from .wardrop import PriceVector, Thresholds, balanced_load, check_price


@dataclass(frozen=True)
class BestResponse:
    server: int
    given_price: float
    gamma_star: float
    price_star: float
    revenue_star: float
    stationary_points: tuple  # rates of all local maxima, ascending


@dataclass(frozen=True)
class NashOutcome:
    prices: PriceVector
    converged: bool
    iterations: int
    residual: float
    symmetric_alpha: float = None


class NashVerdict(Enum):
    CONFIRMED = "confirmed"
    NECESSARY_ONLY_FAILED = "necessary-only-failed"


def best_response(cfg: SystemConfig, server: int, other_price: float) -> BestResponse:
    """Revenue-maximizing rate and price for one server, rival price fixed.

    Finds every local maximum of (g_j(gamma) + other_price) * gamma on
    [lam * P_MIN, rate_cap_j * (1 - P_MIN)], an interior one as a root of
    the revenue's derivative in the threshold (wardrop.Thresholds), and
    takes the best; equal-revenue ties go to the smaller rate. At the kink
    of g_j at server j's balanced load the derivative jumps, and a maximum
    there is found as that jump. All stationary candidates are reported so
    multimodal cases are auditable.
    """
    if server not in (1, 2):
        raise DomainError(f"server must be 1 or 2, got {server}")
    check_price("other_price", other_price)

    # server 2's problem is server 1's on the swapped system
    own = cfg if server == 1 else cfg.swapped()
    solves = Thresholds(own)
    cap = solves.root(-other_price, True)[0]
    (g_star, r_star, gap), candidates = solves.local_maxima(
        other_price, cfg.lam * P_MIN, cap * (1.0 - P_MIN))
    return BestResponse(server, other_price, g_star, gap + other_price, r_star,
                        tuple(g for g, _, _ in candidates))


def symmetric_alpha(cfg: SystemConfig) -> tuple:
    """(alpha1, alpha2) with alpha_j = -gamma_j+ * dg_j/dgamma at gamma_j+,
    server j's own balanced load (server 2's is gamma+ of the swapped
    system).

    Uses the analytic one-sided derivative (low-rate branch at the
    balanced load, where the delay-gap factor vanishes). Intended for
    identical servers, where alpha1 == alpha2; computed for any config.
    """

    def server_1_alpha(c):
        solves = Thresholds(c)
        return -solves.gp * solves.g1_slope(solves.gp)[1]

    # server 2's candidate is server 1's on the swapped system
    return server_1_alpha(cfg), server_1_alpha(cfg.swapped())


def check_symmetric_nash(cfg: SystemConfig, tol: float = 1e-6) -> NashVerdict:
    """Test whether the symmetric candidate price is a fixed point.

    Sets both prices to alpha1 and runs server 1's best response:
    CONFIRMED when the responding rate is the balanced load (within
    tol * lam) and the responding price returns alpha1 (within tol);
    NECESSARY_ONLY_FAILED otherwise. Identical servers required.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if not cfg.identical_servers():
        raise PreconditionError(
            "symmetric Nash check requires identical servers")
    alpha1, _ = symmetric_alpha(cfg)
    if alpha1 < 0.0:
        return NashVerdict.NECESSARY_ONLY_FAILED
    br = best_response(cfg, 1, alpha1)
    gp = balanced_load(cfg)
    if abs(br.gamma_star - gp) < tol * cfg.lam and abs(br.price_star - alpha1) < tol:
        return NashVerdict.CONFIRMED
    return NashVerdict.NECESSARY_ONLY_FAILED


def nash_iterate(cfg: SystemConfig, init: PriceVector, tol: float = 1e-6,
                 max_iter: int = 100, damping: float = 1.0) -> NashOutcome:
    """Alternating (Gauss-Seidel) best-response iteration from init.

    Each round replaces c1 with server 1's best response to c2, then c2
    with server 2's best response to the new c1, optionally damped.
    Converged when both pre-update residuals drop below tol;
    non-convergence is a reported outcome, not an error.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if not 0.0 < damping <= 1.0:
        raise DomainError(f"damping must lie in (0, 1], got {damping}")
    check_count("max_iter", max_iter, 1)
    c1, c2 = init.c1, init.c2
    alpha = symmetric_alpha(cfg)[0] if cfg.identical_servers() else None

    for it in range(1, max_iter + 1):
        b1 = best_response(cfg, 1, c2).price_star
        r1 = abs(b1 - c1)
        c1 += damping * (b1 - c1)
        b2 = best_response(cfg, 2, c1).price_star
        r2 = abs(b2 - c2)
        c2 += damping * (b2 - c2)
        residual = max(r1, r2)
        if residual < tol:
            return NashOutcome(PriceVector(c1, c2), True, it, residual, alpha)
    return NashOutcome(PriceVector(c1, c2), False, max_iter, residual, alpha)
