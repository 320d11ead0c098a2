"""Best-response computation and symmetric Nash analysis for the duopoly.

Each server's best response is computed in rate space: given the rival's
price c, server j maximizes (g_j(gamma) + c) * gamma over the feasible
rates. The symmetric-equilibrium candidate price for identical servers is
alpha = -gamma+ * g'(gamma+); it is necessary but not sufficient, and
check_symmetric_nash tests it by running the best response at that price.
"""

import math
from dataclasses import dataclass
from enum import Enum

from ._solve import DEFAULT_GRID, check_grid_size, local_maxima_scan, root_refine
from .errors import DomainError, PreconditionError
from .models import P_MIN, SystemConfig
from .wardrop import (PriceVector, Thresholds, balanced_load, check_price, price_gap_1_array,
                      price_gap_1_deriv, rate_cap_with_gap)


@dataclass(frozen=True)
class BestResponse:
    server: int
    given_price: float
    gamma_star: float
    price_star: float
    revenue_star: float
    stationary_points: tuple  # rates of all refined local maxima, ascending


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


def best_response(cfg: SystemConfig, server: int, other_price: float,
                  grid_size: int = DEFAULT_GRID) -> BestResponse:
    """Revenue-maximizing rate and price for one server, rival price fixed.

    Scans (g_j(gamma) + other_price) * gamma on a dense grid of
    (0, rate_cap_j) in one array pass, refines every local maximum as the
    root of its derivative g_j + other_price + gamma*g_j' on the scalar
    g_j (in the threshold on a gamma law, see wardrop.Thresholds), and
    takes the best; equal-revenue ties go to the smaller rate. At
    the kink of g_j at server j's balanced load the derivative jumps, and
    a maximum there is found as that jump. All stationary candidates are
    reported so multimodal cases are auditable.
    """
    if server not in (1, 2):
        raise DomainError(f"server must be 1 or 2, got {server}")
    check_price("other_price", other_price)
    check_grid_size(grid_size)

    # server 2's problem is server 1's on the swapped system
    own = cfg if server == 1 else cfg.swapped()
    lo = cfg.lam * P_MIN
    if own.dist.numeric_quantile:
        solves = Thresholds(own)
        cap = solves.root(-other_price, True)[0]
        (g_star, r_star, gap), candidates = solves.revenue_peaks(
            other_price, lo, cap * (1.0 - P_MIN), grid_size)
        return BestResponse(server, other_price, g_star, gap + other_price, r_star,
                            tuple(g for g, _, _ in candidates))
    cap, g1, g1_slope = rate_cap_with_gap(own, other_price)

    def r_scan(lo, hi, n):
        xs, g, _ = price_gap_1_array(own, lo, hi, n)
        return xs, (g + other_price) * xs

    def dr(g):
        v, s = g1_slope(g)
        return v + other_price + g * s
    (g_star, r_star), candidates = local_maxima_scan(
        r_scan, root_refine(lambda g: (g1(g) + other_price) * g, dr), lo,
        cap * (1.0 - P_MIN), grid_size)
    return BestResponse(
        server=server,
        given_price=other_price,
        gamma_star=g_star,
        price_star=g1(g_star) + other_price,
        revenue_star=r_star,
        stationary_points=tuple(g for g, _ in candidates),
    )


def symmetric_alpha(cfg: SystemConfig) -> tuple:
    """(alpha1, alpha2) with alpha_j = -gamma_j+ * dg_j/dgamma at gamma_j+,
    server j's own balanced load (server 2's is gamma+ of the swapped
    system).

    Uses the analytic one-sided derivative (low-rate branch at the
    balanced load, where the delay-gap factor vanishes). Intended for
    identical servers, where alpha1 == alpha2; computed for any config.
    """

    def server_1_alpha(c):
        gp = balanced_load(c)
        return -gp * price_gap_1_deriv(c, gp)

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
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
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
