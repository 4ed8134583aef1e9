"""Closed-form rate and distance bounds.

Subspace-code rates are in nats per ambient dimension; the binary-code
quantities (entropy, Gilbert-Varshamov, Zyablov, Blokh-Zyablov) follow the
usual bits convention.  Conversion between the two is left to callers.
"""

from __future__ import annotations

import math

from .errors import ConfigError


def barg_lower(m: int, delta: float, beta: int) -> float:
    """Achievable-rate side of the sphere-packing pair: -(1/2) beta m ln(delta)."""
    _check_m_beta(m, beta)
    if not 0.0 < delta <= 1.0:
        raise ConfigError("delta must lie in (0, 1]")
    return -0.5 * beta * m * math.log(delta)

def barg_upper(m: int, delta: float, beta: int) -> float:
    """Converse side: -beta m ln( sqrt(1 - sqrt(1 - delta/2)) ).

    The formula's domain is 0 < delta <= 2; callers interested in the
    packing regime restrict to delta <= 1, where it strictly dominates
    barg_lower.
    """
    _check_m_beta(m, beta)
    if not 0.0 < delta <= 2.0:
        raise ConfigError("delta must lie in (0, 2]")
    inner = 1.0 - math.sqrt(1.0 - delta / 2.0)
    return -beta * m * math.log(math.sqrt(inner))


def shannon_lower(delta: float) -> float:
    """Line-packing (m = 1) rate floor -(1/2) ln(delta), delta = sin^2(theta)."""
    if not 0.0 < delta <= 1.0:
        raise ConfigError("delta must lie in (0, 1]")
    return -0.5 * math.log(delta)


def random_coding_rate(m: int, delta: float, beta: int, eps: float) -> float:
    """Rate -(1/4) beta m ln(delta) - eps achieved by a uniform random ensemble."""
    _check_m_beta(m, beta)
    if not 0.0 < delta <= 1.0:
        raise ConfigError("delta must lie in (0, 1]")
    if eps < 0:
        raise ConfigError("eps must be nonnegative")
    return -0.25 * beta * m * math.log(delta) - eps


def _check_m_beta(m: int, beta: int) -> None:
    if m < 1:
        raise ConfigError("dimension m must be at least 1")
    if beta not in (1, 2):
        raise ConfigError("beta must be 1 (real) or 2 (complex)")


# ---------------------------------------------------------------------------
# binary-code side (bits)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ConfigError("entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _one_minus_entropy(g: float) -> float:
    """1 - h(g) on [0, 1/2] as (2 u atanh(u) + log1p(-u^2)) / (2 ln 2), u = 1 - 2g,
    whose terms (about 2u^2 and -u^2) keep full relative accuracy near g = 1/2.
    u is exact for g >= 1/4; below that the direct 1 - h(g) > 0.18 loses nothing."""
    if g < 0.25:
        return 1.0 - binary_entropy(g)
    u = 1.0 - 2.0 * g
    return (2.0 * u * math.atanh(u) + math.log1p(-u * u)) / (2.0 * math.log(2.0))


def gv_binary_delta(rate: float) -> float:
    """Gilbert-Varshamov distance h^{-1}(1 - rate) on [0, 1/2], by bisection.

    rate = 0 gives 1/2, rate = 1 gives 0; otherwise the bracket shrinks to 1e-12.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError("rate must lie in [0, 1]")
    if rate == 1.0:
        return 0.0
    if rate == 0.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _one_minus_entropy(mid) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zyablov_delta(rate: float) -> float:
    """Zyablov concatenation trade-off

        max over x in [rate, 1] of  delta_GV(x) (1 - rate / x).

    Substituting x = 1 - h(g), so that g = delta_GV(x) is the inner distance,
    turns the objective into F(g) = g (1 - rate / (1 - h(g))).  As
    h'(g) = log2((1 - g) / g) gives (1 - h) + g h' = 1 + log2(1 - g),
    F'(g) = 0 exactly where

        (1 - h(g))^2 = rate (1 + log2(1 - g)).

    On (0, 1/2) the left side exceeds the right below that root and not
    above it, so a fixed 64-step bisection on [0, 1/2] finds the maximizer.
    F is evaluated at the lower end, where 1 - h(g) > 0.
    """
    if not 0.0 < rate <= 1.0:
        raise ConfigError("rate must lie in (0, 1]")
    if rate == 1.0:
        return 0.0
    lo, hi = 0.0, 0.5
    for _ in range(64):
        g = 0.5 * (lo + hi)
        if _one_minus_entropy(g) ** 2 > rate * (1.0 + math.log2(1.0 - g)):
            lo = g
        else:
            hi = g
    return max(lo * (1.0 - rate / _one_minus_entropy(lo)), 0.0)


def blokh_zyablov_rate(delta: float) -> float:
    """Multilevel concatenation rate

        1 - h(delta) - delta * integral_0^{1 - h(delta)} dx / delta_GV(x),

    clipped at zero.  The integral has a closed form: substituting
    x = 1 - h(g), so that g = delta_GV(x) and dx = -h'(g) dg with
    h'(g) = log2((1 - g) / g), gives

        integral_delta^{1/2} log2((1 - g) / g) dg / g
            = (Li2(delta) + ln(delta)^2 / 2 - pi^2 / 12) / ln 2,

    using Li2(1/2) = pi^2 / 12 - ln(2)^2 / 2.  As delta <= 1/2, the series
    Li2(delta) = sum_{j >= 1} delta^j / j^2 reaches double precision within
    64 terms.
    """
    if not 0.0 < delta <= 0.5:
        raise ConfigError("delta must lie in (0, 1/2]")
    upper = 1.0 - binary_entropy(delta)
    if upper <= 0.0:
        return 0.0
    dilog = math.fsum(delta ** j / (j * j) for j in range(1, 65))
    log_delta = math.log(delta)
    integral = (dilog + 0.5 * log_delta * log_delta - math.pi ** 2 / 12.0) / math.log(2.0)
    return max(upper - delta * integral, 0.0)
