"""Parameter plumbing for the density constructions.

The headline constants (scale factor 3360, sample size 20*sqrt(log(1/eps)))
are infeasibly large at test scale, so they are defaults here and every
operation accepts a caller scale; the stitch-path cap 14 is fixed.  Floats are
used only to size integer parameters; any float that serves as an upper-bound
threshold is rounded down first so the check can only get stricter, and a
threshold with a square root of ln(1/eps) in it is decided exactly
(``below_log_inv``).
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .errors import check_count, check_rational

DEFAULT_C_SCALE = Fraction(3360)
DEFAULT_MAX_PATH_LEN = 14
DEFAULT_MAX_ATTEMPTS = 64
# both dense-minor builders need eps strictly between 0 and this
DENSE_EPS_BOUND = Fraction(1, 3)


def sqrt_log_inv(eps: Fraction) -> float:
    """sqrt(log(1/eps)) in double precision."""
    eps = check_rational("eps", eps, 1)
    return math.sqrt(math.log(1 / float(eps)))


def below_log_inv(q: Fraction, eps: Fraction) -> bool:
    """Whether the rational q lies below ln(1/eps), decided exactly.

    With 1/eps = p/r in lowest terms, ln(1/eps) = ln p - ln r, and
    ``Decimal.ln`` rounds each logarithm correctly, so each is within
    |ln x| * 10**(1 - prec) of the true value.  The precision doubles until
    q lies outside that interval, which it does: ln(1/eps) is irrational
    for rational eps in (0, 1)."""
    eps = check_rational("eps", eps, 1)
    q = Fraction(q)
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            ln_p, ln_r = (Fraction(decimal.Decimal(x).ln()) for x in (eps.denominator, eps.numerator))
        mid = ln_p - ln_r
        err = (ln_p + ln_r) / 10 ** (prec - 1)
        if q < mid - err:
            return True
        if q > mid + err:
            return False
        prec *= 2


def degree_target(eps: Fraction, t: int, c_scale: Fraction) -> int:
    """d = ceil(c_scale * t * sqrt(log(1/eps))), in double precision: a
    size, not a threshold."""
    check_count("t", t, 2)
    c_scale = check_rational("the scale constant", c_scale)
    return math.ceil(float(c_scale) * t * sqrt_log_inv(eps))


def reference_sample_size(eps: Fraction) -> int:
    """r = ceil(20 * sqrt(log(1/eps))), the size used at full scale."""
    return math.ceil(20 * sqrt_log_inv(eps))


def desk_sample_size(eps: Fraction, t: int, d: int) -> int:
    """Sample size honoring d >= 84*r*t when it fits, else the minimum sane r."""
    return min(reference_sample_size(eps), max(2, d // (84 * t)))


def undominated_bound(eps: Fraction, r: int, n: int) -> int:
    """Largest integer count allowed under the eps^(1/r)*n/12 threshold, with
    eps^(1/r) in double precision, nudged one ulp down, as an exact rational."""
    eps = check_rational("eps", eps, 1)
    check_count("the sample size", r, 1)
    check_count("the scale parameter", n, 0)
    return math.floor(Fraction(math.nextafter(float(eps) ** (1.0 / r), 0.0)) * n / 12)


def power_hypothesis(eps: Fraction, r: int, base: Fraction) -> bool:
    """Whether 24^r * base^(r^2) <= eps; exact rationals when small enough."""
    base = check_rational("base", base, ends="[)")
    eps = check_rational("eps", eps)
    check_count("the sample size", r, 1)
    if base == 0:
        return True
    if r * r <= 4096:
        return Fraction(24) ** r * base ** (r * r) <= eps
    lhs = r * math.log(24.0) + r * r * math.log(float(base))
    return lhs <= math.log(float(eps))
