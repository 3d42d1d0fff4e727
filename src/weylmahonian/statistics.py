"""Mahonian and Weyl-Mahonian polynomials by direct enumeration and recursion.

The central objects are the bivariate generating polynomials of
(length, Weyl-Major index) over a Weyl group family, optionally refined by a
third variable s marking the descent statistic.  Two independent routes are
provided for each: a direct sum over the enumerated group, and the
flag-counting recursions; the two agreeing is a core correctness check.

All divisions appearing in quoted closed forms are exact polynomial divisions
that raise on a nonzero remainder, so evaluating a closed form doubles as a
check of its divisibility claim.  Empty products are 1 and empty sums 0
throughout.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import ONE, ZERO, MultiPoly, T
from .weylgroups import (
    GroupFamily,
    descent_count,
    enumerate_group,
    length,
    wmaj,
)

def _qpow(n: int) -> MultiPoly:
    return MultiPoly.monomial(1, eq=n)


def _tpow(n: int) -> MultiPoly:
    return MultiPoly.monomial(1, et=n)


@lru_cache(maxsize=None)
def q_binomial(d: int, k: int) -> MultiPoly:
    """Gaussian binomial via the Pascal-type recursion; zero outside 0 <= k <= d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if k < 0 or k > d:
        return ZERO
    if k == 0 or k == d:
        return ONE
    return q_binomial(d - 1, k - 1) + _qpow(k) * q_binomial(d - 1, k)


def _ratio(power, num_exps, den_exps) -> MultiPoly:
    """prod_e (1 - x^e) / prod_f (1 - x^f) by exact division, with x^n = power(n)."""
    num = den = ONE
    for e in num_exps:
        num = num * (1 - power(e))
    for f in den_exps:
        den = den * (1 - power(f))
    return num.exact_div(den)


def q_binomial_product(d: int, k: int) -> MultiPoly:
    """Gaussian binomial via the closed product formula (exact division route)."""
    if k < 0 or k > d:
        return ZERO
    return _ratio(_qpow, range(d, d - k, -1), range(1, k + 1))


def symplectic_isotropic_count(d: int, k: int) -> MultiPoly:
    """Number of isotropic k-subspaces of a 2d-dimensional symplectic space
    (equals the count for a (2d+1)-dimensional odd quadratic space)."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return _ratio(_qpow, range(2 * d, 2 * d - 2 * k, -2), range(k, 0, -1))


def hyperbolic_isotropic_count(d: int, k: int, l: int) -> MultiPoly:
    """Isotropic k-subspaces V of the d-fold hyperbolic sum with
    dim(V / (V intersect I)) = l, for the fixed metabolizer I."""
    if not 0 <= k <= d or not 0 <= l <= k:
        raise ValueError(f"need 0 <= l <= k <= d, got d={d}, k={k}, l={l}")
    return _qpow(l * (2 * d + l - 2 * k - 1) // 2) * q_binomial(d, k) * q_binomial(k, l)


def even_isotropic_count(d: int, k: int) -> MultiPoly:
    """Even-parity isotropic k-subspaces of the d-fold hyperbolic sum:
    C(d,k)_q * sum_l q^{l(2d+2l-2k-1)} C(k,2l)_q, the l -> 2l reindexing of the
    per-parity count."""
    total = ZERO
    for l in range(k // 2 + 1):
        total = total + _qpow(l * (2 * d + 2 * l - 2 * k - 1)) * q_binomial(k, 2 * l)
    return q_binomial(d, k) * total


def mahonian_direct(fam: GroupFamily, euler: bool = False) -> MultiPoly:
    """Sum of q^length * t^wmaj (times s^descents if euler) over the group."""
    terms: dict[tuple[int, int, int], int] = {}
    for perm in enumerate_group(fam):
        key = (length(perm, fam), wmaj(perm), descent_count(perm) if euler else 0)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(terms)


def _flag_sum(top: int, count, euler: bool) -> MultiPoly:
    """Shared shape of the flag-counting recursions: sort weighted flags by
    their largest subspace (count(k) choices in dimension k <= top) and recurse
    into a type A interior,

      sum_k x^[k>0] t^k count(k) prod_{j=k+1}^{top} (1 - x t^j) M_k,

    with the marker x = s if euler, else x = 1."""
    es = 1 if euler else 0
    total = ZERO
    prod = ONE  # prod_{j=k+1}^{top} (1 - x t^j), grown as k falls
    for k in range(top, -1, -1):
        mark = MultiPoly.monomial(1, et=k, es=es if k else 0)
        total = total + mark * count(k) * prod * _mahonian_a(k, euler)
        if k:
            prod = prod * (1 - MultiPoly.monomial(1, et=k, es=es))
    return total


@lru_cache(maxsize=None)
def _mahonian_a(d: int, euler: bool) -> MultiPoly:
    # M_d = sum_{i<d} x^[i>0] t^i (prod_{j=i+1}^{d-1} (1-x t^j)) C(d,i)_q M_i, M_0 = 1
    if d == 0:
        return ONE
    return _flag_sum(d - 1, lambda k: q_binomial(d, k), euler)


def mahonian_recursive(fam: GroupFamily, euler: bool = False) -> MultiPoly:
    """Recursion route for the same polynomial as mahonian_direct."""
    d = fam.d
    if fam.tag == "A":
        return _mahonian_a(d, euler)
    count = symplectic_isotropic_count if fam.tag == "BC" else even_isotropic_count
    return _flag_sum(d, lambda k: count(d, k), euler)


def qbinomial_theorem_sides(d: int, a: int) -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the q-binomial theorem
    sum_j C(d,j)_q q^{C(j+a,2)} t^j = q^{C(a,2)} prod_{j<d} (1 + t q^{j+a})."""
    if d < 0 or a < 0:
        raise ValueError("need d >= 0 and a >= 0")
    lhs = ZERO
    for j in range(d + 1):
        lhs = lhs + q_binomial(d, j) * _qpow((j + a) * (j + a - 1) // 2) * _tpow(j)
    rhs = _qpow(a * (a - 1) // 2)
    for j in range(d):
        rhs = rhs * (1 + T * _qpow(j + a))
    return lhs, rhs


CLOSED_FORM_NAMES = (
    "a_length",
    "a_wmaj",
    "bc_length",
    "bc_wmaj",
    "d_length",
    "d_wmaj",
)


def closed_form(name: str, d: int) -> MultiPoly:
    """Closed-form specializations of the Mahonian polynomials.

    a_length:  sum of q^length over type A       = prod (1-q^j)/(1-q)
    a_wmaj:    type A polynomial at q=1          = prod (1-t^j)/(1-t)
    bc_length: type BC at t=1                    = prod (1-q^2j)/(1-q)
    bc_wmaj:   type BC at q=1                    = (1+t)^d prod (t^j-1)/(t-1)
    d_length:  type D at t=1                     = (1-q^d)/(1-q) prod_{j<d} (1-q^2j)/(1-q)
    d_wmaj:    sum of t^wmaj over type D         = ((1-t)^d+(1+t)^d)/2 prod (1-t^j)/(1-t)
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    ones = [1] * d
    if name == "a_length":
        return _ratio(_qpow, range(1, d + 1), ones)
    if name == "a_wmaj":
        return _ratio(_tpow, range(1, d + 1), ones)
    if name == "bc_length":
        return _ratio(_qpow, range(2, 2 * d + 1, 2), ones)
    if name == "bc_wmaj":
        return (1 + T) ** d * _ratio(_tpow, range(1, d + 1), ones)
    if name == "d_length":
        return _ratio(_qpow, [*range(2, 2 * d - 1, 2), d], ones) if d else ONE
    if name == "d_wmaj":
        half = ((1 - T) ** d + (1 + T) ** d).exact_div(2)
        return half * _ratio(_tpow, range(1, d + 1), ones)
    raise ValueError(f"unknown closed form {name!r}; known: {CLOSED_FORM_NAMES}")
