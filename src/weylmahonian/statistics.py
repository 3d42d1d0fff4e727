"""Mahonian and Weyl-Mahonian polynomials by direct enumeration and recursion.

The central objects are the bivariate generating polynomials of
(length, Weyl-Major index) over a Weyl group family, optionally refined by a
third variable s marking the descent statistic.  Two independent routes are
provided for each: a direct sum over the group, and the flag-counting
recursions; the two agreeing is a core correctness check.

All divisions appearing in quoted closed forms are exact polynomial divisions
that raise on a nonzero remainder, so evaluating a closed form doubles as a
check of its divisibility claim.  Empty products are 1 and empty sums 0
throughout.

The direct route (mahonian_direct) sums q^length t^wmaj s^des over the
one-line words of the group, built left to right as a DP over prefixes, and
never visits a group element.  Group the words by N, the set of negated
absolute values, with n = |N|.  Within the positive and within the negative
entries integer order and <_pm (1 < ... < d < -d < ... < -1) agree, and
between the two they only compare signs.  So the statistics of weylgroups
(inversions, length, wmaj, descent_set), split into per-position terms,
read three things of a prefix: the negatives left, whether its last entry
is negative, and that entry's rank r among its class's values left when it
was placed (itself counted, from 0).  Placing, at position pos (0-based),
the value of rank j among its class's values left adds

- to length: j, plus the positives left when it is negative (they all come
  after it and lie below it in <_pm);
- to wmaj: pos when it stays in the last entry's class with j < r, or is
  negative after a positive;
- to s: 1 when it stays in the class with j < r, or is positive after a
  negative; at the end, 1 more when the last entry is negative.

Only the sign part depends on N itself: the sum over a in N of d+1-a (BC)
or d-a (D), plus n to wmaj.  Its q-polynomial per n is built by a
subset-sum DP over a, so the route starts from one state per n: every n for
BC, the even ones for D, and n = 0 for A.  A state holds one Python int in
the recursion's layout (_Layout, below): its digit eq + q_stride es +
slots et counts the prefixes with q^eq t^et s^es, so multiplying by q, s
and t is a left shift by w, x_shift and w slots bits, and each placement is
one shift-add.  The sum over whole words is cut into rows of w slots bits
and decoded by the recursion's _unpack, so both routes emit their terms
through one decoder, in lexicographic order.

The DP makes O(d^3) shift-adds (_direct_shift_adds: the values left, summed
over the states reached before each position), each on an int no longer
than the packed result.  Their product is the work checked against
DIRECT_MAX_WORK before any arithmetic.  The route uses no subspace count,
q-binomial, recursion or closed form, so its agreement with the recursions
below is a real check: it shares their arithmetic (the layout and the
unpack), not their mathematics.  Tests compare it with the per-element sum
over enumerate_group at every rank that enumeration admits, the independent
check of that shared packing.

The recursions run on packed integers (Kronecker substitution), not on
MultiPoly products.  A polynomial in q, t, s is a list of rows indexed by
the t-degree; row i is one Python int holding the coefficient of t^i as
signed base-2^w digits, q^a s^b at digit a + b * (Q + 1):

  row_i = sum_{a,b} c_{a,i,b} 2^{w (a + b (Q + 1))}.

Packing is the ring homomorphism q -> 2^w, s -> 2^{w (Q + 1)} on each row,
so sums and products of rows are plain integer sums and products, and
multiplying by s is a left shift by w (Q + 1) bits.  Intermediate values
need not fit the layout; only the final polynomial is unpacked, once, and
it must have q-degree <= Q and every |coefficient| < 2^{w-1}.  The layout
takes both from bounds that hold before any cancellation:

- Q is the maximal length: a summand's q-degree is deg count(k) + deg M_k,
  which is at most k(m-k) + C(k,2) <= C(m,2) inside type A, and at most
  d^2 (BC) and d(d-1) (D), reached at k = d, at the top.  The t-degree
  bound top(top+1)/2 sizes the row list and the s-degree bound is top, so
  nothing is truncated.
- w is the smallest multiple of 8 above the bit length of an L1 bound: with
  (1 - x t^j) of L1 norm 2, the sum of |coefficients| of M_m is at most
  l1[m] = sum_{k<m} 2^{m-1-k} C(m,k) l1[k], and of a top-level sum at most
  sum_k 2^{top-k} count_k(1) l1[k].  The count polynomials have
  nonnegative coefficients, so their L1 norm is their value at q = 1.

The factors prod_{j>k} (1 - x t^j) are applied in Horner form, upward in k:
acc <- acc (1 - x t^k) + x^[k>0] t^k count(k) M_k, one shift-and-subtract
per row and step, and one small-by-medium integer product per nonzero row
of M_k.  The product is taken before any shift: the row loses its trailing
zero bits, and those and the marker's shift x^[k>0] are put back on the
result.  Every row of positive t-degree carries an s, so with s marked both
shifts are long strings of zero digits that never enter a multiplication.
The type A interiors M_0, ..., M_d are kept for one call only.  Before any
arithmetic the packed size (rows x digits per row x w bits) is checked
against RECUR_MAX_BITS.

The result is unpacked once, into terms already in lexicographic
(eq, et, es) order, so the emitters' sort is one linear pass; the zero-free
term dict goes to MultiPoly without a second check.  The coefficients must
sum to the group order (the value at q = t = s = 1), or the call raises.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .algebra import ONE, ZERO, MultiPoly, T
from .weylgroups import GroupFamily, capped_count, max_length

# Largest packed result (rows x digits per row x bits per digit) that
# mahonian_recursive builds: 6.25 MB.  BC d=16 with s takes 47,884,240.
RECUR_MAX_BITS = 50_000_000

# Largest predicted work of mahonian_direct, its shift-adds times the packed
# bits of the result: it admits A d <= 25 (17 with s) and BC, D d <= 16 (12
# with s).
DIRECT_MAX_WORK = 60_000_000_000


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
    """Number of isotropic k-subspaces of a 2d-dimensional symplectic space (equals
    the count for a (2d+1)-dimensional odd quadratic space): C(d,k)_q * prod_{i<k} (1 + q^(d-i))."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return prod((1 + _qpow(d - i) for i in range(k)), start=q_binomial(d, k))


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


def _negative_counts(fam: GroupFamily) -> range:
    """The numbers of negative entries that the family's words have."""
    return range(1) if fam.tag == "A" else range(0, fam.d + 1, 2 if fam.tag == "D" else 1)


def _direct_shift_adds(fam: GroupFamily) -> int:
    """One per value left from each state that mahonian_direct reaches.
    Before position p >= 1, with m = d - p values left, a state with nl
    negatives left is reached when an allowed n places 1..p negatives under
    a negative last entry (then nl + 1 ranks), or 0..p-1 under a positive one
    (then m + 1 - nl ranks)."""
    d, ns = fam.d, _negative_counts(fam)
    adds = d * len(ns)  # from the empty prefix, one start per n
    for p in range(1, d):
        for nl in range(d - p + 1):
            for lo, ranks in ((nl + 1, nl + 1), (nl, d - p + 1 - nl)):
                if -(-lo // ns.step) * ns.step <= min(lo + p - 1, ns[-1]):  # an allowed n in lo..lo+p-1
                    adds += (d - p) * ranks
    return adds


def _direct_work(fam: GroupFamily, euler: bool) -> int:
    """Shift-adds times the packed bits of the result, which bounds each one."""
    lay = _layout(fam, euler)
    return _direct_shift_adds(fam) * _row_count(fam) * lay.slots * lay.width


def mahonian_direct(fam: GroupFamily, euler: bool = False) -> MultiPoly:
    """Sum of q^length * t^wmaj (times s^descents if euler) over the group, by
    the prefix DP of the module docstring.  Raises ValueError, before any
    arithmetic, if its work (_direct_work) is over DIRECT_MAX_WORK."""
    d, tag = fam.d, fam.tag
    work, text = capped_count(lambda f: _direct_work(f, euler), fam, DIRECT_MAX_WORK)
    if work > DIRECT_MAX_WORK:
        raise ValueError(
            f"the direct sum for {tag} d={d}{' with --euler' if euler else ''} walks {text} "
            f"bits in shift-adds, over the cap {DIRECT_MAX_WORK}; lower --d or use --method recur"
        )
    lay = _layout(fam, euler)
    w, s, t = lay.width, lay.x_shift, lay.width * lay.slots  # multiplying by q, s, t shifts by w, s, t bits
    ns = _negative_counts(fam)
    sign = [1] + [0] * d  # sign[n]: q^(the sign part) summed over the n-subsets N of {1..d}
    for a in range(1, d + 1):
        for n in range(min(a, ns[-1]), 0, -1):
            sign[n] += sign[n - 1] << w * (d + 1 - a if tag == "BC" else d - a)
    # (negatives left, last entry negative, its rank): the start acts as a positive of rank 0
    layer = {(n, False, 0): sign[n] << t * n for n in ns}
    for pos in range(d):
        nxt: dict[tuple[int, bool, int], int] = {}
        while layer:  # drained as it is read, so one layer and a half are alive
            (nl, neg, r), val = layer.popitem()
            pl = d - pos - nl  # positives left
            desc = t * pos + s  # a lower rank in the same class descends in both orders
            for j in range(pl):
                key = (nl, False, j)
                nxt[key] = nxt.get(key, 0) + (val << w * j + (s if neg else desc if j < r else 0))
            for j in range(nl):  # the positives left all come after a negative
                key = (nl - 1, True, j)
                nxt[key] = nxt.get(key, 0) + (val << w * (j + pl) + ((desc if j < r else 0) if neg else t * pos))
        layer = nxt
    total = sum(val << s if neg else val for (_, neg, _), val in layer.items())
    size = t // 8  # bytes per row
    buf = total.to_bytes(size * _row_count(fam), "little")
    return _unpack([int.from_bytes(buf[i:i + size], "little") for i in range(0, len(buf), size)], lay)


class _Layout(NamedTuple):
    """Where each coefficient of a row sits: q^a s^b is digit a + b * q_stride."""

    q_stride: int  # digits per power of s: the q-degree bound plus 1
    slots: int  # digits per row: q_stride times (the s-degree bound plus 1)
    width: int  # bits per signed digit, a multiple of 8
    x_shift: int  # multiplying by the marker x is a left shift by this many bits


def _row_count(fam: GroupFamily) -> int:
    """Rows of the packed layout: the wmaj bound top(top+1)/2, plus 1."""
    top = fam.d - 1 if fam.tag == "A" else fam.d
    return top * (top + 1) // 2 + 1


def _layout(fam: GroupFamily, euler: bool) -> _Layout:
    """The packed layout of mahonian_recursive(fam, euler), which
    mahonian_direct shares, from the closed bounds in the module docstring;
    ValueError if the result would take more than RECUR_MAX_BITS."""
    d = fam.d
    top = d - 1 if fam.tag == "A" else d
    q_stride = max_length(fam) + 1
    slots = q_stride * (max(top, 0) + 1 if euler else 1)
    digits = _row_count(fam) * slots
    if digits * 8 <= RECUR_MAX_BITS:  # the L1 bound costs O(d^2): only size it when it can fit
        l1 = [1]  # l1[m] bounds the sum of |coefficients| of the type A interior M_m
        for m in range(1, d + 1):
            l1.append(sum(2 ** (m - 1 - k) * comb(m, k) * l1[k] for k in range(m)))
        if fam.tag == "A":
            bound = l1[d]
        else:  # count(d, k) at q = 1 is C(d,k) times 2^k (BC) or 2^(k-1) (D, k > 0)
            signs = [2**k if fam.tag == "BC" else 2 ** max(k - 1, 0) for k in range(d + 1)]
            bound = sum(2 ** (d - k) * comb(d, k) * signs[k] * l1[k] for k in range(d + 1))
        width = (bound.bit_length() + 8) // 8 * 8  # so that |coefficient| < 2^(width-1)
        if digits * width <= RECUR_MAX_BITS:
            return _Layout(q_stride, slots, width, q_stride * width if euler else 0)
    raise ValueError(
        f"the recursion for {fam.tag} d={d}{' with --euler' if euler else ''} needs more than "
        f"{RECUR_MAX_BITS} packed bits ({digits} digits); lower --d"
    )


def _pack_q(poly: MultiPoly, width: int) -> int:
    """A polynomial in q alone as one integer, q -> 2^width."""
    return sum(c << (width * eq) for (eq, _, _), c in poly.terms.items())


def _flag_rows(counts: list[MultiPoly], interior: list[list[int]], lay: _Layout) -> list[int]:
    """Shared shape of the flag-counting recursions: sort weighted flags by
    their largest subspace (counts[k] choices in dimension k <= top) and
    recurse into a type A interior,

      sum_k x^[k>0] t^k counts[k] prod_{j=k+1}^{top} (1 - x t^j) M_k,

    with the marker x (s or 1, as the layout says) and M_k = interior[k].  It
    is evaluated upward in k in Horner form,
    acc <- acc * (1 - x t^k) + x^[k>0] t^k counts[k] M_k, on packed rows.

    Each product is taken before it is shifted: a nonzero row with z trailing
    zero bits adds (c * (row >> z)) << (z + shift), the same integer as
    (c << shift) * row, so neither the marker shift nor the row's low zero
    digits (every t^k with k > 0 carries an s) enter the multiplication."""
    top = len(counts) - 1
    x = lay.x_shift
    acc = [0] * (top * (top + 1) // 2 + 1)
    for k, count in enumerate(counts):
        if k:  # acc has t-degree <= k(k-1)/2 here; downward, so acc[i - k] is still the old row
            for i in range(k * (k + 1) // 2, k - 1, -1):
                acc[i] -= acc[i - k] << x
        c = _pack_q(count, lay.width)
        shift = x if k else 0
        for i, row in enumerate(interior[k], start=k):
            if row:
                z = (row & -row).bit_length() - 1
                acc[i] += c * (row >> z) << (z + shift)
    return acc


def _unpack(rows: list[int], lay: _Layout) -> MultiPoly:
    """The polynomial whose coefficient of t^i is packed in rows[i], read as
    signed digits in [-2^(w-1), 2^(w-1)); OverflowError if a row needs more
    than lay.slots digits.  Its terms come out in (eq, et, es) order.

    Only each row's span from its lowest to its highest nonzero digit is
    converted.  The lowest set bit of a row lies in its lowest nonzero digit.
    If the highest nonzero digit sits at slot h, then 2^(w h) / 4 < |row| <
    2^(w (h + 1)), so (bit length + 1) // w is h or h + 1.  The span stops at
    the last slot of the layout, and a row that reaches past it fails to
    convert exactly as a full-width conversion would.

    Rows rise in et, and a row's slots rise in (es, eq), so the terms of one
    q-degree arrive in (et, es) order; one bucket per q-degree, read in
    turn, gives the lexicographic order.  A bucket holds each key and its
    coefficient side by side, not as a pair, and is dropped once read."""
    w, slots, q_stride = lay.width, lay.slots, lay.q_stride
    size = w // 8
    half = 1 << (w - 1)
    zero = half.to_bytes(size, "little")  # a zero digit once half is added
    offset = int.from_bytes(zero * slots, "little")  # adds half to every digit
    buckets: list[list] = [[] for _ in range(q_stride)]  # per eq: key, coefficient, key, ...
    for et, row in enumerate(rows):
        if not row:
            continue
        lo = ((row & -row).bit_length() - 1) // w
        if lo >= slots:
            raise OverflowError(f"row {et} has no digit inside the {slots} slots of the layout")
        n = min((abs(row).bit_length() + 1) // w, slots - 1) - lo + 1
        buf = ((row >> w * lo) + (offset >> w * (slots - n))).to_bytes(size * n, "little")
        es, eq = divmod(lo, q_stride)
        for j in range(0, len(buf), size):
            digit = buf[j:j + size]
            if digit != zero:
                buckets[eq] += ((eq, et, es), int.from_bytes(digit, "little") - half)
            eq += 1
            if eq == q_stride:
                es, eq = es + 1, 0
    terms: dict[tuple[int, int, int], int] = {}
    for eq, bucket in enumerate(buckets):
        pairs = iter(bucket)
        terms.update(zip(pairs, pairs))
        buckets[eq] = None
    return MultiPoly._wrap(terms)


def mahonian_recursive(fam: GroupFamily, euler: bool = False) -> MultiPoly:
    """Recursion route for the same polynomial as mahonian_direct.

    Raises ValueError, before any arithmetic, if the packed result would
    exceed RECUR_MAX_BITS."""
    lay = _layout(fam, euler)
    d = fam.d
    # M_m = sum_{k<m} x^[k>0] t^k (prod_{j=k+1}^{m-1} (1-x t^j)) C(m,k)_q M_k, M_0 = 1
    interior = [[1]]
    for m in range(1, d + 1):
        interior.append(_flag_rows([q_binomial(m, k) for k in range(m)], interior, lay))
    if fam.tag == "A":
        rows = interior[d]
    else:
        count = symplectic_isotropic_count if fam.tag == "BC" else even_isotropic_count
        rows = _flag_rows([count(d, k) for k in range(d + 1)], interior, lay)
    poly = _unpack(rows, lay)
    if sum(poly.terms.values()) != fam.order():
        raise ArithmeticError(f"recursion for {fam.tag} d={d} does not sum to the group order {fam.order()}")
    return poly


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


# name -> the closed form at d >= 0, as closed_form's docstring states it
_CLOSED_FORMS = {
    "a_length": lambda d: _ratio(_qpow, range(1, d + 1), [1] * d),
    "a_wmaj": lambda d: _ratio(_tpow, range(1, d + 1), [1] * d),
    "bc_length": lambda d: _ratio(_qpow, range(2, 2 * d + 1, 2), [1] * d),
    "bc_wmaj": lambda d: (1 + T) ** d * _ratio(_tpow, range(1, d + 1), [1] * d),
    "d_length": lambda d: _ratio(_qpow, [*range(2, 2 * d - 1, 2), d], [1] * d) if d else ONE,
    "d_wmaj": lambda d: ((1 - T) ** d + (1 + T) ** d).exact_div(2) * _ratio(_tpow, range(1, d + 1), [1] * d),
}
CLOSED_FORM_NAMES = tuple(_CLOSED_FORMS)


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
    if name not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form {name!r}; known: {CLOSED_FORM_NAMES}")
    return _CLOSED_FORMS[name](d)
