import random
from collections import Counter
from functools import lru_cache

import pytest

from weylmahonian import statistics
from weylmahonian.algebra import MultiPoly
from weylmahonian.statistics import (
    DIRECT_MAX_WORK,
    _Layout,
    _direct_shift_adds,
    _direct_work,
    _flag_rows,
    _layout,
    _pack_q,
    _unpack,
    closed_form,
    even_isotropic_count,
    hyperbolic_isotropic_count,
    mahonian_direct,
    mahonian_recursive,
    q_binomial,
    q_binomial_product,
    qbinomial_theorem_sides,
    symplectic_isotropic_count,
)
from weylmahonian.weylgroups import ENUM_MAX_ORDER, GroupFamily, descent_count, enumerate_group, length, wmaj

from reference_tables import BC_TABLES, D_TABLES, table_poly

Q = MultiPoly.var("q")
T = MultiPoly.var("t")
S = MultiPoly.var("s")


def test_q_binomial_values():
    assert q_binomial(2, 1) == 1 + Q
    assert q_binomial(4, 2) == 1 + Q + 2 * Q**2 + Q**3 + Q**4
    for d in range(7):
        assert q_binomial(d, 0) == MultiPoly.one()
        assert q_binomial(d, d) == MultiPoly.one()
    assert q_binomial(3, 5) == MultiPoly.zero()
    assert q_binomial(3, -1) == MultiPoly.zero()


def test_q_binomial_recursion_matches_product():
    for d in range(9):
        for k in range(d + 1):
            assert q_binomial(d, k) == q_binomial_product(d, k)


def test_q_binomial_sum_is_binomial():
    from math import comb

    for d in range(8):
        for k in range(d + 1):
            assert q_binomial(d, k).evaluate(q=1) == comb(d, k)


@pytest.mark.parametrize("d", range(1, 5))
def test_bc_tables(d):
    assert mahonian_direct(GroupFamily("BC", d)) == table_poly(BC_TABLES[d])


@pytest.mark.parametrize("d", range(1, 5))
def test_d_tables(d):
    assert mahonian_direct(GroupFamily("D", d)) == table_poly(D_TABLES[d])


def test_mahonian_direct_examples():
    assert mahonian_direct(GroupFamily("BC", 1)) == 1 + Q * T
    assert mahonian_direct(GroupFamily("D", 2)) == 1 + Q * T + Q * T**2 + Q**2 * T**3
    assert mahonian_direct(GroupFamily("A", 2)) == 1 + Q * T


@lru_cache(maxsize=None)
def element_statistics(tag: str, d: int) -> Counter:
    """How many elements have each (length, wmaj, descents): every element's
    three statistics, computed once for both markers."""
    fam = GroupFamily(tag, d)
    return Counter((length(perm, fam), wmaj(perm), descent_count(perm)) for perm in enumerate_group(fam))


def per_element_sum(fam: GroupFamily, euler: bool) -> MultiPoly:
    """The direct sum the slow way, from every element's statistics."""
    terms: Counter = Counter()
    for (eq, et, es), n in element_statistics(fam.tag, fam.d).items():
        terms[(eq, et, es if euler else 0)] += n
    return MultiPoly(terms)


@pytest.mark.parametrize("tag,dmax", [("A", 7), ("BC", 5), ("D", 5)])
@pytest.mark.parametrize("euler", [False, True])
def test_direct_equals_per_element_sum(tag, dmax, euler):
    for d in range(dmax + 1):
        fam = GroupFamily(tag, d)
        assert mahonian_direct(fam, euler) == per_element_sum(fam, euler), (tag, d)


@pytest.mark.parametrize("euler", [False, True])
def test_direct_equals_per_element_sum_at_the_enumeration_cap(euler):
    """The same oracle at the largest rank of each family that enumerate_group
    admits (ENUM_MAX_ORDER), so the packing the direct route shares with the
    recursion is checked by an independent sum at every enumerable rank."""
    for tag, d in (("A", 8), ("BC", 6), ("D", 6)):
        fam = GroupFamily(tag, d)
        assert fam.order() <= ENUM_MAX_ORDER < GroupFamily(tag, d + 1).order()
        assert mahonian_direct(fam, euler) == per_element_sum(fam, euler), (tag, d)


@pytest.mark.parametrize("tag", ["A", "BC", "D"])
def test_direct_state_count_is_prefix_count(tag):
    """The predicted shift-adds of the direct sum are the distinct
    (position, state, next class, next rank) tuples over the prefixes of the
    group's words.  A state is (negatives left, last entry negative, its rank
    among its class's values left, itself counted); the empty prefix starts
    as a positive of rank 0."""
    for d in range(6):
        moves = set()
        for word in enumerate_group(GroupFamily(tag, d)):
            state = (sum(v < 0 for v in word), False, 0)
            for pos, v in enumerate(word):
                rank = sum(u < v for u in word[pos:] if (u < 0) == (v < 0))
                moves.add((pos, state, v < 0, rank))
                state = (state[0] - (v < 0), v < 0, rank)
        assert _direct_shift_adds(GroupFamily(tag, d)) == len(moves), d


def test_direct_work_guard_bounds_the_states():
    """The guard on shift-adds times packed bits admits A d <= 25 (17 with
    s) and BC, D d <= 16 (12 with s), and refuses the next ranks before any
    arithmetic; up to the first refused rank the recursion's layout, which
    sizes the packed bits, still fits."""
    for tag, tops in (("A", (25, 17)), ("BC", (16, 12)), ("D", (16, 12))):
        for euler, top in zip((False, True), tops):
            assert _direct_work(GroupFamily(tag, top), euler) <= DIRECT_MAX_WORK < _direct_work(GroupFamily(tag, top + 1), euler)
            for d in (top + 1, top + 5, 60):
                with pytest.raises(ValueError, match=f"{tag} d={d}.* walks .* bits in shift-adds, over the cap"):
                    mahonian_direct(GroupFamily(tag, d), euler=euler)


def test_mahonian_recursive_examples():
    assert mahonian_recursive(GroupFamily("A", 2)) == 1 + Q * T
    m2pm = mahonian_recursive(GroupFamily("BC", 2))
    assert m2pm == 1 + (Q + Q**2 + Q**3) * (T + T**2) + Q**4 * T**3
    for tag in ("A", "BC", "D"):
        assert mahonian_recursive(GroupFamily(tag, 0)) == MultiPoly.one()
        assert mahonian_recursive(GroupFamily(tag, 0), euler=True) == MultiPoly.one()


@pytest.mark.parametrize("tag,dmax", [("A", 6), ("BC", 4), ("D", 4)])
def test_direct_equals_recursive(tag, dmax):
    for d in range(dmax + 1):
        fam = GroupFamily(tag, d)
        assert mahonian_direct(fam) == mahonian_recursive(fam)


@pytest.mark.parametrize("tag,dmax", [("A", 5), ("BC", 4)])
def test_direct_equals_recursive_euler(tag, dmax):
    for d in range(dmax + 1):
        fam = GroupFamily(tag, d)
        assert mahonian_direct(fam, euler=True) == mahonian_recursive(fam, euler=True)


def test_euler_small_values():
    assert mahonian_direct(GroupFamily("BC", 1), euler=True) == 1 + S * Q * T
    assert mahonian_direct(GroupFamily("A", 2), euler=True) == 1 + S * Q * T


def test_euler_specializes_to_plain():
    for tag in ("A", "BC", "D"):
        for d in range(5):
            fam = GroupFamily(tag, d)
            assert mahonian_direct(fam, euler=True).specialize(s=1) == mahonian_direct(fam)
            assert mahonian_recursive(fam, euler=True).specialize(s=1) == mahonian_recursive(fam)


@pytest.mark.parametrize("tag,order", [("A", 24), ("BC", 384), ("D", 192)])
def test_coefficient_sums_are_group_orders(tag, order):
    assert mahonian_direct(GroupFamily(tag, 4)).evaluate() == order


def test_isotropic_counts():
    assert symplectic_isotropic_count(2, 1) == 1 + Q + Q**2 + Q**3
    assert symplectic_isotropic_count(2, 1).evaluate(q=3) == 40
    assert symplectic_isotropic_count(1, 0) == MultiPoly.one()
    assert hyperbolic_isotropic_count(1, 1, 0) == MultiPoly.one()
    with pytest.raises(ValueError):
        symplectic_isotropic_count(2, 3)
    with pytest.raises(ValueError):
        hyperbolic_isotropic_count(2, 1, 2)


def test_even_isotropic_count_matches_parity_split():
    for d in range(1, 5):
        for k in range(d + 1):
            total = MultiPoly.zero()
            for l in range(0, k + 1, 2):
                total = total + hyperbolic_isotropic_count(d, k, l)
            assert even_isotropic_count(d, k) == total


def test_closed_forms():
    assert closed_form("a_length", 3) == 1 + 2 * Q + 2 * Q**2 + Q**3
    assert closed_form("d_wmaj", 2) == 1 + T + T**2 + T**3
    assert closed_form("a_wmaj", 1) == MultiPoly.one()
    assert closed_form("d_length", 1) == MultiPoly.one()
    with pytest.raises(ValueError):
        closed_form("nope", 2)


def test_closed_form_names_and_errors():
    """The names in table order, the unknown-name message, and d checked before the name."""
    names = ("a_length", "a_wmaj", "bc_length", "bc_wmaj", "d_length", "d_wmaj")
    assert statistics.CLOSED_FORM_NAMES == names
    with pytest.raises(ValueError) as unknown:
        closed_form("nope", 2)
    assert str(unknown.value) == f"unknown closed form 'nope'; known: {names}"
    with pytest.raises(ValueError) as negative:
        closed_form("nope", -1)
    assert str(negative.value) == "d must be >= 0"


@pytest.mark.parametrize("d", range(1, 6))
def test_closed_forms_match_direct(d):
    assert mahonian_direct(GroupFamily("A", d)).specialize(t=1) == closed_form("a_length", d)
    assert mahonian_direct(GroupFamily("A", d)).specialize(q=1) == closed_form("a_wmaj", d)
    assert mahonian_direct(GroupFamily("BC", d)).specialize(t=1) == closed_form("bc_length", d)
    assert mahonian_direct(GroupFamily("BC", d)).specialize(q=1) == closed_form("bc_wmaj", d)
    assert mahonian_direct(GroupFamily("D", d)).specialize(t=1) == closed_form("d_length", d)
    assert mahonian_direct(GroupFamily("D", d)).specialize(q=1) == closed_form("d_wmaj", d)


def test_qbinomial_theorem_sides():
    lhs, rhs = qbinomial_theorem_sides(1, 0)
    assert lhs == rhs == 1 + T
    lhs, rhs = qbinomial_theorem_sides(2, 0)
    assert lhs.specialize(t=1) == rhs.specialize(t=1) == 2 + 2 * Q
    for a in range(3):
        lhs, rhs = qbinomial_theorem_sides(0, a)
        e = a * (a - 1) // 2
        assert lhs == rhs == MultiPoly.monomial(1, eq=e)
    for d in range(6):
        for a in range(4):
            lhs, rhs = qbinomial_theorem_sides(d, a)
            assert lhs == rhs


def test_symmetry_and_low_degree():
    for d in range(6):
        m = mahonian_recursive(GroupFamily("A", d))
        assert m == m.specialize(q="t", t="q")
    for d in range(1, 5):
        ma = mahonian_recursive(GroupFamily("A", d))
        mbc = mahonian_recursive(GroupFamily("BC", d))
        for e, c in ma.terms.items():
            if e[0] + e[1] <= d:
                assert mbc.coefficient(*e) == c
        for e, c in mbc.terms.items():
            if e[0] + e[1] <= d:
                assert ma.coefficient(*e) == c


def test_bc_reciprocal_symmetry():
    from math import comb

    for d in range(1, 5):
        m = mahonian_direct(GroupFamily("BC", d))
        assert m.reciprocal_conjugate(d * d, comb(d + 1, 2)) == m


def _naive_bounds(counts, interior):
    """(q-degree, s-degree, L1 norm) bounds of
    sum_k x^[k>0] t^k counts[k] prod_{j=k+1}^{top} (1 - x t^j) M_k, x = s,
    expanded without cancellation, from the bounds ``interior[k]`` of M_k."""
    top = len(counts) - 1
    q = max(c.degree("q") + interior[k][0] for k, c in enumerate(counts))
    s = max((k > 0) + top - k + interior[k][1] for k in range(top + 1))
    l1 = sum(2 ** (top - k) * sum(map(abs, c.terms.values())) * interior[k][2] for k, c in enumerate(counts))
    return q, s, l1


@pytest.mark.parametrize("tag", ["A", "BC", "D"])
def test_recursion_layout_holds_the_result(tag):
    """The packed layout must hold the recursion's result expanded without
    cancellation: q-degree and s-degree inside the strides, and every
    |coefficient| below 2^(width-1).  Checked at every rank to 20, which
    covers each s-marked rank the work guard admits."""
    count = {"BC": symplectic_isotropic_count, "D": even_isotropic_count}.get(tag)
    interior = [(0, 0, 1)]
    for d in range(21):
        fam = GroupFamily(tag, d)
        plain = _layout(fam, False)
        if d:
            interior.append(_naive_bounds([q_binomial(d, k) for k in range(d)], interior))
        q, s, l1 = interior[d] if tag == "A" else _naive_bounds([count(d, k) for k in range(d + 1)], interior)
        assert q < plain.q_stride == plain.slots
        assert l1 < 2 ** (plain.width - 1)
        try:
            marked = _layout(fam, True)
        except ValueError:
            continue
        assert marked.q_stride == plain.q_stride and marked.width == plain.width
        assert s < marked.slots // marked.q_stride
    with pytest.raises(ValueError):
        _layout(GroupFamily(tag, 20), True)


def test_recursion_guard_rejects_before_any_arithmetic():
    for fam, euler in ((GroupFamily("A", 200), False), (GroupFamily("BC", 17), True), (GroupFamily("D", 10**6), True)):
        q_binomial.cache_clear()
        with pytest.raises(ValueError, match="packed bits"):
            mahonian_recursive(fam, euler=euler)
        assert q_binomial.cache_info().currsize == 0
    assert _layout(GroupFamily("BC", 16), True)  # admitted


def _unpack_every_slot(rows, lay):
    """The reference for _unpack: convert every slot of every row."""
    size = lay.width // 8
    half = 1 << (lay.width - 1)
    zero = half.to_bytes(size, "little")
    offset = int.from_bytes(zero * lay.slots, "little")
    terms = {}
    for et, row in enumerate(rows):
        if not row:
            continue
        buf = (row + offset).to_bytes(size * lay.slots, "little")
        for j in range(0, len(buf), size):
            digit = buf[j:j + size]
            if digit != zero:
                es, eq = divmod(j // size, lay.q_stride)
                terms[(eq, et, es)] = int.from_bytes(digit, "little") - half
    return MultiPoly(terms)


def _row(digits, width):
    return sum(c << (width * i) for i, c in enumerate(digits))


@pytest.mark.parametrize("width", [8, 16])
def test_unpack_matches_every_slot_on_hand_built_rows(width):
    lay = _Layout(q_stride=4, slots=12, width=width, x_shift=0)
    half, top = 1 << (width - 1), lay.slots - 1
    cases = [
        [0, -3, 5],  # lowest nonzero digit negative
        [0, 2, 0, -7],  # highest nonzero digit negative
        [1] + [0] * (top - 1) + [-1],  # digits at slot 0 and slot slots - 1
        [-1] + [0] * (top - 1) + [1],
        [half - 1] + [0] * (top - 1) + [half - 1],  # the largest digits, at both ends
        [-half] * lay.slots,  # the most negative digit, everywhere
        [half - 1] * lay.slots,
        [0] * top + [-half + 1],
        [0] * 5 + [1, -(half - 1)],  # the span's top digit cancels most of the next
        [0, -half, -half, 1],  # a top digit 1 over most-negative digits: the row is below 2^(w h - 1)
        [],  # an all-zero row
    ]
    rng = random.Random(width)
    for _ in range(200):
        lo = rng.randrange(lay.slots)
        hi = rng.randrange(lo, lay.slots)
        cases.append([0] * lo + [rng.randrange(-half, half) for _ in range(hi - lo + 1)])
    rows = [_row(digits, width) for digits in cases]
    poly = _unpack(rows, lay)
    assert poly == _unpack_every_slot(rows, lay)
    assert list(poly.terms) == sorted(poly.terms)
    assert _unpack([0, 0], lay) == MultiPoly()


@pytest.mark.parametrize("width", [8, 16])
def test_unpack_rejects_rows_wider_than_the_layout(width):
    lay = _Layout(q_stride=4, slots=12, width=width, x_shift=0)
    half = 1 << (width - 1)
    for digits in ([1] * (lay.slots + 1), [0] * lay.slots + [-1], [0] * (lay.slots + 3) + [5],
                   [0] * (lay.slots - 1) + [half]):  # a top digit of 2^(w-1) carries into slot `slots`
        row = _row(digits, width)
        for unpack in (_unpack_every_slot, _unpack):
            with pytest.raises(OverflowError):
                unpack([row], lay)


@pytest.mark.parametrize("tag", ["A", "BC", "D"])
@pytest.mark.parametrize("euler", [False, True])
def test_unpack_matches_every_slot_on_recursion_rows(monkeypatch, tag, euler):
    """The rows the recursion and the direct sum unpack at every rank up to 8
    (the direct guard admits all of them)."""
    seen = []

    def spy(rows, lay):
        seen.append((rows, lay))
        return _unpack(rows, lay)

    monkeypatch.setattr(statistics, "_unpack", spy)
    for d in range(9):
        fam = GroupFamily(tag, d)
        routes = [mahonian_recursive]
        if _direct_work(fam, euler) <= DIRECT_MAX_WORK:
            routes.append(mahonian_direct)
        for route in routes:
            poly = route(fam, euler=euler)
            rows, lay = seen.pop()
            assert poly == _unpack_every_slot(rows, lay), (route.__name__, d)
            assert list(poly.terms) == sorted(poly.terms)


def _flag_rows_unstripped(counts, interior, lay):
    """The reference for _flag_rows: each product (c << shift) * row taken
    on the shifted count and the whole row."""
    top = len(counts) - 1
    acc = [0] * (top * (top + 1) // 2 + 1)
    for k, count in enumerate(counts):
        if k:
            for i in range(k * (k + 1) // 2, k - 1, -1):
                acc[i] -= acc[i - k] << lay.x_shift
        c = _pack_q(count, lay.width) << (lay.x_shift if k else 0)
        for i, row in enumerate(interior[k], start=k):
            acc[i] += c * row
    return acc


@pytest.mark.parametrize("x_shift", [0, 32])
def test_flag_rows_match_unstripped_products_on_hand_built_rows(x_shift):
    lay = _Layout(q_stride=4, slots=8, width=8, x_shift=x_shift)
    special = [
        0,  # a zero row
        1, -1, 1 << 40, -(1 << 40),  # single-bit rows, either sign
        -3 << 17, 5 << 64, -(1 << 70) + (1 << 9),  # trailing zeros under a negative or wide row
        (1 << 100) - 1,  # no trailing zero
    ]
    rng = random.Random(x_shift)
    counts = [1 + Q, 2 * Q**2 - Q**3, 3 + Q**4, -Q]  # top 3: M_k may have k(k-1)/2 + 1 rows
    for _ in range(40):
        interior = [[rng.choice(special) if rng.random() < 0.5 else rng.randrange(-(1 << 90), 1 << 90) << rng.randrange(60)
                     for _ in range(k * (k - 1) // 2 + 1)] for k in range(len(counts))]
        assert _flag_rows(counts, interior, lay) == _flag_rows_unstripped(counts, interior, lay)


@pytest.mark.parametrize("tag", ["A", "BC", "D"])
@pytest.mark.parametrize("euler", [False, True])
def test_flag_rows_match_unstripped_products_on_recursion_rows(tag, euler):
    """Every _flag_rows call of the recursion at ranks up to 8, each interior
    built by the reference."""
    count = {"BC": symplectic_isotropic_count, "D": even_isotropic_count}.get(tag)
    for d in range(9):
        lay = _layout(GroupFamily(tag, d), euler)
        interior = [[1]]
        for m in range(1, d + 1):
            counts = [q_binomial(m, k) for k in range(m)]
            rows = _flag_rows(counts, interior, lay)
            assert rows == _flag_rows_unstripped(counts, interior, lay)
            interior.append(rows)
        if count:
            counts = [count(d, k) for k in range(d + 1)]
            assert _flag_rows(counts, interior, lay) == _flag_rows_unstripped(counts, interior, lay)


@pytest.mark.parametrize("tag, ranks", [("A", (15, 16)), ("BC", (13, 14)), ("D", (13, 14))])
def test_recursion_at_larger_rank(tag, ranks):
    names = {"A": ("a_length", "a_wmaj"), "BC": ("bc_length", "bc_wmaj"), "D": ("d_length", "d_wmaj")}[tag]
    for d in ranks:
        fam = GroupFamily(tag, d)
        plain = mahonian_recursive(fam)
        marked = mahonian_recursive(fam, euler=True)
        assert plain.evaluate() == marked.evaluate() == fam.order()
        assert marked.specialize(s=1) == plain
        assert plain.specialize(t=1) == closed_form(names[0], d)
        assert plain.specialize(q=1) == closed_form(names[1], d)
        if tag == "A":
            assert plain.specialize(q="t", t="q") == plain
