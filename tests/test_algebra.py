import json
import pathlib
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from weylmahonian.algebra import (
    ExactDivisionError,
    MultiPoly,
    ONE,
    ZERO,
    TruncSeries,
    poly_from_json,
    poly_json,
    poly_latex_table,
    poly_text,
    poly_to_json,
)

Q = MultiPoly.var("q")
T = MultiPoly.var("t")
S = MultiPoly.var("s")


def random_poly(rng, terms=4, deg=3, coeff=5):
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        e = (rng.randrange(deg), rng.randrange(deg), rng.randrange(deg))
        out[e] = rng.randint(-coeff, coeff)
    return MultiPoly(out)


def test_basic_arithmetic():
    assert (1 + Q * T) + Q * T == 1 + 2 * (Q * T)
    assert (1 + Q) * (1 - Q) == 1 - Q**2
    assert random_poly(random.Random(1)) * MultiPoly.zero() == MultiPoly.zero()
    assert poly_text(1 + Q * T) == "1 + q*t"
    assert poly_text(MultiPoly.zero()) == "0"
    assert poly_text(1 - Q**2) == "1 - q^2"


def test_poly_text_signs_and_factors():
    cases = [
        (MultiPoly.const(-1), "-1"),
        (MultiPoly.const(7), "7"),
        (-Q, "-q"),
        (-2 * Q**2 * T * S**3 + 1, "1 - 2*q^2*t*s^3"),
        (-Q + T**12 - 3 * S, "-3*s + t^12 - q"),
        (Q**10 * T**11 * S**12 - Q**10 * T**11 - 10**30 * Q**10, "-1000000000000000000000000000000*q^10 - q^10*t^11 + q^10*t^11*s^12"),
        (1 - Q, "1 - q"),
    ]
    for poly, text in cases:
        assert poly_text(poly) == text


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(150):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _ring_ops(rng):
    """Thunks for sums, differences, negations, products, int multiples (0
    included) and over quotients of random operands, many of which cancel;
    the operands are built before each thunk is yielded."""
    for _ in range(150):
        a, b = random_poly(rng), random_poly(rng)
        c, n = b - a if rng.random() < 0.5 else b, rng.randint(-3, 3)
        bound, j, with_s = rng.randrange(6), rng.randint(1, 3), rng.random() < 0.5
        series = TruncSeries.from_poly(a * (1 - (S if with_s else ONE) * T**j), bound)  # over(j) is a, truncated
        trunc = TruncSeries.from_poly(a, bound)
        yield from (
            lambda: a + c, lambda: a - c, lambda: c - a, lambda: -a, lambda: a * c,
            lambda: (a + c) * (a - c) - (a * a - c * c), lambda: n * a, lambda: a * 0,
            lambda: series.over(j, with_s=with_s).poly, lambda: (series.over(j, with_s=with_s) - trunc).poly,
        )


def test_no_zero_terms_stored():
    p = (1 + Q) - Q
    assert p.terms == {(0, 0, 0): 1}
    assert not (Q - Q)
    for op in _ring_ops(random.Random(29)):
        r = op()
        assert all(r.terms.values())
        assert r == MultiPoly(dict(r.terms))


def test_ring_results_skip_the_input_check(monkeypatch):
    """A computed polynomial or series is built from checked operands and
    never runs MultiPoly.__init__ again."""
    init, calls = MultiPoly.__init__, []
    monkeypatch.setattr(MultiPoly, "__init__", lambda self, terms=None: calls.append(terms) or init(self, terms))
    for op in _ring_ops(random.Random(30)):
        calls.clear()
        op()
        assert not calls


@pytest.mark.parametrize("build", [
    lambda: MultiPoly({(-1, 0, 0): 1}),
    lambda: MultiPoly({(0, 0, -2): 3}),
    lambda: poly_from_json({"vars": ["q", "t", "s"], "terms": [{"e": [0, -1, 0], "c": "5"}]}),
])
def test_outside_terms_with_a_negative_exponent_are_refused(build):
    with pytest.raises(ValueError, match="negative exponent"):
        build()


def test_specialize():
    m1pm = 1 + Q * T
    assert m1pm.specialize(q=1) == 1 + T
    assert (1 + Q**2 * T).specialize(q="t", t="q") == 1 + T**2 * Q
    rng = random.Random(7)
    for _ in range(30):
        p = random_poly(rng)
        assert p.specialize(q=1, t=1, s=1) == MultiPoly.const(sum(p.terms.values()))
    assert (Q * S).specialize(s="q") == Q**2
    for cancelled in ((Q - T).specialize(q="t"), (Q * S - Q).specialize(s=1), (S - 1).specialize(s=1)):
        assert cancelled == MultiPoly.zero() and not cancelled.terms


@pytest.mark.parametrize("value", [0.5, 2.0, Fraction(1, 2), None, (1,)])
def test_specialize_refuses_a_non_integer_value(value):
    """Coefficients stay integers: a value that is neither an int nor a
    variable name is refused before any term is built."""
    with pytest.raises(ValueError, match="must be set to an int or a variable name"):
        ((1 + Q) * (1 + T)).specialize(q=value)


def test_evaluate():
    p = 1 + 2 * Q * T + S**3
    assert p.evaluate(q=2, t=3, s=1) == 1 + 12 + 1


def test_reciprocal_conjugate():
    assert (1 + Q * T).reciprocal_conjugate(1, 1) == 1 + Q * T
    assert MultiPoly.one().reciprocal_conjugate(2, 3) == Q**2 * T**3
    with pytest.raises(ValueError):
        (Q**2).reciprocal_conjugate(1, 0)
    rng = random.Random(3)
    for _ in range(50):
        p = random_poly(rng)
        dq, dt = p.degree("q") + rng.randrange(3), p.degree("t") + rng.randrange(3)
        assert p.reciprocal_conjugate(dq, dt).reciprocal_conjugate(dq, dt) == p


def test_exact_div():
    assert (1 - Q**6).exact_div(1 - Q**2) == 1 + Q**2 + Q**4
    assert (2 * Q + 2 * T).exact_div(2) == Q + T
    with pytest.raises(ExactDivisionError):
        (1 + Q).exact_div(1 - Q)
    with pytest.raises(ExactDivisionError):
        (3 * Q).exact_div(2)
    rng = random.Random(11)
    for _ in range(50):
        a, b = random_poly(rng), random_poly(rng)
        if b:
            assert (a * b).exact_div(b) == a


def test_json_round_trip():
    p = 1 - 2 * Q**2 * T + 10**30 * S
    obj = poly_to_json(p)
    assert obj["vars"] == ["q", "t", "s"]
    exps = [tuple(t["e"]) for t in obj["terms"]]
    assert exps == sorted(exps)
    assert poly_from_json(json.loads(json.dumps(obj))) == p


def _assert_json_writer(p):
    text = poly_json(p)
    assert text == json.dumps(poly_to_json(p))
    assert poly_from_json(json.loads(text)) == p


def test_json_writer_equals_json_dumps():
    for p in (ZERO, ONE, -ONE, 1 - 2 * Q**2 * T - 7 * S**3, 2**64 * Q + (2**64 + 1) * T - 10**30 * S + 3**90):
        _assert_json_writer(p)
    rng = random.Random(5)
    for _ in range(50):
        _assert_json_writer(random_poly(rng, terms=8, coeff=2**70))


def test_json_writer_on_pinned_recursion_ranks():
    """Every rank whose `mahonian --method recur --format json` output is pinned."""
    from weylmahonian.statistics import mahonian_recursive
    from weylmahonian.weylgroups import GroupFamily

    pinned = json.loads(pathlib.Path(__file__).with_name("recursion_digests.json").read_text())
    for key, digests in pinned.items():
        family, marker = key.split()
        for d in range(len(digests)):
            _assert_json_writer(mahonian_recursive(GroupFamily(family, d), euler=marker == "euler"))


def test_latex_table_layout():
    table = poly_latex_table(1 + Q * T + Q * T**2 + Q**2 * T**3)
    lines = table.splitlines()
    assert lines[1] == r"&1&q&q^{2}\\"
    assert lines[3] == r"1&1&&\\"
    assert lines[4] == r"t&&1&\\"
    assert lines[6] == r"t^{3}&&&1\\"


def test_series_geometric_factor():
    assert TruncSeries.geometric_factor(1, False, 3).coeffs == [MultiPoly.one()] * 4
    g = TruncSeries.geometric_factor(2, True, 5)
    assert g == TruncSeries.from_poly(1 + S * T**2 + S**2 * T**4, 5)
    with pytest.raises(ValueError):
        TruncSeries.geometric_factor(0, False, 3)


def test_series_coefficient_reads_one_degree(monkeypatch):
    series = TruncSeries.from_poly(1 + Q * S * T + 3 * Q**2 * T**3, 4)
    want = series.coeffs
    monkeypatch.setattr(TruncSeries, "coeffs", property(lambda self: pytest.fail("coeffs rebuilt")))
    assert [series.coefficient(n) for n in range(5)] == want
    assert series.coefficient(3) == 3 * Q**2
    for n in (-1, 5):
        with pytest.raises(ValueError, match=f"t-degree {n} is outside 0..4"):
            series.coefficient(n)


def partitions_oracle(n, max_part):
    """Count partitions of n with all parts <= max_part, by direct recursion."""
    if n == 0:
        return 1
    total = 0
    for largest in range(1, min(n, max_part) + 1):
        total += partitions_oracle(n - largest, largest)
    return total


def test_series_partition_counts():
    bound = 4
    prod = TruncSeries.one(bound)
    for j in (1, 2):
        prod = prod * TruncSeries.geometric_factor(j, False, bound)
    expected = [partitions_oracle(n, 2) for n in range(bound + 1)]
    assert [c.evaluate() for c in prod.coeffs] == expected == [1, 1, 2, 2, 3]


def test_series_over_matches_explicit_geometric_series():
    """over(j) is the product with sum_m x^m t^(mj), written out here, on
    random series in q, t and s; factors compose, and over() is the identity."""
    rng = random.Random(29)
    for bound in range(8):
        for _ in range(6):
            series = TruncSeries.from_poly(random_poly(rng), bound)
            for with_s in (False, True):
                for j in (1, 2, 3, bound + 1, bound + 5):
                    geometric = MultiPoly({(0, m * j, m if with_s else 0): 1 for m in range(bound // j + 1)})
                    want = series * TruncSeries.from_poly(geometric, bound)
                    assert series.over(j, with_s=with_s) == want
                assert series.over(1, 2, with_s=with_s) == series.over(1, with_s=with_s).over(2, with_s=with_s)
            assert series.over() == series
            with pytest.raises(ValueError, match="j >= 1"):
                series.over(0)


def test_series_bound_mismatch():
    with pytest.raises(ValueError):
        TruncSeries.one(3) * TruncSeries.one(4)


def test_series_mul_commutes_with_poly_mul():
    rng = random.Random(5)
    bound = 6
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        lhs = TruncSeries.from_poly(a, bound) * TruncSeries.from_poly(b, bound)
        assert lhs == TruncSeries.from_poly(a * b, bound)


def test_series_cannot_be_changed_through_coeffs():
    s = TruncSeries.one(3)
    s.coeffs[0] = MultiPoly.const(5)
    assert s == TruncSeries.one(3)
    assert str(s) == "1 + O(t^4)"


def test_polynomial_terms_are_read_only():
    from weylmahonian import algebra
    from weylmahonian.statistics import mahonian_direct, mahonian_recursive, q_binomial
    from weylmahonian.weylgroups import GroupFamily

    built = [f(GroupFamily(tag, 3), euler=True) for f in (mahonian_recursive, mahonian_direct) for tag in ("A", "BC")]
    for poly in (algebra.ONE, q_binomial(4, 2), *built):
        with pytest.raises(TypeError):
            poly.terms[(0, 0, 0)] = 7
        with pytest.raises(AttributeError):
            poly.terms = {}
    with pytest.raises(TypeError):
        TruncSeries.one(3).coeffs[1].terms[(0, 0, 0)] = 7
    # no field can be rebound or deleted either
    with pytest.raises(AttributeError):
        algebra.ONE.terms = MappingProxyType({(0, 0, 0): 2})
    with pytest.raises(AttributeError):
        del algebra.ONE.terms
    series = TruncSeries.one(3)
    for name, value in (("bound", 1), ("poly", algebra.ZERO)):
        with pytest.raises(AttributeError):
            setattr(series, name, value)
    assert series.bound == 3 and series == TruncSeries.one(3)
    assert algebra.ONE == MultiPoly.one() and not algebra.ZERO.terms
    assert q_binomial(4, 2).evaluate() == 6
    assert [p.evaluate() for p in built] == [6, 48, 6, 48]


def test_series_coefficients_stay_t_free():
    s = TruncSeries.from_poly(Q * T**2 + S, 5)
    assert all(c.degree("t") == 0 for c in s.coeffs)
    with pytest.raises(ValueError):
        TruncSeries(3, [T])
