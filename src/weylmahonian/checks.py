"""Named identity checks: every verifiable statement gets a stable name.

Each check computes its two sides independently and returns a CheckReport
with the exact values and the first discrepancy on failure.  A check is
declared once: the ``@_check`` decorator above its definition gives its
default parameter grid and registers it under its function name.  The
registry maps check names to (function, default parameter grid), and it is
the one place where grids are defined: the CLI ``verify`` command and the
acceptance suite both run the grids from here.  A grid grows only by points
appended after its existing ones.

The single non-gating check is d_euler_direct_vs_recursive: whether the
descent statistic used for the s-marking makes the direct type-D sum match
the type-D recursion is deliberately reported rather than assumed.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass
from functools import wraps
from itertools import product
from math import comb
from typing import Callable, Iterable, Iterator

from .algebra import MultiPoly, TruncSeries
from . import flaggeom, statistics
from .rothe import rothe_diagram
from .weylgroups import (
    GroupFamily,
    central_element,
    compose,
    coxeter_word_length,
    descent_count,
    enumerate_group,
    greedy_reduced_word,
    inversions,
    length,
    negative_count,
    wmaj,
    word_to_perm,
)


@dataclass
class CheckReport:
    name: str
    params: dict
    passed: bool
    lhs: str
    rhs: str
    discrepancy: str | None = None
    gating: bool = True

    def to_json(self) -> dict:
        return asdict(self)

    def label(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def _poly_discrepancy(a: MultiPoly, b: MultiPoly) -> str | None:
    diff = a - b
    if not diff:
        return None
    e = min(diff.terms)
    return f"first differing term q^{e[0]} t^{e[1]} s^{e[2]}: {a.coefficient(*e)} vs {b.coefficient(*e)}"


def _series_discrepancy(a: TruncSeries, b: TruncSeries) -> str | None:
    for n, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs)):
        if ca != cb:
            inner = _poly_discrepancy(ca, cb)
            return f"coefficient of t^{n}: {inner}"
    return None


# A check's verdict: (passed, lhs, rhs, discrepancy or None).
Verdict = tuple[bool, str, str, str | None]


def _verdict(lhs: MultiPoly | TruncSeries, rhs: MultiPoly | TruncSeries) -> Verdict:
    """Exact comparison of two polynomials or two truncated series."""
    discrepancy = _series_discrepancy if isinstance(lhs, TruncSeries) else _poly_discrepancy
    disc = discrepancy(lhs, rhs)
    return disc is None, str(lhs), str(rhs), disc


def _scan(cases: Iterable, test: Callable, extra: str | None = None) -> Verdict:
    """Run test on every case; test returns a failure message or None.  extra
    is a failure found outside the cases, reported after theirs."""
    results = [test(case) for case in cases]
    failures = [r for r in results if r] + ([extra] if extra else [])
    total = len(results)
    return (
        not failures,
        f"{total - len(failures)} of {total} cases agree",
        f"{total} cases expected",
        failures[0] if failures else None,
    )


# -- registry ---------------------------------------------------------------------


def _points(*points: dict, **axes) -> Callable[..., list[dict]]:
    """The grid builder of a check: the given parameter points, or the
    product of the axes in keyword order.  max_d drops points with a larger
    d, primes drops points whose p is not listed, trunc replaces trunc."""
    if axes:
        points = tuple(dict(zip(axes, values)) for values in product(*axes.values()))

    def build(max_d: int | None, primes: list[int] | None, trunc: int | None) -> list[dict]:
        out = []
        for params in points:
            if max_d is not None and params.get("d", 0) > max_d:
                continue
            if primes is not None and "p" in params and params["p"] not in primes:
                continue
            out.append(dict(params, trunc=trunc) if trunc is not None and "trunc" in params else dict(params))
        return out

    return build


REGISTRY: dict[str, tuple[Callable[..., CheckReport], Callable[..., list[dict]]]] = {}


def _check(grid: Callable[..., list[dict]], gating: bool = True) -> Callable:
    """Register the decorated check in REGISTRY under its name, with its
    default grid.  The check returns a Verdict; the call's arguments, in
    signature order and with defaults filled in, become the report's params."""

    def register(fn: Callable[..., Verdict]) -> Callable[..., CheckReport]:
        signature = inspect.signature(fn)

        @wraps(fn)
        def check(*args, **kwargs) -> CheckReport:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            return CheckReport(fn.__name__, call.arguments, *fn(*call.args, **call.kwargs), gating)

        REGISTRY[fn.__name__] = (check, grid)
        return check

    return register


def _entry(name: str) -> tuple[Callable[..., CheckReport], Callable[..., list[dict]]]:
    if name not in REGISTRY:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(REGISTRY)}")
    return REGISTRY[name]


def run_identity_check(name: str, params: dict) -> CheckReport:
    """Run one named check with explicit parameters."""
    return _entry(name)[0](**params)


def default_grid(name: str, max_d=None, primes=None, trunc=None) -> list[dict]:
    return _entry(name)[1](max_d, primes, trunc)


def run_all(
    names: Iterable[str] | None = None, max_d=None, primes=None, trunc=None
) -> Iterator[CheckReport]:
    """Stream the reports of the named checks (all by default; a repeated
    name runs once, where first given) over their default grids, each
    computed only when it is asked for.  A check that raises at a point
    yields a failed gating report naming the exception."""
    for name in REGISTRY if names is None else dict.fromkeys(names):
        for params in default_grid(name, max_d, primes, trunc):
            try:
                report = run_identity_check(name, params)
            except Exception as exc:
                report = CheckReport(name, params, False, "", "", f"raised {type(exc).__name__}: {exc}")
            yield report


# -- polynomial identities ----------------------------------------------------


@_check(_points(
    *[{"family": "A", "d": d, "euler": e} for d in range(8) for e in (False, True)],
    *[{"family": "BC", "d": d, "euler": e} for d in range(6) for e in (False, True)],
    *[{"family": "D", "d": d, "euler": False} for d in range(6)],
    *[{"family": "A", "d": d, "euler": e} for d in (8, 9, 10) for e in (False, True)],
    *[{"family": "BC", "d": d, "euler": e} for d in (6, 7) for e in (False, True)],
    *[{"family": "D", "d": d, "euler": False} for d in (6, 7)],
))
def direct_vs_recursive(family: str, d: int, euler: bool = False) -> Verdict:
    fam = GroupFamily(family, d)
    lhs = statistics.mahonian_direct(fam, euler=euler)
    rhs = statistics.mahonian_recursive(fam, euler=euler)
    return _verdict(lhs, rhs)


@_check(_points(d=list(range(8))), gating=False)
def d_euler_direct_vs_recursive(d: int) -> Verdict:
    return direct_vs_recursive.__wrapped__("D", d, euler=True)


@_check(_points(d=list(range(8))))
def symmetry_qt_a(d: int) -> Verdict:
    m = statistics.mahonian_recursive(GroupFamily("A", d))
    return _verdict(m, m.specialize(q="t", t="q"))


@_check(_points(d=[1, 2, 3, 4, 5]))
def low_degree_agreement(d: int) -> Verdict:
    ma = statistics.mahonian_recursive(GroupFamily("A", d))
    mbc = statistics.mahonian_recursive(GroupFamily("BC", d))
    cut = lambda p: MultiPoly({e: c for e, c in p.terms.items() if e[0] + e[1] <= d})
    return _verdict(cut(ma), cut(mbc))


def _closed_form_check(name: str, family: str, var: str, form: str, max_d: int) -> Callable[[int], CheckReport]:
    """The check that the direct polynomial of the family at var = 1 equals
    the named closed form, over d = 1..max_d."""

    def check(d: int) -> Verdict:
        lhs = statistics.mahonian_direct(GroupFamily(family, d)).specialize(**{var: 1})
        return _verdict(lhs, statistics.closed_form(form, d))

    check.__name__ = check.__qualname__ = name
    return _check(_points(d=list(range(1, max_d + 1))))(check)


a_major_equidistribution = _closed_form_check("a_major_equidistribution", "A", "q", "a_wmaj", 7)
a_length_factorization = _closed_form_check("a_length_factorization", "A", "t", "a_length", 7)
bc_length_factorization = _closed_form_check("bc_length_factorization", "BC", "t", "bc_length", 5)
bc_major_factorization = _closed_form_check("bc_major_factorization", "BC", "q", "bc_wmaj", 5)
d_length_factorization = _closed_form_check("d_length_factorization", "D", "t", "d_length", 5)
d_wmaj_factorization = _closed_form_check("d_wmaj_factorization", "D", "q", "d_wmaj", 6)


@_check(_points(d=[1, 2, 3, 4, 5]))
def bc_reciprocal_symmetry(d: int) -> Verdict:
    m = statistics.mahonian_direct(GroupFamily("BC", d))
    conj = m.reciprocal_conjugate(d * d, comb(d + 1, 2))
    return _verdict(conj, m)


@_check(_points(d=[1, 2, 3, 4, 5]))
def bc_restriction_to_unsigned(d: int) -> Verdict:
    fam = GroupFamily("BC", d)
    terms: dict[tuple[int, int, int], int] = {}
    for perm in enumerate_group(fam):
        if all(x > 0 for x in perm):
            key = (length(perm, fam), wmaj(perm), 0)
            terms[key] = terms.get(key, 0) + 1
    lhs = MultiPoly(terms)
    rhs = statistics.mahonian_direct(GroupFamily("A", d))
    return _verdict(lhs, rhs)


@_check(_points(d=list(range(9)), a=[0, 1, 2, 3, 4]))
def qbinomial_theorem(d: int, a: int) -> Verdict:
    lhs, rhs = statistics.qbinomial_theorem_sides(d, a)
    return _verdict(lhs, rhs)


@_check(_points(d=list(range(9))))
def qbinomial_recursion_vs_product(d: int) -> Verdict:
    def test(k):
        if statistics.q_binomial(d, k) != statistics.q_binomial_product(d, k):
            return f"k={k}"

    return _scan(range(d + 1), test)


@_check(_points(d=list(range(9))))
def qbinomial_special_case(d: int) -> Verdict:
    """sum_j C(d,j)_q q^C(j,2) = prod_{j<d} (1+q^j): the a=0, t=1 case of the
    q-binomial theorem."""
    lhs, rhs = statistics.qbinomial_theorem_sides(d, 0)
    return _verdict(lhs.specialize(t=1), rhs.specialize(t=1))


@_check(_points(family=["A", "BC", "D"], d=[0, 1, 2, 3, 4, 5]))
def euler_specialize_s1(family: str, d: int) -> Verdict:
    fam = GroupFamily(family, d)
    lhs = statistics.mahonian_recursive(fam, euler=True).specialize(s=1)
    rhs = statistics.mahonian_recursive(fam)
    return _verdict(lhs, rhs)


# -- group scans ----------------------------------------------------------------


@_check(_points(d=[1, 2, 3, 4, 5]))
def central_element_identities(d: int) -> Verdict:
    fam = GroupFamily("BC", d)
    c = central_element(d)

    def test(perm):
        other = compose(c, perm)
        if length(perm, fam) + length(other, fam) != d * d:
            return f"length identity fails at {perm}"
        if wmaj(perm) + wmaj(other) != comb(d + 1, 2):
            return f"wmaj identity fails at {perm}"

    return _scan(enumerate_group(fam), test)


@_check(_points(d=[1, 2, 3, 4, 5]))
def bc_vs_d_length_difference(d: int) -> Verdict:
    fam_d = GroupFamily("D", d)
    fam_bc = GroupFamily("BC", d)

    def test(perm):
        if length(perm, fam_bc) - length(perm, fam_d) != negative_count(perm):
            return f"difference wrong at {perm}"

    return _scan(enumerate_group(fam_d), test)


@_check(_points(family=["A", "BC", "D"], d=[1, 2, 3, 4]))
def generator_length_step(family: str, d: int) -> Verdict:
    fam = GroupFamily(family, d)
    gens = fam.generators()

    def test(case):
        perm, g = case
        if abs(length(compose(perm, g), fam) - length(perm, fam)) != 1:
            return f"step not +-1 at {perm}"

    cases = ((perm, g) for perm in enumerate_group(fam) for g in gens)
    return _scan(cases, test)


@_check(_points(
    *[{"family": "A", "d": d} for d in range(1, 7)],
    *[{"family": "BC", "d": d} for d in range(1, 6)],
    *[{"family": "D", "d": d} for d in range(1, 6)],
    {"family": "BC", "d": 6},
    {"family": "D", "d": 6},
))
def length_vs_bfs(family: str, d: int) -> Verdict:
    fam = GroupFamily(family, d)

    def test(perm):
        if length(perm, fam) != coxeter_word_length(perm, fam):
            return f"closed form != BFS at {perm}"

    return _scan(enumerate_group(fam), test)


@_check(_points(family=["A", "BC", "D"], d=[1, 2, 3, 4]))
def greedy_word_valid(family: str, d: int) -> Verdict:
    fam = GroupFamily(family, d)

    def test(perm):
        word = greedy_reduced_word(perm, fam)
        if len(word) != length(perm, fam) or word_to_perm(word, fam) != perm:
            return f"bad word at {perm}"

    return _scan(enumerate_group(fam), test)


@_check(_points(family=["A", "BC", "D"], d=[1, 2, 3, 4, 5]))
def standard_weight_identity(family: str, d: int) -> Verdict:
    fam = GroupFamily(family, d)

    def test(perm):
        _, weight = flaggeom.standard_flag(perm, fam)
        if weight != wmaj(perm):
            return f"standard weight != wmaj at {perm}"

    return _scan(enumerate_group(fam), test)


@_check(_points(family=["A", "BC"], d=[1, 2, 3, 4]))
def descent_statistic_matches_coxeter(family: str, d: int) -> Verdict:
    """For types A and BC the descent statistic counts generators that shorten
    the element (not asserted for type D, where it differs)."""
    fam = GroupFamily(family, d)
    gens = fam.generators()

    def test(perm):
        l0 = length(perm, fam)
        cox = sum(1 for g in gens if length(compose(perm, g), fam) < l0)
        if cox != descent_count(perm):
            return f"descent count mismatch at {perm}: {descent_count(perm)} vs {cox}"

    return _scan(enumerate_group(fam), test)


# -- geometric oracle ------------------------------------------------------------


@_check(_points(
    *[
        {"kind": "A", "p": p, "d": d, "trunc": 12, "alpha": a}
        for p in (2, 3)
        for d in (1, 2, 3)
        for a in (False, True)
    ],
    *[
        {"kind": k, "p": p, "d": d, "trunc": 12, "alpha": a}
        for k in ("C", "B", "D")
        for p in (3, 5)
        for d in (1, 2)
        for a in (False, True)
    ],
    *[{"kind": "A", "p": 5, "d": d, "trunc": 12, "alpha": a} for d in (1, 2, 3) for a in (False, True)],
    *[{"kind": k, "p": 3, "d": 3, "trunc": 12, "alpha": a} for k in ("C", "B", "D") for a in (False, True)],
    *[{"kind": "A", "p": p, "d": 5, "trunc": 12, "alpha": a} for p in (2, 3) for a in (False, True)],
    *[{"kind": k, "p": 5, "d": 3, "trunc": 12, "alpha": a} for k in ("C", "B") for a in (False, True)],
))
def flag_series_theorem(kind: str, p: int, d: int, trunc: int, alpha: bool = False) -> Verdict:
    """Flag-series oracle against the group-statistics side.

    Types A, C, D compare the enumerated series with mahonian * product of
    geometric factors at q=p; type B compares with the type-C series.
    """
    space = flaggeom.space_for_family(kind, p, d)
    lhs = flaggeom.flag_series(space, trunc, with_alpha=alpha)
    if kind == "B":
        rhs = flaggeom.flag_series(flaggeom.symplectic_space(p, d), trunc, with_alpha=alpha)
    else:
        m = statistics.mahonian_recursive(space.family, euler=alpha).specialize(q=p)
        rhs = TruncSeries.from_poly(m, trunc)
        for j in range(1, d + 1):
            rhs = rhs * TruncSeries.geometric_factor(j, alpha, trunc)
    return _verdict(lhs, rhs)


def _subspace_count_scan(space: flaggeom.FqSpace, count: Callable) -> Verdict:
    """Enumerated k-subspaces of the space (its census) against count(d, k)
    at q=p, k = 0..d."""
    census = flaggeom.subspace_census(space)

    def test(k):
        got = census.get((k, 0), 0)
        want = count(space.d, k).evaluate(q=space.p)
        return f"k={k}: {got} vs {want}" if got != want else None

    return _scan(range(space.d + 1), test)


@_check(_points(
    *[{"p": p, "d": d} for p in (2, 3) for d in (1, 2, 3, 4)],
    *[{"p": 3, "d": d} for d in (5, 6)],
    *[{"p": 5, "d": d} for d in range(1, 7)],
))
def subspace_count_grassmann(p: int, d: int) -> Verdict:
    return _subspace_count_scan(flaggeom.linear_space(p, d), statistics.q_binomial)


@_check(_points(
    *[{"kind": "C", "p": p, "d": d} for p in (3, 5) for d in (1, 2)],
    *[{"kind": "B", "p": p, "d": d} for p in (3, 5) for d in (1, 2)],
    *[{"kind": "C", "p": p, "d": 3} for p in (3, 5)],
    {"kind": "B", "p": 3, "d": 3},
))
def subspace_count_isotropic(kind: str, p: int, d: int) -> Verdict:
    """Isotropic counts in symplectic (kind C) and odd quadratic (kind B)
    spaces against the shared closed formula."""
    space = flaggeom.space_for_family(kind, p, d)
    return _subspace_count_scan(space, statistics.symplectic_isotropic_count)


@_check(_points(
    *[{"p": p, "d": d} for p in (3, 5) for d in (1, 2)],
    *[{"p": p, "d": 3} for p in (3, 5)],
    {"p": 3, "d": 4},
))
def subspace_count_hyperbolic(p: int, d: int) -> Verdict:
    """Isotropic counts in the hyperbolic space, broken down by the
    metabolizer excess l."""
    census = flaggeom.subspace_census(flaggeom.hyperbolic_space(p, d))

    def cases():
        for k in range(d + 1):
            for l in range(k + 1):
                yield k, l, census.get((k, l), 0)

    def test(case):
        k, l, got = case
        want = statistics.hyperbolic_isotropic_count(d, k, l).evaluate(q=p)
        return f"k={k} l={l}: {got} vs {want}" if got != want else None

    return _scan(cases(), test)


@_check(_points(
    *[{"kind": "A", "p": p, "d": d} for p in (2, 3) for d in (1, 2, 3)],
    *[{"kind": k, "p": 3, "d": d} for k in ("C", "B", "D") for d in (1, 2)],
    *[
        {"kind": k, "p": p, "d": d}
        for k, p, d in (
            ("C", 2, 3), ("D", 3, 3), ("A", 3, 4), ("C", 3, 3),
            ("B", 3, 3), ("A", 2, 5), ("A", 3, 5), ("C", 2, 4),
        )
    ],
))
def canonical_cell_counts(kind: str, p: int, d: int) -> Verdict:
    """Canonical bases with a given length-permutation number p^length.

    For the hyperbolic space the complete flags of both parity classes are
    tallied, against the type-D length formula extended to all signed
    permutations."""
    space = flaggeom.space_for_family(kind, p, d)
    fam = GroupFamily("BC", d) if kind == "D" else space.family

    counts = {perm: flaggeom.count_canonical_bases(space, perm) for perm in enumerate_group(fam)}

    def test(case):
        perm, got = case
        if kind == "D":
            want = p ** (inversions(perm) + sum(d + x for x in perm if x < 0))
        else:
            want = p ** length(perm, fam)
        return f"{perm}: {got} vs {want}" if got != want else None

    outside = sum(counts.values()) != sum(flaggeom._complete_flag_tally(space).values())
    extra = "tally contains permutations outside the family" if outside else None
    return _scan(counts.items(), test, extra)


@_check(_points(
    *[{"kind": "A", "p": p, "d": d} for p in (2, 3) for d in (1, 2, 3)],
    {"kind": "C", "p": 3, "d": 2},
))
def standard_flag_generating_function(kind: str, p: int, d: int) -> Verdict:
    """Sum of count_canonical_bases * t^standard_weight over the family equals
    the Mahonian polynomial at q=p."""
    space = flaggeom.space_for_family(kind, p, d)
    fam = space.family
    lhs = MultiPoly.zero()
    for perm in enumerate_group(fam):
        _, weight = flaggeom.standard_flag(perm, fam)
        lhs = lhs + MultiPoly.monomial(flaggeom.count_canonical_bases(space, perm), et=weight)
    rhs = statistics.mahonian_direct(fam).specialize(q=p)
    return _verdict(lhs, rhs)


@_check(_points(
    *[{"kind": "A", "p": 3, "d": d} for d in (1, 2, 3)],
    {"kind": "C", "p": 3, "d": 2},
    {"kind": "B", "p": 3, "d": 2},
    {"kind": "D", "p": 3, "d": 2},
    *[{"kind": "A", "p": 5, "d": d} for d in (1, 2, 3)],
    *[{"kind": k, "p": 5, "d": 2} for k in ("C", "B", "D")],
))
def standard_weight_flags(kind: str, p: int, d: int) -> Verdict:
    """For every enumerated flag: the canonical basis reproduces the flag by
    prefix spans, and the standard weight of its standard flag equals the
    (Weyl-)Major index of the length-permutation."""
    space = flaggeom.space_for_family(kind, p, d)
    fam = space.family

    def test(chain):  # the walk's flags are valid: extract without validate_flag
        basis, perm = flaggeom._extract(space, chain)
        if any(flaggeom.rref(basis[: len(member)], p) != member for member in chain):
            return f"prefix spans do not reproduce {chain}"
        _, weight = flaggeom.standard_flag(perm, fam)
        if weight != wmaj(perm):
            return f"standard weight != wmaj for {chain} (perm {perm})"
        if kind == "D" and negative_count(perm) % 2:
            return f"even flag {chain} extracted an odd permutation {perm}"

    return _scan(flaggeom.enumerate_flags(space), test)


@_check(_points(
    {"p": 2, "d": 2, "trunc": 12},
    {"p": 2, "d": 3, "trunc": 12},
    {"p": 3, "d": 2, "trunc": 12},
))
def standard_fiber_series(p: int, d: int, trunc: int) -> Verdict:
    """Weighted flags sharing a canonical basis sum to t^w_st * prod 1/(1-t^j)."""
    space = flaggeom.linear_space(p, d)

    def test(bucket):
        (basis, perm), chains = bucket
        got = flaggeom.weighted_flag_sum(chains, trunc)
        _, weight = flaggeom.standard_flag(perm, space.family)
        want = TruncSeries.from_poly(MultiPoly.monomial(1, et=weight), trunc)
        for j in range(1, d + 1):
            want = want * TruncSeries.geometric_factor(j, False, trunc)
        return f"fiber series mismatch for basis {basis}" if got != want else None

    buckets = flaggeom.flags_by_canonical_basis(space)
    return _scan(buckets.items(), test)


@_check(_points(p=[2], d=[1, 2, 3]))
def refinement_counts(p: int, d: int) -> Verdict:
    """Bucket all flags of F_p^d by canonical basis; bucket sizes must be
    2^(d-k) with k the descent count of the basis' length-permutation."""
    space = flaggeom.linear_space(p, d)

    def test(bucket):
        (basis, perm), chains = bucket
        want = flaggeom.refinement_count(perm, space.family)
        return f"basis {basis}: {len(chains)} flags vs {want}" if len(chains) != want else None

    buckets = flaggeom.flags_by_canonical_basis(space)
    return _scan(buckets.items(), test)


@_check(_points(
    *[{"kind": "A", "d": d} for d in (1, 2, 3, 4)],
    *[{"kind": k, "d": d} for k in ("C", "B", "D") for d in (1, 2, 3, 4)],
))
def rothe_tallies(kind: str, d: int) -> Verdict:
    """Cross count = inversions, tensors per tag = the sign part summands, for
    every element of the matching group."""
    signed = kind in ("C", "B")
    fam = GroupFamily("BC" if signed else kind, d)
    base = d + 1 if signed else d

    def test(perm):
        diag = rothe_diagram(perm, kind)
        if diag.cross_count() != inversions(perm):
            return f"cross count wrong at {perm}"
        want_tags = {i: base + x for i, x in enumerate(perm, start=1) if x < 0 and base + x}
        if kind != "A" and diag.tensor_counts() != want_tags:
            return f"tensor tags wrong at {perm}: {diag.tensor_counts()} vs {want_tags}"

    return _scan(enumerate_group(fam), test)


# (kind, permutation, crosses, tensor tallies or None when not asserted)
_ROTHE_EXAMPLES = (
    ("A", (6, 3, 8, 1, 4, 9, 7, 2, 5), 18, None),
    ("C", (-5, 3, -1, 6, 4, -2), 7, {1: 2, 3: 6, 6: 5}),
    ("D", (-5, 3, -1, -6, 4, -2), 7, {1: 1, 3: 5, 6: 4}),
)


@_check(_points({}))
def rothe_worked_examples() -> Verdict:
    """The two printed diagrams: 18 crosses for the type A example, 7 crosses
    with tensor tallies 2/6/5 for the type C example; the type D example has
    tallies d + sigma(m)."""

    def test(example):
        kind, perm, crosses, tags = example
        diag = rothe_diagram(perm, kind)
        if diag.cross_count() != crosses or (tags is not None and diag.tensor_counts() != tags):
            tail = "" if tags is None else f", {diag.tensor_counts()}"
            return f"type {kind} example: {diag.cross_count()} crosses{tail}"

    return _scan(_ROTHE_EXAMPLES, test)
