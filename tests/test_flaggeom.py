import hashlib
import inspect
import sys
from collections import Counter
from itertools import product

import pytest

from weylmahonian.algebra import MultiPoly, TruncSeries
from weylmahonian.checks import subspace_count_grassmann, subspace_count_hyperbolic, subspace_count_isotropic
from weylmahonian.flaggeom import (
    canonical_basis,
    count_canonical_bases,
    enumerate_flags,
    enumerate_subspaces,
    flag_series,
    flags_by_canonical_basis,
    hyperbolic_space,
    is_isotropic,
    linear_space,
    metabolizer_excess,
    nullspace,
    quadratic_space,
    refinement_count,
    rref,
    space_for_family,
    standard_flag,
    subspace_le,
    symplectic_space,
)
from weylmahonian.statistics import (
    hyperbolic_isotropic_count,
    mahonian_direct,
    q_binomial,
    symplectic_isotropic_count,
)
from weylmahonian.weylgroups import GroupFamily, enumerate_group, identity, inversions, length, wmaj


def test_rref_canonical():
    assert rref([(2, 4), (1, 2)], 5) == ((1, 2),)
    assert rref([(0, 1, 1), (1, 0, 1)], 2) == ((1, 0, 1), (0, 1, 1))
    assert rref([(0, 0)], 3) == ()
    # canonical: any basis of the same span reduces to the same rows
    assert rref([(1, 1, 0), (0, 1, 1)], 2) == rref([(1, 0, 1), (0, 1, 1)], 2)


def test_nullspace():
    basis = nullspace([(1, 1, 0)], 3, 3)
    assert len(basis) == 2
    for v in basis:
        assert (v[0] + v[1]) % 3 == 0


def test_subspace_le():
    big = rref([(1, 0, 0), (0, 1, 0)], 2)
    assert subspace_le(rref([(1, 1, 0)], 2), big, 2)
    assert not subspace_le(rref([(0, 0, 1)], 2), big, 2)


def test_subspace_counts_small():
    assert sum(1 for _ in enumerate_subspaces(linear_space(2, 3), 1)) == 7
    sp = symplectic_space(3, 2)
    assert sum(1 for _ in enumerate_subspaces(sp, 1)) == 40
    h1 = hyperbolic_space(3, 1)
    iso_lines = list(enumerate_subspaces(h1, 1))
    assert len(iso_lines) == 2  # the two axes of xy = 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grassmann_counts(p, d):
    sp = linear_space(p, d)
    for k in range(d + 1):
        got = sum(1 for _ in enumerate_subspaces(sp, k))
        assert got == q_binomial(d, k).evaluate(q=p)


def test_linear_space_carries_the_zero_form():
    sp = linear_space(3, 3)
    vectors = list(product(range(3), repeat=3))
    assert all(sp.bilinear(u, v) == 0 for u in vectors for v in vectors)
    assert all(is_isotropic(sp, rows) for k in range(4) for rows in enumerate_subspaces(sp, k))


@pytest.mark.parametrize("maker", [symplectic_space, quadratic_space])
@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1)])
def test_isotropic_counts_match_formula(maker, p, d):
    sp = maker(p, d)
    for k in range(d + 1):
        got = sum(1 for _ in enumerate_subspaces(sp, k))
        assert got == symplectic_isotropic_count(d, k).evaluate(q=p)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1)])
def test_hyperbolic_counts_by_excess(p, d):
    sp = hyperbolic_space(p, d)
    for k in range(d + 1):
        tally = {}
        for rows in enumerate_subspaces(sp, k):
            assert is_isotropic(sp, rows)
            l = metabolizer_excess(sp, rows)
            tally[l] = tally.get(l, 0) + 1
        for l in range(k + 1):
            assert tally.get(l, 0) == hyperbolic_isotropic_count(d, k, l).evaluate(q=p)


def test_subspace_streams_are_pinned():
    """One SHA-256 over enumerate_subspaces for every k of 25 spaces: linear
    p=2,3 n<=4; C/B/D p=3,5 d<=2; C p=2 d=3; C/B/D p=3 d=3; C p=7 d=2."""
    spaces = [linear_space(p, n) for p in (2, 3) for n in range(1, 5)]
    spaces += [maker(p, d) for maker in (symplectic_space, quadratic_space, hyperbolic_space)
               for p in (3, 5) for d in (1, 2)]
    spaces += [symplectic_space(2, 3), symplectic_space(3, 3), quadratic_space(3, 3), hyperbolic_space(3, 3)]
    spaces.append(symplectic_space(7, 2))
    h = hashlib.sha256()
    for sp in spaces:
        for k in range(sp.dim + 1):
            h.update(repr((sp, k, list(enumerate_subspaces(sp, k)))).encode())
    assert h.hexdigest() == "1802eb2fe6d7978fbc819f1d0759f924724c895d03e671e952d8844a620fa96a"


@pytest.mark.parametrize(
    "space",
    [
        hyperbolic_space(7, 2),
        hyperbolic_space(13, 2),
        symplectic_space(11, 2),
        quadratic_space(7, 1),
        quadratic_space(13, 1),
        symplectic_space(2, 3),
        quadratic_space(3, 2),
        hyperbolic_space(3, 3),
    ],
    ids=lambda sp: f"{sp.kind}-p{sp.p}-d{sp.d}",
)
def test_typed_streams_are_the_isotropic_part_of_the_linear_streams(space):
    """A typed stream lists the isotropic subspaces of the linear stream of
    the same dimension, in the same order: both walk pivot sets and free
    entries in the same order, and only the typed one filters its rows as
    it chooses them."""
    linear = linear_space(space.p, space.dim)
    for k in range(space.dim + 1):
        want = [rows for rows in enumerate_subspaces(linear, k) if is_isotropic(space, rows)]
        assert list(enumerate_subspaces(space, k)) == want


def test_enumerate_subspaces_validation():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(linear_space(2, 3), 4))
    assert list(enumerate_subspaces(symplectic_space(3, 1), 2)) == []  # no isotropic plane
    with pytest.raises(ValueError):
        quadratic_space(2, 2)  # needs odd characteristic


def test_cell_cap():
    # 13^7 = 62,748,517 field points: over the cap before anything is yielded
    with pytest.raises(ValueError, match="cell cap"):
        list(enumerate_subspaces(linear_space(13, 7), 1))


def test_flag_series_one_dim():
    s = flag_series(linear_space(2, 1), 4)
    assert s == TruncSeries.from_poly(
        MultiPoly({(0, n, 0): 1 for n in range(5)}), 4
    )


def test_flag_series_f2_squared():
    # brute force over the 3 lines and the plane of F_2^2; equals
    # (1 + 2t) / ((1-t)(1-t^2)) truncated
    s = flag_series(linear_space(2, 2), 3)
    assert [c.evaluate() for c in s.coeffs] == [1, 3, 4, 6]


def test_flag_series_constant_term_is_one():
    for sp in (linear_space(3, 2), symplectic_space(3, 1), hyperbolic_space(3, 2)):
        assert flag_series(sp, 3).coefficient(0) == MultiPoly.one()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_flag_series_theorem_type_a(p, d):
    lhs = flag_series(linear_space(p, d), 8)
    rhs = TruncSeries.from_poly(mahonian_direct(GroupFamily("A", d)).specialize(q=p), 8)
    for j in range(1, d + 1):
        rhs = rhs * TruncSeries.geometric_factor(j, False, 8)
    assert lhs == rhs


def test_flag_series_type_b_equals_type_c():
    for p in (3, 5):
        b = flag_series(quadratic_space(p, 1), 8)
        c = flag_series(symplectic_space(p, 1), 8)
        assert b == c


def test_even_flags_only_for_hyperbolic():
    sp = hyperbolic_space(3, 1)
    flags = list(enumerate_flags(sp))
    # empty flag plus the two even isotropic lines (the ones inside/EQUAL to I)
    for chain in flags:
        if chain:
            assert metabolizer_excess(sp, chain[-1]) % 2 == 0
    odd_allowed = list(enumerate_flags(sp, even_only=False))
    assert len(odd_allowed) > len(flags)


def test_canonical_basis_linear_example():
    sp = linear_space(2, 2)
    basis, lam = canonical_basis(sp, (((1, 1),),))
    assert basis == ((1, 1), (1, 0))
    assert lam == (2, 1)


def test_canonical_basis_empty_flag():
    sp = linear_space(3, 3)
    basis, lam = canonical_basis(sp, ())
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert lam == (1, 2, 3)
    spc = symplectic_space(3, 2)
    basis, sig = canonical_basis(spc, ())
    assert sig == (1, 2)


def test_canonical_basis_lagrangian_flag_is_unsigned():
    spc = symplectic_space(3, 2)
    chain = (rref([(1, 1, 0, 0)], 3), rref([(1, 0, 0, 0), (0, 1, 0, 0)], 3))
    _, sig = canonical_basis(spc, chain)
    assert all(x > 0 for x in sig)


def test_canonical_basis_prefix_spans_reproduce_flag():
    for sp in (linear_space(2, 3), symplectic_space(3, 2), hyperbolic_space(3, 2)):
        for chain in enumerate_flags(sp):
            basis, _ = canonical_basis(sp, chain)
            for member in chain:
                assert rref(basis[: len(member)], sp.p) == member


def test_canonical_basis_rejects_bad_flags():
    sp = symplectic_space(3, 2)
    with pytest.raises(ValueError):
        canonical_basis(sp, (rref([(1, 0, 0, 0), (0, 0, 0, 1)], 3),))  # not isotropic
    with pytest.raises(ValueError):
        canonical_basis(sp, (rref([(1, 0, 0, 0)], 3), rref([(0, 1, 0, 0)], 3)))  # not nested
    with pytest.raises(ValueError):
        canonical_basis(linear_space(2, 3), [[(1, 0)]])  # too short
    with pytest.raises(ValueError):
        canonical_basis(linear_space(2, 3), [[(1, 0, 0, 1)]])  # too long


@pytest.mark.parametrize("p", [2, 3])
def test_count_canonical_bases_type_a(p):
    sp = linear_space(p, 3)
    fam = GroupFamily("A", 3)
    for lam in enumerate_group(fam):
        assert count_canonical_bases(sp, lam) == p ** inversions(lam)


def test_count_canonical_bases_type_c():
    sp = symplectic_space(3, 2)
    fam = GroupFamily("BC", 2)
    for sig in enumerate_group(fam):
        assert count_canonical_bases(sp, sig) == 3 ** length(sig, fam)
    assert count_canonical_bases(symplectic_space(3, 1), (-1,)) == 3
    assert count_canonical_bases(linear_space(3, 2), (2, 1)) == 3


def test_complete_flag_tally_is_read_only():
    import weylmahonian.flaggeom as fg

    sp = linear_space(2, 2)
    with pytest.raises(TypeError):
        fg._complete_flag_tally(sp)[(1, 2)] = 99
    assert count_canonical_bases(sp, (1, 2)) == 1


@pytest.mark.parametrize(
    "space",
    [
        linear_space(2, 3),
        linear_space(2, 4),
        symplectic_space(3, 2),
        symplectic_space(2, 3),
        symplectic_space(5, 2),
        quadratic_space(3, 2),
        hyperbolic_space(3, 2),
        hyperbolic_space(3, 3),
        linear_space(13, 2),
        linear_space(11, 3),
    ],
    ids=lambda sp: f"{sp.kind}-p{sp.p}-d{sp.d}",
)
def test_tally_matches_per_flag_extraction(space):
    """The chain-count tally equals its per-flag definition: canonical_basis
    of every complete flag, odd ones included for the hyperbolic space."""
    import weylmahonian.flaggeom as fg

    want = Counter(
        canonical_basis(space, chain)[1]
        for chain in enumerate_flags(space, even_only=False)
        if len(chain) == space.iso_max
    )
    assert dict(fg._complete_flag_tally.__wrapped__(space)) == want


def _caller_spy(monkeypatch, name):
    """Wrap flaggeom.<name> to record the name of the function calling it."""
    import weylmahonian.flaggeom as fg

    real, callers = getattr(fg, name), []

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(fg, name, spy)
    return callers


@pytest.mark.parametrize(
    "space", [symplectic_space(3, 2), linear_space(2, 4)], ids=lambda sp: f"{sp.kind}-p{sp.p}-d{sp.d}"
)
def test_tally_eliminates_once_per_subspace(monkeypatch, space):
    """The tally reads each complete flag's columns off the L sets of its
    members, and each L set off the level below (the union over the
    hyperplanes, or a line's last nonzero position): no elimination at all,
    not one per subspace, flag or chain."""
    import weylmahonian.flaggeom as fg

    callers = _caller_spy(monkeypatch, "_eliminate")
    fg._complete_flag_tally.__wrapped__(space)
    assert callers == []


def test_validate_flag_reached_only_through_canonical_basis(monkeypatch):
    """Flags the package walks itself are not validated again: the tally,
    the buckets, the series and the standard_weight_flags check make no
    validate_flag call."""
    import weylmahonian.flaggeom as fg
    from weylmahonian.checks import standard_weight_flags

    callers = _caller_spy(monkeypatch, "validate_flag")
    sp = linear_space(2, 3)
    for space in (sp, symplectic_space(3, 2), hyperbolic_space(3, 2)):
        fg._complete_flag_tally.__wrapped__(space)
        flag_series(space, 6)
    flags_by_canonical_basis(sp)
    for kind, p, d in (("A", 2, 3), ("C", 3, 2), ("B", 3, 2), ("D", 3, 2)):
        assert standard_weight_flags(kind, p, d).passed
    assert callers == []
    chains = list(enumerate_flags(sp))
    for chain in chains:
        canonical_basis(sp, chain)
    assert callers == ["canonical_basis"] * len(chains)


def test_containment_is_read_by_walk_and_dp(monkeypatch):
    """The flag jobs that pull find the subspaces below each subspace through
    _below: the walk of enumerate_flags and the tally, one job after the
    other.  The series pulls nothing (module docstring)."""
    import weylmahonian.flaggeom as fg

    fg.subspace_census.cache_clear()
    callers = _caller_spy(monkeypatch, "_below")
    sp, hyp = linear_space(2, 3), hyperbolic_space(3, 2)
    list(enumerate_flags(hyp))
    flag_series(hyp, 6)
    fg._complete_flag_tally.__wrapped__(hyp)
    flags_by_canonical_basis(sp)
    jobs = [name for i, name in enumerate(callers) if not i or callers[i - 1] != name]
    assert jobs == ["enumerate_flags", "_complete_flag_tally", "enumerate_flags"]


def test_flag_series_lists_no_flag(monkeypatch):
    """The series is read off the signature counts: no enumerate_flags call."""
    callers = _caller_spy(monkeypatch, "enumerate_flags")
    for space in (linear_space(2, 3), symplectic_space(3, 2), hyperbolic_space(3, 2)):
        flag_series(space, 6)
        flag_series(space, 6, with_alpha=True)
    assert callers == []


@pytest.mark.parametrize(
    "space",
    [
        linear_space(2, 3),
        linear_space(3, 4),
        symplectic_space(3, 2),
        quadratic_space(3, 2),
        hyperbolic_space(3, 2),
        hyperbolic_space(3, 3),
        symplectic_space(7, 2),
        linear_space(11, 3),
        hyperbolic_space(5, 2),
        hyperbolic_space(7, 2),
        hyperbolic_space(5, 3),
        hyperbolic_space(13, 2),  # two-byte image digits: the walk's keys come through _wide_residues
        quadratic_space(3, 3),
        symplectic_space(3, 3),
        linear_space(3, 5),
    ],
    ids=lambda sp: f"{sp.kind}-p{sp.p}-d{sp.d}",
)
def test_signature_counts_match_the_walk(space):
    """The series from the census recursion is the weighted_flag_sum over the
    flags the walk lists (even flags only for the hyperbolic space), plain
    and s-marked, up to a bound that holds every flag's leading term: a flag
    of dimensions 1, ..., iso_max starts at t^(iso_max (iso_max + 1) / 2)."""
    import weylmahonian.flaggeom as fg

    flags = list(enumerate_flags(space))  # walked once for both markers
    bound = max(12, space.iso_max * (space.iso_max + 1) // 2)
    for with_alpha in (False, True):
        walked = fg.weighted_flag_sum(flags, bound, with_alpha)
        assert flag_series(space, bound, with_alpha) == walked


def test_series_and_count_checks_enumerate_each_space_once(monkeypatch):
    """The series makes no _below call, and with the subspace-count checks of
    the same spaces it enumerates each (space, k) once: its census, and the
    censuses of the linear spaces F_p^k its chain counts come from."""
    import weylmahonian.flaggeom as fg

    fg.subspace_census.cache_clear()
    below = _caller_spy(monkeypatch, "_below")
    real, calls = fg.enumerate_subspaces, Counter()
    monkeypatch.setattr(fg, "enumerate_subspaces", lambda space, k, *rest: calls.update([(space, k)]) or real(space, k, *rest))
    for space, check in (
        (linear_space(3, 3), lambda: subspace_count_grassmann(3, 3)),
        (symplectic_space(3, 2), lambda: subspace_count_isotropic("C", 3, 2)),
        (quadratic_space(3, 2), lambda: subspace_count_isotropic("B", 3, 2)),
        (hyperbolic_space(3, 3), lambda: subspace_count_hyperbolic(3, 3)),
    ):
        flag_series(space, 6)
        flag_series(space, 6, with_alpha=True)
        assert check().passed
        assert {k for sp, k in calls if sp == space} == set(range(space.iso_max + 1))
    assert below == []
    assert calls and set(calls.values()) == {1}


def test_enumerate_flags_is_lazy(monkeypatch):
    """Nothing is built before the first next()."""
    assert inspect.isgeneratorfunction(enumerate_flags)
    callers = _caller_spy(monkeypatch, "_below")
    flags = enumerate_flags(linear_space(2, 2))
    assert callers == []
    assert next(flags) == () and callers and set(callers) == {"enumerate_flags"}


def test_parity_is_read_once_per_subspace(monkeypatch):
    """Even flags are those whose last member has even parity.  The walk
    reads it once per subspace, not once per flag, and so does the series,
    through the census, which the hyperbolic count check then reuses."""
    import weylmahonian.flaggeom as fg

    sp = hyperbolic_space(3, 2)
    chains = enumerate_flags(sp, even_only=False)
    want = [chain for chain in chains if not chain or metabolizer_excess(sp, chain[-1]) % 2 == 0]
    real, seen = fg.metabolizer_excess, Counter()
    monkeypatch.setattr(fg, "metabolizer_excess", lambda space, rows: seen.update([rows]) or real(space, rows))
    assert list(enumerate_flags(sp)) == want
    assert seen and max(seen.values()) == 1
    seen.clear()
    fg.subspace_census.cache_clear()
    flag_series(sp, 6)
    subspaces = sum(1 for k in range(3) for _ in enumerate_subspaces(sp, k))
    assert len(seen) == subspaces and max(seen.values()) == 1
    assert subspace_count_hyperbolic(3, 2).passed and sum(seen.values()) == subspaces


def test_standard_flag_values():
    assert standard_flag((6, 3, 8, 1, 4, 9, 7, 2, 5), GroupFamily("A", 9)) == ((1, 3, 6, 7), 17)
    assert standard_flag((-5, 3, -1, 6, 4, -2), GroupFamily("BC", 6)) == ((1, 3, 4, 6), 14)
    assert standard_flag(identity(4), GroupFamily("BC", 4)) == ((), 0)


@pytest.mark.parametrize("tag", ["A", "BC", "D"])
def test_standard_weight_equals_wmaj(tag):
    for d in range(1, 5):
        fam = GroupFamily(tag, d)
        for perm in enumerate_group(fam):
            dims, weight = standard_flag(perm, fam)
            assert weight == sum(dims) == wmaj(perm)


def test_refinement_counts():
    fam = GroupFamily("A", 3)
    assert refinement_count(identity(3), fam) == 8
    assert refinement_count((2, 1), GroupFamily("A", 2)) == 2
    assert refinement_count((3, 2, 1), fam) == 2  # chains with and without the full space
    with pytest.raises(ValueError):
        refinement_count((1, 2), GroupFamily("BC", 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_refinement_counts_by_enumeration(d):
    sp = linear_space(2, d)
    fam = GroupFamily("A", d)
    buckets = flags_by_canonical_basis(sp)
    total = 0
    for (basis, lam), chains in buckets.items():
        complete = tuple(rref(basis[: i + 1], 2) for i in range(d))
        assert canonical_basis(sp, complete) == (basis, lam)
        assert len(chains) == refinement_count(lam, fam)
        total += len(chains)
    assert total == sum(1 for _ in enumerate_flags(sp))


def _complete_chains(space):
    return (chain for chain in enumerate_flags(space, even_only=False) if len(chain) == space.iso_max)


@pytest.mark.parametrize(
    "space,kind",
    [
        (linear_space(3, 3), "A"),
        (symplectic_space(3, 2), "C"),
        (quadratic_space(3, 2), "B"),
        (hyperbolic_space(3, 2), "D"),
    ],
)
def test_extracted_bases_match_rothe_structure(space, kind):
    """Every extracted basis has 1 exactly at the diagram's bullet cell and 0
    at its structural-zero cells, for every complete flag of the space."""
    from weylmahonian.rothe import rothe_diagram

    for chain in _complete_chains(space):
        basis, perm = canonical_basis(space, chain)
        if kind == "D" and sum(1 for x in perm if x < 0) % 2:
            continue  # diagrams are defined for even permutations only
        diag = rothe_diagram(perm, kind)
        for vec, row in zip(basis, diag.grid):
            for col_idx, (cell, _) in zip(diag.columns, row):
                val = vec[space.columns.index(col_idx)]
                if cell == "bullet":
                    assert val == 1, (kind, perm, col_idx)
                elif cell == "zero":
                    assert val == 0, (kind, perm, col_idx)


def test_space_for_family():
    assert space_for_family("A", 3, 2).kind == "linear"
    assert space_for_family("C", 3, 2).kind == "symplectic"
    assert space_for_family("B", 3, 2).kind == "quadratic"
    assert space_for_family("D", 3, 2).kind == "hyperbolic"
    tags = [space_for_family(kind, 3, 2).family for kind in ("A", "C", "B", "D")]
    assert tags == [GroupFamily(tag, 2) for tag in ("A", "BC", "BC", "D")]


def test_second_flag_walk_runs_no_containment_test(monkeypatch):
    """A space's census is built once: the s-marked series of a space whose
    plain series is already known enumerates no subspace again."""
    import weylmahonian.flaggeom as fg

    fg.subspace_census.cache_clear()
    real, calls = fg.enumerate_subspaces, []
    monkeypatch.setattr(fg, "enumerate_subspaces", lambda *args: calls.append(args) or real(*args))
    space = symplectic_space(3, 2)
    flag_series(space, 6)
    first = len(calls)
    flag_series(space, 6, with_alpha=True)
    assert first > 0 and len(calls) == first


@pytest.mark.parametrize(
    "space",
    [
        linear_space(2, 3),
        linear_space(3, 3),
        symplectic_space(3, 2),
        quadratic_space(3, 2),
        hyperbolic_space(3, 2),
        linear_space(13, 2),
    ],
    ids=lambda sp: f"{sp.kind}-p{sp.p}-d{sp.d}",
)
def test_containment_matches_pairwise_definition(space):
    """_below lists, for every subspace a flag may contain, the smaller ones
    that subspace_le finds contained in it, in enumeration order."""
    import weylmahonian.flaggeom as fg

    subspaces = [sub for m in range(space.iso_max + 1) for sub in enumerate_subspaces(space, m)]
    for big in subspaces:
        pairwise = [sub for sub in subspaces if len(sub) < len(big) and subspace_le(sub, big, space.p)]
        assert fg._below(space, big, range(len(big))) == [fg._key(v) for v in pairwise]


def test_images_wider_than_a_byte_match_pairwise_definition():
    """The line of (1, 12, 12) in F_13^3 maps into this W with last entry
    12 + 2 * 12 * 12 = 300 before reduction, more than a byte holds."""
    import weylmahonian.flaggeom as fg

    space = linear_space(13, 4)
    big = ((1, 0, 0, 12), (0, 1, 0, 12), (0, 0, 1, 12))
    pairwise = [sub for m in (0, 1) for sub in enumerate_subspaces(space, m) if subspace_le(sub, big, 13)]
    assert fg._below(space, big, (0, 1)) == [fg._key(v) for v in pairwise]


def test_flag_series_tests_no_containment(monkeypatch):
    """The series enumerates its census (the cache is cleared, so it cannot
    reuse one an earlier test built) and makes no subspace_le call."""
    import weylmahonian.flaggeom as fg

    fg.subspace_census.cache_clear()
    real, calls = fg.subspace_le, []
    monkeypatch.setattr(fg, "subspace_le", lambda *args: calls.append(args) or real(*args))
    enumerated = _caller_spy(monkeypatch, "enumerate_subspaces")
    flag_series(symplectic_space(7, 2), 12)
    assert calls == []
    assert enumerated


@pytest.mark.parametrize("space", [linear_space(2, 4), hyperbolic_space(3, 3)], ids=lambda sp: sp.kind)
def test_flag_series_makes_one_series_product_per_dimension(monkeypatch, space):
    """The census recursion forms F_k with one series product per k, so a
    series takes at most iso_max TruncSeries products, plain or s-marked,
    however many dimension signatures its flags have."""
    real, products = TruncSeries.__mul__, []
    monkeypatch.setattr(TruncSeries, "__mul__", lambda a, b: products.append(a) or real(a, b))
    for with_alpha in (False, True):
        products.clear()
        flag_series(space, 12, with_alpha)
        assert 0 < len(products) <= space.iso_max


def test_flag_series_checks_its_bound_before_enumerating(monkeypatch):
    """A negative bound is refused before the census enumerates a subspace."""
    import weylmahonian.flaggeom as fg

    fg.subspace_census.cache_clear()
    enumerated = _caller_spy(monkeypatch, "enumerate_subspaces")
    with pytest.raises(ValueError, match="truncation bound"):
        flag_series(linear_space(5, 4), -1)
    assert enumerated == []


@pytest.mark.parametrize("space", [quadratic_space(3, 3), hyperbolic_space(3, 3)], ids=lambda sp: sp.kind)
def test_quadratic_filter_tests_each_row_once(monkeypatch, space):
    """The census tests Q on each distinct candidate row once per space across
    k = 1..d, although a row is a candidate under every pivot set that leaves
    its support free, at every k."""
    import weylmahonian.flaggeom as fg

    real, diagonal = fg.FqSpace.bilinear, []
    monkeypatch.setattr(fg.FqSpace, "bilinear", lambda sp, u, v: (u == v and diagonal.append(u)) or real(sp, u, v))
    census = fg.subspace_census.__wrapped__(space)
    assert {k for k, _ in census} == set(range(space.d + 1))
    assert diagonal and len(diagonal) == len(set(diagonal))


def test_deterministic_enumeration():
    sp = symplectic_space(3, 2)
    a = list(enumerate_subspaces(sp, 2))
    b = list(enumerate_subspaces(sp, 2))
    assert a == b
    assert list(enumerate_flags(sp)) == list(enumerate_flags(sp))
