import hashlib
import inspect
import time
from math import comb, factorial

import pytest

from weylmahonian import weylgroups
from weylmahonian.weylgroups import (
    ENUM_MAX_ORDER,
    GroupFamily,
    central_element,
    compose,
    coxeter_word_length,
    descent_count,
    descent_set,
    enumerate_group,
    greedy_reduced_word,
    identity,
    inverse,
    inversions,
    is_signed_perm,
    length,
    max_length,
    negative_count,
    pm_less,
    wmaj,
    word_to_perm,
)


def pm_less_oracle(a, b):
    # a <_pm b  iff  a*b*(a-b) < 0, the product form of the order
    return a * b * (a - b) < 0


@pytest.mark.parametrize(
    "a,b,expected",
    [(3, -5, True), (-2, -1, True), (4, 2, False), (1, 2, True), (-1, 1, False)],
)
def test_pm_less_examples(a, b, expected):
    assert pm_less(a, b) is expected


def test_pm_less_matches_product_form():
    vals = [x for x in range(-6, 7) if x]
    for a in vals:
        for b in vals:
            if a != b:
                assert pm_less(a, b) == pm_less_oracle(a, b)
    with pytest.raises(ValueError):
        pm_less(0, 1)


def test_inversions_reference_values():
    assert inversions((6, 3, 8, 1, 4, 9, 7, 2, 5)) == 18
    assert inversions((-5, 3, -1, 6, 4, -2)) == 7
    assert inversions(identity(5)) == 0


def test_length_reference_values():
    assert length((-2, -3, 1), GroupFamily("BC", 3)) == 6
    assert length((-2, 4, -3, 1), GroupFamily("D", 4)) == 8
    assert length((6, 3, 8, 1, 4, 9, 7, 2, 5), GroupFamily("A", 9)) == 18


def test_length_membership_errors():
    with pytest.raises(ValueError):
        length((-1, 2), GroupFamily("A", 2))
    with pytest.raises(ValueError):
        length((-1, 2), GroupFamily("D", 2))  # odd sign count
    with pytest.raises(ValueError):
        length((1, 2, 3), GroupFamily("BC", 2))


def test_wmaj_values():
    assert wmaj((-5, 3, -1, 6, 4, -2)) == 14
    assert wmaj((6, 3, 8, 1, 4, 9, 7, 2, 5)) == 17
    assert wmaj(identity(4)) == 0


def descent_count_oracle(perm):
    d = len(perm)
    beta = 1 if perm[d - 1] < 0 else 0
    for i in range(d - 1):
        if pm_less_oracle(perm[i + 1], perm[i]):
            beta += 1
    return beta


def test_descent_count():
    assert descent_count(identity(3)) == 0
    assert descent_count((-1,)) == 1
    assert descent_count((-5, 3, -1, 6, 4, -2)) == descent_count_oracle((-5, 3, -1, 6, 4, -2)) == 4
    assert descent_set((-5, 3, -1, 6, 4, -2)) == [1, 3, 4, 6]
    assert descent_set((2, 3, 1)) == [2]


def test_enumerate_group_counts_and_order():
    assert len(list(enumerate_group(GroupFamily("A", 3)))) == 6
    assert len(list(enumerate_group(GroupFamily("BC", 2)))) == 8
    assert len(list(enumerate_group(GroupFamily("D", 4)))) == 192
    for fam in (GroupFamily("A", 3), GroupFamily("BC", 2), GroupFamily("D", 3)):
        elems = list(enumerate_group(fam))
        assert elems == sorted(elems)
        assert len(set(elems)) == len(elems) == fam.order()
        assert all(fam.contains(p) for p in elems)


def test_enumerate_group_and_generators_are_pinned():
    """One SHA-256 over the element stream and the generators of A d <= 8 and
    BC/D d <= 6, every rank from 0 up to the enumeration cap."""
    h = hashlib.sha256()
    for tag, top in (("A", 8), ("BC", 6), ("D", 6)):
        for d in range(top + 1):
            fam = GroupFamily(tag, d)
            h.update(repr((tag, d, list(enumerate_group(fam)), fam.generators())).encode())
    assert h.hexdigest() == "b24dd30e50800d6d704dbe7fffce359914fff8fd17eaad86fdc70220800b0f8b"


def test_enumerate_group_is_a_generator():
    # perfbench's tracer drives the stream with next(); the cap raises at the first one
    assert inspect.isgenerator(enumerate_group(GroupFamily("BC", 2)))


def test_enumerate_group_cap():
    with pytest.raises(ValueError):
        next(enumerate_group(GroupFamily("BC", 7)))


def test_enumeration_cap_refuses_a_huge_rank_at_once():
    """The cap is decided without forming the order of a huge group (100000!
    has 456,574 digits, too many to print)."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^type-A group of order at least 362880 over the enumeration cap 46080$"):
        next(enumerate_group(GroupFamily("A", 100000)))
    assert time.perf_counter() - start < 1.0


def test_enumeration_cap_bounds_group_order():
    """The cap counts elements: it admits A d <= 8, BC d <= 6 and D d <= 6."""
    for tag, top in (("A", 8), ("BC", 6), ("D", 6)):
        assert GroupFamily(tag, top).order() <= ENUM_MAX_ORDER < GroupFamily(tag, top + 1).order()
        next(enumerate_group(GroupFamily(tag, top)))
        with pytest.raises(ValueError, match=f"order {GroupFamily(tag, top + 1).order()} over"):
            next(enumerate_group(GroupFamily(tag, top + 1)))
        with pytest.raises(ValueError, match=f"order {GroupFamily(tag, top + 1).order()} over"):
            coxeter_word_length(identity(top + 1), GroupFamily(tag, top + 1))


def test_compose_inverse():
    fam = GroupFamily("BC", 3)
    elems = list(enumerate_group(fam))
    for a in elems[:8]:
        assert compose(a, inverse(a)) == identity(3)
        assert compose(inverse(a), a) == identity(3)
    # sign rule: composing with the central element negates values
    c = central_element(3)
    assert compose(c, (-2, -3, 1)) == (2, 3, -1)


def test_is_signed_perm():
    assert is_signed_perm((-2, 1))
    assert not is_signed_perm((1, 1))
    assert not is_signed_perm((0, 1))


@pytest.mark.parametrize("tag,d", [("BC", 1), ("BC", 2), ("BC", 3), ("D", 2), ("D", 3), ("A", 4)])
def test_length_equals_bfs_small(tag, d):
    fam = GroupFamily(tag, d)
    for perm in enumerate_group(fam):
        assert length(perm, fam) == coxeter_word_length(perm, fam)


@pytest.mark.parametrize("tag,top", [("A", 5), ("BC", 4), ("D", 4)])
def test_bfs_reaches_every_element_read_only(tag, top):
    for d in range(top + 1):
        fam = GroupFamily(tag, d)
        dist = weylgroups._bfs_distances(fam)
        assert len(dist) == fam.order()
        assert all(fam.contains(perm) for perm in dist)
        with pytest.raises(TypeError):
            dist[identity(d)] = 1


def test_bfs_reference_values():
    assert coxeter_word_length((-2, -3, 1), GroupFamily("BC", 3)) == 6
    assert coxeter_word_length((-2, 4, -3, 1), GroupFamily("D", 4)) == 8
    assert coxeter_word_length(identity(3), GroupFamily("D", 3)) == 0


def test_greedy_reduced_word_worked_example():
    fam = GroupFamily("BC", 3)
    word = greedy_reduced_word((-2, -3, 1), fam)
    assert word == [2, 3, 2, 1, 3, 2]
    assert word_to_perm(word, fam) == (-2, -3, 1)


def test_greedy_reduced_word_type_d():
    # The worked reduction table resolves one tie differently from the
    # largest-index rule; the rule itself gives this word, also of length 8.
    fam = GroupFamily("D", 4)
    word = greedy_reduced_word((-2, 4, -3, 1), fam)
    assert word == [2, 3, 4, 2, 1, 4, 2, 3]
    assert len(word) == length((-2, 4, -3, 1), fam) == 8
    assert word_to_perm(word, fam) == (-2, 4, -3, 1)


def test_greedy_reduced_word_identity():
    for tag in ("A", "BC", "D"):
        assert greedy_reduced_word(identity(3), GroupFamily(tag, 3)) == []


@pytest.mark.parametrize("tag,d", [("A", 4), ("BC", 3), ("D", 3)])
def test_greedy_words_exhaustive(tag, d):
    fam = GroupFamily(tag, d)
    for perm in enumerate_group(fam):
        word = greedy_reduced_word(perm, fam)
        assert len(word) == length(perm, fam)
        assert word_to_perm(word, fam) == perm


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_central_element_identities(d):
    fam = GroupFamily("BC", d)
    c = central_element(d)
    for perm in enumerate_group(fam):
        assert length(perm, fam) + length(compose(c, perm), fam) == d * d
        assert wmaj(perm) + wmaj(compose(c, perm)) == comb(d + 1, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_d_length_difference(d):
    fam_d, fam_bc = GroupFamily("D", d), GroupFamily("BC", d)
    for perm in enumerate_group(fam_d):
        assert length(perm, fam_bc) - length(perm, fam_d) == negative_count(perm)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unsigned_statistics_agree_across_families(d):
    for perm in enumerate_group(GroupFamily("A", d)):
        inv = inversions(perm)
        assert inv == length(perm, GroupFamily("A", d))
        assert inv == length(perm, GroupFamily("BC", d))
        assert inv == length(perm, GroupFamily("D", d))
        maj = sum(i for i in range(1, d) if perm[i - 1] > perm[i])
        assert wmaj(perm) == maj


@pytest.mark.parametrize("tag", ["A", "BC", "D"])
def test_generator_step_changes_length_by_one(tag):
    for d in (2, 3, 4):
        fam = GroupFamily(tag, d)
        gens = fam.generators()
        for perm in enumerate_group(fam):
            for g in gens:
                assert abs(length(compose(perm, g), fam) - length(perm, fam)) == 1


def test_max_length():
    assert max_length(GroupFamily("A", 4)) == 6
    assert max_length(GroupFamily("BC", 3)) == 9
    assert max_length(GroupFamily("D", 4)) == 12
    for tag in ("A", "BC", "D"):
        fam = GroupFamily(tag, 4)
        assert max(length(p, fam) for p in enumerate_group(fam)) == max_length(fam)


def test_order_formulas():
    assert GroupFamily("A", 5).order() == factorial(5)
    assert GroupFamily("BC", 5).order() == 2**5 * factorial(5)
    assert GroupFamily("D", 5).order() == 2**4 * factorial(5)
