"""Signed permutations and the Weyl groups of types A, B/C and D.

Elements are plain tuples in one-line notation: ``perm[i-1]`` is the image of
i, a nonzero integer in {-d, ..., -1, 1, ..., d} whose absolute values form a
permutation of {1, ..., d}.  Type A is the subset of unsigned tuples, type D
the subset with an even number of negative entries.

Composition is (a o b)(i) = a(b(i)) with the sign rule a(-j) = -a(j), which
matches right-multiplication reduction tables: ``compose(sigma, s_i)`` applies
the generator s_i on positions.

The total order <_pm puts the positive integers (ascending) below the negative
integers (ascending): 1 < 2 < ... < -2 < -1.  An inversion of sigma is a pair
i < j with sigma(i) >_pm sigma(j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

SignedPerm = tuple[int, ...]

FAMILY_TAGS = ("A", "BC", "D")

# The one cap on group order, for enumeration and the BFS length oracle alike:
# it admits A d <= 8, BC d <= 6 and D d <= 6.  A BFS table keyed by element
# takes about 170 B per element, so the cap also bounds it to about 8 MB.
ENUM_MAX_ORDER = 46_080


@dataclass(frozen=True)
class GroupFamily:
    """One of the three Weyl group families at a fixed rank."""

    tag: str
    d: int

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.d < 0:
            raise ValueError("rank must be >= 0")

    def order(self) -> int:
        if self.tag == "A":
            return factorial(self.d)
        if self.tag == "BC":
            return 2**self.d * factorial(self.d)
        return 2 ** max(self.d - 1, 0) * factorial(self.d)

    def generators(self) -> tuple[SignedPerm, ...]:
        """Coxeter generators s_1..s_{d-1} (adjacent swaps) plus the family twist.

        BC adds the sign change of d; D adds the signed swap d-1 -> -d,
        d -> -(d-1).
        """
        e = identity(self.d)
        gens = [(*e[: i - 1], i + 1, i, *e[i + 1 :]) for i in range(1, self.d)]
        if self.tag == "BC" and self.d >= 1:
            gens.append((*e[:-1], -self.d))
        elif self.tag == "D" and self.d >= 2:
            gens.append((*e[:-2], -self.d, 1 - self.d))
        return tuple(gens)

    def contains(self, perm: SignedPerm) -> bool:
        if len(perm) != self.d or not is_signed_perm(perm):
            return False
        if self.tag == "A":
            return all(x > 0 for x in perm)
        if self.tag == "D":
            return negative_count(perm) % 2 == 0
        return True


def is_signed_perm(perm: SignedPerm) -> bool:
    return sorted(map(abs, perm)) == list(range(1, len(perm) + 1))


def check_member(perm: SignedPerm, fam: GroupFamily) -> None:
    if not fam.contains(perm):
        raise ValueError(f"{perm} is not an element of type {fam.tag}, rank {fam.d}")


def identity(d: int) -> SignedPerm:
    return tuple(range(1, d + 1))


def compose(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """(a o b)(i) = a(b(i)) with a(-j) = -a(j)."""
    return tuple(a[j - 1] if j > 0 else -a[-j - 1] for j in b)


def inverse(a: SignedPerm) -> SignedPerm:
    out = [0] * len(a)
    for i, x in enumerate(a, start=1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def pm_less(a: int, b: int) -> bool:
    """a <_pm b in the order 1 < 2 < ... < -2 < -1 on nonzero integers."""
    if a == 0 or b == 0:
        raise ValueError("pm order is only defined on nonzero integers")
    if (a > 0) != (b > 0):
        return a > 0
    return a < b


def pm_coordinates(d: int, kind: str) -> tuple[int, ...]:
    """Signed coordinate indices in <_pm order, 0 sitting between the signs:
    1, ..., d for type A; 1, ..., d, then 0 (type B only), then -d, ..., -1
    for the signed types C, B and D."""
    if kind == "A":
        return tuple(range(1, d + 1))
    return (*range(1, d + 1), *((0,) if kind == "B" else ()), *range(-d, 0))


def inversions(perm: SignedPerm) -> int:
    """Number of pairs i < j with perm[i] >_pm perm[j]."""
    return sum(pm_less(b, a) for a, b in combinations(perm, 2))


def negative_count(perm: SignedPerm) -> int:
    return sum(1 for x in perm if x < 0)


def length(perm: SignedPerm, fam: GroupFamily) -> int:
    """Coxeter length: inversions plus the family's sign part.

    A: inversions only; BC: sum of d+1+sigma(i) over negative entries;
    D: sum of d+sigma(i) over negative entries.
    """
    check_member(perm, fam)
    inv = inversions(perm)
    if fam.tag == "A":
        return inv
    d = fam.d
    if fam.tag == "BC":
        return inv + sum(d + 1 + x for x in perm if x < 0)
    return inv + sum(d + x for x in perm if x < 0)


def wmaj(perm: SignedPerm) -> int:
    """Weyl-Major index: descent positions in the usual integer order, plus
    the number of negative entries.  Restricts to the classical Major index
    on unsigned permutations."""
    total = sum(i for i in range(1, len(perm)) if perm[i - 1] > perm[i])
    return total + negative_count(perm)


def descent_set(perm: SignedPerm) -> list[int]:
    """The positions i < d with perm(i) >_pm perm(i+1), then d itself when the
    last entry is negative.  On unsigned permutations this is the classical
    descent set."""
    d = len(perm)
    positions = [i for i in range(1, d) if pm_less(perm[i], perm[i - 1])]
    if d and perm[-1] < 0:
        positions.append(d)
    return positions


def descent_count(perm: SignedPerm) -> int:
    """Descent statistic: the size of the descent set."""
    return len(descent_set(perm))


def capped_count(count: Callable[[GroupFamily], int], fam: GroupFamily, cap: int) -> tuple[int, str]:
    """count(fam), or, if a lower rank of its family counts over cap, the
    first such count, with the text a message prints for it ("at least" then
    comes first).  The counts rise with the rank, so the result is over cap
    exactly when count(fam) is, and no number past the first one over cap is
    formed."""
    for r in range(fam.d + 1):
        n = count(GroupFamily(fam.tag, r))
        if r == fam.d or n > cap:
            return n, str(n) if r == fam.d else f"at least {n}"


def _check_order(fam: GroupFamily) -> None:
    order, text = capped_count(GroupFamily.order, fam, ENUM_MAX_ORDER)
    if order > ENUM_MAX_ORDER:
        raise ValueError(f"type-{fam.tag} group of order {text} over the enumeration cap {ENUM_MAX_ORDER}")


def enumerate_group(fam: GroupFamily) -> Iterator[SignedPerm]:
    """All elements in lexicographic one-line order."""
    _check_order(fam)
    yield from _enumerate(fam.tag, fam.d)


def _enumerate(tag: str, d: int) -> Iterable[SignedPerm]:
    """Type A in the order permutations() gives, already lexicographic; the
    signed types sorted, as tuples compare -d < ... < -1 < 1 < ... < d."""
    perms = permutations(range(1, d + 1))
    if tag == "A":
        return perms
    signs = [s for s in product((-1, 1), repeat=d) if tag == "BC" or s.count(-1) % 2 == 0]
    return sorted(tuple(map(mul, s, perm)) for perm in perms for s in signs)


# -- independent word-length oracle (Cayley graph BFS) -----------------------


@lru_cache(maxsize=None)
def _bfs_distances(fam: GroupFamily) -> Mapping[SignedPerm, int]:
    """Graph distances from the identity under right multiplication by the
    generators, as a read-only map from element to distance."""
    _check_order(fam)
    gens = fam.generators()
    frontier = [identity(fam.d)]
    dist = {frontier[0]: 0}
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for perm in frontier:
            for g in gens:
                nb = compose(perm, g)
                if nb not in dist:
                    dist[nb] = depth
                    nxt.append(nb)
        frontier = nxt
    return MappingProxyType(dist)


def coxeter_word_length(perm: SignedPerm, fam: GroupFamily) -> int:
    """Distance from the identity in the Cayley graph; independent of length()."""
    check_member(perm, fam)
    d = _bfs_distances(fam).get(tuple(perm))
    if d is None:
        raise ValueError(f"{perm} not reached by BFS (not in the group?)")
    return d


def greedy_reduced_word(perm: SignedPerm, fam: GroupFamily) -> list[int]:
    """Reduced word for perm as generator indices, largest index first on ties.

    Repeatedly right-multiplies by the largest generator that shortens the
    element; reversing the reduction sequence yields the word, so composing
    s_{w[0]} o s_{w[1]} o ... reproduces perm with exactly length(perm) letters.
    """
    check_member(perm, fam)
    gens = fam.generators()
    word: list[int] = []
    current = perm
    cur_len = length(current, fam)
    while cur_len > 0:
        for idx in range(len(gens), 0, -1):
            shorter = compose(current, gens[idx - 1])
            if length(shorter, fam) < cur_len:
                word.append(idx)
                current = shorter
                cur_len -= 1
                break
        else:
            raise AssertionError(f"no descent generator at {current}")
    word.reverse()
    return word


def word_to_perm(word: list[int], fam: GroupFamily) -> SignedPerm:
    """Compose s_{word[0]} o s_{word[1]} o ... o s_{word[-1]}."""
    gens = fam.generators()
    out = identity(fam.d)
    for idx in reversed(word):
        out = compose(gens[idx - 1], out)
    return out


def central_element(d: int) -> SignedPerm:
    """The central sign change i -> -i of the hyperoctahedral group."""
    return tuple(-i for i in range(1, d + 1))


def max_length(fam: GroupFamily) -> int:
    """Length of the longest element."""
    d = fam.d
    if fam.tag == "A":
        return comb(d, 2)
    if fam.tag == "BC":
        return d * d
    return d * d - d
