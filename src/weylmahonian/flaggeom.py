"""Brute-force flag enumeration over prime fields: the geometric oracle.

Vectors are tuples of ints mod p; a subspace is the tuple of rows of its
reduced row echelon form (the unique canonical representative, rows ordered by
pivot).  Coordinates of the typed spaces are stored in <_pm index order
(FqSpace.columns, from weylgroups.pm_coordinates):

  symplectic / hyperbolic (dim 2d):  x_1, ..., x_d, x_-d, ..., x_-1
  odd quadratic (dim 2d+1):          x_1, ..., x_d, x_0, x_-d, ..., x_-1

Forms: position c pairs with its mirror n-1-c (x_i with x_-i, x_0 with itself)
at weight w_c: -1 on the symplectic second half, 2 at the quadratic centre, 1
elsewhere.  So B(u, v) = sum_c w_c u_c v_(n-1-c), and Q(x) = B(x, x)/2 (odd p):
  symplectic   B(b_i, b_-i) = 1 = -B(b_-i, b_i)
  quadratic    Q(x) = x_0^2 + sum x_i x_-i        (odd p only)
  hyperbolic   Q(x) = sum x_i x_-i, metabolizer I = span(b_1, ..., b_d)

A flag is a strictly increasing chain of nonzero subspaces (isotropic ones
for the typed spaces; for the hyperbolic space the *last* member must have
even parity dim(V) - dim(V & I)).  Weighted flags are never enumerated
weight by weight: each flag contributes the closed truncated factor
prod_i x*t^(dim V_i) / (1 - x*t^(dim V_i)) with x = s or 1, which depends
on the flag only through its dimension signature.

The k-dimensional subspaces are streamed pivot set by pivot set, each as
the product of its rows' candidate lists (1 at the row's pivot, 0 at the
other pivots and left of its own, anything elsewhere).  A typed space first
drops the rows with Q != 0 (quadratic kinds); then choosing a row filters
every later list once by B(row, -) = 0, keeping its order, so each later row
is drawn from the orthogonal complement of the rows chosen, a branch with an
empty later list is cut, and the last row needs no test.  The stream is the
linear one with the non-isotropic subspaces left out, in the same order.

The subspaces of a subspace W come from W's RREF basis B (pivots
c_1 < ... < c_k): for U in RREF, U*B equals U at the columns c_j and vanishes
left of each row's first 1, so U*B is in RREF, and U -> U*B maps the
subspaces of F_p^k onto those of W in enumeration order (_below).  No
containment relation is stored: the canonical-basis tally counts complete
flags by column, pulled from W's hyperplanes one level at a time;
enumerate_flags builds its up-sets per call and walks them depth first.

flag_series pulls nothing.  Sorted by its last member W (dim k), a flag is
the image under U -> U*B of a chain of F_p^k ending at F_p^k, so the flags
ending at W weigh F_k, the series of those chains, and the flag series is
sum_k N_k F_k, with N_k the number of k-subspaces a flag may end at.  Split
at the chain's second-to-last member, F_0 = 1 and F_k = g_k S with
S = sum_(j<k) N_j(F_p^k) F_j and g_k = x t^k + x^2 t^(2k) + ... the top's
factor, so F_k = S/(1 - x t^k) - S: one pass, no series product.  The N's
come from a census (subspace_census), one enumeration pass per space over
every k that reads each hyperbolic subspace's metabolizer excess once
(metabolizer_excess) and also serves the subspace-count checks.  This is
the recursions' shape (the largest member, then a type A interior): the
series stays independent of them only through the N's, which are
enumerated and never taken from a closed form, and enumerate_flags with
weighted_flag_sum stays its literal reference.

The tally and the walk key their dicts by bytes, one byte per coordinate of
the RREF rows (_key), and _below returns the same bytes for each image.  It
packs B's rows as ints with one digit per coordinate and caches each U as
its k columns, each an int with one n-digit block per row of U; U*B is then
the sum of k products, one digit per entry.  An entry sums k products of
residues, so before reduction it is at most k(p-1)^2, and a digit is the
fewest bytes (a power of two) that hold that bound: one byte for every
p <= 7 up to k = 7, two for p = 7 at k >= 8, p = 11 at k >= 3 and p = 13 at
k >= 2.  The digits are written out with one to_bytes and reduced mod p
without a Python-level loop: bytes.translate for one-byte digits,
struct.unpack and a map for wider ones.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial, reduce
from itertools import combinations, product
from operator import methodcaller, mul, or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra import MultiPoly, TruncSeries
from .weylgroups import GroupFamily, SignedPerm, check_member, descent_set, pm_coordinates

Vector = tuple[int, ...]
Subspace = tuple[Vector, ...]  # RREF rows
Flag = tuple[Subspace, ...]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_CELLS = 10_000_000  # enumeration safety valve on p^dim


# -- GF(p) linear algebra on tuple vectors -----------------------------------


def _eliminate(rows: Sequence[Sequence[int]], p: int, cols: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Gauss-Jordan elimination taking pivot columns in the given order.

    Returns the (column, normalized row) pivots in the order found, each
    cleared at every other pivot column.
    """
    mat = [[x % p for x in row] for row in rows]
    pivots: list[tuple[int, list[int]]] = []
    for col in cols:
        pr = next((r for r in mat if r[col]), None)
        if pr is None:
            continue
        mat.remove(pr)
        inv = pow(pr[col], -1, p)
        pr = [(x * inv) % p for x in pr]
        for r in mat:
            if r[col]:
                f = r[col]
                r[:] = [(x - f * y) % p for x, y in zip(r, pr)]
        for _, done in pivots:
            if done[col]:
                f = done[col]
                done[:] = [(x - f * y) % p for x, y in zip(done, pr)]
        pivots.append((col, pr))
        mat = [r for r in mat if any(r)]
        if not mat:
            break
    return pivots


def rref(rows: Sequence[Sequence[int]], p: int) -> Subspace:
    """Reduced row echelon form; zero rows dropped, rows ordered by pivot."""
    pivots = _eliminate(rows, p, range(len(rows[0]) if rows else 0))
    return tuple(tuple(r) for _, r in sorted(pivots))


def nullspace(constraints: Sequence[Sequence[int]], n: int, p: int) -> list[Vector]:
    """Basis of {x in F_p^n : c . x = 0 for every constraint row c}."""
    pivots = _eliminate(constraints, p, range(n))
    basis = []
    for fc in sorted(set(range(n)) - {pc for pc, _ in pivots}):
        v = [0] * n
        v[fc] = 1
        for pc, row in pivots:
            v[pc] = (-row[fc]) % p
        basis.append(tuple(v))
    return basis


def subspace_le(small: Subspace, big: Subspace, p: int) -> bool:
    """Containment test: adding small's rows to big leaves its RREF unchanged."""
    return rref(big + small, p) == big


# -- spaces -------------------------------------------------------------------

KINDS = ("linear", "symplectic", "quadratic", "hyperbolic")


@dataclass(frozen=True)
class FqSpace:
    """A finite-dimensional space over F_p with an attached form descriptor."""

    p: int
    kind: str
    d: int  # linear: dim; symplectic/hyperbolic: half-dim; quadratic: (dim-1)/2

    def __post_init__(self):
        if self.p not in _SMALL_PRIMES:
            raise ValueError(f"p must be a small prime, got {self.p}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind in ("quadratic", "hyperbolic") and self.p == 2:
            raise ValueError(f"{self.kind} spaces need odd characteristic")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def dim(self) -> int:
        if self.kind == "linear":
            return self.d
        if self.kind == "quadratic":
            return 2 * self.d + 1
        return 2 * self.d

    @property
    def family(self) -> GroupFamily:
        """The Weyl group indexing the canonical bases of (even) flags."""
        return GroupFamily({"linear": "A", "hyperbolic": "D"}.get(self.kind, "BC"), self.d)

    @property
    def iso_max(self) -> int:
        """Largest dimension of the subspaces a flag may contain."""
        return self.dim if self.kind == "linear" else self.d

    @property
    def columns(self) -> tuple[int, ...]:
        """The signed coordinate index at each storage position (1-based for linear)."""
        return pm_coordinates(self.d, {"linear": "A", "quadratic": "B"}.get(self.kind, "C"))

    @cached_property
    def _mirror_weights(self) -> Vector:
        """w_(n-1), ..., w_0, the mirror weights of the module docstring from
        the last position down; all 0 for a linear space (the zero form)."""
        d = self.d
        if self.kind == "linear":
            return (0,) * d
        return (-1 if self.kind == "symplectic" else 1,) * d + (2,) * (self.kind == "quadratic") + (1,) * d

    def functional(self, u: Vector) -> Vector:
        """The coefficient row of B(u, -): entry a is w_(n-1-a) u_(n-1-a), with
        the mirror weights of the module docstring (not reduced mod p).  A
        linear space carries the zero form."""
        return tuple(map(mul, self._mirror_weights, reversed(u)))

    def bilinear(self, u: Vector, v: Vector) -> int:
        """The symplectic form, or the polar form of Q, evaluated mod p."""
        return sum(map(mul, self.functional(u), v)) % self.p


def linear_space(p: int, n: int) -> FqSpace:
    return FqSpace(p, "linear", n)


def symplectic_space(p: int, d: int) -> FqSpace:
    return FqSpace(p, "symplectic", d)


def quadratic_space(p: int, d: int) -> FqSpace:
    return FqSpace(p, "quadratic", d)


def hyperbolic_space(p: int, d: int) -> FqSpace:
    return FqSpace(p, "hyperbolic", d)


def space_for_family(fam_tag: str, p: int, d: int) -> FqSpace:
    """The space whose flags realize the given Weyl family (C for tag BC)."""
    return {
        "A": linear_space,
        "C": symplectic_space,
        "BC": symplectic_space,
        "B": quadratic_space,
        "D": hyperbolic_space,
    }[fam_tag](p, d)


# -- subspace enumeration -----------------------------------------------------


def _row_candidates(dim: int, pivots: tuple[int, ...], r: int, p: int) -> list[Vector]:
    """All RREF rows with pivot pivots[r]: 1 at the pivot, 0 at the other
    pivot columns and left of the pivot, arbitrary elsewhere."""
    piv = pivots[r]
    choices = [(1,) if c == piv else (0,) if c < piv or c in pivots else range(p) for c in range(dim)]
    return list(product(*choices))


def _check_cells(space: FqSpace) -> None:
    """ValueError if p^dim exceeds MAX_CELLS.  Since p >= 2, a dim of at least
    MAX_CELLS.bit_length() is refused without forming p^dim."""
    if space.dim >= MAX_CELLS.bit_length() or space.p**space.dim > MAX_CELLS:
        raise ValueError(f"p^dim = {space.p}^{space.dim} exceeds the cell cap {MAX_CELLS}")


def enumerate_subspaces(space: FqSpace, k: int, singular: dict[Vector, bool] | None = None) -> Iterator[Subspace]:
    """Deterministic stream of the k-dimensional subspaces a flag may contain,
    as RREF row tuples.

    For a linear space these are all k-dimensional subspaces; a typed space
    streams its totally isotropic ones (rows pairwise orthogonal, and Q = 0 on
    the rows for the quadratic kinds), so none above dimension d.  Q is tested
    once per distinct row and kept in singular, a fresh dict unless the
    caller passes one to share across dimensions (subspace_census).
    """
    if not 0 <= k <= space.dim:
        raise ValueError(f"need 0 <= k <= {space.dim}, got {k}")
    _check_cells(space)
    if k > space.iso_max:
        return
    dim, p = space.dim, space.p
    singular = {} if singular is None else singular
    for pivots in combinations(range(dim), k):
        cands = [_row_candidates(dim, pivots, r, p) for r in range(k)]
        if space.kind == "linear" or not k:  # no pair of rows to test
            yield from product(*cands)
            continue
        if space.kind in ("quadratic", "hyperbolic"):
            for rows in cands:
                for v in rows:
                    if v not in singular:
                        singular[v] = space.bilinear(v, v) == 0
            cands = [[v for v in rows if singular[v]] for rows in cands]
        yield from _isotropic_rows(space, cands)


def _isotropic_rows(space: FqSpace, lists: list[list[Vector]], chosen: Subspace = ()) -> list[Subspace]:
    """The row tuples after chosen, one row from each candidate list, that
    are pairwise orthogonal, in product order: each row chosen filters the
    later lists (module docstring), so the last list is taken whole."""
    first, *later = lists
    if not later:
        return [(*chosen, v) for v in first]
    p, found = space.p, []
    for v in first:
        f = space.functional(v)
        kept = []
        for rows in later:
            rows = [u for u in rows if sum(map(mul, f, u)) % p == 0]
            if not rows:
                break
            kept.append(rows)
        else:
            found += _isotropic_rows(space, kept, (*chosen, v))
    return found


def is_isotropic(space: FqSpace, rows: Subspace) -> bool:
    """B = 0 on all pairs of rows; a row with itself tests Q = B(v, v)/2."""
    return all(
        space.bilinear(rows[i], rows[j]) == 0 for i in range(len(rows)) for j in range(i, len(rows))
    )


def metabolizer_excess(space: FqSpace, rows: Subspace) -> int:
    """dim(V / (V & I)): the rank of the negative-coordinate block."""
    if space.kind != "hyperbolic":
        raise ValueError("parity is only defined for the hyperbolic space")
    return len(rref([row[space.d :] for row in rows], space.p))


@lru_cache(maxsize=None)
def subspace_census(space: FqSpace) -> Mapping[tuple[int, int], int]:
    """The number of subspaces a flag may contain, by (dimension k, metabolizer
    excess) for the hyperbolic space and by (k, 0) otherwise, k = 0..iso_max,
    from one enumeration pass that tests Q once per distinct row across every
    k (read-only: the cache hands it to every caller)."""
    excess = partial(metabolizer_excess, space) if space.kind == "hyperbolic" else lambda rows: 0
    census: Counter[tuple[int, int]] = Counter()
    singular: dict[Vector, bool] = {}
    for k in range(space.iso_max + 1):
        census.update((k, excess(rows)) for rows in enumerate_subspaces(space, k, singular))
    return MappingProxyType(dict(census))


# -- flags ---------------------------------------------------------------------


def _key(sub: Subspace) -> bytes:
    """The dict key of a subspace: its RREF rows, one byte per coordinate."""
    return b"".join(map(bytes, sub))


def _last_positions(sub: Subspace, masks: Iterable[int]) -> int:
    """L(W) as a bit mask, the positions that are the last nonzero coordinate
    of some vector of W, from the masks of W's hyperplanes.  L(W) holds the
    last position of W's last RREF row, which is all of L(W) for a line,
    whose one hyperplane, the zero subspace, has mask 0.  Once dim W >= 2
    every vector of W lies in a hyperplane of W, so L(W) is the union of
    their L sets."""
    return reduce(or_, masks, 1 << len(bytes(sub[-1]).rstrip(b"\0")) - 1)


def _pack(values: Sequence[int], stride: int) -> int:
    """The residues as one int, values[i] in byte i * stride (little-endian)."""
    buf = bytearray(stride * len(values))
    buf[::stride] = bytes(values)
    return int.from_bytes(buf, "little")


def _wide_residues(p: int, width: int, raw: bytes) -> bytes:
    """One byte per digit of raw, little-endian digits of width bytes, each
    reduced mod p."""
    letter = {2: "H", 4: "I", 8: "Q"}[width]
    return bytes(map(p.__rmod__, struct.unpack(f"<{len(raw) // width}{letter}", raw)))


@lru_cache(maxsize=None)
def _coordinates(
    p: int, k: int, n: int, dims: Sequence[int]
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int, Callable[[bytes], bytes]]:
    """The subspaces U of F_p^k with the given dimensions, dimension by
    dimension in enumeration order, each as its k columns packed one n-digit
    block per row, with the byte length of its image; the bytes per digit,
    the fewest (a power of two) that hold an unreduced image entry, at most
    k(p-1)^2; and the reduction of an image to its key: bytes.translate for
    one-byte digits, else struct.unpack and a map."""
    width = 1
    while k * (p - 1) ** 2 >= 256**width:
        width *= 2
    coords = tuple(
        (tuple(_pack(col, width * n) for col in zip(*u)), width * n * len(u))
        for m in dims
        for u in enumerate_subspaces(linear_space(p, k), m)
    )
    if width == 1:
        return coords, width, methodcaller("translate", bytes(v % p for v in range(256)))
    return coords, width, partial(_wide_residues, p, width)


def _below(space: FqSpace, big: Subspace, dims: Sequence[int]) -> list[bytes]:
    """The keys of the subspaces of big with the given dimensions, dimension
    by dimension in enumeration order: the images U*B of the subspaces U of
    F_p^dim(big), already in RREF (module docstring), so no containment is
    tested and a subspace the enumeration missed raises where it is looked
    up.  With B's rows packed one digit per coordinate, U*B is the sum of
    U's packed columns times B's rows, one digit per entry, reduced mod p."""
    coords, width, residues = _coordinates(space.p, len(big), space.dim, dims)
    rows = [_pack(row, width) for row in big]
    return [residues(sum(map(mul, cols, rows)).to_bytes(size, "little")) for cols, size in coords]


def enumerate_flags(space: FqSpace, even_only: bool | None = None) -> Iterator[Flag]:
    """All flags (strictly increasing chains of nonzero subspaces), the empty
    flag first: a depth-first walk up from the zero subspace, over up-sets
    listed in enumeration order.  Typed spaces restrict members to isotropic
    subspaces; for the hyperbolic space even_only (the default) keeps only
    chains whose last member has even parity."""
    if even_only is None:
        even_only = space.kind == "hyperbolic"
    if even_only and space.kind != "hyperbolic":
        raise ValueError("parity filtering needs the hyperbolic space")
    even = cache(lambda sub: metabolizer_excess(space, sub) % 2 == 0)  # once per subspace
    above: dict[bytes, list[tuple[Subspace, bytes]]] = {b"": []}  # key -> (larger subspace, its key)
    for k in range(1, space.iso_max + 1):
        for big in enumerate_subspaces(space, k):
            key = _key(big)
            above[key] = []
            for sub in _below(space, big, range(k)):
                above[sub].append((big, key))
    stack: list[tuple[Flag, bytes]] = [((), b"")]
    while stack:
        chain, top = stack.pop()
        if not even_only or not chain or even(chain[-1]):
            yield chain
        for sub, key in reversed(above[top]):  # popped in enumeration order
            stack.append(((*chain, sub), key))


def weighted_flag_sum(chains: Iterable[Flag], bound: int, with_alpha: bool = False) -> TruncSeries:
    """Sum over the chains of
    prod_i (x t^(dim V_i) + x^2 t^(2 dim V_i) + ...) with x = s if with_alpha:
    over the chains enumerate_flags lists, the literal reference for
    flag_series.

    A chain's term depends only on its dimension signature, so the chains are
    counted by signature and each signature's term is formed once, each
    factor applied as term/(1 - x t^m) - term (TruncSeries.over)."""
    signatures = Counter(tuple(map(len, chain)) for chain in chains)
    total = TruncSeries.zero(bound)
    for signature, count in signatures.items():
        term = TruncSeries(bound, [MultiPoly.const(count)])
        for m in signature:
            term = term.over(m, with_s=with_alpha) - term
        total = total + term
    return total


def flag_series(space: FqSpace, bound: int, with_alpha: bool = False) -> TruncSeries:
    """Generating series of weighted flags: the weighted_flag_sum over all
    flags of the space (even flags for the hyperbolic space), without listing
    a flag: sum_k N_k F_k by the census recursion (module docstring), N_k
    from the space's census and N_j(F_p^k) from that of linear_space(p, k).
    The cell cap is checked and the bound validated before any subspace is
    enumerated."""
    _check_cells(space)

    def combination(terms: Iterable[tuple[int, TruncSeries]]) -> TruncSeries:
        return TruncSeries.from_poly(sum((n * series.poly for n, series in terms), MultiPoly()), bound)

    chains = [TruncSeries.one(bound)]  # F_0, F_1, ...
    for k in range(1, space.iso_max + 1):
        inner = subspace_census(linear_space(space.p, k))
        below = combination((inner[j, 0], chain) for j, chain in enumerate(chains))
        chains.append(below.over(k, with_s=with_alpha) - below)
    return combination((n, chains[k]) for (k, excess), n in subspace_census(space).items() if excess % 2 == 0)


# -- canonical bases ------------------------------------------------------------


def validate_flag(space: FqSpace, chain: Sequence[Sequence[Sequence[int]]]) -> Flag:
    """Canonicalize a chain to RREF members and check it is a flag of the space."""
    if {len(v) for member in chain for v in member} - {space.dim}:
        raise ValueError(f"flag vectors must have length {space.dim}")
    canon = tuple(rref(member, space.p) for member in chain)
    prev_dim = 0
    for i, member in enumerate(canon):
        if len(member) <= prev_dim:
            raise ValueError("flag members must have strictly increasing dimensions")
        if i and not subspace_le(canon[i - 1], member, space.p):
            raise ValueError("flag members must be nested")
        if len(member) > space.iso_max or not is_isotropic(space, member):
            raise ValueError("typed flags must consist of isotropic subspaces")
        prev_dim = len(member)
    return canon


def _signed_perm(space: FqSpace, cols: Sequence[int]) -> SignedPerm:
    """The length-permutation read off the columns of a whole extraction."""
    sigma = tuple(space.columns[c] for c in cols)
    if sorted(abs(x) for x in sigma) != list(range(1, len(sigma) + 1)):
        raise AssertionError(f"extraction produced a non-permutation {sigma}")
    return sigma


def _extract(space: FqSpace, chain: Flag) -> tuple[tuple[Vector, ...], SignedPerm]:
    """canonical_basis of a flag already RREF, nested and isotropic: each step
    inside the first member not yet spanned, then in the full space (linear)
    or the orthogonal complement of the vectors found."""
    fs: list[Vector] = []
    cols: list[int] = []
    while len(cols) < space.iso_max:
        target = next((m for m in chain if len(m) > len(cols)), None)
        if target is None:  # past the flag (a linear space's zero forms leave the full space)
            target = nullspace([space.functional(f) for f in fs], space.dim, space.p)
        avail = sorted((c for c in range(space.dim) if c not in cols), reverse=True)
        # The pivots after the used positions span the target vectors that
        # vanish there; with the available columns taken worst-first, the last
        # pivot row is the minimal such vector.
        col, vec = _eliminate(target, space.p, [*cols, *avail])[-1]
        if col in cols:
            raise ValueError("degenerate span: minimal vector ends at a used column")
        cols.append(col)
        fs.append(tuple(vec))
    return tuple(fs), _signed_perm(space, cols)


def canonical_basis(space: FqSpace, chain: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[Vector, ...], SignedPerm]:
    """The canonical (half-)basis adapted to a flag, and its length-permutation.

    Each step finds the unique shortest vector, with last nonzero coordinate 1,
    inside the first flag member not yet spanned, subject to zero coordinates
    at the previously used positions.  The mirror positions -sigma(1), ...,
    -sigma(i-1) need no special treatment: each f_j found vanishes above its
    position c_j, so for v orthogonal to every earlier f_j, B(f_j, v) =
    w v_(n-1-c_j) plus terms at positions above n-1-c_j, with w a unit mod p.
    Taken top-down, a v vanishing at the used positions thus vanishes at every
    mirror position above its last nonzero non-mirror coordinate, and no
    mirror position is ever the last nonzero coordinate.
    Once the flag is exhausted, construction continues in the orthogonal
    complement of the vectors found so far (the full space in the linear
    case), producing a basis of a canonically chosen maximal isotropic
    subspace containing the flag.
    """
    return _extract(space, validate_flag(space, chain))


@lru_cache(maxsize=None)
def _complete_flag_tally(space: FqSpace) -> Mapping[SignedPerm, int]:
    """Length-permutation tally over all complete flags of the space (read-only:
    the cache hands it to every caller), counted by the columns the
    extraction uses, read off L sets with no elimination: each subspace's L
    set, kept as a bit mask, is read off its hyperplanes' (_last_positions).
    Each step takes the last position of a member vector vanishing at the
    used columns.  If those are L(V), the vectors of W (dim V + 1) vanishing
    there form a line whose last position lies in L(W) - L(V), so by
    induction the step from V to W adds the one bit of L(W) ^ L(V).  The
    flags ending at W are pulled from W's hyperplanes, one level at a time."""
    level: dict[bytes, tuple[int, dict[tuple[int, ...], int]]] = {b"": (0, {(): 1})}
    tally: dict[tuple[int, ...], int] = {}
    for k in range(1, space.iso_max + 1):
        prev, level = level, {}
        for sub in enumerate_subspaces(space, k):
            hyperplanes = [prev[below] for below in _below(space, sub, (k - 1,))]
            last = _last_positions(sub, [mask for mask, _ in hyperplanes])
            counts = tally if k == space.iso_max else {}
            for below_last, states in hyperplanes:
                col = (last ^ below_last).bit_length() - 1
                for cols, n in states.items():
                    counts[(*cols, col)] = counts.get((*cols, col), 0) + n
            level[_key(sub)] = last, counts
    return MappingProxyType({_signed_perm(space, cols): n for cols, n in tally.items()})


def count_canonical_bases(space: FqSpace, perm: SignedPerm) -> int:
    """Number of canonical bases with the given length-permutation, counted by
    the complete-flag tally (canonical bases of a space are in bijection with
    its complete flags)."""
    return _complete_flag_tally(space).get(tuple(perm), 0)


# -- standard flags --------------------------------------------------------------


def standard_flag(perm: SignedPerm, fam: GroupFamily) -> tuple[tuple[int, ...], int]:
    """Dimension sequence and standard weight of the standard flags whose
    length-permutation is perm.

    The dimensions are the pm-order descent positions, plus d itself when the
    last entry is negative (the flag is then maximal); the weight is their sum.
    On unsigned permutations this reduces to the classical descent set.
    """
    check_member(perm, fam)
    dims = descent_set(perm)
    return tuple(dims), sum(dims)


def refinement_count(perm: SignedPerm, fam: GroupFamily) -> int:
    """Number of flags sharing a canonical basis with length-permutation perm
    (type A): 2^(d-k) with k the number of descents."""
    if fam.tag != "A":
        raise ValueError("refinement counts are a type A statement")
    check_member(perm, fam)
    return 2 ** (fam.d - len(descent_set(perm)))


def flags_by_canonical_basis(space: FqSpace) -> dict[tuple[tuple[Vector, ...], SignedPerm], list[Flag]]:
    """Bucket every flag of a linear space by its canonical basis, keyed by
    the (basis, length-permutation) pair that canonical_basis returns."""
    if space.kind != "linear":
        raise ValueError("refinement enumeration is implemented for linear spaces")
    buckets: dict[tuple[tuple[Vector, ...], SignedPerm], list[Flag]] = {}
    for chain in enumerate_flags(space):
        buckets.setdefault(_extract(space, chain), []).append(chain)
    return buckets
