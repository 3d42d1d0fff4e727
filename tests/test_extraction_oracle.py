"""Brute-force oracle for canonical-basis extraction.

Re-derives each basis vector straight from its definition: iterate every
nonzero vector of the current target subspace, keep those with zero
coordinates at the previous leading positions, and take the one whose last
nonzero non-mirror coordinate is earliest (normalized there).  The fast
elimination-based extraction must agree vector for vector.
"""

from itertools import product

import pytest

from weylmahonian import flaggeom as fg


def _all_vectors(rows, p):
    n = len(rows[0]) if rows else 0
    for cs in product(range(p), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(cs, rows):
            v = [(a + c * b) % p for a, b in zip(v, row)]
        if any(v):
            yield tuple(v)


def brute_extract(space, chain):
    p, n = space.p, space.dim
    linear = space.kind == "linear"
    steps = n if linear else space.d
    top = len(chain[-1]) if chain else 0
    full = tuple(tuple(1 if c == r else 0 for c in range(n)) for r in range(n))
    fs, sig, bullets, mirrors = [], [], [], []
    for i in range(steps):
        if i < top:
            target = next(m for m in chain if len(m) > i)
        elif linear:
            target = full
        else:
            target = tuple(fg._perp_space(space, fs))
        best = None
        for v in _all_vectors(target, p):
            if any(v[c] for c in bullets):
                continue
            avail_nz = [c for c in range(n) if v[c] and c not in mirrors and c not in bullets]
            if not avail_nz:
                continue
            lead = max(avail_nz)
            if v[lead] != 1:
                continue
            if best is None or lead < best[1]:
                best = (v, lead)
        v, lead = best
        fs.append(v)
        idx = space.columns[lead]
        sig.append(idx)
        bullets.append(lead)
        if not linear:
            mirrors.append(space.columns.index(-idx))
    return tuple(fs), tuple(sig)


@pytest.mark.parametrize(
    "space",
    [
        fg.linear_space(2, 3),
        fg.linear_space(3, 2),
        fg.symplectic_space(3, 2),
        fg.quadratic_space(3, 1),
        fg.hyperbolic_space(3, 2),
    ],
    ids=lambda s: f"{s.kind}-p{s.p}-d{s.d}",
)
def test_extraction_matches_brute_force(space):
    even = False if space.kind == "hyperbolic" else None
    for chain in fg.enumerate_flags(space, even_only=even):
        assert fg.canonical_basis(space, chain) == brute_extract(space, chain)
