"""Brute-force oracles for the forms and for canonical-basis extraction.

B_ref and Q_ref write each typed space's form out per kind, as in the
textbook; FqSpace.bilinear must agree with B_ref, and B(v, v)/2 with Q_ref.

The extraction oracle re-derives each basis vector straight from its
definition: iterate every nonzero vector of the current target subspace (past
the flag, every nonzero vector of the space, B_ref-orthogonal to the ones found
so far for the typed kinds), keep those with zero coordinates at the previous
leading positions, and take the one whose last nonzero non-mirror coordinate is
earliest (normalized there).
The fast elimination-based extraction must agree vector for vector.
"""

from itertools import product

import pytest

from weylmahonian import flaggeom as fg


def B_ref(space, u, v):
    """The symplectic form, or the polar form of Q, evaluated mod p."""
    d, p = space.d, space.p
    if space.kind == "symplectic":
        total = sum(u[c] * v[2 * d - 1 - c] - u[2 * d - 1 - c] * v[c] for c in range(d))
    elif space.kind == "hyperbolic":
        total = sum(u[c] * v[2 * d - 1 - c] + u[2 * d - 1 - c] * v[c] for c in range(d))
    else:
        total = 2 * u[d] * v[d]
        total += sum(u[c] * v[2 * d - c] + u[2 * d - c] * v[c] for c in range(d))
    return total % p


def Q_ref(space, v):
    """The quadratic form Q of the quadratic kinds."""
    d, p = space.d, space.p
    if space.kind == "hyperbolic":
        return sum(v[c] * v[2 * d - 1 - c] for c in range(d)) % p
    return (v[d] * v[d] + sum(v[c] * v[2 * d - c] for c in range(d))) % p


@pytest.mark.parametrize(
    "space",
    [fg.symplectic_space(p, d) for p in (2, 3) for d in (1, 2)]
    + [make(3, d) for make in (fg.quadratic_space, fg.hyperbolic_space) for d in (1, 2)],
    ids=lambda s: f"{s.kind}-p{s.p}-d{s.d}",
)
def test_bilinear_matches_textbook_forms(space):
    vectors = list(product(range(space.p), repeat=space.dim))
    for u, v in product(vectors, repeat=2):
        assert space.bilinear(u, v) == B_ref(space, u, v)
    for v in vectors:
        if space.kind != "symplectic":
            assert space.bilinear(v, v) * pow(2, -1, space.p) % space.p == Q_ref(space, v)
        assert fg.is_isotropic(space, (v,)) == (space.kind == "symplectic" or Q_ref(space, v) == 0)


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
    fs, sig, bullets, mirrors = [], [], [], []
    for i in range(steps):
        if i < top:
            target = _all_vectors(next(m for m in chain if len(m) > i), p)
        else:
            target = (
                v
                for v in product(range(p), repeat=n)
                if any(v) and (linear or all(B_ref(space, f, v) == 0 for f in fs))
            )
        best = None
        for v in target:
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
        fg.symplectic_space(2, 3),
        fg.symplectic_space(3, 2),
        fg.symplectic_space(5, 2),
        fg.quadratic_space(3, 1),
        fg.quadratic_space(3, 2),
        fg.hyperbolic_space(3, 2),
    ],
    ids=lambda s: f"{s.kind}-p{s.p}-d{s.d}",
)
def test_extraction_matches_brute_force(space):
    even = False if space.kind == "hyperbolic" else None
    for chain in fg.enumerate_flags(space, even_only=even):
        assert fg.canonical_basis(space, chain) == brute_extract(space, chain)
