"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer polynomial or count equality); there are
no numeric tolerances anywhere.  Criterion grids:

  1. printed coefficient tables, types BC and D, d = 1..4
  2. direct = recursive (A d<=10, BC d<=7, D d<=7; Euler-extended for A, BC)
  3. closed-form length = Cayley-graph BFS distance (BC, D at d<=6)
  4. flag-series theorems at p in {3,5}, T = 12 (types A, C, B, D; plain and
     s-marked), plus C, B and D at p = 3, d = 3 and A at p = 2 and 3, d = 5
  5. subspace counting formulas at p in {3,5}, ambient dimension <= 6
  6. canonical-basis cell counts (type A: S_3 at p in {2,3}, S_4 at p = 3,
     S_5 at p in {2,3}; type C: S_2^pm at p = 3, S_3^pm at p in {2,3},
     S_4^pm at p = 2; type B: S_3^pm at p = 3; type D: D_3 at p = 3)
  7. symbolic closed-form identities
  8. structural properties of flags, refinements and Rothe tallies

The type-D Euler-extended direct-vs-recursion comparison is reported (INFO)
rather than gated.
"""

from weylmahonian import checks
from weylmahonian.statistics import closed_form, mahonian_direct, mahonian_recursive
from weylmahonian.weylgroups import GroupFamily, coxeter_word_length, length

from reference_tables import BC_TABLES, D_TABLES, table_poly


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def passes(rep):
    assert rep.passed, f"{rep.label()}: {rep.discrepancy}"


def test_criterion_1_reference_tables():
    """Published coefficient tables, exact match, d = 1..4."""
    for d in range(1, 5):
        got = mahonian_direct(GroupFamily("BC", d))
        assert got == table_poly(BC_TABLES[d]), f"BC table d={d}"
    for d in range(1, 5):
        got = mahonian_direct(GroupFamily("D", d))
        assert got == table_poly(D_TABLES[d]), f"D table d={d}"
    report("criterion 1: coefficient tables BC and D, d=1..4", True)


def test_criterion_2_direct_equals_recursive():
    grids = [("A", 10, True), ("BC", 7, True), ("D", 7, False)]
    for tag, dmax, euler_too in grids:
        for d in range(dmax + 1):
            passes(checks.direct_vs_recursive(tag, d))
            if euler_too:
                passes(checks.direct_vs_recursive(tag, d, euler=True))
    report("criterion 2: direct = recursive (A<=10, BC<=7, D<=7; +euler A,BC)", True)
    # reported, not gated: the type-D Euler-extended comparison
    for d in range(8):
        rep = checks.d_euler_direct_vs_recursive(d)
        print(f"INFO  d_euler_direct_vs_recursive d={d}: "
              f"{'agrees' if rep.passed else 'DIFFERS: ' + str(rep.discrepancy)}")


def test_criterion_3_length_equals_word_length():
    for tag in ("BC", "D"):
        for d in range(1, 7):
            passes(checks.length_vs_bfs(tag, d))
    assert length((-2, -3, 1), GroupFamily("BC", 3)) == 6
    assert coxeter_word_length((-2, -3, 1), GroupFamily("BC", 3)) == 6
    assert length((-2, 4, -3, 1), GroupFamily("D", 4)) == 8
    assert coxeter_word_length((-2, 4, -3, 1), GroupFamily("D", 4)) == 8
    report("criterion 3: closed-form length = BFS distance, BC and D, d<=6", True)


def test_criterion_4_flag_series_theorems():
    cases = []
    for p in (3, 5):
        for alpha in (False, True):
            for d in (1, 2, 3):
                cases.append(("A", p, d, alpha))
            for kind in ("C", "B", "D"):
                cases.append((kind, p, 2, alpha))
    for alpha in (False, True):
        cases += [("C", 3, 3, alpha), ("B", 3, 3, alpha), ("D", 3, 3, alpha), ("A", 2, 5, alpha), ("A", 3, 5, alpha)]
    for kind, p, d, alpha in cases:
        passes(checks.flag_series_theorem(kind, p, d, 12, alpha))
    report("criterion 4: flag-series theorems at p in {3,5}, T=12 (plain and s-marked), "
           "C/B/D p=3 d=3, A p=2 d=5, A p=3 d=5", True)


def test_criterion_5_counting_formulas():
    for p in (3, 5):
        for d in range(1, 7):
            passes(checks.subspace_count_grassmann(p, d))
        for d in (1, 2, 3):  # symplectic dim 2d <= 6
            passes(checks.subspace_count_isotropic("C", p, d))
        for d in (1, 2):  # odd quadratic dim 2d+1 <= 6
            passes(checks.subspace_count_isotropic("B", p, d))
        for d in (1, 2, 3):  # hyperbolic dim 2d <= 6, counts per excess l
            passes(checks.subspace_count_hyperbolic(p, d))
    report("criterion 5: subspace counting formulas, dim <= 6, p in {3,5}", True)


def test_criterion_6_canonical_cell_counts():
    for p in (2, 3):
        passes(checks.canonical_cell_counts("A", p, 3))
    passes(checks.canonical_cell_counts("C", 3, 2))
    # added points: C p=2 d=3, D p=3 d=3 and A p=3 d=4
    passes(checks.canonical_cell_counts("C", 2, 3))
    passes(checks.canonical_cell_counts("D", 3, 3))
    passes(checks.canonical_cell_counts("A", 3, 4))
    # added points: C and B p=3 d=3, A p=2 and p=3 d=5, C p=2 d=4
    passes(checks.canonical_cell_counts("C", 3, 3))
    passes(checks.canonical_cell_counts("B", 3, 3))
    passes(checks.canonical_cell_counts("A", 2, 5))
    passes(checks.canonical_cell_counts("A", 3, 5))
    passes(checks.canonical_cell_counts("C", 2, 4))
    report("criterion 6: canonical-basis counts p^inv (S_3, S_4, S_5) and p^length (S_2^pm, S_3^pm, S_4^pm, D_3)", True)


def test_criterion_7_closed_form_identities():
    # q-binomial theorem, d <= 8, a <= 4
    for d in range(9):
        for a in range(5):
            passes(checks.qbinomial_theorem(d, a))
    # type D Weyl-Major generating function vs direct enumeration, d <= 6
    for d in range(1, 7):
        passes(checks.d_wmaj_factorization(d))
    # type A evaluation at q=1 of the recursion (the registry checks the
    # direct sum), d <= 7
    for d in range(1, 8):
        m = mahonian_recursive(GroupFamily("A", d))
        assert m.specialize(q=1) == closed_form("a_wmaj", d), d
    # BC specializations, d <= 5
    for d in range(1, 6):
        passes(checks.bc_length_factorization(d))
        passes(checks.bc_major_factorization(d))
    # type D evaluation at t=1, d <= 5
    for d in range(1, 6):
        passes(checks.d_length_factorization(d))
    # q-t symmetry of the type A polynomials, d <= 7
    for d in range(8):
        passes(checks.symmetry_qt_a(d))
    # BC reciprocal symmetry, d <= 5
    for d in range(1, 6):
        passes(checks.bc_reciprocal_symmetry(d))
    # low-degree agreement between M_d and the BC polynomial, d <= 5
    for d in range(1, 6):
        passes(checks.low_degree_agreement(d))
    report("criterion 7: symbolic closed-form identities", True)


def test_criterion_8_structural_properties():
    # standard weights equal maj/Wmaj for every flag of the criterion 4 grid
    for p in (3, 5):
        for d in (1, 2, 3):
            passes(checks.standard_weight_flags("A", p, d))
        for kind in ("C", "B", "D"):
            passes(checks.standard_weight_flags(kind, p, 2))
    # refinement counts 2^(d-k) for type A, d <= 3, p = 2
    for d in (1, 2, 3):
        passes(checks.refinement_counts(2, d))
    # the two printed Rothe diagrams
    passes(checks.rothe_worked_examples())
    report("criterion 8: standard weights, refinement counts, Rothe tallies", True)
