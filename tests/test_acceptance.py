"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer polynomial or count equality); there are
no numeric tolerances anywhere.  Criterion 1 compares with the printed
coefficient tables of types BC and D, d = 1..4.  Criteria 2-8 run the named
registry checks over their default grids, the same points that
``verify --all`` runs (420 points, 4.6-5.0 s as a whole process on 2 vCPUs), so
the grids are defined only in ``weylmahonian.checks``:

  1. printed coefficient tables, types BC and D
  2. direct = recursive, plain and Euler-extended
  3. closed-form length = Cayley-graph BFS distance
  4. flag-series theorems, plain and s-marked
  5. subspace counting formulas
  6. canonical-basis cell counts
  7. symbolic closed-form identities
  8. structural properties of flags, refinements and Rothe diagrams

The type-D Euler-extended direct-vs-recursion comparison is reported (INFO)
rather than gated.
"""

from weylmahonian.statistics import closed_form, mahonian_direct, mahonian_recursive
from weylmahonian.weylgroups import GroupFamily, coxeter_word_length, length

from reference_tables import BC_TABLES, D_TABLES, table_poly


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def run_criterion(criterion: str, names: list[str], registry_reports):
    """Run the named checks over their registry grids, each computed once per
    session (conftest.py): a gating report must pass, a non-gating one is
    printed as INFO."""
    reports = [rep for name in names for rep in registry_reports(name)]
    for rep in reports:
        if not rep.gating:
            print(f"INFO  {rep.label()}: "
                  f"{'agrees' if rep.passed else 'DIFFERS: ' + str(rep.discrepancy)}")
    failed = [f"{rep.label()}: {rep.discrepancy}" for rep in reports if rep.gating and not rep.passed]
    report(criterion, not failed, failed[0] if failed else f"{len(reports)} points of {', '.join(names)}")


def test_criterion_1_reference_tables():
    """Published coefficient tables, exact match, d = 1..4."""
    for d in range(1, 5):
        got = mahonian_direct(GroupFamily("BC", d))
        assert got == table_poly(BC_TABLES[d]), f"BC table d={d}"
    for d in range(1, 5):
        got = mahonian_direct(GroupFamily("D", d))
        assert got == table_poly(D_TABLES[d]), f"D table d={d}"
    report("criterion 1: coefficient tables BC and D, d=1..4", True)


def test_criterion_2_direct_equals_recursive(registry_reports):
    run_criterion("criterion 2: direct = recursive",
                  ["direct_vs_recursive", "d_euler_direct_vs_recursive"], registry_reports)


def test_criterion_3_length_equals_word_length(registry_reports):
    assert length((-2, -3, 1), GroupFamily("BC", 3)) == 6
    assert coxeter_word_length((-2, -3, 1), GroupFamily("BC", 3)) == 6
    assert length((-2, 4, -3, 1), GroupFamily("D", 4)) == 8
    assert coxeter_word_length((-2, 4, -3, 1), GroupFamily("D", 4)) == 8
    run_criterion("criterion 3: closed-form length = BFS distance", ["length_vs_bfs"], registry_reports)


def test_criterion_4_flag_series_theorems(registry_reports):
    run_criterion("criterion 4: flag-series theorems", ["flag_series_theorem"], registry_reports)


def test_criterion_5_counting_formulas(registry_reports):
    run_criterion(
        "criterion 5: subspace counting formulas",
        ["subspace_count_grassmann", "subspace_count_isotropic", "subspace_count_hyperbolic"],
        registry_reports,
    )


def test_criterion_6_canonical_cell_counts(registry_reports):
    run_criterion("criterion 6: canonical-basis cell counts", ["canonical_cell_counts"], registry_reports)


def test_criterion_7_closed_form_identities(registry_reports):
    # type A evaluation at q=1 of the recursion (the registry checks the
    # direct sum), d <= 7
    for d in range(1, 8):
        m = mahonian_recursive(GroupFamily("A", d))
        assert m.specialize(q=1) == closed_form("a_wmaj", d), d
    run_criterion(
        "criterion 7: symbolic closed-form identities",
        [
            "qbinomial_theorem",
            "d_wmaj_factorization",
            "bc_length_factorization",
            "bc_major_factorization",
            "d_length_factorization",
            "symmetry_qt_a",
            "bc_reciprocal_symmetry",
            "low_degree_agreement",
        ],
        registry_reports,
    )


def test_criterion_8_structural_properties(registry_reports):
    run_criterion(
        "criterion 8: standard weights, refinement counts, Rothe diagrams",
        ["standard_weight_flags", "refinement_counts", "rothe_worked_examples"],
        registry_reports,
    )
