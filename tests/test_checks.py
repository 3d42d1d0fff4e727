import hashlib
import json

import pytest

from weylmahonian.checks import (
    REGISTRY,
    CheckReport,
    _scan,
    _verdict,
    default_grid,
    direct_vs_recursive,
    flag_series_theorem,
    run_all,
    run_identity_check,
)


def test_run_identity_check_by_name():
    rep = run_identity_check("symmetry_qt_a", {"d": 3})
    assert isinstance(rep, CheckReport)
    assert rep.passed
    rep = run_identity_check("direct_vs_recursive", {"family": "BC", "d": 3, "euler": False})
    assert rep.passed
    with pytest.raises(KeyError):
        run_identity_check("no_such_check", {})


def test_reports_serialize():
    rep = run_identity_check("low_degree_agreement", {"d": 4})
    obj = rep.to_json()
    assert obj["name"] == "low_degree_agreement"
    assert obj["passed"] is True
    assert obj["discrepancy"] is None


def test_failure_reports_discrepancy():
    # compare two genuinely different polynomials through the verdict helper
    from weylmahonian.algebra import MultiPoly, TruncSeries

    q = MultiPoly.var("q")
    passed, _, _, discrepancy = _verdict(1 + q, 1 + q + q**2)
    assert not passed
    assert "q^2" in discrepancy
    series = lambda p: TruncSeries.from_poly(p, 3)
    passed, lhs, _, discrepancy = _verdict(series(1 + q), series(1 + q + q**2))
    assert not passed and lhs == str(series(1 + q))
    assert discrepancy.startswith("coefficient of t^0: ") and "q^2" in discrepancy


def test_scan_reports_counts_and_first_failure():
    passed, lhs, rhs, discrepancy = _scan(range(4), lambda k: f"odd {k}" if k % 2 else None)
    assert not passed
    assert lhs == "2 of 4 cases agree"
    assert rhs == "4 cases expected"
    assert discrepancy == "odd 1"
    passed, lhs, rhs, discrepancy = _scan(range(3), lambda k: None, extra="outside the cases")
    assert (passed, lhs, rhs) == (False, "2 of 3 cases agree", "3 cases expected")
    assert discrepancy == "outside the cases"
    verdict = _scan([], lambda k: "never called")
    assert verdict == (True, "0 of 0 cases agree", "0 cases expected", None)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_report_carries_registry_name_and_grid_point(name):
    point = default_grid(name)[0]
    rep = run_identity_check(name, point)
    assert rep.name == name
    assert rep.params == point
    assert list(rep.params) == list(point)


def test_positional_calls_fill_in_defaults():
    assert direct_vs_recursive("A", 3).params == {"family": "A", "d": 3, "euler": False}
    params = direct_vs_recursive(d=3, family="A").params
    assert list(params.items()) == [("family", "A"), ("d", 3), ("euler", False)]
    assert flag_series_theorem("C", 3, 1, 6).params["alpha"] is False


@pytest.mark.parametrize("kind, p, d", [("C", 13, 2), ("B", 13, 2), ("D", 13, 2), ("A", 11, 3), ("A", 13, 2)])
def test_flag_series_theorem_with_wide_image_digits(kind, p, d):
    """Spaces where k(p-1)^2, the bound on an unreduced image entry, reaches
    256, so their subspace images are computed with two-byte digits."""
    rep = flag_series_theorem(kind, p, d, 6)
    assert rep.passed, rep.discrepancy


@pytest.mark.parametrize(
    "kwargs, points, digest",
    [
        ({}, 420, "19aeea2b9ebfb2d0fb22402695a16a3d44b0e76bc0f0f6880e973e8de1bd0a39"),
        ({"max_d": 2}, 193, "abad4565b073a46b1ebae840830df539e2b60788d058342dfee907518448a26f"),
        ({"primes": [3], "trunc": 6}, 352, "3853267ced96af9b7309d879553390f1df930e99e9972a9d60e3353cbc0cfdfe"),
    ],
)
def test_registry_grids_are_pinned(kwargs, points, digest):
    grid = [[name, params] for name in REGISTRY for params in default_grid(name, **kwargs)]
    assert len(grid) == points
    assert hashlib.sha256(json.dumps(grid).encode()).hexdigest() == digest


# The size of each check's grid before the acceptance suite's points joined
# the registry.  A grid grows only by appended points, so its first points
# are still the old grid, and together they hash to the old full-grid digest.
OLD_GRID_SIZES = {
    "direct_vs_recursive": 34, "d_euler_direct_vs_recursive": 5, "symmetry_qt_a": 8,
    "low_degree_agreement": 5, "a_major_equidistribution": 7, "a_length_factorization": 7,
    "bc_length_factorization": 5, "bc_major_factorization": 5, "d_length_factorization": 5,
    "d_wmaj_factorization": 6, "bc_reciprocal_symmetry": 5, "bc_restriction_to_unsigned": 5,
    "qbinomial_theorem": 45, "qbinomial_recursion_vs_product": 9, "qbinomial_special_case": 9,
    "euler_specialize_s1": 18, "central_element_identities": 5, "bc_vs_d_length_difference": 5,
    "generator_length_step": 12, "length_vs_bfs": 16, "greedy_word_valid": 12,
    "standard_weight_identity": 15, "descent_statistic_matches_coxeter": 8,
    "flag_series_theorem": 36, "subspace_count_grassmann": 8, "subspace_count_isotropic": 8,
    "subspace_count_hyperbolic": 4, "canonical_cell_counts": 12,
    "standard_flag_generating_function": 7, "standard_weight_flags": 6,
    "standard_fiber_series": 3, "refinement_counts": 3, "rothe_tallies": 16,
    "rothe_worked_examples": 1,
}


def test_old_grids_are_prefixes_of_the_registry_grids():
    grid = [[name, params] for name in REGISTRY for params in default_grid(name)[: OLD_GRID_SIZES.get(name, 0)]]
    assert len(grid) == 355
    digest = "5c06641df574c921f9a1618dce1e1aa6a6c592f0a84cd08e97b4ff24494ec21f"
    assert hashlib.sha256(json.dumps(grid).encode()).hexdigest() == digest


def test_default_grids_respect_limits():
    grid = default_grid("direct_vs_recursive", max_d=2)
    assert grid and all(params["d"] <= 2 for params in grid)
    grid = default_grid("flag_series_theorem", primes=[3], trunc=6)
    assert grid and all(p["p"] == 3 and p["trunc"] == 6 for p in grid)


def test_registry_names_are_stable():
    expected = {
        "direct_vs_recursive",
        "d_euler_direct_vs_recursive",
        "symmetry_qt_a",
        "low_degree_agreement",
        "flag_series_theorem",
        "subspace_count_grassmann",
        "canonical_cell_counts",
        "length_vs_bfs",
        "rothe_worked_examples",
    }
    assert expected <= set(REGISTRY)


def test_non_gating_check_is_marked():
    rep = run_identity_check("d_euler_direct_vs_recursive", {"d": 2})
    assert rep.gating is False


def test_run_all_small_slice():
    reports = list(run_all(["qbinomial_theorem", "central_element_identities"], max_d=2))
    assert reports
    assert all(r.passed for r in reports)


def test_run_all_computes_reports_on_demand(monkeypatch):
    ran = []

    def probe(d):
        ran.append(d)
        return CheckReport("probe", {"d": d}, True, "0", "0")

    monkeypatch.setitem(REGISTRY, "probe", (probe, lambda *_: [{"d": d} for d in range(3)]))
    reports = run_all(["probe"])
    assert next(reports).params == {"d": 0}
    assert ran == [0]  # the later grid points have not run


def test_run_all_runs_each_check_once_in_order(monkeypatch):
    """No names means every registered check in registry order; a repeated
    name runs once, where it was first given."""
    import weylmahonian.checks as checks

    monkeypatch.setattr(checks, "run_identity_check", lambda name, params: (name, params))
    assert list(run_all()) == [(name, params) for name in REGISTRY for params in default_grid(name)]
    repeated = ["symmetry_qt_a", "qbinomial_theorem", "symmetry_qt_a"]
    assert list(run_all(repeated)) == list(run_all(repeated[:2]))
