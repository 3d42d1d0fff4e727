import pytest

from weylmahonian.rothe import rothe_diagram
from weylmahonian.weylgroups import GroupFamily, enumerate_group, inversions, length


def test_type_a_worked_example():
    diag = rothe_diagram((6, 3, 8, 1, 4, 9, 7, 2, 5), "A")
    assert diag.cross_count() == 18
    assert diag.tensor_counts() == {}
    # each row has exactly one bullet
    for row in diag.grid:
        assert sum(1 for c in row if c[0] == "bullet") == 1


def test_type_c_worked_example():
    diag = rothe_diagram((-5, 3, -1, 6, 4, -2), "C")
    assert diag.cross_count() == 7
    assert diag.tensor_counts() == {1: 2, 3: 6, 6: 5}  # 6+1+sigma(i) per negative entry
    assert diag.columns == (1, 2, 3, 4, 5, 6, -6, -5, -4, -3, -2, -1)
    # first row of the printed diagram, cell for cell
    row1 = diag.grid[0]
    assert [c for c in row1] == [
        ("tensor", 3),
        ("tensor", 6),
        ("cross", None),
        ("cross", None),
        ("tensor", 1),
        ("cross", None),
        ("tensor", 1),
        ("bullet", None),
        ("zero", None),
        ("zero", None),
        ("zero", None),
        ("zero", None),
    ]


def test_type_b_worked_example():
    diag = rothe_diagram((-5, 3, -1, 6, 4, -2), "B")
    assert diag.columns == (1, 2, 3, 4, 5, 6, 0, -6, -5, -4, -3, -2, -1)
    assert diag.cross_count() == 7
    assert diag.tensor_counts() == {1: 2, 3: 6, 6: 5}
    # the mirror coordinate is isotropy-determined, the 0 coordinate free
    row1 = dict(zip(diag.columns, diag.grid[0]))
    assert row1[5] == ("perp", None)
    assert row1[0] == ("tensor", 1)


def test_type_d_worked_example():
    diag = rothe_diagram((-5, 3, -1, -6, 4, -2), "D")
    assert diag.cross_count() == 7
    assert diag.tensor_counts() == {1: 1, 3: 5, 6: 4}  # 6+sigma(i) per negative entry
    row1 = dict(zip(diag.columns, diag.grid[0]))
    assert row1[5] == ("perp", None)


@pytest.mark.parametrize("kind,tag", [("A", "A"), ("C", "BC"), ("B", "BC"), ("D", "D")])
def test_tallies_exhaustive(kind, tag):
    for d in (1, 2, 3):
        fam = GroupFamily(tag, d)
        for perm in enumerate_group(fam):
            diag = rothe_diagram(perm, kind)
            assert diag.cross_count() == inversions(perm)
            base = d + 1 if kind in ("C", "B") else d
            if kind == "A":
                want = {}
            else:
                want = {
                    i: base + perm[i - 1]
                    for i in range(1, d + 1)
                    if perm[i - 1] < 0 and base + perm[i - 1]
                }
            assert diag.tensor_counts() == want
            assert diag.cross_count() + sum(diag.tensor_counts().values()) == length(perm, fam)


def test_validation():
    with pytest.raises(ValueError):
        rothe_diagram((-1, 2), "A")
    with pytest.raises(ValueError):
        rothe_diagram((-1, 2), "D")
    with pytest.raises(ValueError):
        rothe_diagram((1, 2), "E")


def test_text_and_latex_render():
    diag = rothe_diagram((-2, 1), "C")
    text = diag.text()
    assert "●" in text and "⊗" in text
    tex = diag.latex()
    assert tex.startswith(r"\begin{array}")
    assert r"\otimes_{1}" in tex or r"\otimes_{2}" in tex
    assert tex.endswith(r"\end{array}")
