"""Rothe diagrams: the cell pictures of canonical (half-)bases.

One row per basis vector.  Columns are the coordinate indices in <_pm order
(1, ..., d for type A; signed indices for types C and D; with the extra index
0 for type B).  Cells:

  bullet      the leading coefficient 1 at position sigma(i)
  cross       a free coefficient witnessing an inversion (i, j)
  tensor(m)   a free coefficient of sign type, charged to the negative entry
              sigma(m); there are exactly d+1+sigma(m) of these per m in
              types C and B, and d+sigma(m) in type D
  perp        a coefficient determined by orthogonality or isotropy
  zero        a structurally zero coefficient

Crosses count inversions and tensors count the sign part of the length, so
crosses + tensors = length of the permutation in the matching family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .weylgroups import SignedPerm, is_signed_perm, negative_count, pm_coordinates, pm_less

ROTHE_KINDS = ("A", "C", "B", "D")

Cell = tuple[str, int | None]

_BULLET: Cell = ("bullet", None)
_CROSS: Cell = ("cross", None)
_PERP: Cell = ("perp", None)
_ZERO: Cell = ("zero", None)


@dataclass(frozen=True)
class RotheDiagram:
    kind: str
    perm: SignedPerm
    columns: tuple[int, ...]
    grid: tuple[tuple[Cell, ...], ...]

    def cross_count(self) -> int:
        return sum(1 for row in self.grid for c in row if c[0] == "cross")

    def tensor_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for row in self.grid:
            for cell, tag in row:
                if cell == "tensor":
                    counts[tag] = counts.get(tag, 0) + 1
        return counts

    def text(self) -> str:
        syms = {"bullet": "●", "cross": "×", "perp": "⊥", "zero": " "}
        header = [""] + [str(c) for c in self.columns]
        body = []
        for i, row in enumerate(self.grid, start=1):
            cells = [str(i)]
            for cell, tag in row:
                cells.append(f"⊗{tag}" if cell == "tensor" else syms[cell])
            body.append(cells)
        widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
        lines = []
        for r in [header] + body:
            lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
        return "\n".join(lines)

    def latex(self) -> str:
        d = len(self.perm)
        if self.kind == "A":
            colspec = "c||" + "|".join("c" * d)
        elif self.kind == "B":
            colspec = "c||" + "|".join("c" * d) + "||c||" + "|".join("c" * d)
        else:
            colspec = "c||" + "|".join("c" * d) + "||" + "|".join("c" * d)
        syms = {"bullet": r"\bullet", "cross": r"\times", "perp": r"\perp", "zero": ""}
        lines = [r"\begin{array}{" + colspec + "}"]
        header = [r"i\backslash\sigma(i)"] + [str(c) for c in self.columns]
        lines.append("&".join(header) + r"\\")
        lines.append(r"\hline\hline")
        for i, row in enumerate(self.grid, start=1):
            cells = [str(i)]
            for cell, tag in row:
                cells.append(rf"\otimes_{{{tag}}}" if cell == "tensor" else syms[cell])
            lines.append("&".join(cells) + r"\\" + ("\n" + r"\hline" if i < d else ""))
        lines.append(r"\end{array}")
        return "\n".join(lines)


def rothe_diagram(perm: SignedPerm, kind: str) -> RotheDiagram:
    """Build the Rothe diagram of a permutation for the given type."""
    if kind not in ROTHE_KINDS:
        raise ValueError(f"unknown Rothe kind {kind!r}; expected one of {ROTHE_KINDS}")
    perm = tuple(perm)
    if not is_signed_perm(perm):
        raise ValueError(f"{perm} is not a signed permutation")
    if kind == "A" and any(x < 0 for x in perm):
        raise ValueError("type A diagrams need unsigned permutations")
    if kind == "D" and negative_count(perm) % 2:
        raise ValueError("type D diagrams need an even number of negative entries")
    d = len(perm)
    columns = pm_coordinates(d, kind)
    where = {v: j for j, v in enumerate(perm, start=1)}  # value -> position

    rows = []
    for i in range(1, d + 1):
        si = perm[i - 1]
        earlier = set(perm[:i - 1])
        row: list[Cell] = []
        for k in columns:
            row.append(_cell(kind, where, i, si, earlier, k))
        rows.append(tuple(row))
    return RotheDiagram(kind, perm, columns, tuple(rows))


def _cell(kind, where, i, si, earlier, k) -> Cell:
    if k == 0:  # type B extra coordinate
        return ("tensor", i) if si < 0 else _ZERO
    if k == si:
        return _BULLET
    if k in earlier:
        return _ZERO
    if -k in earlier:
        return _PERP
    if kind in ("B", "D") and k == -si:
        return _PERP
    if not pm_less(k, si):
        return _ZERO
    j = where.get(k)
    if j is not None:  # k = sigma(j) with j > i: an inversion of (i, j)
        return _CROSS
    j = where[-k]  # sign-type cell: k = -sigma(j), j >= i
    if si > 0:
        return ("tensor", j)
    if k < 0 or k >= -si:
        return ("tensor", i)
    return ("tensor", j)
