"""Exact integer polynomial arithmetic in q, t, s and truncated power series in t.

A polynomial is a finite map from exponent triples to nonzero integer
coefficients:

  MultiPoly.terms : read-only mapping (eq, et, es) -> int

with (eq, et, es) the degrees of q, t, s in the monomial.  Zero coefficients
are never stored, so two polynomials are equal iff their term maps are equal.
MultiPoly(...) checks terms from outside and raises ValueError on a negative
exponent; ring and series results, zero-free by construction from checked
operands, are built through MultiPoly._wrap and skip that check.
The map is a read-only view and no field of a MultiPoly or TruncSeries can be
rebound or deleted, so a value handed out by a cache or held as a module
constant cannot be changed in place.
All coefficients are Python ints (arbitrary precision); no floats anywhere.

A TruncSeries is a power series in t truncated at a fixed degree ``bound``:
one MultiPoly with no term of t-degree above the bound.  Its arithmetic is
the MultiPoly arithmetic followed by dropping the terms above t^bound.  The
geometric factors 1/(1-t^j) and 1/(1-s*t^j) are quotients built in one pass
(TruncSeries.over), so no command multiplies two series.  The coefficient
of t^n, a MultiPoly in q and s only, is read off the terms of t-degree n.

Term order everywhere (iteration, text, JSON, LaTeX) is lexicographic on
(eq, et, es), so all emitted output is byte-stable.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

VARS = ("q", "t", "s")
_VAR_INDEX = {"q": 0, "t": 1, "s": 2}

Exponent = tuple[int, int, int]


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


def _read_only(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__}.{name} is read-only: the value is immutable")


class MultiPoly:
    """Integer polynomial in q, t, s with canonical (zero-free) term storage."""

    __slots__ = ("terms",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if not coeff:
                    continue
                eq, et, es = exp
                if eq < 0 or et < 0 or es < 0:
                    raise ValueError(f"negative exponent in {exp}")
                clean[(eq, et, es)] = coeff
        object.__setattr__(self, "terms", MappingProxyType(clean))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls.monomial(1, **{"e" + name: 1})

    @classmethod
    def monomial(cls, coeff: int, eq: int = 0, et: int = 0, es: int = 0) -> "MultiPoly":
        return cls({(eq, et, es): coeff})

    @classmethod
    def _wrap(cls, terms: dict[Exponent, int]) -> "MultiPoly":
        """A polynomial that takes ownership of ``terms`` without checking or
        copying it.  The caller guarantees what __init__ would check: nonzero
        coefficients, exponent triples of nonnegative ints, and no other
        reference to the dict kept."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", MappingProxyType(terms))
        return poly

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == MultiPoly.const(other).terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._wrap({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = _coerce(other)
        out = self.terms.copy()
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly._wrap({e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly._wrap({e: c * other for e, c in self.terms.items()} if other else {})
        other = _coerce(other)
        out: dict[Exponent, int] = {}
        for (aq, at, as_), ac in self.terms.items():
            for (bq, bt, bs), bc in other.terms.items():
                e = (aq + bq, at + bt, as_ + bs)
                out[e] = out.get(e, 0) + ac * bc
        return MultiPoly._wrap({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries -----------------------------------------------------------

    def degree(self, name: str) -> int:
        """Maximal exponent of the named variable (0 for the zero polynomial)."""
        i = _VAR_INDEX[name]
        return max((e[i] for e in self.terms), default=0)

    def coefficient(self, eq: int = 0, et: int = 0, es: int = 0) -> int:
        return self.terms.get((eq, et, es), 0)

    def sorted_terms(self) -> Iterator[tuple[Exponent, int]]:
        """Terms in lexicographic (eq, et, es) order, as an iterator of
        (exponent, coefficient): only the keys are sorted, so no list of
        pairs is held."""
        keys = sorted(self.terms)
        return zip(keys, map(self.terms.__getitem__, keys))

    def evaluate(self, q: int = 1, t: int = 1, s: int = 1) -> int:
        total = 0
        for (eq, et, es), c in self.terms.items():
            total += c * q**eq * t**et * s**es
        return total

    # -- substitutions -----------------------------------------------------

    def specialize(self, **assignment: int | str) -> "MultiPoly":
        """Substitute variables by integer constants or by other variables.

        Keyword names are variable names; values are either ints or one of
        "q", "t", "s".  Unmentioned variables are left alone, so
        ``p.specialize(q="t", t="q")`` swaps q and t.
        """
        for name, val in assignment.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}")
            if isinstance(val, str) and val not in _VAR_INDEX:
                raise ValueError(f"unknown target variable {val!r}")
            if not isinstance(val, (int, str)):
                raise ValueError(f"{name} must be set to an int or a variable name, got {val!r}")
        out: dict[Exponent, int] = {}
        for exp, coeff in self.terms.items():
            new = [0, 0, 0]
            c = coeff
            for name, i in _VAR_INDEX.items():
                val = assignment.get(name, name)
                if isinstance(val, str):
                    new[_VAR_INDEX[val]] += exp[i]
                else:
                    c *= val**exp[i]
            key = (new[0], new[1], new[2])
            out[key] = out.get(key, 0) + c
        return MultiPoly(out)

    def reciprocal_conjugate(self, dq: int, dt: int) -> "MultiPoly":
        """Return q^dq * t^dt * p(1/q, 1/t); s is untouched.

        Requires dq >= deg_q(p) and dt >= deg_t(p), otherwise the result would
        have negative exponents and a ValueError is raised.
        """
        if dq < self.degree("q") or dt < self.degree("t"):
            raise ValueError(
                f"conjugation degrees ({dq}, {dt}) below polynomial degrees "
                f"({self.degree('q')}, {self.degree('t')})"
            )
        return MultiPoly({(dq - eq, dt - et, es): c for (eq, et, es), c in self.terms.items()})

    def exact_div(self, divisor: "MultiPoly | int") -> "MultiPoly":
        """Exact polynomial division; raises ExactDivisionError on any remainder.

        Reduction is against the lexicographically leading term of the divisor,
        which strictly decreases the leading term of the remainder, so the loop
        terminates; exactness does not depend on the monomial order.
        """
        divisor = _coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(divisor.terms)
        lead_c = divisor.terms[lead]
        rem = self.terms.copy()
        out: dict[Exponent, int] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            shift = (e[0] - lead[0], e[1] - lead[1], e[2] - lead[2])
            if min(shift) < 0 or c % lead_c:
                raise ExactDivisionError(f"nonzero remainder at term {e}")
            f = c // lead_c
            out[shift] = out.get(shift, 0) + f
            for de, dc in divisor.terms.items():
                k = (shift[0] + de[0], shift[1] + de[1], shift[2] + de[2])
                nc = rem.get(k, 0) - f * dc
                if nc:
                    rem[k] = nc
                else:
                    rem.pop(k, None)
        return MultiPoly._wrap(out)

    # -- emitters ----------------------------------------------------------

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_text(self)})"


def _coerce(x: "MultiPoly | int") -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, int):
        return MultiPoly.const(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a polynomial")


Q = MultiPoly.var("q")
T = MultiPoly.var("t")
S = MultiPoly.var("s")
ONE = MultiPoly.one()
ZERO = MultiPoly.zero()


def poly_text(p: MultiPoly) -> str:
    """Plain-text form, terms in lexicographic order: ``1 + q*t - 2*q^2``.
    Each variable's factor (``*q^2``) is written once per exponent in use."""
    if not p.terms:
        return "0"
    fq, ft, fs = (
        {e: f"*{name}^{e}" if e > 1 else f"*{name}" if e else "" for e in {key[i] for key in p.terms}}
        for i, name in enumerate(VARS)
    )
    parts: list[str] = []
    for (eq, et, es), c in p.sorted_terms():
        mono = fq[eq] + ft[et] + fs[es]
        mag = abs(c)
        parts.append((" + " if c > 0 else " - ") + (f"{mag}{mono}" if mag != 1 or not mono else mono[1:]))
    first = parts[0]
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


def poly_to_json(p: MultiPoly) -> dict:
    """JSON-ready encoding; coefficients as decimal strings, lex term order."""
    return {
        "vars": list(VARS),
        "terms": [{"e": list(e), "c": str(c)} for e, c in p.sorted_terms()],
    }


def poly_json(p: MultiPoly) -> str:
    """``json.dumps(poly_to_json(p))``, written straight from the sorted terms."""
    terms = ", ".join([f'{{"e": [{eq}, {et}, {es}], "c": "{c}"}}' for (eq, et, es), c in p.sorted_terms()])
    return f'{{"vars": ["q", "t", "s"], "terms": [{terms}]}}'


def poly_from_json(obj: dict) -> MultiPoly:
    if obj.get("vars") != list(VARS):
        raise ValueError(f"unexpected variable list {obj.get('vars')!r}")
    terms: dict[Exponent, int] = {}
    for item in obj["terms"]:
        eq, et, es = (int(x) for x in item["e"])
        terms[(eq, et, es)] = int(item["c"])
    return MultiPoly(terms)


def poly_latex_table(p: MultiPoly) -> str:
    """LaTeX coefficient table: rows are t-powers, columns are q-powers.

    Cells hold the integer coefficient, or a polynomial in s when the
    s-marked statistics are tabulated; zero cells are left empty.
    """
    dq = p.degree("q")
    dt = p.degree("t")
    cells: dict[tuple[int, int], dict[Exponent, int]] = {}
    for (eq, et, es), c in p.terms.items():
        cells.setdefault((et, eq), {})[(0, 0, es)] = c
    lines = [r"\begin{array}{c|" + "c" * (dq + 1) + "}"]
    header = [""] + ["1" if j == 0 else ("q" if j == 1 else f"q^{{{j}}}") for j in range(dq + 1)]
    lines.append("&".join(header) + r"\\")
    lines.append(r"\hline")
    for i in range(dt + 1):
        label = "1" if i == 0 else ("t" if i == 1 else f"t^{{{i}}}")
        row = [label]
        for j in range(dq + 1):
            c = cells.get((i, j))
            row.append("" if c is None else poly_text(MultiPoly._wrap(c)).replace("*", ""))
        lines.append("&".join(row) + r"\\")
    lines.append(r"\end{array}")
    return "\n".join(lines)


class TruncSeries:
    """Power series in t truncated at ``bound``; coefficients live in Z[q, s]."""

    __slots__ = ("bound", "poly")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, bound: int, coeffs: list[MultiPoly] | None = None):
        if bound < 0:
            raise ValueError("truncation bound must be >= 0")
        cs = list(coeffs) if coeffs is not None else []
        if len(cs) > bound + 1:
            raise ValueError("more coefficients than the bound allows")
        if any(c.degree("t") for c in cs):
            raise ValueError("series coefficients must be free of t")
        terms = {(eq, n, es): v for n, c in enumerate(cs) for (eq, _, es), v in c.terms.items()}
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "poly", MultiPoly(terms) if terms else ZERO)

    @classmethod
    def zero(cls, bound: int) -> "TruncSeries":
        return cls(bound)

    @classmethod
    def one(cls, bound: int) -> "TruncSeries":
        return cls(bound, [ONE])

    @classmethod
    def from_poly(cls, p: MultiPoly, bound: int) -> "TruncSeries":
        """Truncate a polynomial: drop its terms above t^bound."""
        out = cls(bound)
        object.__setattr__(out, "poly", MultiPoly._wrap({e: c for e, c in p.terms.items() if e[1] <= bound}))
        return out

    @classmethod
    def geometric_factor(cls, j: int, with_s: bool, bound: int) -> "TruncSeries":
        """1 + x*t^j + x^2*t^2j + ... truncated, with x = s if with_s else 1."""
        return cls.one(bound).over(j, with_s=with_s)

    @property
    def coeffs(self) -> list[MultiPoly]:
        """The coefficients of t^0, ..., t^bound, as a fresh list."""
        rows: list[dict[Exponent, int]] = [{} for _ in range(self.bound + 1)]
        for (eq, et, es), c in self.poly.terms.items():
            rows[et][(eq, 0, es)] = c
        return [MultiPoly._wrap(r) for r in rows]

    def coefficient(self, n: int) -> MultiPoly:
        """The coefficient of t^n, for 0 <= n <= bound."""
        if not 0 <= n <= self.bound:
            raise ValueError(f"t-degree {n} is outside 0..{self.bound}")
        return MultiPoly._wrap({(eq, 0, es): c for (eq, et, es), c in self.poly.terms.items() if et == n})

    def _check_bound(self, other: "TruncSeries") -> None:
        if self.bound != other.bound:
            raise ValueError(f"series bounds differ: {self.bound} vs {other.bound}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.bound == other.bound and self.poly == other.poly

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_bound(other)
        return TruncSeries.from_poly(self.poly + other.poly, self.bound)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_bound(other)
        return TruncSeries.from_poly(self.poly - other.poly, self.bound)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_bound(other)
        return TruncSeries.from_poly(self.poly * other.poly, self.bound)

    def over(self, *js: int, with_s: bool = False) -> "TruncSeries":
        """self / prod_j (1 - x*t^j), truncated, with x = s if with_s else 1.
        Each quotient H is built upward in t as H_n = S_n + x*H_(n-j), on one
        {(eq, es): c} dict per t-degree: one pass over H's terms, no product."""
        if any(j < 1 for j in js):
            raise ValueError("geometric factor needs j >= 1")
        rows: list[dict[tuple[int, int], int]] = [{} for _ in range(self.bound + 1)]
        for (eq, et, es), c in self.poly.terms.items():
            rows[et][eq, es] = c
        for j in js:
            for low, row in zip(rows, rows[j:]):
                for (eq, es), c in low.items():
                    row[eq, es + with_s] = row.get((eq, es + with_s), 0) + c
        terms = {(eq, n, es): c for n, row in enumerate(rows) for (eq, es), c in row.items() if c}
        return TruncSeries.from_poly(MultiPoly._wrap(terms), self.bound)

    def __str__(self) -> str:
        parts: list[str] = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            ctext = poly_text(c)
            tpow = "" if n == 0 else ("t" if n == 1 else f"t^{n}")
            if not tpow:
                parts.append(ctext)
            elif c == ONE:
                parts.append(tpow)
            elif len(c.terms) == 1 and not ctext.startswith("-"):
                parts.append(f"{ctext}*{tpow}")
            else:
                parts.append(f"({ctext})*{tpow}")
        parts.append(f"O(t^{self.bound + 1})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TruncSeries({self})"


DEFAULT_BOUND = 12
