"""Pin the benchmark's references and validate them first.

Usage (from the root of a checkout, about a minute):

  python3 perfbench/pin.py

Runs every item of every workload once, checks each output against a route
that does not produce it, and only then writes references.json:

- verify_grid: the points of every registry check's default grid (the 355
  points that ``verify --all`` runs); every point must pass.
- recursion and direct: the polynomial's value at q=t=s=1 is the group
  order; at s=1 it equals the unmarked polynomial; its q=1 and t=1
  specialisations equal the closed forms; a direct (enumeration) output also
  equals ``mahonian_recursive`` at the same rank.
- flag_oracle: the enumerated series equals the flag-series theorem's side,
  ``mahonian_recursive(...).specialize(q=p)`` times the geometric factors.

A failed validation writes nothing and exits with code 1.
"""

from __future__ import annotations

import json
import os
import sys

import worker
from workloads import COMMANDS, item_label

EXPECTED_GRID_POINTS = 355
FLAG_FAMILY = {"A": "A", "C": "BC", "D": "D"}
CLOSED_FORM_PREFIX = {"A": "a", "BC": "bc", "D": "d"}


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def validate_polynomial(argv: list[str], stdout: bytes) -> list[str]:
    from weylmahonian import GroupFamily, closed_form, mahonian_recursive, poly_from_json

    fam = GroupFamily(_arg(argv, "--family"), int(_arg(argv, "--d")))
    euler = "--euler" in argv
    poly = poly_from_json(json.loads(stdout))
    unmarked = poly.specialize(s=1)
    prefix = CLOSED_FORM_PREFIX[fam.tag]
    problems = []
    if poly.evaluate() != fam.order():
        problems.append(f"value at 1 is {poly.evaluate()}, group order {fam.order()}")
    if not euler and unmarked != poly:
        problems.append("unmarked polynomial contains s")
    if euler and unmarked != mahonian_recursive(fam):
        problems.append("s=1 specialisation differs from the unmarked recursion")
    if unmarked.specialize(t=1) != closed_form(f"{prefix}_length", fam.d):
        problems.append("t=1 specialisation differs from the length closed form")
    if unmarked.specialize(q=1) != closed_form(f"{prefix}_wmaj", fam.d):
        problems.append("q=1 specialisation differs from the wmaj closed form")
    if _arg(argv, "--method") == "enum" and poly != mahonian_recursive(fam, euler=euler):
        problems.append("enumeration differs from the recursion")
    return problems


def validate_flag_series(argv: list[str], stdout: bytes) -> list[str]:
    from weylmahonian import GroupFamily, TruncSeries, mahonian_recursive

    p, d, trunc = (int(_arg(argv, flag)) for flag in ("--prime", "--d", "--trunc"))
    fam = GroupFamily(FLAG_FAMILY[_arg(argv, "--family")], d)
    rhs = TruncSeries.from_poly(mahonian_recursive(fam).specialize(q=p), trunc)
    for j in range(1, d + 1):
        rhs = rhs * TruncSeries.geometric_factor(j, False, trunc)
    if stdout.decode() != f"{rhs}\n":
        return ["series differs from the flag-series theorem"]
    return []


def grid_points() -> list[dict]:
    from weylmahonian import checks

    return [
        {"check": name, "params": params}
        for name in checks.REGISTRY
        for params in checks.default_grid(name)
    ]


def pin() -> tuple[dict, list[str]]:
    workloads = {"verify_grid": grid_points()}
    workloads.update({name: [{"argv": argv} for argv in cmds] for name, cmds in COMMANDS.items()})
    problems = []
    if len(workloads["verify_grid"]) != EXPECTED_GRID_POINTS:
        problems.append(f"verify_grid has {len(workloads['verify_grid'])} points, not {EXPECTED_GRID_POINTS}")
    references = {}
    for name, items in workloads.items():
        references[name] = []
        for item in items:
            output = worker.execute(item)
            if "argv" not in item:
                found = [] if output.passed else [f"did not pass: {output.discrepancy}"]
            elif output[1] != 0:
                found = [f"exit code {output[1]}"]
            elif name == "flag_oracle":
                found = validate_flag_series(item["argv"], output[0])
            else:
                found = validate_polynomial(item["argv"], output[0])
            problems.extend(f"{item_label(item)}: {p}" for p in found)
            references[name].append({"item": item, "digest": worker.output_digest(item, output)})
    return references, problems


def main() -> int:
    worker.import_package()
    references, problems = pin()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w") as fh:  # one item per line
        blocks = [
            f'{json.dumps(name)}: [\n' + ",\n".join(json.dumps(e) for e in entries) + "\n]"
            for name, entries in references.items()
        ]
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {path}: " + ", ".join(f"{k} {len(v)} items" for k, v in references.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
