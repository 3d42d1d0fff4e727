"""The benchmark's four workloads and the seeded order in which they run.

An item is one operation of a workload: either a command line for
``weylmahonian.cli.run`` (``{"argv": [...]}``) or one point of the identity
check registry (``{"check": name, "params": {...}}``).  The items and their
pinned output digests live in ``references.json``, which ``pin.py`` writes;
this module holds the command lists ``pin.py`` pins and the seeded shuffle.

Why each workload (details in README.md):

- verify_grid: the 355 registry points of ``verify --all`` at the seed
  commit, pinned as a list; many small spaces and groups.
- recursion:   the flag-counting recursions at large rank; nearly all time
  is ``MultiPoly.__mul__`` on big polynomials.
- direct:      group enumeration at the caps; per-element statistics.
- flag_oracle: the finite-field flag oracle on three large spaces; many
  tiny series products and O(N^2) containment scans.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_grid", "recursion", "direct", "flag_oracle")


def _mahonian(method: str, family: str, d: int, euler: bool) -> list[str]:
    argv = ["mahonian", "--family", family, "--d", str(d), "--method", method, "--format", "json"]
    return argv + ["--euler"] if euler else argv


def _flags(family: str, p: int, d: int) -> list[str]:
    return ["flags", "--prime", str(p), "--family", family, "--d", str(d), "--trunc", "12"]


COMMANDS = {
    "recursion": [
        _mahonian("recur", family, d, euler)
        for family, d in (("A", 12), ("BC", 11), ("D", 11))
        for euler in (False, True)
    ],
    "direct": [
        _mahonian("enum", family, d, euler)
        for family, d in (("A", 8), ("BC", 6), ("D", 6))
        for euler in (False, True)
    ],
    "flag_oracle": [_flags("A", 3, 4), _flags("D", 3, 3), _flags("C", 7, 2)],
}


def item_label(item: dict) -> str:
    if "argv" in item:
        return " ".join(item["argv"])
    inner = " ".join(f"{k}={v}" for k, v in item["params"].items())
    return f"{item['check']}({inner})"


def seeded_order(entries: list, seed: int) -> list:
    """The entries in the order a run with this seed replays them."""
    out = list(entries)
    random.Random(seed).shuffle(out)
    return out
