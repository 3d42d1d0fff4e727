"""Command-line surface.

Subcommands:
  mahonian   print a (Weyl-)Mahonian polynomial
  verify     run named identity checks and print a pass/fail table
  flags      print the brute-force weighted-flag series of a space
  rothe      print the Rothe diagram of a permutation
  word       print length and a greedy reduced word

Exit codes: 0 success / all checks passed, 1 a check failed, 2 usage error
(including a verify selection that matches no check point), 141 standard
output closed before everything was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, flaggeom, statistics
from .algebra import DEFAULT_BOUND, poly_json, poly_latex_table, poly_text
from .rothe import ROTHE_KINDS, rothe_diagram
from .weylgroups import FAMILY_TAGS, GroupFamily, greedy_reduced_word, is_signed_perm, length


def _parse_perm(text: str) -> tuple[int, ...]:
    try:
        perm = tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse permutation literal {text!r}")
    if not is_signed_perm(perm):
        raise argparse.ArgumentTypeError(f"{text!r} is not a (signed) permutation in one-line notation")
    return perm


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if not primes:
        raise argparse.ArgumentTypeError(f"no prime listed: {text!r}")
    for p in primes:
        if p not in flaggeom._SMALL_PRIMES:
            raise argparse.ArgumentTypeError(f"{p} is not a supported prime {flaggeom._SMALL_PRIMES}")
    return primes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylmahonian",
        description="Exact Weyl-Mahonian statistics for Weyl groups of types A, BC and D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mahonian", help="print a (Weyl-)Mahonian polynomial")
    m.add_argument("--family", required=True, choices=FAMILY_TAGS)
    m.add_argument("--d", required=True, type=int)
    m.add_argument("--method", choices=("enum", "recur"), default="enum")
    m.add_argument("--euler", action="store_true", help="mark descents with the variable s")
    m.add_argument("--format", choices=("text", "json", "latex"), default="text")

    v = sub.add_parser("verify", help="run named identity checks")
    v.add_argument("--check", action="append", choices=sorted(checks.REGISTRY), metavar="NAME",
                   help="run only this check (repeatable); see --list")
    v.add_argument("--all", action="store_true", help="run every registered check")
    v.add_argument("--list", action="store_true", help="list check names and exit")
    v.add_argument("--max-d", type=_non_negative, default=None)
    v.add_argument("--primes", type=_parse_primes, default=None, metavar="P1,P2")
    v.add_argument("--trunc", type=_non_negative, default=None)
    v.add_argument("--json", action="store_true", help="emit one JSON report per line")

    f = sub.add_parser("flags", help="print the weighted-flag series of a space")
    f.add_argument("--prime", required=True, type=int)
    f.add_argument("--family", required=True, choices=("A", "C", "B", "D"))
    f.add_argument("--d", required=True, type=int)
    f.add_argument("--trunc", type=_non_negative, default=DEFAULT_BOUND)
    f.add_argument("--alpha", action="store_true", help="mark the number of weights with s")

    r = sub.add_parser("rothe", help="print a Rothe diagram")
    r.add_argument("--perm", required=True, type=_parse_perm, metavar='"a,b,..."')
    r.add_argument("--type", required=True, choices=ROTHE_KINDS, dest="kind")
    r.add_argument("--format", choices=("text", "latex"), default="text")

    w = sub.add_parser("word", help="print length and a greedy reduced word")
    w.add_argument("--perm", required=True, type=_parse_perm, metavar='"a,b,..."')
    w.add_argument("--family", required=True, choices=FAMILY_TAGS)

    return parser


def _cmd_mahonian(args) -> int:
    fam = GroupFamily(args.family, args.d)
    if args.method == "enum":
        poly = statistics.mahonian_direct(fam, euler=args.euler)
    else:
        poly = statistics.mahonian_recursive(fam, euler=args.euler)
    if args.format == "text":
        print(poly_text(poly))
    elif args.format == "json":
        print(poly_json(poly))
    else:
        print(poly_latex_table(poly))
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for name in checks.REGISTRY:
            print(name)
        return 0
    names = args.check
    if not names and not args.all:
        print("verify: pass --all or at least one --check NAME", file=sys.stderr)
        return 2
    tags = []
    for rep in checks.run_all(names, max_d=args.max_d, primes=args.primes, trunc=args.trunc):
        tag = "PASS" if rep.passed else "FAIL" if rep.gating else "INFO"
        tags.append(tag)
        if args.json:
            line = json.dumps(rep.to_json())
        else:
            line = f"{tag:4}  {rep.label()}"
            if not rep.passed:
                line += f"  [{rep.discrepancy}]"
        print(line, flush=True)  # a closed pipe is noticed at the next report
    if not tags:
        print("verify: the selection matches no check point", file=sys.stderr)
        return 2
    failed, info = tags.count("FAIL"), tags.count("INFO")
    if not args.json:
        summary = f"{tags.count('PASS')} passed, {failed} failed"
        if info:
            summary += f", {info} informational"
        print(summary)
    return 1 if failed else 0


def _cmd_flags(args) -> int:
    space = flaggeom.space_for_family(args.family, args.prime, args.d)
    series = flaggeom.flag_series(space, args.trunc, with_alpha=args.alpha)
    print(series)
    return 0


def _cmd_rothe(args) -> int:
    diagram = rothe_diagram(args.perm, args.kind)
    print(diagram.text() if args.format == "text" else diagram.latex())
    counts = diagram.tensor_counts()
    tensors = " ".join(f"tag {i}: {n}" for i, n in sorted(counts.items())) or "none"
    print(f"crosses: {diagram.cross_count()}  tensors: {tensors}")
    return 0


def _cmd_word(args) -> int:
    fam = GroupFamily(args.family, len(args.perm))
    word = greedy_reduced_word(args.perm, fam)
    print(f"length {length(args.perm, fam)}")
    print("word " + (" ".join(f"s{i}" for i in word) if word else "(empty)"))
    return 0


_COMMANDS = {
    "mahonian": _cmd_mahonian,
    "verify": _cmd_verify,
    "flags": _cmd_flags,
    "rothe": _cmd_rothe,
    "word": _cmd_word,
}


def _glue_perm_values(argv: list[str]) -> list[str]:
    # argparse would read "-2,-3,1" as an option; attach it to --perm directly
    out = []
    it = iter(argv)
    for token in it:
        if token == "--perm":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--perm={value}")
        else:
            out.append(token)
    return out


_PARSERS: dict[tuple[str, ...], argparse.ArgumentParser] = {}


def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per set of registered check names (the
    choices of verify --check), so a registry that tests patch gets its own."""
    key = tuple(sorted(checks.REGISTRY))
    if key not in _PARSERS:
        _PARSERS[key] = build_parser()
    return _PARSERS[key]


def run(argv: list[str] | None = None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_perm_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: let the flush at exit write to devnull, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
