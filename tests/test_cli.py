import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import weylmahonian
from weylmahonian import checks
from weylmahonian.algebra import poly_from_json, poly_text
from weylmahonian.cli import run
from weylmahonian.statistics import mahonian_direct
from weylmahonian.weylgroups import GroupFamily


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_mahonian_text(capsys):
    code, out = invoke(capsys, "mahonian", "--family", "BC", "--d", "1", "--format", "text")
    assert code == 0
    assert out.strip() == "1 + q*t"


def test_mahonian_methods_agree(capsys):
    _, enum_out = invoke(capsys, "mahonian", "--family", "D", "--d", "3", "--method", "enum")
    _, recur_out = invoke(capsys, "mahonian", "--family", "D", "--d", "3", "--method", "recur")
    assert enum_out == recur_out


def test_mahonian_json_round_trips(capsys):
    code, out = invoke(capsys, "mahonian", "--family", "BC", "--d", "2", "--format", "json")
    assert code == 0
    poly = poly_from_json(json.loads(out))
    assert poly == mahonian_direct(GroupFamily("BC", 2))


def test_mahonian_latex(capsys):
    code, out = invoke(capsys, "mahonian", "--family", "D", "--d", "2", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{array}")


def test_mahonian_euler(capsys):
    code, out = invoke(capsys, "mahonian", "--family", "BC", "--d", "1", "--euler")
    assert code == 0
    assert out.strip() == "1 + q*t*s"


def test_word_worked_example(capsys):
    code, out = invoke(capsys, "word", "--perm", "-2,-3,1", "--family", "BC")
    assert code == 0
    assert "length 6" in out
    assert "s2 s3 s2 s1 s3 s2" in out


def test_word_identity(capsys):
    code, out = invoke(capsys, "word", "--perm", "1,2,3", "--family", "A")
    assert code == 0
    assert "length 0" in out and "(empty)" in out


def test_flags_series(capsys):
    code, out = invoke(
        capsys, "flags", "--prime", "3", "--family", "A", "--d", "1", "--trunc", "3"
    )
    assert code == 0
    assert out.strip() == "1 + t + t^2 + t^3 + O(t^4)"


@pytest.mark.parametrize(
    "family, p, d, digest",
    [
        ("A", 2, 1, "ac0543d122d64110cf36537cd62897c2b36e8e02e3e2b57a5ca439f4a33e509f"),
        ("A", 2, 2, "ef30cfce5034d3ff0bce53ed7885aefbcd73bc50ed63e7af85e00bf197060f5f"),
        ("A", 2, 3, "57804314a1153c13a826c92cd54aca6b6a82c605699fb416b2ebbc84ac139613"),
        ("C", 3, 1, "1aa1219c32992497a9d85c14abd28b73b53f3e505bf07d9a7efd0ce82ad20d77"),
        ("C", 3, 2, "9bcf6dca8dc57e1eb873e65b7775c77e9f0933563cc4b3ed903a0034ee6275d7"),
        ("B", 3, 1, "1aa1219c32992497a9d85c14abd28b73b53f3e505bf07d9a7efd0ce82ad20d77"),
        ("B", 3, 2, "9bcf6dca8dc57e1eb873e65b7775c77e9f0933563cc4b3ed903a0034ee6275d7"),
        ("D", 3, 1, "ac0543d122d64110cf36537cd62897c2b36e8e02e3e2b57a5ca439f4a33e509f"),
        ("D", 3, 2, "e1228cbbfd2a0c5f713a4ec03c5e1471fec13f516180547e8c054c8bd0cea93f"),
    ],
)
def test_flags_output_is_pinned(capsys, family, p, d, digest):
    """SHA-256 of the flags stdout at --trunc 0, 5, 12, each plain then
    --alpha, concatenated in that order."""
    out = ""
    for trunc in ("0", "5", "12"):
        for alpha in ((), ("--alpha",)):
            code, text = invoke(capsys, "flags", "--prime", str(p), "--family", family, "--d", str(d),
                                "--trunc", trunc, *alpha)
            assert code == 0
            out += text
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RECURSION_DIGESTS = json.loads(pathlib.Path(__file__).with_name("recursion_digests.json").read_text())


@pytest.mark.parametrize("family", ["A", "BC", "D"])
@pytest.mark.parametrize("marker", ["plain", "euler"])
def test_recursion_output_is_pinned(capsys, family, marker):
    """SHA-256 of `mahonian --method recur --format json` at d = 0, 1, ...
    (A to 14, BC and D to 12), one digest per rank."""
    euler = ("--euler",) if marker == "euler" else ()
    digests = RECURSION_DIGESTS[f"{family} {marker}"]
    for d, digest in enumerate(digests):
        code, out = invoke(capsys, "mahonian", "--family", family, "--d", str(d),
                           "--method", "recur", "--format", "json", *euler)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, f"{family} d={d} {marker}"


@pytest.mark.parametrize("family", ["A", "BC", "D"])
@pytest.mark.parametrize("marker", ["plain", "euler"])
def test_direct_output_matches_the_recursion_pins(capsys, family, marker):
    """`mahonian --method enum --format json` gives the recursion's pinned
    digest at every rank of test_recursion_output_is_pinned, all of which the
    direct guard admits."""
    euler = ("--euler",) if marker == "euler" else ()
    for d, digest in enumerate(RECURSION_DIGESTS[f"{family} {marker}"]):
        code, out = invoke(capsys, "mahonian", "--family", family, "--d", str(d),
                           "--method", "enum", "--format", "json", *euler)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, f"{family} d={d} {marker}"


RECURSION_FORMAT_DIGESTS = json.loads(pathlib.Path(__file__).with_name("recursion_format_digests.json").read_text())


@pytest.mark.parametrize("fmt", ["text", "latex"])
@pytest.mark.parametrize("family", ["A", "BC", "D"])
@pytest.mark.parametrize("marker", ["plain", "euler"])
def test_recursion_text_and_latex_are_pinned(capsys, fmt, family, marker):
    """SHA-256 of `mahonian --method recur --format text|latex` at d = 0, 1, ...
    (A to 10, BC and D to 8), one digest per rank."""
    euler = ("--euler",) if marker == "euler" else ()
    digests = RECURSION_FORMAT_DIGESTS[f"{family} {marker} {fmt}"]
    for d, digest in enumerate(digests):
        code, out = invoke(capsys, "mahonian", "--family", family, "--d", str(d),
                           "--method", "recur", "--format", fmt, *euler)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, f"{family} d={d} {marker} {fmt}"


def test_rothe_text(capsys):
    code, out = invoke(capsys, "rothe", "--perm", "-5,3,-1,6,4,-2", "--type", "C")
    assert code == 0
    assert "crosses: 7" in out
    assert "tag 1: 2 tag 3: 6 tag 6: 5" in out


def test_rothe_latex(capsys):
    code, out = invoke(capsys, "rothe", "--perm", "2,1", "--type", "A", "--format", "latex")
    assert code == 0
    assert r"\times" in out


def test_verify_single_check(capsys):
    code, out = invoke(capsys, "verify", "--check", "qbinomial_theorem", "--max-d", "3")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("0 failed")


def test_verify_repeated_check_runs_once(capsys):
    """A check named twice runs its grid once, where it was first named, and
    each report is printed and counted once."""
    code, out = invoke(
        capsys, "verify", "--check", "direct_vs_recursive", "--check", "symmetry_qt_a",
        "--check", "direct_vs_recursive", "--max-d", "0",
    )
    assert code == 0
    *reports, summary = out.strip().splitlines()
    assert [line.split("(")[0] for line in reports] == ["PASS  direct_vs_recursive"] * 5 + ["PASS  symmetry_qt_a"]
    assert len(set(reports)) == 6
    assert summary == "6 passed, 0 failed"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--all",), "9fb9274ebe8167d8b13b4582369ddbbd9d9f4c31ff3f8b4dbdef0c07e5cf92b4"),
        (("--all", "--json"), "5e89b7ea47334ce55533db5b5ccac5a8d8c33242b6f5b501194a7f93671ea2d3"),
        (
            ("--all", "--max-d", "2", "--primes", "3", "--trunc", "6", "--json"),
            "4e0bd2bc097ea5900e9c7441f1d8f00413a1c0452d50831e48c8f5ffb05c3eb5",
        ),
        (("--list",), "49173c090f61701e961a25078c8f8c914eeb13ae1e256d8c8d895c7b2508639b"),
    ],
)
def test_verify_output_is_pinned(capsys, monkeypatch, registry_reports, argv, digest):
    """SHA-256 of the verify stdout: every report's text or JSON line, and the
    check list.  The two unbounded --all runs render the session's registry
    reports, so each grid point is computed once."""
    if argv in (("--all",), ("--all", "--json")):

        def run_all(names=None, **bounds):
            assert names is None and bounds == {"max_d": None, "primes": None, "trunc": None}
            return (rep for name in checks.REGISTRY for rep in registry_reports(name))

        monkeypatch.setattr(checks, "run_all", run_all)
    code, out = invoke(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json(capsys):
    code, out = invoke(
        capsys, "verify", "--check", "symmetry_qt_a", "--max-d", "2", "--json"
    )
    assert code == 0
    for line in out.strip().splitlines():
        rep = json.loads(line)
        assert rep["passed"] is True


def test_verify_list(capsys):
    code, out = invoke(capsys, "verify", "--list")
    assert code == 0
    assert "direct_vs_recursive" in out.split()


def test_verify_requires_selection(capsys):
    code, _ = invoke(capsys, "verify")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--check", "flag_series_theorem", "--primes", "7"),
        ("verify", "--check", "length_vs_bfs", "--max-d", "0"),
    ],
)
def test_verify_empty_selection_is_usage_error(capsys, argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no check point" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--max-d", "-1"), "argument --max-d: must be >= 0, got -1"),
        (("--max-d", "1", "--trunc", "-1"), "argument --trunc: must be >= 0, got -1"),
        (("--max-d", "1", "--trunc", "x"), "argument --trunc: invalid int value: 'x'"),
    ],
)
def test_verify_rejects_negative_bounds_before_any_check(capsys, argv, message):
    checks = ("--check", "qbinomial_theorem", "--check", "flag_series_theorem")
    code = run(["verify", *checks, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_flags_rejects_negative_trunc_before_any_enumeration(capsys, monkeypatch):
    from weylmahonian import flaggeom

    def no_enumeration(*args):
        pytest.fail("a subspace was enumerated")

    monkeypatch.setattr(flaggeom, "_below", no_enumeration)
    monkeypatch.setattr(flaggeom, "enumerate_subspaces", no_enumeration)
    code = run(["flags", "--prime", "3", "--family", "D", "--d", "4", "--trunc", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --trunc: must be >= 0, got -1" in captured.err


@pytest.mark.parametrize(
    "primes, message",
    [
        ("3,x", "argument --primes: not a comma-separated list of integers: '3,x'"),
        ("-3", "argument --primes: -3 is not a supported prime (2, 3, 5, 7, 11, 13)"),
        ("4", "argument --primes: 4 is not a supported prime (2, 3, 5, 7, 11, 13)"),
        ("", "argument --primes: no prime listed: ''"),
        (",", "argument --primes: no prime listed: ','"),
    ],
)
def test_verify_rejects_unsupported_primes_before_any_check(capsys, primes, message):
    code = run(["verify", "--all", "--primes", primes])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert message in captured.err


def test_closed_stdout_pipe_exits_141_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylmahonian.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylmahonian.cli", "verify", "--check", "qbinomial_theorem", "--max-d", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_usage_errors_exit_2(capsys):
    assert run(["mahonian", "--family", "X", "--d", "2"]) == 2
    assert run(["word", "--perm", "1,1", "--family", "A"]) == 2
    assert run(["rothe", "--perm", "-1,2", "--type", "A"]) == 2  # signed perm for type A
    assert run([]) == 2


def test_byte_identical_output(capsys):
    args = ("mahonian", "--family", "BC", "--d", "3", "--format", "json")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second
    args = ("flags", "--prime", "3", "--family", "C", "--d", "2", "--trunc", "6")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second


def test_text_output_is_parseable(capsys):
    _, out = invoke(capsys, "mahonian", "--family", "D", "--d", "2")
    assert poly_text(mahonian_direct(GroupFamily("D", 2))) == out.strip()


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    from weylmahonian import checks

    def broken(d):
        return checks.CheckReport("always_fails", {"d": d}, False, "0", "1", "made up")

    monkeypatch.setitem(checks.REGISTRY, "always_fails", (broken, lambda *_: [{"d": 1}]))
    code, out = invoke(capsys, "verify", "--check", "always_fails")
    assert code == 1
    assert "FAIL" in out and "made up" in out


def test_verify_reports_raising_checks_as_failures(capsys, monkeypatch):
    """A check that raises fails at its point, and the later points still run."""
    from weylmahonian import checks

    def raising(error):
        def check(d):
            raise error(f"broken at d={d}")

        return check

    monkeypatch.setitem(checks.REGISTRY, "raises_value", (raising(ValueError), lambda *_: [{"d": 1}]))
    monkeypatch.setitem(checks.REGISTRY, "raises_runtime", (raising(RuntimeError), lambda *_: [{"d": 2}]))
    code = run(["verify", "--check", "raises_value", "--check", "raises_runtime", "--check", "rothe_worked_examples"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "FAIL  raises_value(d=1)  [raised ValueError: broken at d=1]",
        "FAIL  raises_runtime(d=2)  [raised RuntimeError: broken at d=2]",
        "PASS  rothe_worked_examples()",
        "1 passed, 2 failed",
    ]


def test_runs_share_one_parser_per_registry(capsys, monkeypatch):
    """The parser is built once and reused, and a patched registry (new
    verify --check choices) gets a parser of its own."""
    from weylmahonian import cli

    built = []

    def build():
        built.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "_PARSERS", {})
    for _ in range(2):
        assert invoke(capsys, "mahonian", "--family", "A", "--d", "2") == (0, "1 + q*t\n")
    assert len(built) == 1
    def made_up(d):
        return checks.CheckReport("made_up", {"d": d}, True, "0", "0", "")

    monkeypatch.setitem(checks.REGISTRY, "made_up", (made_up, lambda *_: [{"d": 1}]))
    code, out = invoke(capsys, "verify", "--check", "made_up")
    assert code == 0 and out.startswith("PASS  made_up(d=1)")
    assert len(built) == 2


def test_enumeration_cap_reports_usage_error(capsys):
    code, _ = invoke(capsys, "mahonian", "--family", "BC", "--d", "17")
    assert code == 2


@pytest.mark.parametrize("family, d", [("A", 18), ("BC", 13), ("D", 13), ("A", 500), ("A", 20000), ("BC", 10**7)])
def test_direct_work_guard_reports_usage_error(capsys, family, d):
    start = time.perf_counter()
    code = run(["mahonian", "--family", family, "--d", str(d), "--method", "enum", "--euler"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: the direct sum for {family} d={d} with --euler walks")


@pytest.mark.parametrize("family, d", [("A", 300), ("C", 200), ("D", 150), ("A", 10**9)])
def test_flag_cell_cap_refuses_before_any_work(capsys, family, d):
    """The cap is checked before the signature slot width, a product over
    every dimension, is formed, and without forming p^dim itself."""
    start = time.perf_counter()
    code = run(["flags", "--prime", "3", "--family", family, "--d", str(d)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: p^dim = 3^")


def test_recursion_work_guard_reports_usage_error(capsys):
    start = time.perf_counter()
    code = run(["mahonian", "--family", "A", "--d", "200", "--method", "recur"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    assert captured.err.startswith("error: the recursion for A d=200 needs more than")
