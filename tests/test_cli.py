"""CLI tests: golden outputs, JSON record schema, exit codes."""

import json
from pathlib import Path

import pytest

from artifact import dplus
from artifact.cli import main
from artifact.quadring import DEFAULT_FACTOR_BUDGET, set_factor_budget

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unit_line(capsys):
    code, out, _ = run(capsys, "unit", "19")
    assert code == 0
    assert out == "t=340 u=78 norm=+1\n"


def test_golden_tables(capsys):
    for name, fixture in [
        ("units", "table_units.txt"),
        ("kappa", "table_kappa.txt"),
        ("fig3", "table_fig3.txt"),
    ]:
        code, out, _ = run(capsys, "table", name)
        assert code == 0
        assert out == (FIXTURES / fixture).read_text(), name


def test_golden_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "5")
    assert code == 0
    assert out == (FIXTURES / "enumerate_5.txt").read_text()
    code, out, _ = run(capsys, "--json", "enumerate", "5")
    assert code == 0
    assert out == (FIXTURES / "enumerate_5.jsonl").read_text()


def test_golden_decompose(capsys):
    code, out, _ = run(
        capsys, "decompose", "21", "21", "1", "--dint-divides", "21", "--refine"
    )
    assert code == 0
    assert out == (FIXTURES / "decompose_21.txt").read_text()


def test_enumerate_flags(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "--field", "5")
    assert code == 0
    assert out.splitlines() == ["5\t5\t1\t1\t1\t100\t3.618033"]
    code, out, _ = run(capsys, "enumerate", "5", "--no-integers")
    assert [line.split("\t")[0] for line in out.splitlines()] == ["5", "3"]
    # fractional bound
    code, out, _ = run(capsys, "enumerate", "37/10")
    assert code == 0
    assert len(out.splitlines()) == 4  # 1, 2, 3, (5+sqrt5)/2


def test_json_records_round_trip(capsys):
    cases = [
        ("unit", "19"),
        ("kappa", "21"),
        ("generators", "15"),
        ("member", "3", "6", "2"),
        ("factor", "15", "0", "2"),
        ("divides", "15", "10", "2", "60", "16"),
        ("pell", "13"),
        ("pell", "21"),
        ("qint", "2", "2"),
        ("decompose", "3", "10", "1", "--refine"),
        ("screen", "3", "6", "2"),
        ("table", "kappa"),
        ("complex", "-1", "2", "2"),
    ]
    for argv in cases:
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0, argv
        lines = out.splitlines()
        assert lines, argv
        for line in lines:
            doc = json.loads(line)
            assert doc["schema_version"] == 1
            assert doc["command"].split(".")[0] == argv[0]
            assert isinstance(doc["payload"], dict) and doc["payload"]
        # deterministic rendering: re-dumping with sorted keys is identity
        for line in lines:
            doc = json.loads(line)
            assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == line


def test_pell_output(capsys):
    code, out, _ = run(capsys, "pell", "13")
    assert out == "negative_pell=yes witness: x=18 y=5\n"
    code, out, _ = run(capsys, "pell", "21")
    assert out == "negative_pell=no witness: kappa=7 n=1\n"
    code, out, _ = run(capsys, "pell", "21", "--witness-bound", "2")
    assert out == "negative_pell=no witness=none within bound 2\n"


def test_member_factor_divides_output(capsys):
    _, out, _ = run(capsys, "member", "3", "6", "2")
    assert out == "3+√3: dnumber=yes order=2 ell=1 m=0 delta=101\n"
    _, out, _ = run(capsys, "member", "3", "8", "2")
    assert out == "4+√3: dnumber=no\n"
    _, out, _ = run(capsys, "factor", "15", "0", "2")
    assert out == "ell=1 m=0 delta=100\n"
    _, out, _ = run(capsys, "divides", "15", "10", "2", "60", "16")
    assert out == "divides=yes\n"
    _, out, _ = run(capsys, "divides", "21", "10", "0", "42", "0")
    assert out == "divides=no rejected_by=ell\n"


def test_screen_and_complex_output(capsys):
    _, out, _ = run(capsys, "screen", "3", "6", "2")
    assert out == "3+√3: eliminated\n"
    _, out, _ = run(capsys, "screen", "3", "4", "0")
    assert out == "2: multisets {3}\n"
    _, out, _ = run(capsys, "screen", "3", "8", "0")
    assert out == "4: multisets {3,3,3} {3,4}\n"
    _, out, _ = run(capsys, "complex", "-1", "2", "2")
    assert out == "kind=Gaussian dnumber=yes\n"
    _, out, _ = run(capsys, "complex", "-7", "3", "1")
    assert out == "kind=Generic dnumber=no\n"


def test_exit_codes(capsys):
    # 0: success
    assert run(capsys, "unit", "19")[0] == 0
    # 1: domain errors, error class name on stderr
    code, _, err = run(capsys, "kappa", "13")
    assert code == 1 and err.startswith("NotApplicable")
    code, _, err = run(capsys, "factor", "5", "3", "0")
    assert code == 1 and err.startswith("ParityError")
    code, _, err = run(capsys, "unit", "-7")
    assert code == 1 and err.startswith("NotApplicable")
    code, _, err = run(capsys, "divides", "15", "2", "2", "12", "8")
    assert code == 1 and err.startswith("NotADNumber")
    code, _, err = run(capsys, "screen", "3", "10", "0")
    assert code == 1 and err.startswith("NotApplicable")
    # 2: usage errors (argparse exits)
    with pytest.raises(SystemExit) as exc:
        main(["table", "nosuchtable"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    # 3: factorization budget exhausted (semiprime of two 10-digit primes)
    try:
        code, _, err = run(
            capsys, "--budget", "1", "factor", "5", "2000000032000000126", "0"
        )
        assert code == 3 and err.startswith("FactorizationLimit")
    finally:
        set_factor_budget(DEFAULT_FACTOR_BUDGET)


def test_internal_inconsistency_exits_4(capsys, monkeypatch):
    # a bug is told apart from a domain error (exit 1) even though
    # InternalInconsistency is an AssertionError
    real = dplus.enumerate_field
    monkeypatch.setattr(dplus, "enumerate_field", lambda N, M: real(N, M)[1:])
    code, out, err = run(capsys, "enumerate", "5")
    assert code == 4 and out == ""
    assert err.startswith("InternalInconsistency: N=3")
