"""CLI tests: golden outputs, JSON record schema, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from artifact import dplus, fusion, units
from artifact.cli import main
from artifact.quadring import factorize
from artifact.units import fundamental_unit

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unit_line(capsys):
    code, out, _ = run(capsys, "unit", "19")
    assert code == 0
    assert out == "t=340 u=78 norm=+1\n"


def test_answers_beyond_the_int_str_digit_limit(capsys):
    """[20000] = b*sqrt(2) has a b of 7,656 digits, above the default limit
    of 4300 on str() of an int: text and --json both print it, and main
    restores the limit for its caller."""
    limit = sys.get_int_max_str_digits()
    b = fusion.quantum_int(2, 20000).value.q // 2
    code, out, err = run(capsys, "qint", "2", "20000")
    assert (code, err) == (0, "") and out.endswith("√2\n")
    digits = out[: -len("√2\n")]
    k = len(digits)
    assert k == 7656 and 10 ** (k - 1) <= b < 10**k
    assert digits[:30] == str(b // 10 ** (k - 30))
    assert digits[-30:] == str(b % 10**30).zfill(30)
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, "--json", "qint", "2", "20000")
    assert (code, err) == (0, "")
    assert '"m":20000,"p":0,"q":' in out and f'"value":"{digits}\\u221a2"' in out
    assert sys.get_int_max_str_digits() == limit


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


@pytest.mark.parametrize("M, N", [("60", "5"), ("60", "3"), ("200", "2")])
def test_golden_enumerate_field(capsys, M, N):
    """dnum enumerate M --field N, as text and as --json; the unit of N = 2
    has norm -1."""
    for flags, suffix in [((), "txt"), (("--json",), "jsonl")]:
        code, out, _ = run(capsys, *flags, "enumerate", M, "--field", N)
        assert code == 0
        assert out == (FIXTURES / f"enumerate_{M}_field_{N}.{suffix}").read_text()


def test_golden_qint(capsys):
    """dnum qint N m, as text and as --json, on five fields and -4 <= m <= 7."""
    out = {(): "", ("--json",): ""}
    for N in (2, 3, 5, 13, 21):
        for m in range(-4, 8):
            for flags in out:
                code, text, _ = run(capsys, *flags, "qint", str(N), str(m))
                assert code == 0
                out[flags] += text
    assert out[()] == (FIXTURES / "qint.txt").read_text()
    assert out[("--json",)] == (FIXTURES / "qint.jsonl").read_text()


def test_golden_enumerate_under_optimised_python():
    """Internal invariants raise InternalInconsistency instead of using
    assert, so they still run under python -O; the output is unchanged."""
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "artifact", "enumerate", "5"],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert done.stdout == (FIXTURES / "enumerate_5.txt").read_bytes()


def test_golden_decompose(capsys):
    code, out, _ = run(
        capsys, "decompose", "21", "21", "1", "--dint-divides", "21", "--refine"
    )
    assert code == 0
    assert out == (FIXTURES / "decompose_21.txt").read_text()


def test_decompose_refine_with_modular_filter(capsys):
    # the filter drops the single part (6, j=1) of d_int=1: 10/6 is no integer
    code, out, _ = run(capsys, "decompose", "3", "10", "1", "--refine",
                       "--modular-filter")
    assert code == 0
    assert out == (
        "target=20+10√3 scanned=80 solutions=2\n"
        "d_int=2 ell_1=2 ell_2=2\n"
        "  simple dims: 2x(1,j=2) 1x(2,j=1)\n"
        "d_int=1 ell_1=6 ell_2=1\n"
        "  simple dims: 1x(1,j=2) 3x(2,j=1)\n"
    )
    code, out, _ = run(capsys, "--json", "decompose", "3", "10", "1", "--refine",
                       "--modular-filter")
    assert code == 0
    assert out == (
        '{"command":"decompose","payload":{"N":3,"coeffs":[[1,2],[2,2]],'
        '"d_int":2,"ell":10,"m":1,"refinements":[[[1,2],[1,2],[2,1]]],'
        '"scanned":80},"schema_version":1}\n'
        '{"command":"decompose","payload":{"N":3,"coeffs":[[1,6],[2,1]],'
        '"d_int":1,"ell":10,"m":1,"refinements":[[[1,2],[2,1],[2,1],[2,1]]],'
        '"scanned":80},"schema_version":1}\n'
    )


def test_decompose_without_solutions(capsys):
    # 2 = 1 + 1 has no eps^j part, and d_int may only be 1: one summary
    # record, with d_int null and no coefficients
    argv = ("decompose", "5", "2", "0", "--dint-divides", "1")
    assert run(capsys, *argv) == (0, "target=2 scanned=1 solutions=0\n", "")
    assert run(capsys, "--json", *argv) == (
        0,
        '{"command":"decompose","payload":{"N":5,"coeffs":[],"d_int":null,'
        '"ell":2,"m":0,"scanned":1},"schema_version":1}\n',
        "",
    )


def test_closed_pipe_exits_without_traceback():
    """A reader that stops early (`dnum ... | head -1`) ends the run with
    exit 141 and nothing on stderr, also not when Python flushes at exit.
    The 9,744 lines (650 kB) overflow the pipe, so the run is still
    writing when the reader closes it."""
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "artifact", "decompose", "5", "76", "2", "--refine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline().decode()
    assert first == "target=114+38√5 scanned=581856 solutions=17\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""  # no Traceback, and no "Exception ignored" at exit


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
    # large norm +1 fields: the least witness is far beyond the bound
    for N in ("1000003", "99991"):
        assert run(capsys, "pell", N) == (
            0, "negative_pell=no witness=none within bound 100\n", ""
        )
    # the least witness of N = 46 is (2, 156): in bound exactly from 156
    _, out, _ = run(capsys, "pell", "46", "--witness-bound", "155")
    assert out == "negative_pell=no witness=none within bound 155\n"
    _, out, _ = run(capsys, "pell", "46", "--witness-bound", "156")
    assert out == "negative_pell=no witness: kappa=2 n=156\n"
    _, out, _ = run(capsys, "--json", "pell", "34")
    assert out == (
        '{"command":"pell","payload":{"N":34,"solvable":false,'
        '"witness":{"kappa":2,"n":6},"witness_bound":100},"schema_version":1}\n'
    )


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
    for bad in ("abc", "1/0"):  # a malformed cutoff M is a usage error too
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", bad])
        assert exc.value.code == 2
        assert "invalid fraction value" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # a negative witness bound too
        main(["pell", "21", "--witness-bound", "-1"])
    assert exc.value.code == 2
    assert "invalid nonnegative value" in capsys.readouterr().err
    assert run(capsys, "pell", "21", "--witness-bound", "0") == (
        0, "negative_pell=no witness=none within bound 0\n", ""
    )
    for bad in ("0", "-5"):  # and a factor budget below 1
        with pytest.raises(SystemExit) as exc:
            main(["--budget", bad, "unit", "2"])
        assert exc.value.code == 2
        assert f"invalid positive value: '{bad}'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # a filter with nothing to filter
        main(["decompose", "5", "76", "2", "--modular-filter"])
    assert exc.value.code == 2
    assert "--modular-filter: needs --refine" in capsys.readouterr().err
    # 3: factorization budget exhausted (decompose factorizes ell, a
    # semiprime of two 10-digit primes)
    code, _, err = run(
        capsys, "--budget", "1", "decompose", "5", "1000000016000000063", "0"
    )
    assert code == 3 and err.startswith("FactorizationLimit")


def test_decompose_rejects_divisor_constraint_below_one(capsys):
    # 0 once meant "divisors of ell" and -4 leaked a factorize message
    for bad in ("0", "-4"):
        code, out, err = run(capsys, "decompose", "5", "4", "0", "--dint-divides", bad)
        assert code == 1 and out == ""
        assert err == f"ValueError: divisor_constraint must be >= 1, got {bad}\n"


def test_parsed_flags_do_not_leak_between_calls(capsys):
    # the parser is built once per process; each call parses afresh
    code, out, _ = run(capsys, "--json", "unit", "19")
    assert code == 0 and json.loads(out)["command"] == "unit"
    assert run(capsys, "unit", "19") == (0, "t=340 u=78 norm=+1\n", "")


def test_budget_lasts_one_call(capsys):
    code, _, err = run(
        capsys, "--budget", "1", "decompose", "5", "1000000016000000063", "0"
    )
    assert code == 3
    assert err.startswith(
        "FactorizationLimit: factor budget 1 exhausted after 1 rho iterations"
        " on a 60-bit cofactor"
    )
    # no reset: the next factorization in the process has the default budget
    assert factorize(999999999989 * 999999999961) == {
        999999999961: 1, 999999999989: 1,
    }


def test_commands_without_factorization_spend_no_budget(capsys):
    # with a budget of 1, one rho iteration would exit 3: the canonical form
    # takes exact square roots of norms, and kappa gcds of the 745-bit
    # t +- 2 of N = 99991
    assert run(
        capsys, "--budget", "1", "factor", "5", "2000000032000000126", "0"
    ) == (0, "ell=1000000016000000063 m=0 delta=000\n", "")
    assert run(capsys, "--budget", "1", "kappa", "99991") == (
        0, "kappa1=2 kappa2=199982\n", "",
    )
    code, out, _ = run(capsys, "--budget", "1", "generators", "99991")
    assert code == 0 and out.startswith("case=NKappa1EqKappa2 generators: ")
    # 3*sqrt(N)*eps = (3*N*u + 3*t*sqrt(N)) / 2 in doubled coordinates
    fu = fundamental_unit(99991)
    code, out, _ = run(
        capsys, "--budget", "1", "member", "99991", str(3 * 99991 * fu.u),
        str(3 * fu.t),
    )
    assert code == 0 and out.endswith(": dnumber=yes order=2 ell=3 m=1 delta=100\n")


def test_factor_square_of_large_prime(capsys):
    # x = P, a prime near 3.8e16, so N(x) = P^2: rho on P^2 would need about
    # sqrt(P) iterations, while the canonical form only takes square roots
    code, out, _ = run(
        capsys, "--budget", "300000", "factor", "17", "75798175521524242", "0"
    )
    assert code == 0
    assert out == "ell=37899087760762121 m=0 delta=000\n"


def test_internal_inconsistency_exits_4(capsys, monkeypatch):
    # a bug is told apart from a domain error (exit 1) even though
    # InternalInconsistency is an AssertionError
    real = dplus._trace_walk  # plus 2+sqrt(3), whose conjugate is below 1
    monkeypatch.setattr(dplus, "_trace_walk", lambda a, b: real(a, b) + [(3, 4, 2)])
    code, out, err = run(capsys, "enumerate", "5")
    assert code == 4 and out == ""
    assert err.startswith("InternalInconsistency: trace walk hit 2+√3 (N=3)")


def test_corrupt_table_row_exits_4(capsys, monkeypatch, tmp_path):
    """A negative unit power in the shipped table is a bug in the data: `dnum
    table fig3` exits 4 on it instead of powering forever."""
    table = tmp_path / "quantum_group_dims.tsv"
    table.write_text("A\t1\t3\t2\t-1\t5\t1\n")
    monkeypatch.setattr(fusion, "_TABLE_PATH", str(table))
    code, out, err = run(capsys, "table", "fig3")
    assert code == 4 and out == ""
    assert err.startswith("InternalInconsistency: _power needs m >= 0, got -1")


@pytest.mark.parametrize("bug", [RuntimeError, AssertionError])
def test_bug_raises_with_its_traceback(monkeypatch, bug):
    # only the package's domain errors print as exit 1; anything else, as a
    # RecursionError would, propagates out of main
    def broken(N):
        raise bug("not a domain error")

    monkeypatch.setattr(units, "fundamental_unit", broken)
    with pytest.raises(bug, match="not a domain error"):
        main(["unit", "19"])


# the second generator of N = 99991, sqrt(2*eps) = P + Q*sqrt(99991)
P99991 = (
    "78918785217539157296417149821602322491470886697281605543"
    "05665131451642318918894906606218890868139647671194716581"
)
Q99991 = (
    "24957434255917116604506707696267940074334907261245796047"
    "629681380423269709328134984769061701612797607276695007"
)
RECORD = '{"command":"generators","payload":{%s},"schema_version":1}\n'
GENERATORS_OUTPUT = {
    13: (
        "case=NormMinusOne generators: √13\n",
        RECORD % '"N":13,"case":"NormMinusOne","generators":["\\u221a13"],'
        '"kappa1":null,"kappa2":null',
    ),
    21: (
        "case=KappaProductEqN generators: (7+√21)/2, (3+√21)/2\n",
        RECORD % '"N":21,"case":"KappaProductEqN",'
        '"generators":["(7+\\u221a21)/2","(3+\\u221a21)/2"],"kappa1":7,"kappa2":3',
    ),
    7: (
        "case=NKappa1EqKappa2 generators: √7, 3+√7\n",
        RECORD % '"N":7,"case":"NKappa1EqKappa2",'
        '"generators":["\\u221a7","3+\\u221a7"],"kappa1":2,"kappa2":14',
    ),
    3: (
        "case=NKappa2EqKappa1 generators: √3, 1+√3\n",
        RECORD % '"N":3,"case":"NKappa2EqKappa1",'
        '"generators":["\\u221a3","1+\\u221a3"],"kappa1":6,"kappa2":2',
    ),
    15: (
        "case=Else generators: √15, 5+√15, 3+√15\n",
        RECORD % '"N":15,"case":"Else",'
        '"generators":["\\u221a15","5+\\u221a15","3+\\u221a15"],"kappa1":10,"kappa2":6',
    ),
    99991: (
        f"case=NKappa1EqKappa2 generators: √99991, {P99991}+{Q99991}√99991\n",
        RECORD % f'"N":99991,"case":"NKappa1EqKappa2","generators":["\\u221a99991",'
        f'"{P99991}+{Q99991}\\u221a99991"],"kappa1":2,"kappa2":199982',
    ),
}


@pytest.mark.parametrize("N", sorted(GENERATORS_OUTPUT))
def test_generators_output(capsys, N):
    """`generators` and its JSON record, byte for byte, for one field of
    each case and a large one."""
    text, record = GENERATORS_OUTPUT[N]
    assert run(capsys, "generators", str(N)) == (0, text, "")
    assert run(capsys, "--json", "generators", str(N)) == (0, record, "")
