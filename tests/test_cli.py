"""CLI tests: golden outputs, JSON record schema, exit codes."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from artifact import cli, dplus, fusion, units
from artifact.cli import main
from artifact.quadring import InternalInconsistency, factorize, is_square, make
from artifact.units import fundamental_unit
from oracles import dnum_parser, squarefree_range

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
    b = fusion.quantum_int(2, 20000).q // 2
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


@pytest.fixture
def no_digit_limit():
    """Lift the int-to-str digit limit, so that a test can parse and print
    answers beyond 4300 digits itself."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_unit_and_pell_at_large_n(capsys, no_digit_limit):
    """The unit of N = 1000000007 (t of 6,382 digits) and the negative Pell
    witness of N = 1000000021 (the solvable branch, x of over 4300 digits)
    print in full, as text and as --json."""
    fu = fundamental_unit(1000000007)
    assert len(str(fu.t)) == 6382 and fu.t**2 - 1000000007 * fu.u**2 == 4
    line = f"t={fu.t} u={fu.u} norm=+1\n"
    assert run(capsys, "unit", "1000000007") == (0, line, "")
    code, out, err = run(capsys, "--json", "unit", "1000000007")
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert (payload["t"], payload["u"], payload["unit_norm"]) == (fu.t, fu.u, 1)

    code, out, err = run(capsys, "pell", "1000000021")
    prefix = "negative_pell=yes witness: x="
    assert (code, err) == (0, "") and out.startswith(prefix) and out.endswith("\n")
    x, y = map(int, out[len(prefix) : -1].split(" y="))
    assert x * x - 1000000021 * y * y == -1 and len(str(x)) > 4300
    code, out, err = run(capsys, "--json", "pell", "1000000021")
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert payload["solvable"] and payload["witness"] == {"x": x, "y": y}


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


def test_closed_pipe_stops_the_computation(capsys, monkeypatch):
    """Records print as they are produced, so the first write to a closed
    pipe ends the run: `decompose 5 76 2 --refine` writes its summary line
    first, and exits 141 before it refines any of its 17 solutions."""
    def lowest_free_descriptor():
        probe = os.open(os.devnull, os.O_RDONLY)
        os.close(probe)
        return probe

    fd = os.open(os.devnull, os.O_WRONLY)  # harmless target of the dup2

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):
            return fd

    real, calls = fusion.refine_simple_dims, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fusion, "refine_simple_dims", counted)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        free = lowest_free_descriptor()
        assert main(["decompose", "5", "76", "2", "--refine"]) == 141
        assert lowest_free_descriptor() == free  # devnull's descriptor closed
    finally:
        os.close(fd)
    assert calls == [] and capsys.readouterr().err == ""


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
    # the least witness of N = 46 is (2, 156)
    _, out, _ = run(capsys, "pell", "46")
    assert out == "negative_pell=no witness: kappa=2 n=156\n"
    # large norm +1 fields print their witness too, far beyond 100
    for N in (1000003, 99991):
        code, out, err = run(capsys, "pell", str(N))
        prefix = "negative_pell=no witness: kappa="
        assert (code, err) == (0, "") and out.startswith(prefix) and out.endswith("\n")
        kappa, n = map(int, out[len(prefix) : -1].split(" n="))
        v = kappa * n * n - 4
        assert max(kappa, n) > 100 and not is_square(v), N
        assert kappa * v % N == 0 and is_square(kappa * v // N), N
    _, out, _ = run(capsys, "--json", "pell", "34")
    assert out == (
        '{"command":"pell","payload":{"N":34,"solvable":false,'
        '"witness":{"kappa":2,"n":6}},"schema_version":1}\n'
    )


def test_pell_witness_against_sympy(capsys):
    """For each of the 144 squarefree N <= 1000 with a unit of norm -1, the
    witness of `pell` is sympy's least solution of x^2 - N y^2 = -1, as
    --json and as text.  The CLI halves eps, or eps^3 when eps has odd
    coordinates (38 of the fields); diop_DN shares no code with either."""
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    fields = [N for N in squarefree_range(1000)[1:] if diop_DN(N, -1)]
    assert len(fields) == 144
    assert sum(fundamental_unit(N).t % 2 for N in fields) == 38
    for N in fields:
        x, y = diop_DN(N, -1)[0]
        code, out, err = run(capsys, "--json", "pell", str(N))
        assert (code, err) == (0, "")
        assert json.loads(out)["payload"]["witness"] == {"x": x, "y": y}, N
        assert run(capsys, "pell", str(N)) == (
            0, f"negative_pell=yes witness: x={x} y={y}\n", ""
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


@pytest.mark.parametrize("argv, err", [
    ("complex 5 2 0", "NotApplicable: complex_classify is for N < 0\n"),
    ("complex -1 0 0", "ZeroElement: 0 is not a d-number\n"),
    ("complex -4 2 0", "ValueError: N must be squarefree and != 0, 1 (got -4)\n"),
])
def test_complex_refusals(capsys, argv, err):
    """`complex` refuses a real field, zero and a non-squarefree N, each
    with its own error and empty stdout."""
    assert run(capsys, *argv.split()) == (1, "", err)


# the usage line of `dnum` and of each subcommand, in --help's order
USAGE = {
    "": "usage: dnum [-h] [--json] [--budget B] {unit,kappa,generators,member,"
    "factor,divides,enumerate,pell,qint,decompose,screen,table,complex} ...",
    "unit": "usage: dnum unit [-h] N",
    "kappa": "usage: dnum kappa [-h] N",
    "generators": "usage: dnum generators [-h] N",
    "member": "usage: dnum member [-h] N p q",
    "factor": "usage: dnum factor [-h] N p q",
    "divides": "usage: dnum divides [-h] N p1 q1 p2 q2",
    "enumerate": "usage: dnum enumerate [-h] [--field N] [--no-integers] M",
    "pell": "usage: dnum pell [-h] N",
    "qint": "usage: dnum qint [-h] N m",
    "decompose": "usage: dnum decompose [-h] [--dint-divides D] [--refine]"
    " [--modular-filter] N ell m",
    "screen": "usage: dnum screen [-h] N p q",
    "table": "usage: dnum table [-h] {units,kappa,fig3}",
    "complex": "usage: dnum complex [-h] N p q",
}
# one argv per subcommand, and the values it parses to
PARSED = {
    "unit 19": {"N": 19},
    "kappa 21": {"N": 21},
    "generators 15": {"N": 15},
    "member 3 6 2": {"N": 3, "p": 6, "q": 2},
    "factor 15 0 2": {"N": 15, "p": 0, "q": 2},
    "divides 15 10 2 60 16": {"N": 15, "p1": 10, "q1": 2, "p2": 60, "q2": 16},
    "enumerate 37/10 --field 5": {
        "M": Fraction(37, 10), "field": 5, "no_integers": False,
    },
    "pell 21": {"N": 21},
    "qint 2 -3": {"N": 2, "m": -3},
    "decompose 21 21 1 --dint-divides 7 --refine": {
        "N": 21, "ell": 21, "m": 1, "dint_divides": 7, "refine": True,
        "modular_filter": False,
    },
    "screen 3 6 2": {"N": 3, "p": 6, "q": 2},
    "table fig3": {"name": "fig3"},
    "complex -1 2 2": {"N": -1, "p": 2, "q": 2},
}


def test_parser_shape(capsys, monkeypatch):
    """The parser's shape: each usage line (a usage error prints
    format_usage() to stderr), and each argument's name, type and handler.
    COLUMNS=200 keeps every usage on one line."""
    monkeypatch.setenv("COLUMNS", "200")
    for command, usage in USAGE.items():
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[0] == usage
    assert [argv.split()[0] for argv in PARSED] == list(USAGE)[1:]
    # and the shape of perfbench's factor requests
    perfbench = {"budget": 300000, **PARSED["factor 15 0 2"]}
    shapes = {**PARSED, "--budget 300000 factor 15 0 2": perfbench}
    for argv, want in shapes.items():
        command = next(token for token in argv.split() if token in cli._COMMANDS)
        want = {"json": False, "budget": None, "command": command, **want}
        # argparse parses each argv, and _scan reads it alike
        for args in map(vars, [cli._build_parser().parse_args(argv.split()),
                               cli._scan(argv.split())]):
            assert args.pop("func") is getattr(cli, f"_cmd_{command}")
            assert typed(args) == typed(want), argv


def typed(values: dict) -> dict:
    return {k: (type(v), v) for k, v in values.items()}


class Sealed:
    """Stands in for the command table: any use of it raises."""

    def refuse(self, *args):
        raise AssertionError("the command table was read after import")

    __getattr__ = __contains__ = __getitem__ = __iter__ = __len__ = refuse


def test_scan_reads_only_the_grammars_built_at_import(monkeypatch):
    """_scan reads argv by the grammars split from the table at import,
    never by the table itself."""
    argvs = [*PARSED, "--budget 300000 factor 15 0 2"]
    before = [typed(vars(cli._scan(argv.split()))) for argv in argvs]
    monkeypatch.setattr(cli, "_COMMANDS", Sealed())
    monkeypatch.setattr(cli, "_GLOBAL_ARGS", Sealed())
    assert [typed(vars(cli._scan(argv.split()))) for argv in argvs] == before


# tokens for the argv corpus: good values, then spellings that only argparse
# reads (+, _, non-ASCII digits, a fraction after a minus sign) or that it
# refuses
INTEGERS = ["5", "21", "0", "-3", "-12", "+4", "1_000", "٣", "-٣", " 7 ", "1e3"]
FRACTIONS = ["37/10", "5", "-1/2", "1/0", "-2", "+3/4", "2.5", "-1.5", "٣/٢"]
NOISE = ["", "-", "--", "-h", "--help", "abc", "-x", "5 5", "--json", "--budget"]
POOLS = {int: INTEGERS, cli.fraction: FRACTIONS}


def argv_corpus(rng: random.Random, count: int):
    """count argvs over every subcommand's grammar: global options in front,
    options before, between and after the positionals, repeated options,
    abbreviations, --flag=value, -- and -h, wrong counts and noise."""
    for _ in range(count):
        command = rng.choice(list(cli._COMMANDS))
        _, _, args = cli._COMMANDS[command]
        options = [(name, kw) for name, kw in args if name.startswith("--")]
        argv = [
            rng.choice(POOLS.get(kw.get("type")) or [*kw["choices"], "nosuch"])
            for name, kw in args
            if not name.startswith("--")
        ]
        if rng.random() < 0.05 and argv:  # one positional too few
            del argv[rng.randrange(len(argv))]
        if rng.random() < 0.05:  # or one too many
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(INTEGERS))
        for _ in range(rng.choice([0, 1, 1, 2, 3]) if options else 0):
            flag, kw = rng.choice(options)
            if rng.random() < 0.1:
                flag = flag[: rng.randrange(3, len(flag))]
            value = [] if "action" in kw else [rng.choice(INTEGERS)]
            if value and rng.random() < 0.1:
                flag, value = f"{flag}={value[0]}", []
            at = rng.randrange(len(argv) + 1)
            argv[at:at] = [flag, *value]
        if rng.random() < 0.1:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(NOISE))
        front = []
        for _ in range(rng.choice([0, 0, 1, 2])):
            front += rng.choice([["--json"], ["--budget", rng.choice(INTEGERS)]] * 3
                                + [["--js"], ["--budget=300000"]])
        yield front + [command] + argv


def test_scan_matches_argparse(capsys, monkeypatch):
    """Over a seeded corpus of 10,000 argvs, argparse as built from the
    command table parses each as the hand-declared grammar does, and every
    argv that _scan reads it reads to the same values; the corpus has both
    argvs that _scan reads and argvs that only argparse reads.  A usage
    error exits 2 here without formatting its message, which
    test_parser_shape and test_exit_codes check."""
    oracle, built = dnum_parser(), cli._build_parser()
    monkeypatch.setattr(type(built), "error", lambda parser, message: sys.exit(2))

    def parse(parser, argv):
        try:
            return typed(vars(parser.parse_args(argv)))
        except SystemExit:
            return None
        finally:
            capsys.readouterr()

    read = argparse_only = 0
    for argv in argv_corpus(random.Random(30), 10_000):
        want = parse(oracle, argv)
        assert parse(built, argv) == want, argv
        got = cli._scan(argv)
        if got is not None:
            assert want is not None and typed(vars(got)) == want, argv
            read += 1
        argparse_only += got is None and want is not None
    assert read > 2000 and argparse_only > 500, (read, argparse_only)


def test_exit_codes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
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
    with pytest.raises(SystemExit) as exc:  # pell takes no witness bound
        main(["pell", "21", "--witness-bound", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --witness-bound 2" in capsys.readouterr().err
    for bad in ("0", "-5"):  # and a factor budget below 1
        with pytest.raises(SystemExit) as exc:
            main(["--budget", bad, "unit", "2"])
        assert exc.value.code == 2
        assert f"invalid positive value: '{bad}'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # a filter with nothing to filter
        main(["decompose", "5", "76", "2", "--modular-filter"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        USAGE["decompose"],
        "dnum decompose: error: argument --modular-filter: needs --refine",
    ]
    # an option that takes a value, with none after it: argparse's error
    for argv in ("enumerate 5 --field", "--budget factor 5 6 2"):
        assert cli._scan(argv.split()) is None, argv
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2 and capsys.readouterr().out == "", argv
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


NO_UNIT = "NotApplicable: imaginary quadratic fields have no unit > 1\n"
MEMBER_REAL = "NotApplicable: member needs a real field; for N < 0 use `dnum complex`\n"


@pytest.mark.parametrize("argv, err", [
    ("pell -3", NO_UNIT),
    ("decompose -1 2 1", NO_UNIT),
    ("unit -7", NO_UNIT),
    ("qint -1 3", NO_UNIT),
    ("kappa 5",
     "NotApplicable: unit norm is -1 for N=5; kappa_i(t -+ 2) cannot be squares\n"),
    ("generators -3", NO_UNIT),  # the record is built from the unit
    # a d-number (2) and a non-member (1+2i) alike: the exit code tells nothing
    ("member -1 4 0", MEMBER_REAL),
    ("member -1 2 4", MEMBER_REAL),
])
def test_fields_without_the_asked_unit_exit_1(capsys, argv, err):
    assert run(capsys, *argv.split()) == (1, "", err)


# the arguments after N of every real-field command: where it takes an
# element, the d-numbers 2 and sqrt(N), 1 + 2*sqrt(N) (not one) and zero
ELEMENTS = ("4 0", "0 2", "2 4", "0 0")
REAL_FIELD_ARGUMENTS = {
    "unit": [""], "kappa": [""], "generators": [""], "pell": [""],
    "member": ELEMENTS, "factor": ELEMENTS, "screen": ELEMENTS,
    "divides": [f"{y} {x}" for y in ELEMENTS for x in ELEMENTS],
    "enumerate": ["5", "37/10", "0"],  # the cutoff M, after --field N
    "qint": ["0", "3", "-2"],
    "decompose": ["2 1", "1 0", "0 0"],
}


@pytest.mark.parametrize("N", [-1, -2, -3, -5, -7])
@pytest.mark.parametrize("command", REAL_FIELD_ARGUMENTS)
def test_imaginary_fields_refuse_every_argument_alike(capsys, command, N):
    """A real-field command on N < 0 refuses before it reads its element,
    so its one answer tells nothing about the element."""
    head = f"enumerate --field {N}" if command == "enumerate" else f"{command} {N}"
    answers = {
        run(capsys, *f"{head} {rest}".split())
        for rest in REAL_FIELD_ARGUMENTS[command]
    }
    assert len(answers) == 1, answers
    [(code, out, err)] = answers
    assert (code, out) == (1, "") and err.startswith("NotApplicable: "), err


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


def test_table_checks_every_row_before_printing(capsys, monkeypatch, tmp_path):
    """A row that fails the classifier checks (a negative ell) after a
    valid one: `table fig3` checks every row before it prints the first,
    so it exits 4 with nothing on stdout."""
    table = tmp_path / "quantum_group_dims.tsv"
    table.write_text("A\t1\t3\t2\t1\t5\t1\nA\t1\t4\t-2\t1\t5\t1\n")
    monkeypatch.setattr(fusion, "_TABLE_PATH", str(table))
    for flags in ((), ("--json",)):
        assert run(capsys, *flags, "table", "fig3") == (
            4, "", "InternalInconsistency: table row A1,4 failed checks\n"
        )


@pytest.mark.parametrize("p, q", [(2, 4), (0, 0), (4, 2)])
def test_bad_table_value_exits_4(capsys, monkeypatch, p, q):
    """A shipped row whose value is no d-number (1+2√3), zero, or a d-number
    outside D+ (2+√3) is a bug in the data, so `table fig3` exits 4 on each,
    also where checking the row raises a domain error."""
    real = fusion.quantum_group_table

    def corrupt():
        rows = real()
        i = next(i for i, row in enumerate(rows) if row.N == 3)
        rows[i] = rows[i]._replace(value=make(3, p, q))
        return rows

    monkeypatch.setattr(fusion, "quantum_group_table", corrupt)
    code, out, err = run(capsys, "table", "fig3")
    assert code == 4 and out == ""
    assert err.startswith("InternalInconsistency: table row")


def test_inconsistency_midway_follows_partial_output(capsys, monkeypatch):
    """Only an InternalInconsistency may follow partial output: one raised
    while refining the second solution exits 4 after the summary line and
    the first solution's lines."""
    real, calls = fusion.refine_simple_dims, []

    def second_fails(sol, **kwargs):
        calls.append(sol)
        if len(calls) == 2:
            raise InternalInconsistency("refinement check failed")
        return real(sol, **kwargs)

    monkeypatch.setattr(fusion, "refine_simple_dims", second_fails)
    assert run(capsys, "decompose", "3", "10", "1", "--refine") == (
        4,
        "target=20+10√3 scanned=80 solutions=2\n"
        "d_int=2 ell_1=2 ell_2=2\n"
        "  simple dims: 2x(1,j=2) 1x(2,j=1)\n",
        "InternalInconsistency: refinement check failed\n",
    )


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
