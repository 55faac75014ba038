"""Command-line interface: `dnum <subcommand>`.

Field elements are passed as the doubled coordinates (p, q) meaning
(p + q*sqrt(N))/2, so every input is a plain integer.  Each handler yields
its answer as (command, payload) records, and each record prints as it is
produced: as one compact JSON record per line with a fixed schema_version
under --json, else as the human-readable line(s) that _TEXT renders from
the same payload.  Exit codes: 0 success, 1 domain error (the error class
name goes to stderr), 2 usage error, 3 factorization budget exhausted, 4
internal inconsistency (a bug), 141 stdout closed by its reader before the
output ended (as after SIGPIPE), which also stops the computation.

Every argument of every subcommand is declared once, in _COMMANDS.  At
import the table is split into one grammar per command, and _scan reads a
well-formed argv by those grammars alone; argparse is imported and built
from the table only for the rest (help, usage errors, abbreviated or `=`
spellings), so it alone prints help and usage.

Every handler makes the library calls that can raise a domain error or
exhaust the factor budget before it yields its first record, so exits 1,
2 and 3 leave stdout empty.  Only an InternalInconsistency may follow
partial output: exit 4 after the records printed before the check failed.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from types import SimpleNamespace

from . import dnumbers, dplus, fusion, units
from .quadring import (
    FactorizationLimit,
    InternalInconsistency,
    NotApplicable,
    is_squarefree,
    make,
    render,
    set_factor_budget,
)

SCHEMA_VERSION = 1

# N values of the shipped fundamental-unit table
UNIT_TABLE_FIELDS = [n for n in range(2, 58) if is_squarefree(n)]
# norm +1 fields of the kappa table: the 19 reference rows, every squarefree
# N <= 46 of unit norm +1 except N = 43
KAPPA_TABLE_FIELDS = [
    3, 6, 7, 11, 14, 15, 19, 21, 22, 23, 30, 31, 33, 34, 35, 38, 39, 42, 46,
]


def _record(command: str, payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommand handlers: each yields (command, payload) records, and a str for
# a line that only the text output has


def _cmd_unit(args):
    fu = units.fundamental_unit(args.N)
    yield "unit", {
        "N": fu.N, "t": fu.t, "u": fu.u, "unit_norm": fu.unit_norm,
        "eps": render(fu.eps),
    }


def _cmd_kappa(args):
    k1, k2 = dnumbers.kappas(args.N)
    yield "kappa", {"N": args.N, "kappa1": k1, "kappa2": k2}


def _cmd_generators(args):
    gs = dnumbers.generator_set(args.N)
    yield "generators", {
        "N": gs.N, "case": gs.case, "kappa1": gs.kappa1, "kappa2": gs.kappa2,
        "generators": [render(g) for g in gs.generators],
    }


def _cmd_member(args):
    x = make(args.N, args.p, args.q)
    if args.N < 0:  # order and factorization need a real field
        raise NotApplicable("member needs a real field; for N < 0 use `dnum complex`")
    payload = {"N": args.N, "p": args.p, "q": args.q, "dnumber": dnumbers.is_dnumber(x)}
    if payload["dnumber"]:
        order = dnumbers.dnumber_order(x)
        fact = dnumbers.canonical_factor(x)
        payload.update(
            order=order, ell=fact.ell, m=fact.m, delta="".join(map(str, fact.delta))
        )
    yield "member", payload


def _cmd_factor(args):
    fact = dnumbers.canonical_factor(make(args.N, args.p, args.q))
    yield "factor", {
        "N": args.N, "p": args.p, "q": args.q, "ell": fact.ell, "m": fact.m,
        "delta": "".join(map(str, fact.delta)), "case": fact.case,
    }


def _cmd_divides(args):
    y = make(args.N, args.p1, args.q1)
    x = make(args.N, args.p2, args.q2)
    verdict = dnumbers.dnumber_divides(y, x)
    yield "divides", {
        "N": args.N, "divides": verdict.divides, "rejected_by": verdict.rejected_by,
    }


def _cmd_enumerate(args):
    if args.field is not None:
        elements = dplus.enumerate_field(args.field, args.M)
    else:
        elements = dplus.enumerate_all(args.M, include_integers=not args.no_integers)
    for el in elements:
        yield "enumerate", {**el.columns(), "value": str(el)}


def _cmd_pell(args):
    rec = dnumbers.generator_set(args.N)
    payload: dict = {"N": args.N, "solvable": rec.unit_norm == -1}
    if payload["solvable"]:
        # smallest power of eps with integer coordinates and norm -1
        eps = make(args.N, *rec.eps)
        wit = eps if eps.p % 2 == 0 else eps**3
        payload["witness"] = {"x": wit.p // 2, "y": wit.q // 2}
    else:
        kappa, n = dnumbers.pell_witness(args.N)
        payload["witness"] = {"kappa": kappa, "n": n}
    yield "pell", payload


def _cmd_qint(args):
    v = fusion.quantum_int(args.N, args.m)
    yield "qint", {"N": args.N, "m": args.m, "p": v.p, "q": v.q, "value": render(v)}


def _cmd_decompose(args):
    if args.modular_filter and not args.refine:
        parser = _build_parser().commands["decompose"]  # its usage, not dnum's
        parser.error("argument --modular-filter: needs --refine")
    scan = fusion.decompose_global_dim(
        args.N, args.ell, args.m, divisor_constraint=args.dint_divides
    )
    yield (
        f"target={render(dnumbers.evaluate(scan.target))} "
        f"scanned={scan.candidates_scanned} solutions={len(scan.solutions)}"
    )
    head = {"N": args.N, "ell": args.ell, "m": args.m, "scanned": scan.candidates_scanned}
    for sol in scan.solutions:
        payload = {**head, "d_int": sol.d_int, "coeffs": [list(c) for c in sol.coeffs]}
        if args.refine:
            payload["refinements"] = [
                [list(part) for part in prof.parts]
                for prof in fusion.refine_simple_dims(
                    sol, apply_modular_filter=args.modular_filter
                )
            ]
        yield "decompose", payload
    if not scan.solutions:  # no solutions at all: still emit the scan summary
        yield "decompose", {**head, "d_int": None, "coeffs": []}


def _cmd_screen(args):
    target = make(args.N, args.p, args.q)
    yield "screen", {
        "N": args.N, "p": args.p, "q": args.q, "target": render(target),
        "multisets": [list(h) for h in fusion.kronecker_screen(target)],
    }


def _cmd_table(args):
    if args.name == "units":
        for n in UNIT_TABLE_FIELDS:
            fu = units.fundamental_unit(n)
            yield "table.units", {"N": n, "t": fu.t, "u": fu.u, "unit_norm": fu.unit_norm}
    elif args.name == "kappa":
        for n in KAPPA_TABLE_FIELDS:
            k1, k2 = dnumbers.kappas(n)
            yield "table.kappa", {"N": n, "kappa1": k1, "kappa2": k2}
    else:  # fig3: every row is checked before the first one prints
        rows = fusion.quantum_group_table()
        for row in rows:
            try:  # a domain error on a shipped row is a bug too
                fact = dnumbers.canonical_factor(row.value)
                holds = dplus.in_dplus(row.value) and (fact.ell, fact.m, fact.delta) == (
                    row.ell, row.unit_power, (int(row.with_sqrt_n), 0, 0))
            except (ArithmeticError, ValueError, TypeError):
                holds = False
            if not holds:
                raise InternalInconsistency(f"table row {row.label()} failed checks")
        for row in rows:
            yield "table.fig3", {
                "label": row.label(), "N": row.N, "ell": row.ell,
                "unit_power": row.unit_power, "sqrt_n": row.with_sqrt_n,
                "value": render(row.value),
            }


def _cmd_complex(args):
    cls = dnumbers.complex_classify(args.N)
    yield "complex", {
        "N": args.N, "p": args.p, "q": args.q, "kind": cls.kind,
        "description": cls.description,
        "dnumber": dnumbers.is_dnumber(make(args.N, args.p, args.q)),
    }


# ---------------------------------------------------------------------------
# text views: one line (or a solution's lines) per payload


def _member_text(r: dict) -> str:
    x = render(make(r["N"], r["p"], r["q"]))
    if not r["dnumber"]:
        return f"{x}: dnumber=no"
    return "{}: dnumber=yes order={order} ell={ell} m={m} delta={delta}".format(x, **r)


def _pell_text(r: dict) -> str:
    wit = r["witness"]
    if r["solvable"]:
        return "negative_pell=yes witness: x={x} y={y}".format_map(wit)
    return "negative_pell=no witness: kappa={kappa} n={n}".format_map(wit)


def _decompose_text(r: dict) -> str | None:
    """The solution line, then one line per refinement; a summary record
    without a solution (d_int null) has none."""
    if r["d_int"] is None:
        return None
    shown = "".join(f" ell_{j}={lj}" for j, lj in r["coeffs"])
    lines = [f"d_int={r['d_int']}{shown}"]
    for parts in r.get("refinements", ()):
        shown = " ".join(f"{len([*g])}x({c},j={j})" for (c, j), g in groupby(parts))
        lines.append(f"  simple dims: {shown or '(integral only)'}")
    return "\n".join(lines)


def _screen_text(r: dict) -> str:
    if not r["multisets"]:
        return f"{r['target']}: eliminated"
    shown = " ".join("{" + ",".join(map(str, h)) + "}" for h in r["multisets"])
    return f"{r['target']}: multisets {shown}"


_TEXT = {
    "unit": "t={t} u={u} norm={unit_norm:+d}".format_map,
    "kappa": "kappa1={kappa1} kappa2={kappa2}".format_map,
    "generators": lambda r: " generators: ".join(
        filter(None, [f"case={r['case']}", ", ".join(r["generators"])])
    ),
    "member": _member_text,
    "factor": "ell={ell} m={m} delta={delta}".format_map,
    "divides": lambda r: (
        "divides=yes" if r["divides"] else f"divides=no rejected_by={r['rejected_by']}"
    ),
    "enumerate": "{N}\t{p}\t{q}\t{ell}\t{m}\t{delta}\t{approx}".format_map,
    "pell": _pell_text,
    "qint": "{value}".format_map,
    "decompose": _decompose_text,
    "screen": _screen_text,
    "table.units": "{N}\t{t}\t{u}\t{unit_norm:+d}".format_map,
    "table.kappa": "{N}\t{kappa1}\t{kappa2}".format_map,
    "table.fig3": "{label}\t{value}\tell={ell} m={unit_power} delta={sqrt_n:d}00".format_map,
    "complex": lambda r: f"kind={r['kind']} dnumber={'yes' if r['dnumber'] else 'no'}",
}


# ---------------------------------------------------------------------------
# the grammar, declared once: _scan reads argv by it, argparse is built from it


def fraction(text: str) -> Fraction:
    """The type of M; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def positive(text: str) -> int:
    """The type of the factor budget; one below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise ValueError(f"budget {value} below 1")
    return value


def _ints(names: str) -> tuple:
    return tuple((name, {"type": int}) for name in names.split())


# an argument is (name, keywords of argparse's add_argument), an option when
# name starts with "--"; _grammar reads "type", "choices", "default" and
# "action" (always "store_true").  _COMMANDS lists every subcommand in
# --help's order, with its handler, its help and its arguments, in --help's order too
_GLOBAL_ARGS = (
    ("--json", {"action": "store_true", "help": "emit JSON records"}),
    ("--budget", {"type": positive, "metavar": "B",
                  "help": "Pollard-rho iteration budget per factorization"}),
)
_COMMANDS = {
    "unit": (_cmd_unit, "fundamental unit of Q(sqrt(N))", _ints("N")),
    "kappa": (_cmd_kappa, "kappa_1, kappa_2 of a norm +1 field", _ints("N")),
    "generators": (_cmd_generators, "d-number monoid generators", _ints("N")),
    "member": (_cmd_member, "d-number test plus order and factorization", _ints("N p q")),
    "factor": (_cmd_factor, "canonical factorization of a d-number", _ints("N p q")),
    "divides": (_cmd_divides, "does (p1,q1) divide (p2,q2)?", _ints("N p1 q1 p2 q2")),
    "enumerate": (_cmd_enumerate, "dominant d-numbers up to M", (
        ("M", {"type": fraction, "help": "upper bound (integer or fraction like 37/10)"}),
        ("--field", {"type": int, "metavar": "N", "help": "restrict to one field"}),
        ("--no-integers", {"action": "store_true",
                           "help": "omit the rational integers from the global listing"}),
    )),
    "pell": (_cmd_pell, "negative Pell solvability and witness", _ints("N")),
    "qint": (_cmd_qint, "quantum integer [m]", _ints("N m")),
    "decompose": (_cmd_decompose, "split ell*eps^m into d_int + sum ell_j eps^j", (
        *_ints("N ell m"), ("--dint-divides", {"type": int, "metavar": "D"}),
        ("--refine", {"action": "store_true", "help": "list simple dimensions"}),
        ("--modular-filter", {"action": "store_true",
                              "help": "require target/(c*eps^j) integral in refinements"}),
    )),
    "screen": (_cmd_screen, "small-dimension screen of a target", _ints("N p q")),
    "table": (_cmd_table, "regenerate or validate the shipped tables",
              (("name", {"choices": ("units", "kappa", "fig3")}),)),
    "complex": (_cmd_complex, "d-number classification for N < 0", _ints("N p q")),
}


def _grammar(args: tuple, **defaults) -> tuple:
    """An argument list's grammar: {flag: (dest, converter, choices)}, the
    converter None for a switch; the positionals' (dest, converter,
    choices); and the defaults: those given, as to a subparser's
    set_defaults, and each option's."""
    options, positionals = {}, []
    for name, kw in args:
        switch = "action" in kw
        spec = None if switch else kw.get("type", str), kw.get("choices")
        if name.startswith("--"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, *spec
            defaults[dest] = kw.get("default", False if switch else None)
        else:
            positionals.append((name, *spec))  # its dest is its name
    return options, tuple(positionals), defaults


_GLOBAL_GRAMMAR = _grammar(_GLOBAL_ARGS)
_GRAMMARS = {
    command: _grammar(args, command=command, func=handler)
    for command, (handler, _, args) in _COMMANDS.items()
}


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse parses from argv, read by the grammars:
    global options, the command, then its exact long flags anywhere among
    its positionals.  None leaves argv to argparse: help, usage errors,
    and the spellings only argparse reads (abbreviations, --flag=value,
    --, a negative not spelled in ASCII digits)."""
    for at, token in enumerate(argv):
        if token in _GRAMMARS:
            break
    else:
        return None
    values = {}
    read = (_read(argv[:at], _GLOBAL_GRAMMAR, values)
            and _read(argv[at + 1 :], _GRAMMARS[argv[at]], values))
    return SimpleNamespace(**values) if read else None


def _read(tokens: list[str], grammar: tuple, values: dict) -> bool:
    """Read tokens by grammar into values as argparse does, or return False:
    one token per positional, and a repeated option keeps its last value.
    A value starts with "-" only as a negative in ASCII digits, which
    argparse reads as a value since no dnum option looks like a number."""
    options, positionals, defaults = grammar
    values.update(defaults)
    tokens, count = iter(tokens), 0
    for token in tokens:
        if token in options:
            dest, convert, choices = options[token]
            if convert is None:
                values[dest] = True
                continue
            if (token := next(tokens, None)) is None:
                return False
        elif count < len(positionals):
            dest, convert, choices = positionals[count]
            count += 1
        else:
            return False
        dash = token[:1] == "-" and not (token[1:].isascii() and token[1:].isdigit())
        if dash or choices is not None and token not in choices:
            return False
        try:
            values[dest] = convert(token)
        except ValueError:
            return False
    return count == len(positionals)


@lru_cache(maxsize=None)
def _build_parser():
    """The `dnum` argparse parser, built from the table once per process,
    and only when _scan leaves an argv to it; parsing never mutates it.
    parser.commands maps each command to its subparser."""
    import argparse  # here, so that answering a well-formed argv never loads it

    parser = argparse.ArgumentParser(
        prog="dnum", description="Exact arithmetic of d-numbers in quadratic fields.")
    for name, kw in _GLOBAL_ARGS:
        parser.add_argument(name, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, args) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kw in args:
            p.add_argument(name, **kw)
        p.set_defaults(func=handler)
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one `dnum` command and return its exit code.  It runs in a copy
    of the caller's context, so --budget lasts for this call only."""
    return contextvars.copy_context().run(_run, argv)


def _run(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv  # the `dnum` script passes None
    args = _scan(argv) or _build_parser().parse_args(argv)
    if args.budget is not None:
        set_factor_budget(args.budget)
    # an answer may pass str()'s default limit of 4300 digits, argv may not
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for record in args.func(args):
            if isinstance(record, str):  # a line of the text output only
                line = None if args.json else record
            elif args.json:
                line = _record(*record)
            else:
                line = _TEXT[record[0]](record[1])
            if line is not None:
                print(line)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except FactorizationLimit as err:
        print(f"FactorizationLimit: {err}", file=sys.stderr)
        return 3
    except InternalInconsistency as err:
        print(f"InternalInconsistency: {err}", file=sys.stderr)
        return 4
    except (ArithmeticError, ValueError, TypeError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone (`dnum ... | head`); Python flushes stdout
        # again at exit, so point it at devnull first (Python docs, "Note
        # on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
