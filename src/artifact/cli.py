"""Command-line interface: `dnum <subcommand>`.

Field elements are passed as the doubled coordinates (p, q) meaning
(p + q*sqrt(N))/2, so every input is a plain integer.  Human-readable
output is the default; --json switches to one compact JSON record per
line with a fixed schema_version.  Exit codes: 0 success, 1 domain
error (the error class name goes to stderr), 2 usage error, 3
factorization budget exhausted, 4 internal inconsistency (a bug), 141
stdout closed by its reader before the output ended (as after SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextvars
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import dnumbers, dplus, fusion, units
from .quadring import (
    FactorizationLimit,
    InternalInconsistency,
    make,
    render,
    set_factor_budget,
)

SCHEMA_VERSION = 1

# N values of the shipped fundamental-unit table (all squarefree N <= 57)
UNIT_TABLE_FIELDS = [
    2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31,
    33, 34, 35, 37, 38, 39, 41, 42, 43, 46, 47, 51, 53, 55, 57,
]
# norm +1 fields of the kappa table: the 19 reference rows, every squarefree
# N <= 46 of unit norm +1 except N = 43
KAPPA_TABLE_FIELDS = [
    3, 6, 7, 11, 14, 15, 19, 21, 22, 23, 30, 31, 33, 34, 35, 38, 39, 42, 46,
]


def _record(command: str, payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (human_lines, payloads)


def _cmd_unit(args):
    fu = units.fundamental_unit(args.N)
    line = f"t={fu.t} u={fu.u} norm={fu.unit_norm:+d}"
    payload = {
        "N": fu.N, "t": fu.t, "u": fu.u, "unit_norm": fu.unit_norm,
        "eps": render(fu.eps),
    }
    return [line], [("unit", payload)]


def _cmd_kappa(args):
    k1, k2 = dnumbers.kappas(args.N)
    return (
        [f"kappa1={k1} kappa2={k2}"],
        [("kappa", {"N": args.N, "kappa1": k1, "kappa2": k2})],
    )


def _cmd_generators(args):
    gs = dnumbers.generator_set(args.N)
    gens = ", ".join(render(g) for g in gs.generators)
    line = f"case={gs.case} generators: {gens}" if gens else f"case={gs.case}"
    payload = {
        "N": gs.N, "case": gs.case, "kappa1": gs.kappa1, "kappa2": gs.kappa2,
        "generators": [render(g) for g in gs.generators],
    }
    return [line], [("generators", payload)]


def _cmd_member(args):
    x = make(args.N, args.p, args.q)
    payload = {"N": args.N, "p": args.p, "q": args.q}
    if not dnumbers.is_dnumber(x):
        payload["dnumber"] = False
        return [f"{render(x)}: dnumber=no"], [("member", payload)]
    order = dnumbers.dnumber_order(x)
    fact = dnumbers.canonical_factor(x)
    payload.update(
        dnumber=True, order=order, ell=fact.ell, m=fact.m,
        delta="".join(map(str, fact.delta)),
    )
    return (
        [f"{render(x)}: dnumber=yes order={order} {fact}"],
        [("member", payload)],
    )


def _cmd_factor(args):
    x = make(args.N, args.p, args.q)
    fact = dnumbers.canonical_factor(x)
    payload = {
        "N": args.N, "p": args.p, "q": args.q, "ell": fact.ell, "m": fact.m,
        "delta": "".join(map(str, fact.delta)), "case": fact.case,
    }
    return [str(fact)], [("factor", payload)]


def _cmd_divides(args):
    y = make(args.N, args.p1, args.q1)
    x = make(args.N, args.p2, args.q2)
    verdict = dnumbers.dnumber_divides(y, x)
    if verdict.divides:
        line = "divides=yes"
    else:
        line = f"divides=no rejected_by={verdict.rejected_by}"
    payload = {
        "N": args.N, "divides": verdict.divides,
        "rejected_by": verdict.rejected_by,
    }
    return [line], [("divides", payload)]


def _cmd_enumerate(args):
    if args.field is not None:
        elements = dplus.enumerate_field(args.field, args.M)
    else:
        elements = dplus.enumerate_all(args.M, include_integers=not args.no_integers)
    lines = [el.record() for el in elements]
    payloads = [("enumerate", {**el.columns(), "value": str(el)}) for el in elements]
    return lines, payloads


def _cmd_pell(args):
    fu = units.fundamental_unit(args.N)
    solvable = fu.unit_norm == -1
    payload: dict = {"N": args.N, "solvable": solvable}
    if solvable:
        # smallest power of eps with integer coordinates and norm -1
        wit = fu.eps if fu.eps.p % 2 == 0 else fu.eps**3
        x, y = wit.p // 2, wit.q // 2
        payload["witness"] = {"x": x, "y": y}
        return (
            [f"negative_pell=yes witness: x={x} y={y}"],
            [("pell", payload)],
        )
    found = dnumbers.pell_witness(args.N, args.witness_bound)
    payload["witness_bound"] = args.witness_bound
    if found is None:
        payload["witness"] = None
        line = f"negative_pell=no witness=none within bound {args.witness_bound}"
    else:
        kappa, n = found
        payload["witness"] = {"kappa": kappa, "n": n}
        line = f"negative_pell=no witness: kappa={kappa} n={n}"
    return [line], [("pell", payload)]


def _cmd_qint(args):
    v = fusion.quantum_int(args.N, args.m).value
    payload = {"N": args.N, "m": args.m, "p": v.p, "q": v.q, "value": render(v)}
    return [render(v)], [("qint", payload)]


def _profile_line(profile) -> str:
    groups = Counter(profile.parts)
    shown = " ".join(
        f"{count}x({c},j={j})" for (c, j), count in sorted(groups.items())
    )
    return f"  simple dims: {shown}" if shown else "  simple dims: (integral only)"


def _cmd_decompose(args):
    if args.modular_filter and not args.refine:
        _build_parser().error("argument --modular-filter: needs --refine")
    scan = fusion.decompose_global_dim(
        args.N, args.ell, args.m, divisor_constraint=args.dint_divides
    )
    target = dnumbers.evaluate(scan.target)
    lines = [
        f"target={render(target)} scanned={scan.candidates_scanned} "
        f"solutions={len(scan.solutions)}"
    ]
    record = dict(N=args.N, ell=args.ell, m=args.m, scanned=scan.candidates_scanned)
    payloads = []
    for sol in scan.solutions:
        shown = " ".join(f"ell_{j}={lj}" for j, lj in sol.coeffs)
        lines.append(f"d_int={sol.d_int} {shown}".rstrip())
        payload = {**record, "d_int": sol.d_int, "coeffs": [list(c) for c in sol.coeffs]}
        if args.refine:
            profiles = fusion.refine_simple_dims(
                sol, apply_modular_filter=args.modular_filter
            )
            for prof in profiles:
                lines.append(_profile_line(prof))
            payload["refinements"] = [
                [[c, j] for c, j in prof.parts] for prof in profiles
            ]
        payloads.append(("decompose", payload))
    if not payloads:  # no solutions at all: still emit the scan summary
        payloads.append(("decompose", {**record, "d_int": None, "coeffs": []}))
    return lines, payloads


def _cmd_screen(args):
    target = make(args.N, args.p, args.q)
    hits = fusion.kronecker_screen(target)
    if not hits:
        lines = [f"{render(target)}: eliminated"]
    else:
        shown = " ".join("{" + ",".join(map(str, h)) + "}" for h in hits)
        lines = [f"{render(target)}: multisets {shown}"]
    payload = {
        "N": args.N, "p": args.p, "q": args.q, "target": render(target),
        "multisets": [list(h) for h in hits],
    }
    return lines, [("screen", payload)]


def _cmd_table(args):
    lines, payloads = [], []
    if args.name == "units":
        for n in UNIT_TABLE_FIELDS:
            fu = units.fundamental_unit(n)
            lines.append(f"{n}\t{fu.t}\t{fu.u}\t{fu.unit_norm:+d}")
            payloads.append(
                (
                    "table.units",
                    {"N": n, "t": fu.t, "u": fu.u, "unit_norm": fu.unit_norm},
                )
            )
    elif args.name == "kappa":
        for n in KAPPA_TABLE_FIELDS:
            k1, k2 = dnumbers.kappas(n)
            lines.append(f"{n}\t{k1}\t{k2}")
            payloads.append(("table.kappa", {"N": n, "kappa1": k1, "kappa2": k2}))
    else:  # fig3
        for row in fusion.quantum_group_table():
            fact = dnumbers.canonical_factor(row.value)
            if (
                not dnumbers.is_dnumber(row.value)
                or not dplus.in_dplus(row.value)
                or fact.ell != row.ell
                or fact.m != row.unit_power
                or fact.delta != ((1 if row.with_sqrt_n else 0), 0, 0)
            ):
                raise InternalInconsistency(f"table row {row.label()} failed checks")
            lines.append(f"{row.label()}\t{render(row.value)}\t{fact}")
            payloads.append(
                (
                    "table.fig3",
                    {
                        "label": row.label(), "N": row.N, "ell": row.ell,
                        "unit_power": row.unit_power,
                        "sqrt_n": row.with_sqrt_n, "value": render(row.value),
                    },
                )
            )
    return lines, payloads


def _cmd_complex(args):
    cls = dnumbers.complex_classify(args.N)
    x = make(args.N, args.p, args.q)
    member = cls.member(x)
    line = f"kind={cls.kind} dnumber={'yes' if member else 'no'}"
    payload = {
        "N": args.N, "p": args.p, "q": args.q, "kind": cls.kind,
        "description": cls.description, "dnumber": member,
    }
    return [line], [("complex", payload)]


# ---------------------------------------------------------------------------
# parser


def fraction(text: str) -> Fraction:
    """argparse type for M; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def nonnegative(text: str) -> int:
    """argparse type for the witness bound; a negative one is a usage error."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative bound {value}")
    return value


def positive(text: str) -> int:
    """argparse type for the factor budget; one below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise ValueError(f"budget {value} below 1")
    return value


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The `dnum` parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="dnum",
        description="Exact arithmetic of d-numbers in quadratic fields.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON records")
    parser.add_argument(
        "--budget", type=positive, metavar="B",
        help="Pollard-rho iteration budget per factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unit", help="fundamental unit of Q(sqrt(N))")
    p.add_argument("N", type=int)
    p.set_defaults(func=_cmd_unit)

    p = sub.add_parser("kappa", help="kappa_1, kappa_2 of a norm +1 field")
    p.add_argument("N", type=int)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("generators", help="d-number monoid generators")
    p.add_argument("N", type=int)
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("member", help="d-number test plus order and factorization")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("factor", help="canonical factorization of a d-number")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("divides", help="does (p1,q1) divide (p2,q2)?")
    p.add_argument("N", type=int)
    p.add_argument("p1", type=int)
    p.add_argument("q1", type=int)
    p.add_argument("p2", type=int)
    p.add_argument("q2", type=int)
    p.set_defaults(func=_cmd_divides)

    p = sub.add_parser("enumerate", help="dominant d-numbers up to M")
    p.add_argument(
        "M", type=fraction, help="upper bound (integer or fraction like 37/10)"
    )
    p.add_argument("--field", type=int, metavar="N", help="restrict to one field")
    p.add_argument(
        "--no-integers", action="store_true",
        help="omit the rational integers from the global listing",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("pell", help="negative Pell solvability and witness")
    p.add_argument("N", type=int)
    p.add_argument("--witness-bound", type=nonnegative, default=100, metavar="B")
    p.set_defaults(func=_cmd_pell)

    p = sub.add_parser("qint", help="quantum integer [m]")
    p.add_argument("N", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_qint)

    p = sub.add_parser("decompose", help="split ell*eps^m into d_int + sum ell_j eps^j")
    p.add_argument("N", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--dint-divides", type=int, metavar="D")
    p.add_argument("--refine", action="store_true", help="list simple dimensions")
    p.add_argument(
        "--modular-filter", action="store_true",
        help="require target/(c*eps^j) integral in refinements",
    )
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("screen", help="small-dimension screen of a target")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("table", help="regenerate or validate the shipped tables")
    p.add_argument("name", choices=["units", "kappa", "fig3"])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("complex", help="d-number classification for N < 0")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_complex)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one `dnum` command and return its exit code.  It runs in a copy
    of the caller's context, so --budget lasts for this call only."""
    return contextvars.copy_context().run(_run, argv)


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    if args.budget is not None:
        set_factor_budget(args.budget)
    # an answer may pass str()'s default limit of 4300 digits, argv may not
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            lines, payloads = args.func(args)
        except FactorizationLimit as err:
            print(f"FactorizationLimit: {err}", file=sys.stderr)
            return 3
        except InternalInconsistency as err:
            print(f"InternalInconsistency: {err}", file=sys.stderr)
            return 4
        except (ArithmeticError, ValueError, TypeError) as err:
            print(f"{type(err).__name__}: {err}", file=sys.stderr)
            return 1
        try:
            if args.json:
                for command, payload in payloads:
                    print(_record(command, payload))
            else:
                for line in lines:
                    print(line)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        except BrokenPipeError:
            # the reader has gone (`dnum ... | head`); Python flushes stdout
            # again at exit, so point it at devnull first (Python docs, "Note
            # on SIGPIPE")
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        return 0
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
