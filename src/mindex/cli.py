"""Command-line front end.

One verb per operation, each a row of ``VERBS``; expressions use the
grammars of ``mindex.parsing``.  Exit codes: 0 success, 1 computation error
(running out of memory included), 2 parse error or bad option, 3 selfcheck
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import bialgebra as B
from . import monomials as M
from . import morphisms as Mo
from . import trees as T
from . import words as W
from .exact import Poly
from .linear import LinComb, Tensor
from .parsing import (
    ParseError,
    parse_forest_mono,
    parse_ncpoly,
    parse_selem,
    parse_tree,
    parse_tree_forest,
    parse_word,
)


def factored_form(p: Poly) -> str:
    """Best-effort factorization by integer roots in a fixed window.  The
    coefficients of ``p`` times their common denominator are integers, so
    each candidate root is divided out by integer synthetic division for
    as long as the remainder is 0."""
    if p.is_zero():
        return "0"
    if p.degree() == 0:
        return str(p)
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    coeffs = [int(p.coeff(e) * den) for e in range(p.degree(), -1, -1)]  # leading first
    roots: list[int] = []
    for r in [0] + [s * k for k in range(1, 51) for s in (1, -1)]:
        while len(coeffs) > 1:
            acc, quotient = 0, []
            for c in coeffs:
                acc = acc * r + c
                quotient.append(acc)
            if acc:  # the remainder
                break
            coeffs = quotient[:-1]
            roots.append(r)
    g = math.gcd(*coeffs) if coeffs[0] > 0 else -math.gcd(*coeffs)
    content = Fraction(g, den)
    primitive = Poly({e: c // g for e, c in enumerate(reversed(coeffs))})
    parts: list[str] = [str(content)] if content != 1 else []
    for r in sorted(set(roots)):
        mult = roots.count(r)
        if r == 0:
            base = "X"
        elif r > 0:
            base = f"(X - {r})"
        else:
            base = f"(X + {-r})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if primitive != Poly.const(1):
        parts.append(f"({primitive})" if len(primitive.terms) > 1 else str(primitive))
    return "*".join(parts) if parts else "1"


def _show(result, args) -> str:
    """The text, or with ``--json`` the JSON, of a verb's result, by its type."""
    if isinstance(result, str):
        return result
    if isinstance(result, Tensor):
        if args.json:
            return json.dumps(result.to_json())
        return "\n".join(f"{c} * {result.format_key(k)}" for k, c in result.sorted_terms())
    if isinstance(result, Poly):
        if args.json:
            return json.dumps(result.to_json(), sort_keys=True)
        return f"{result}\n{factored_form(result)}" if args.factored else str(result)
    if isinstance(result, LinComb):
        if not args.json:
            return str(result)
        key = list if isinstance(result, W.NCPoly) else result.format_key
        return json.dumps([[str(c), key(k)] for k, c in result.sorted_terms()])
    if isinstance(result, Mo.DSSolution):
        if args.json:
            return json.dumps(result.to_json(), sort_keys=True)
        return "\n".join(result.lines())
    if isinstance(result, dict):
        if args.json:
            return json.dumps(result)
        return "\t".join(f"{k}={v}" for k, v in result.items())
    return json.dumps({"value": str(result)}) if args.json else str(result)


def _dims(args) -> str:
    nmax, kmax = args.nmax, args.kmax
    kmin = 1 - nmax
    if kmax < kmin:
        args.parser.error(f"argument --kmax: expected an integer >= 1 - nmax = {kmin}, got {kmax}")
    header = ["n\\k"] + [str(k) for k in range(kmin, kmax + 1)]
    rows = [
        [str(n)] + [str(W.graded_dim(n, k)) for k in range(kmin, kmax + 1)]
        for n in range(1, nmax + 1)
    ]
    if args.json:
        return json.dumps({r[0]: [int(v) for v in r[1:]] for r in rows})
    return "\n".join("\t".join(r) for r in [header] + rows)


def _stats(args) -> dict:
    s, p, m = T.tree_stats(parse_tree(args.expr))
    return {"symmetry": s, "plane": p, "monomial": M.format_alpha(m)}


class SelfcheckFailure(Exception):
    pass


def _selfcheck(args) -> str:
    from .selfcheck import format_report, run_selfcheck

    results = run_selfcheck(args.seed, args.size)
    report = format_report(results)
    if any(not ok for _, ok, _ in results):
        raise SelfcheckFailure(report)
    return report


def _positive_int(text: str) -> int:
    """Option type for sizes: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _rationals(text: str) -> list[Fraction]:
    """Option type for coefficient lists: one or more comma-separated
    rationals, none of them blank."""
    try:
        return [Fraction(c) for c in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of rationals, got {text!r}"
        ) from None


# Every verb: (name, help, run, arguments).  ``run`` maps the parsed options
# to a result for ``_show``; it looks library functions up when it runs, so
# that rebinding a module attribute (as a tracer does) reaches the CLI.
# Each argument is (name or flag, add_argument keywords); every verb also
# takes --json.
_EXPR = [("expr", {})]
_FACTORED = ("--factored", {"action": "store_true"})
VERBS = [
    ("compose", "operadic composition of a word with arguments",
     lambda a: W.compose(parse_word(a.word), [parse_ncpoly(x) for x in a.args]),
     [("word", {}), ("args", {"nargs": "+"})]),
    ("brace", "brace operation of a word with arguments",
     lambda a: W.brace(parse_word(a.word), [parse_ncpoly(x) for x in a.args]),
     [("word", {}), ("args", {"nargs": "*"})]),
    ("delta-nmi", "substitution coproduct of a forest monomial",
     lambda a: B.sub_coproduct(parse_selem(a.expr)), _EXPR),
    ("Delta-nmi", "Hopf coproduct of a forest monomial",
     lambda a: B.graft_coproduct(parse_selem(a.expr)), _EXPR),
    ("delta-ck", "contraction-extraction coproduct of a forest",
     lambda a: T.contract_coproduct(parse_tree_forest(a.expr)), _EXPR),
    ("Delta-ck", "admissible-cut coproduct of a forest",
     lambda a: T.cut_coproduct(parse_tree_forest(a.expr)), _EXPR),
    ("psi", "lift a monomial to the tree algebra",
     lambda a: Mo.tree_lift_fm(parse_forest_mono(a.expr)), _EXPR),
    ("phi-mi", "polynomial invariant of a monomial",
     lambda a: Mo.poly_invariant_fm(parse_forest_mono(a.expr), a.route),
     _EXPR + [("--route", {"choices": list(Mo.ROUTES), "default": "via-ck"}), _FACTORED]),
    ("phi-ck", "polynomial invariant of a forest",
     lambda a: T.strict_order_poly(parse_tree_forest(a.expr)), _EXPR + [_FACTORED]),
    ("mu", "inverse-character value of a monomial",
     lambda a: Mo.mu_character.forest(parse_forest_mono(a.expr)), _EXPR),
    ("antipode", "antipode of a forest-monomial combination",
     lambda a: B.antipode(parse_selem(a.expr)), _EXPR),
    ("dims", "table of graded dimensions", _dims,
     [("--nmax", {"type": _positive_int, "default": 5}), ("--kmax", {"type": int, "default": 5})]),
    ("ds", "expand the grafting fixed-point series",
     lambda a: Mo.ds_solve(a.coeffs, a.max_vertices),
     [("--coeffs", {"type": _rationals, "required": True}),
      ("--max-vertices", {"type": _positive_int, "default": 4})]),
    ("stats", "symmetry factor, plane count and fertility monomial", _stats, _EXPR),
    ("selfcheck", "run all law suites", _selfcheck,
     [("--seed", {"type": int, "default": 0}), ("--size", {"type": _positive_int, "default": 3})]),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on first use and then shared."""
    ap = argparse.ArgumentParser(
        prog="mindex",
        description="Exact computer algebra for multi-index operads and rooted-tree Hopf algebras",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, help_text, run, arguments in VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(run=run, parser=p)
    return ap


def render_command(argv) -> str:
    """Parse and evaluate one command line, returning its output text; the
    interpreter's digit limit is lifted only while the result is formatted,
    so integers of any length print and input is still parsed under it."""
    args = build_parser().parse_args(argv)
    result = args.run(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _show(result, args)
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        print(render_command(sys.argv[1:] if argv is None else argv))
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SelfcheckFailure as exc:
        print(exc)
        return 3
    except (ValueError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
