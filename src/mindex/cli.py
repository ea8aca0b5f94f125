"""Command-line front end.

One subcommand per operation; expressions use the grammars of
``mindex.parsing``.  Exit codes: 0 success, 1 computation error, 2 parse
error or bad option, 3 selfcheck failure.
"""

from __future__ import annotations

import argparse
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
from .parsing import (
    ParseError,
    parse_forest_mono,
    parse_ncpoly,
    parse_selem,
    parse_tree,
    parse_tree_forest,
    parse_word,
)


def _divide_linear(p: Poly, root: int) -> tuple[Poly, Fraction]:
    """Synthetic division by (X - root); returns quotient and remainder."""
    deg = p.degree()
    out: dict[int, Fraction] = {}
    acc = Fraction(0)
    for e in range(deg, 0, -1):
        acc = acc * root + p.coeff(e)
        out[e - 1] = acc
    rem = acc * root + p.coeff(0)
    return Poly(out), rem


def factored_form(p: Poly) -> str:
    """Best-effort factorization by integer roots in a fixed window."""
    if p.is_zero():
        return "0"
    if p.degree() == 0:
        return str(p)
    roots: list[int] = []
    rest = p
    candidates = [0] + [s * k for k in range(1, 51) for s in (1, -1)]
    progress = True
    while rest.degree() > 0 and progress:
        progress = False
        for r in candidates:
            if rest(r) == 0:
                rest, rem = _divide_linear(rest, r)
                assert rem == 0
                roots.append(r)
                progress = True
                break
    denom_lcm = 1
    for c in rest.terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    num_gcd = 0
    for c in rest.terms.values():
        num_gcd = math.gcd(num_gcd, c.numerator * (denom_lcm // c.denominator))
    content = Fraction(num_gcd if num_gcd else 1, denom_lcm)
    if rest.coeff(rest.degree()) < 0:
        content = -content
    primitive = rest.scale(1 / content) if content != 1 else rest
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


def _tensor_lines(t) -> str:
    return "\n".join(f"{c} * {t.format_key(k)}" for k, c in t.sorted_terms())


def _print_poly(p: Poly, args) -> str:
    if getattr(args, "json", False):
        return json.dumps(p.to_json(), sort_keys=True)
    if getattr(args, "factored", False):
        return f"{p}\n{factored_form(p)}"
    return str(p)


def _cmd_compose(args) -> str:
    w = parse_word(args.word)
    ops = [parse_ncpoly(a) for a in args.args]
    result = W.compose(w, ops)
    if args.json:
        return json.dumps([[str(c), list(k)] for k, c in result.sorted_terms()])
    return str(result)


def _cmd_brace(args) -> str:
    w = parse_word(args.word)
    ops = [parse_ncpoly(a) for a in args.args]
    result = W.brace(w, ops)
    if args.json:
        return json.dumps([[str(c), list(k)] for k, c in result.sorted_terms()])
    return str(result)


def _cmd_delta_nmi(args) -> str:
    e = parse_selem(args.expr)
    t = B.sub_coproduct(e)
    return json.dumps(t.to_json()) if args.json else _tensor_lines(t)


def _cmd_graft_nmi(args) -> str:
    e = parse_selem(args.expr)
    t = B.graft_coproduct(e)
    return json.dumps(t.to_json()) if args.json else _tensor_lines(t)


def _cmd_delta_ck(args) -> str:
    f = parse_tree_forest(args.expr)
    t = T.contract_coproduct(f)
    return json.dumps(t.to_json()) if args.json else _tensor_lines(t)


def _cmd_cut_ck(args) -> str:
    f = parse_tree_forest(args.expr)
    t = T.cut_coproduct(f)
    return json.dumps(t.to_json()) if args.json else _tensor_lines(t)


def _cmd_psi(args) -> str:
    f = parse_forest_mono(args.expr)
    result = Mo.tree_lift_fm(f)
    if args.json:
        return json.dumps(
            [[str(c), T.format_forest(k)] for k, c in result.sorted_terms()]
        )
    return str(result)


def _cmd_phi_mi(args) -> str:
    f = parse_forest_mono(args.expr)
    return _print_poly(Mo.poly_invariant_fm(f, args.route), args)


def _cmd_phi_ck(args) -> str:
    f = parse_tree_forest(args.expr)
    return _print_poly(T.strict_order_poly(f), args)


def _cmd_mu(args) -> str:
    f = parse_forest_mono(args.expr)
    v = Mo.mu_character.forest(f)
    return json.dumps({"value": str(v)}) if args.json else str(v)


def _cmd_antipode(args) -> str:
    e = parse_selem(args.expr)
    result = Mo.antipode_via_mu(e)
    if args.json:
        return json.dumps(
            [[str(c), B.format_fm(k)] for k, c in result.sorted_terms()]
        )
    return str(result)


def _cmd_dims(args) -> str:
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


def _cmd_ds(args) -> str:
    sol = Mo.ds_solve(args.coeffs, args.max_vertices)
    if args.json:
        return json.dumps(sol.to_json(), sort_keys=True)
    return "\n".join(sol.lines())


def _cmd_stats(args) -> str:
    t = parse_tree(args.expr)
    s, p, m = T.tree_stats(t)
    if args.json:
        return json.dumps({"symmetry": s, "plane": p, "monomial": M.format_alpha(m)})
    return f"symmetry={s}\tplane={p}\tmonomial={M.format_alpha(m)}"


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


def _cmd_selfcheck(args) -> str:
    from .selfcheck import format_report, run_selfcheck

    results = run_selfcheck(args.seed, args.size)
    report = format_report(results)
    if any(not ok for _, ok, _ in results):
        raise SelfcheckFailure(report)
    return report


class SelfcheckFailure(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mindex",
        description="Exact computer algebra for multi-index operads and rooted-tree Hopf algebras",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(fn=fn)
        return p

    p = add("compose", _cmd_compose, help="operadic composition of a word with arguments")
    p.add_argument("word")
    p.add_argument("args", nargs="+")
    p = add("brace", _cmd_brace, help="brace operation of a word with arguments")
    p.add_argument("word")
    p.add_argument("args", nargs="*")
    p = add("delta-nmi", _cmd_delta_nmi, help="substitution coproduct of a forest monomial")
    p.add_argument("expr")
    p = add("Delta-nmi", _cmd_graft_nmi, help="Hopf coproduct of a forest monomial")
    p.add_argument("expr")
    p = add("delta-ck", _cmd_delta_ck, help="contraction-extraction coproduct of a forest")
    p.add_argument("expr")
    p = add("Delta-ck", _cmd_cut_ck, help="admissible-cut coproduct of a forest")
    p.add_argument("expr")
    p = add("psi", _cmd_psi, help="lift a monomial to the tree algebra")
    p.add_argument("expr")
    p = add("phi-mi", _cmd_phi_mi, help="polynomial invariant of a monomial")
    p.add_argument("expr")
    p.add_argument("--route", choices=list(Mo.ROUTES), default="via-ck")
    p.add_argument("--factored", action="store_true")
    p = add("phi-ck", _cmd_phi_ck, help="polynomial invariant of a forest")
    p.add_argument("expr")
    p.add_argument("--factored", action="store_true")
    p = add("mu", _cmd_mu, help="inverse-character value of a monomial")
    p.add_argument("expr")
    p = add("antipode", _cmd_antipode, help="antipode of a forest-monomial combination")
    p.add_argument("expr")
    p = add("dims", _cmd_dims, help="table of graded dimensions")
    p.add_argument("--nmax", type=_positive_int, default=5)
    p.add_argument("--kmax", type=int, default=5)
    p.set_defaults(parser=p)
    p = add("ds", _cmd_ds, help="expand the grafting fixed-point series")
    p.add_argument("--coeffs", type=_rationals, required=True)
    p.add_argument("--max-vertices", type=_positive_int, default=4)
    p = add("stats", _cmd_stats, help="symmetry factor, plane count and fertility monomial")
    p.add_argument("expr")
    p = add("selfcheck", _cmd_selfcheck, help="run all law suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_positive_int, default=3)
    return ap


def render_command(argv) -> str:
    """Parse and evaluate one command line, returning its output text."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


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


if __name__ == "__main__":
    sys.exit(main())
