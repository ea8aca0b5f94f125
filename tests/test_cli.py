import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import mindex
from mindex import parsing
from mindex.cli import build_parser, factored_form, main, render_command
from mindex.exact import Poly, indefinite_sum
from mindex.parsing import (
    ParseError,
    format_word,
    parse_monomial,
    parse_ncpoly,
    parse_poly,
    parse_selem,
    parse_tree,
    parse_tree_forest,
    parse_word,
)
from mindex.selfcheck import law_rota_baxter, run_selfcheck, trees_up_to
from mindex.trees import LEAF, RootedTree, corolla, forest, ladder

# A CLI subprocess imports the same mindex as these tests, wherever it lies.
_HOME = os.path.dirname(os.path.dirname(os.path.abspath(mindex.__file__)))
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_HOME, os.environ.get("PYTHONPATH")])),
}


def test_word_roundtrip():
    for w in [(0,), (1, 0, 2), (3, 3, 3)]:
        assert parse_word(format_word(w)) == w


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse_word("[1,0")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_monomial("y2")
    with pytest.raises(ParseError):
        parse_poly("X^")
    with pytest.raises(ParseError):
        parse_tree("B[B[],")


def test_parse_ncpoly_forms():
    assert parse_ncpoly("3/2*X1*X0 + X0*X1") == parse_ncpoly("3/2*[1,0] + [0,1]")
    assert parse_ncpoly("-X1") == parse_ncpoly("- [1]")


def test_parse_selem_and_trees():
    e = parse_selem("x1*x0 - 2*x0 | x0 + 1/2")
    assert str(parse_selem(str(e))) == str(e)
    assert parse_tree("ladder:4") == parse_tree("B[B[B[B[]]]]")
    assert parse_tree("corolla:3") == parse_tree("B[B[],B[]]")
    f = parse_tree_forest("B[] | ladder:2 | corolla:3")
    assert len(f) == 3


def _scanner_tree(sc):
    """The tree rule written with the scanner's calls alone, one
    ``match``/``expect`` per token: the oracle of ``parsing._tree``."""
    open_lists = []  # children of each open "B["
    while True:
        if sc.match("ladder:"):
            t = ladder(sc.integer(least=1))
        elif sc.match("corolla:"):
            t = corolla(sc.integer(least=1))
        else:
            sc.expect("B[")
            if not sc.match("]"):
                open_lists.append([])
                continue
            t = LEAF
        while open_lists:  # t is complete: add it, then close what ends here
            open_lists[-1].append(t)
            if sc.match(","):
                break
            sc.expect("]")
            t = RootedTree(open_lists.pop())
        else:  # nothing left open: t is the whole tree
            return t


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the tree's or forest's encoding, or
    the error with its position, expected text and message."""
    try:
        out = parse(text)
    except ParseError as exc:
        return ("error", exc.pos, exc.expected, str(exc))
    return ("ok", out.enc if isinstance(out, RootedTree) else tuple(t.enc for t in out))


TREE_TOKENS = re.compile(r"B\[|\]|,|ladder:|corolla:|\d+|\||\s+|.")
MUTANTS = ["B[", "]", ",", "ladder:", "corolla:", "0", "1", "3", "12", "|", " ", "\t", "\x1c", "B", "[", "x", ":"]


def test_tree_token_rule_matches_scanner_rule():
    """Every printed tree of at most 7 vertices and the shorthands, with
    whitespace put between tokens, as trees and as forests, and 12,000
    mutations of them (a token inserted, deleted or replaced, from a fixed
    seed) give the same tree or the same ``ParseError`` from the token rule
    as from the scanner rule."""
    rng = random.Random(23)
    spaces = [" ", "\t", "\x1c", " \t"]
    bases = [str(t) for t in trees_up_to(7)]
    bases += [f"{kind}:{n}" for kind in ("ladder", "corolla") for n in range(1, 5)]
    bases += [f"B[{x},ladder:2]" for x in ("corolla:3", "B[]", "ladder:1")]
    texts = []
    for text in bases:
        tokens = TREE_TOKENS.findall(text)
        texts += [text, " ".join(tokens), "\t".join(tokens) + "\x1c"]
        texts.append("".join(tok + rng.choice(["", ""] + spaces) for tok in tokens))
    texts += [" | ".join(rng.sample(bases, 3)) for _ in range(50)]
    shapes = len(texts)
    for _ in range(12_000):
        tokens = TREE_TOKENS.findall(rng.choice(texts[:shapes]))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens) + 1)
            op = rng.randrange(3)
            if op == 0:
                tokens.insert(i, rng.choice(MUTANTS))
            elif i < len(tokens):
                tokens[i : i + 1] = [rng.choice(MUTANTS)] if op == 1 else []
        texts.append("".join(tokens))

    def scanner_tree(text):
        return parsing._whole(text, _scanner_tree)

    def scanner_forest(text):
        return parsing._whole(text, lambda sc: forest(parsing._bars(sc, _scanner_tree)))

    kinds = Counter()
    for text in texts:
        for new, old in ((parse_tree, scanner_tree), (parse_tree_forest, scanner_forest)):
            want = _outcome(old, text)
            assert _outcome(new, text) == want, text
            kinds[want[0]] += 1
    assert kinds["ok"] > 3000 and kinds["error"] > 20000, kinds


def test_cli_fixture_outputs():
    assert render_command(["phi-mi", "x1*x0"]) == "1/2*X^2 - 1/2*X"
    assert render_command(["mu", "x2^2*x0^3"]) == "-6"
    dims = render_command(["dims", "--nmax", "5", "--kmax", "5"])
    row4 = dims.splitlines()[4].split("\t")
    assert row4 == ["4", "0", "1", "4", "10", "20", "35", "56", "84", "120", "165"]


def test_cli_compose_and_brace():
    out = render_command(["compose", "[1,0]", "[1,0]", "[0]"])
    assert out == "X1*X1*X0 + X2*X0*X0"
    out = render_command(["brace", "[1,0]", "[1]"])
    assert out == "X1*X1 + X2*X0"
    assert render_command(["brace", "[1,0]"]) == "X1*X0"
    # a zero argument: brace sums to zero, composition refuses it
    assert render_command(["brace", "[1,0]", "X0 - X0"]) == "0"
    with pytest.raises(ValueError, match="composition arguments must be nonzero"):
        render_command(["compose", "[1,0]", "X0 - X0", "[0]"])


def test_cli_coproducts_and_stats():
    out = render_command(["delta-ck", "ladder:2"])
    assert "B[B[]] (x) B[] | B[]" in out and "B[] (x) B[B[]]" in out
    out = render_command(["Delta-ck", "ladder:2"])
    assert "1 * B[] (x) B[]" in out
    out = render_command(["Delta-nmi", "x1*x0"])
    assert "x0 (x) x0" in out
    assert render_command(["stats", "B[B[B[]],B[]]"]) == (
        "symmetry=1\tplane=2\tmonomial=x2*x1*x0^2"
    )


def test_cli_json_outputs():
    data = json.loads(render_command(["phi-mi", "x1*x0", "--json"]))
    assert data == {"2": "1/2", "1": "-1/2"}
    data = json.loads(render_command(["delta-nmi", "x0", "--json"]))
    assert data == [["1", ["x0"], ["x0"]]]
    data = json.loads(render_command(["stats", "corolla:3", "--json"]))
    assert data == {"symmetry": 2, "plane": 1, "monomial": "x2*x0^2"}
    data = json.loads(render_command(["ds", "--coeffs", "1,1", "--max-vertices", "3", "--json"]))
    assert data["x1^2*x0"] == [["1", "B[B[B[]]]"]]


def test_cli_prints_forest_blocks_in_the_block_order():
    """``x1^2 | x0`` is stored with x1^2 first, in plain tuple order, and
    printed with x0 first, fewer letters first, in text and in JSON."""
    assert render_command(["delta-nmi", "x1^2 | x0"]).splitlines() == [
        "2 * x2 | x0 (x) x0 | x0^2",
        "2 * x1 | x0 (x) x0 | x1*x0",
        "1 * x0 | x0 (x) x0 | x1^2",
        "1 * x0 | x1^2 (x) x0 | x0 | x0",
        "2 * x0 | x1*x0 (x) x1 | x0 | x0",
        "1 * x0 | x0^2 (x) x1 | x1 | x0",
    ]
    assert json.loads(render_command(["delta-nmi", "x1^2 | x0", "--json"])) == [
        ["2", ["x2", "x0"], ["x0", "x0^2"]],
        ["2", ["x1", "x0"], ["x0", "x1*x0"]],
        ["1", ["x0", "x0"], ["x0", "x1^2"]],
        ["1", ["x0", "x1^2"], ["x0", "x0", "x0"]],
        ["2", ["x0", "x1*x0"], ["x1", "x0", "x0"]],
        ["1", ["x0", "x0^2"], ["x1", "x1", "x0"]],
    ]


def test_cli_ds_lines():
    out = render_command(["ds", "--coeffs", "1,1,1/2,1/6", "--max-vertices", "3"])
    lines = dict(line.split("\t") for line in out.splitlines())
    assert lines["x0"] == "1*B[]"
    assert lines["x2*x0^2"] == "1/2*B[B[],B[]]"


def test_cli_antipode():
    assert render_command(["antipode", "x0"]) == "-x0"
    out = render_command(["antipode", "x1*x0"])
    assert parse_selem(out) == parse_selem("-x1*x0 + x0 | x0")


def test_cli_route_flag():
    for route in ("via-ck", "fixed-point", "direct"):
        assert render_command(["phi-mi", "x2*x0^2", "--route", route]) == (
            "1/3*X^3 - 1/2*X^2 + 1/6*X"
        )


def test_factored_form():
    p = indefinite_sum(Poly.x() ** 2)
    assert factored_form(p) == "1/6*X*(X - 1)*(2*X - 1)"
    assert factored_form(Poly.zero()) == "0"
    assert factored_form(Poly.const(Fraction(5, 3))) == "5/3"
    assert factored_form(Poly({2: 1, 0: -1})) == "(X + 1)*(X - 1)"
    assert factored_form(Poly({2: -1, 0: 1})) == "-1*(X + 1)*(X - 1)"
    assert factored_form(
        Poly({3: Fraction(-1, 6), 2: Fraction(1, 2), 1: Fraction(-1, 3)})
    ) == "-1/6*X*(X - 1)*(X - 2)"
    # a negative fractional content, a triple root and an irreducible quadratic
    p = Poly.const(Fraction(-3, 4)) * Poly({1: 1, 0: -2}) ** 3 * Poly({2: 1, 1: 1, 0: 1})
    assert factored_form(p) == "-3/4*(X - 2)^3*(X^2 + X + 1)"


def _top_level_factors(text: str) -> list[str]:
    """``text`` split at each '*' outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "*" and not depth:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def test_factored_form_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("X")
    rng = random.Random(0)
    polys = [indefinite_sum(Poly.x() ** n) for n in range(6)]
    for _ in range(30):
        p = Poly.const(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(0, 5)):
            p = p * Poly({1: 1, 0: -rng.randint(-60, 60)})
        if rng.random() < 0.5:  # a quadratic factor without real roots
            p = p * Poly({2: 1, 1: rng.randint(-3, 3), 0: rng.randint(4, 9)})
        polys.append(p)
    for p in polys:
        text = factored_form(p)
        expr = sympy.Add(
            *(sympy.Rational(c.numerator, c.denominator) * x**e for e, c in p.terms.items())
        )
        assert sympy.expand(sympy.sympify(text.replace("^", "**"), {"X": x}) - expr) == 0
        parts = _top_level_factors(text)
        for factor, mult in sympy.factor_list(expr)[1]:
            if sympy.degree(factor, x) != 1:
                continue
            root = -factor.coeff(x, 0) / factor.coeff(x, 1)
            if root.is_integer and -50 <= root <= 50:
                base = "X" if root == 0 else f"(X - {root})" if root > 0 else f"(X + {-root})"
                assert (base if mult == 1 else f"{base}^{mult}") in parts, (text, root)


def test_exit_codes():
    assert main(["phi-mi", "x1*x0"]) == 0
    assert main(["phi-mi", "x1*y0"]) == 2
    assert main(["compose", "[1,0]", "[0]"]) == 1


def test_cli_deep_tree_exits_1_without_traceback():
    # ordering two deep ladders compares their nested encodings, which
    # recurses in C once per level, past the C recursion limit of every
    # supported Python
    cmd = [sys.executable, "-m", "mindex.cli", "Delta-ck", "B[ladder:20000,ladder:20000]"]
    out = subprocess.run(cmd, capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_cli_stats_of_a_very_deep_tree():
    cmd = [sys.executable, "-m", "mindex.cli", "stats", "ladder:200000"]
    out = subprocess.run(cmd, capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "symmetry=1\tplane=1\tmonomial=x1^199999*x0\n"


def test_cli_subprocess_deterministic():
    cmd = [sys.executable, "-m", "mindex.cli", "psi", "x2*x1*x0^2"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=SUBPROCESS_ENV)
    b = subprocess.run(cmd, capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert a.returncode == 0 and a.stdout == b.stdout
    assert a.stdout.strip() == "2*B[B[],B[B[]]] + B[B[B[],B[]]]"


def test_selfcheck_negative_control():
    def corrupted(p):
        out = indefinite_sum(p)
        return out + Poly.const(1) if not p.is_zero() else out

    rng = random.Random(0)
    with pytest.raises(AssertionError):
        law_rota_baxter(rng, 3, sum_op=corrupted)


def test_selfcheck_runner_reports_failure():
    import mindex.selfcheck as sc

    broken = [("broken", lambda rng, size: (_ for _ in ()).throw(AssertionError("bad")))]
    orig = sc.SUITES
    sc.SUITES = broken
    try:
        results = run_selfcheck(0, 3)
        assert results == [("broken", False, "bad")]
    finally:
        sc.SUITES = orig


def test_cli_selfcheck_exit_code():
    assert main(["selfcheck", "--seed", "0", "--size", "2"]) == 0


def test_cli_selfcheck_failure_exit_code(monkeypatch, capsys):
    import mindex.selfcheck as sc

    def broken(rng, size):
        raise AssertionError("forced")

    def crashing(rng, size):
        rng.randint(1, 0)

    monkeypatch.setattr(sc, "SUITES", [("broken", broken), ("crashing", crashing)])
    assert main(["selfcheck"]) == 3
    out = capsys.readouterr().out
    assert "FAIL broken: forced" in out
    assert "ERROR crashing: ValueError: " in out
    assert "0/2 suites passed" in out


def test_cli_selfcheck_rejects_sizes_below_one(capsys):
    for size in ("0", "-1", "three"):
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck", "--size", size])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--size: expected an integer >= 1" in captured.err
        assert "Traceback" not in captured.err


def test_cli_dims_rejects_empty_tables(capsys):
    # a valid call first: the parser is shared between calls
    assert render_command(["dims", "--nmax", "2", "--kmax", "-1"]) == "n\\k\t-1\n1\t0\n2\t1"
    for argv, message in (
        (["dims", "--nmax", "0"], "--nmax: expected an integer >= 1"),
        (["dims", "--nmax", "-1"], "--nmax: expected an integer >= 1"),
        (["dims", "--nmax", "2", "--kmax", "-5"], "--kmax: expected an integer >= 1 - nmax = -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
    assert render_command(["dims", "--nmax", "2", "--kmax", "-1"]) == "n\\k\t-1\n1\t0\n2\t1"


def test_cli_ds_rejects_bad_options(capsys):
    for argv, message in (
        (["ds", "--coeffs", "1,1", "--max-vertices", "0"], "--max-vertices: expected an integer >= 1"),
        (["ds", "--coeffs", "abc"], "--coeffs: expected a comma-separated list of rationals"),
        (["ds", "--coeffs", "1,1/0"], "--coeffs: expected a comma-separated list of rationals"),
        (["ds", "--coeffs", ","], "--coeffs: expected a comma-separated list of rationals"),
        (["ds", "--coeffs", "1,,1"], "--coeffs: expected a comma-separated list of rationals"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
    assert render_command(["ds", "--coeffs", " 1, 1/2 ", "--max-vertices", "2"]) == (
        render_command(["ds", "--coeffs", "1,1/2", "--max-vertices", "2"])
    )


def test_zero_sums_parse_to_zero():
    for text in ("0", "-0", "0/1", "0 - 0"):
        assert parse_selem(text).is_zero()
        assert parse_poly(text).is_zero()
    assert parse_ncpoly("0").is_zero()


LONG_LADDER = "ladder:" + "1" * 5000  # more digits than int() converts by default


def test_cli_zero_denominators_and_empty_shorthands_exit_2(capsys):
    for argv, message in (
        (["antipode", "1/0*x0"], "position 2: expected an integer >= 1 in '1/0*x0'"),
        (["compose", "[1,0]", "1/0*X0", "[0]"], "position 2: expected an integer >= 1 in '1/0*X0'"),
        (["stats", "ladder:0"], "position 7: expected an integer >= 1 in 'ladder:0'"),
        (["delta-ck", "B[corolla:0]"], "position 10: expected an integer >= 1 in 'B[corolla:0]'"),
        (["stats", "ladder:²"], "position 7: expected an integer in 'ladder:²'"),
        (["mu", "x0^0"], "position 0: expected a monomial other than 1 in 'x0^0'"),
        (["psi", "x0^0"], "position 0: expected a monomial other than 1 in 'x0^0'"),
        (["delta-nmi", "x0^0"], "position 0: expected a monomial other than 1 in 'x0^0'"),
        (["phi-mi", "x1|x0^0"], "position 3: expected a monomial other than 1 in 'x1|x0^0'"),
        (
            ["stats", LONG_LADDER],
            f"position 7: expected an integer of at most {sys.get_int_max_str_digits()} digits"
            f" in {LONG_LADDER!r}",
        ),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"


def test_cli_prints_integers_of_any_length(capsys):
    """The symmetry factor of corolla:3000 is 2999!, about 9,100 digits:
    more than the interpreter converts by default.  It is printed in full,
    and the limit still holds for the input, in the same process."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(math.factorial(2999))
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["stats", "corolla:3000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"symmetry={expected}\tplane=1\tmonomial=x2999*x0^2999\n"
    assert main(["stats", "corolla:3000", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out, parse_int=str)["symmetry"] == expected
    assert sys.get_int_max_str_digits() == limit
    assert main(["stats", LONG_LADDER]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"parse error: position 7: expected an integer of at most {limit} digits"
    )


def test_cli_out_of_memory_exits_1():
    resource = pytest.importorskip("resource")

    def cap_address_space():
        limit = 400 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # the parsed monomial alone is a vector of 10^8 exponents
    cmd = [sys.executable, "-m", "mindex.cli", "mu", "x99999999*x0"]
    out = subprocess.run(
        cmd, capture_output=True, text=True, env=SUBPROCESS_ENV, preexec_fn=cap_address_space
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: out of memory\n"


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cli_calls_share_no_state():
    assert render_command(["phi-mi", "x1*x0", "--factored"]).count("\n") == 1
    assert render_command(["phi-mi", "x1*x0"]) == "1/2*X^2 - 1/2*X"
    assert json.loads(render_command(["mu", "x2^2*x0^3", "--json"])) == {"value": "-6"}
    assert render_command(["mu", "x2^2*x0^3"]) == "-6"
