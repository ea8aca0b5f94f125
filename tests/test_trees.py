import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from mindex import trees
from mindex.exact import Poly, binomial_poly, indefinite_sum
from mindex.linear import coassociative, cointeraction, counital
from mindex.monomials import alpha_deg, alpha_factorial, alpha_len, alpha_weight, submonomials
from mindex.morphisms import lift_coeff
from mindex.parsing import parse_tree
from mindex.selfcheck import trees_up_to
from mindex.trees import (
    LEAF,
    TREE_SIDE,
    HCKElem,
    HCKTensor,
    RootedTree,
    all_trees,
    bplus,
    build_forest,
    contract_coproduct,
    contract_coproduct_oracle,
    corolla,
    counit_contract,
    counit_cut,
    cut_coproduct,
    cut_coproduct_oracle,
    fertility_monomial,
    forest,
    ladder,
    plane_count,
    strict_order_poly,
    strict_order_poly_elem,
    symmetry_factor,
    tree_stats,
    trees_with_monomial,
    _cut_memo,
    _order_poly_memo,
)

T_A = bplus([ladder(2), LEAF])  # root of fertility 2 with a leaf and a chain
T_B = bplus([corolla(3)])  # stalk carrying a cherry


def test_bplus_fixtures():
    assert bplus(()) == LEAF
    assert bplus((LEAF, LEAF)) == corolla(3)
    t = LEAF
    for _ in range(2):
        t = bplus((t,))
    assert t == ladder(3)


def test_canonical_form_insertion_order():
    rng = random.Random(2)
    kids = [ladder(3), corolla(3), LEAF, ladder(2)]
    reference = RootedTree(kids)
    for _ in range(10):
        rng.shuffle(kids)
        assert RootedTree(kids) == reference


def test_tree_stats_fixtures():
    assert tree_stats(ladder(4)) == (1, 1, (1, 3))
    assert tree_stats(T_A) == (1, 2, (2, 1, 1))
    assert tree_stats(corolla(3)) == (2, 1, (2, 0, 1))
    assert tree_stats(T_B) == (2, 1, (2, 1, 1))


def _symmetry_reference(t):
    """Recursive definition: Π sym(child)^mult · mult! over child classes."""
    out = 1
    for child, mult in t.child_multiplicities():
        out *= _symmetry_reference(child) ** mult * math.factorial(mult)
    return out


def _plane_reference(t):
    """Recursive definition: multinomial of the child classes times
    Π plane(child)^mult."""
    mults = [m for _, m in t.child_multiplicities()]
    out = math.factorial(sum(mults))
    for child, mult in t.child_multiplicities():
        out = out // math.factorial(mult) * _plane_reference(child) ** mult
    return out


def test_walk_stats_match_recursive_reference():
    """The one walk behind ``tree_stats`` and the three functions that read
    it, against the recursive definitions and the counter of child counts."""
    for t in trees_up_to(10):
        want = (_symmetry_reference(t), _plane_reference(t), _fertility_reference(t))
        assert tree_stats(t) == want, t
        assert (symmetry_factor(t), plane_count(t), fertility_monomial(t)) == want, t


def test_deep_trees_print_and_parse():
    """Text, not trees, is compared: ``==`` on two distinct deep trees
    compares their nested encodings recursively."""
    comb = LEAF
    for _ in range(5000):
        comb = bplus((LEAF, comb))
    for t, text, stats in (
        (ladder(5000), "B[" * 5000 + "]" * 5000, (1, 1, (1, 4999))),
        (comb, "B[B[]," * 5000 + "B[]" + "]" * 5000, (2, 2**4999, (5001, 0, 5000))),
    ):
        assert str(t) == text
        assert str(parse_tree(text)) == text
        assert tree_stats(t) == stats


A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]


def test_enumeration_counts():
    """``all_trees(n)`` lists the rooted trees on n vertices (OEIS A000081),
    each once, strictly increasing by ``enc``."""
    for n, count in enumerate(A000081, start=1):
        trees = all_trees(n)
        assert len(trees) == count, n
        assert all(s.enc < t.enc for s, t in zip(trees, trees[1:])), n
        assert all(t.size == n for t in trees), n


def _all_trees_oracle(n_max):
    """Trees by size through n_max, each a root over a multiset of smaller
    trees, built by the sorting constructor and sorted by ``enc`` at the end."""
    lists = {1: [LEAF]}
    for n in range(2, n_max + 1):
        pool = [t for m in range(1, n) for t in lists[m]]
        out = []

        def rec(remaining, start, acc):
            if remaining == 0:
                out.append(RootedTree(acc))
                return
            for idx in range(start, len(pool)):
                t = pool[idx]
                if t.size > remaining:
                    break
                acc.append(t)
                rec(remaining - t.size, idx, acc)
                acc.pop()

        rec(n - 1, 0, [])
        lists[n] = sorted(out, key=lambda t: t.enc)
    return lists


def test_enumeration_matches_multiset_recursion():
    oracle = _all_trees_oracle(12)
    for n in range(1, 13):
        got, want = all_trees(n), oracle[n]
        assert [t.enc for t in got] == [t.enc for t in want], n
        assert [t.children for t in got] == [t.children for t in want], n
        assert [t.size for t in got] == [t.size for t in want], n


def test_enumerated_children_are_the_listed_trees():
    """Every child of a listed tree is the very object that the list of
    its size holds, and the trusted constructor path agrees with the
    sorting one."""
    index = {t.enc: t for n in range(1, 13) for t in all_trees(n)}
    for n in range(1, 13):
        for t in all_trees(n):
            assert all(c is index[c.enc] for c in t.children), t
            again = RootedTree(reversed(t.children))
            assert (again.enc, again.size, again.children) == (t.enc, t.size, t.children), t


def _fertility_reference(t):
    """Counter of child counts over an explicit-stack walk, as a trimmed vector."""
    counts, stack = Counter(), [t]
    while stack:
        node = stack.pop()
        counts[len(node.children)] += 1
        stack += node.children
    return tuple(counts[k] for k in range(max(counts) + 1))


def test_fertility_monomial_matches_counter_reference():
    for t in list(trees_up_to(10)) + [ladder(3000), corolla(3000), bplus([ladder(5), corolla(4)])]:
        assert fertility_monomial(t) == _fertility_reference(t), t
    assert fertility_monomial(ladder(3000)) == (1, 2999)
    assert fertility_monomial(LEAF) == (1,)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_ladder_cut_and_order_poly_under_a_low_recursion_limit():
    """A memo miss fills every subtree's entry first, children before
    parents, so no call nests once per level: a ladder deeper than the
    recursion limit gets the values it gets at the default limit."""
    low = _stack_depth() + 60
    t = ladder(low + 40)

    def cold():
        # the conversion to powers of X keeps no cache: each call converts
        # from scratch at degree t.size, above the limit
        _cut_memo.clear()
        _order_poly_memo.clear()
        return cut_coproduct((t,)), strict_order_poly((t,)), binomial_poly(t.size)

    want = cold()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(low)
    try:
        got = cold()
    finally:
        sys.setrecursionlimit(old)
    assert got == want
    k = t.size  # cut a ladder below any of its k levels, or not at all
    assert want[0] == HCKTensor(
        {((ladder(k - j),) if j < k else (), (ladder(j),) if j else ()): 1 for j in range(k + 1)}
    )
    assert want[1] == want[2]
    assert want[2](k) == 1 and want[2](k + 1) == k + 1


def test_memo_miss_steps_each_missing_subtree_once(monkeypatch):
    """A cold miss computes one step per distinct subtree, nested calls
    included; a warm repeat steps nothing, and a larger tree steps only for
    its subtrees that are not cached."""
    steps = Counter()
    for name in ("_cut_step", "_order_poly_step"):
        inner = getattr(trees, name)

        def counted(node, inner=inner, name=name):
            steps[name] += 1
            return inner(node)

        monkeypatch.setattr(trees, name, counted)
    t = bplus([ladder(6), corolla(4), corolla(4), bplus([ladder(3), corolla(4)])])
    distinct = set(trees._vertices(t))
    _cut_memo.clear()
    _order_poly_memo.clear()
    want = (cut_coproduct((t,)), strict_order_poly((t,)))
    assert steps == {"_cut_step": len(distinct), "_order_poly_step": len(distinct)}
    assert (cut_coproduct((t,)), strict_order_poly((t,))) == want
    assert sum(steps.values()) == 2 * len(distinct)
    cut_coproduct((bplus([t, ladder(7)]),))
    assert steps["_cut_step"] == len(distinct) + 2


def test_trees_with_monomial_fixtures():
    assert set(trees_with_monomial((2, 1, 1))) == {T_A, T_B}
    assert trees_with_monomial((1, 3)) == (ladder(4),)
    assert trees_with_monomial((2, 1)) == ()


def test_tree_divisors_are_the_degree_zero_divisors():
    """The divisor table, which walks b_1, b_2, ... and fixes the leaf count
    b_0, equals the filtered walk over all divisors as a set, on every
    trimmed ``rest`` of at most 5 indices with exponents at most 3."""
    count = 0
    for n in range(6):
        for rest in itertools.product(range(4), repeat=n):
            if rest and not rest[-1]:
                continue
            want = {
                (b, left, alpha_len(left))
                for b, left in submonomials(rest)
                if b and alpha_deg(b) == 0
            }
            got = trees._tree_divisors(rest)
            assert len(got) == len(want) and set(got) == want, rest
            count += bool(want)
    assert count > 200


def test_trees_with_monomial_vs_exhaustive():
    by_mono = {}
    for t in trees_up_to(10):
        by_mono.setdefault(fertility_monomial(t), set()).add(t)
    for a, want in by_mono.items():
        got = trees_with_monomial(a)
        assert set(got) == want and len(got) == len(want), a
        for t in got:
            assert t.size == alpha_len(a)
            assert t.size - 1 == alpha_weight(a)


def test_build_forest():
    assert build_forest((0, 0, 0)) == (LEAF,) * 3
    assert build_forest((2, 0, 0)) == (corolla(3),)
    with pytest.raises(ValueError):
        build_forest((3, 0, 0))
    with pytest.raises(ValueError):
        build_forest(())
    with pytest.raises(ValueError):
        build_forest((-1,))
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        ks = [rng.randint(0, 2) for _ in range(n)]
        if sum(ks) > n - 1:
            with pytest.raises(ValueError):
                build_forest(ks)
            continue
        f = build_forest(ks)
        got = sorted(k for t in f for k in _fertilities(t))
        assert got == sorted(ks)
        if sum(ks) == n - 1:
            assert len(f) == 1


def _fertilities(t):
    yield t.fertility()
    for c in t.children:
        yield from _fertilities(c)


def test_cut_coproduct_fixtures():
    assert cut_coproduct((LEAF,)) == HCKTensor(
        {((LEAF,), ()): 1, ((), (LEAF,)): 1}
    )
    l2 = ladder(2)
    assert cut_coproduct((l2,)) == HCKTensor(
        {((l2,), ()): 1, ((), (l2,)): 1, ((LEAF,), (LEAF,)): 1}
    )
    c3 = corolla(3)
    assert cut_coproduct((c3,)) == HCKTensor(
        {
            ((c3,), ()): 1,
            ((), (c3,)): 1,
            ((l2,), (LEAF,)): 2,
            ((LEAF,), (LEAF, LEAF)): 1,
        }
    )


def test_contract_coproduct_fixtures():
    assert contract_coproduct((LEAF,)) == HCKTensor({((LEAF,), (LEAF,)): 1})
    l2 = ladder(2)
    assert contract_coproduct((l2,)) == HCKTensor(
        {((l2,), (LEAF, LEAF)): 1, ((LEAF,), (l2,)): 1}
    )
    c3 = corolla(3)
    assert contract_coproduct((c3,)) == HCKTensor(
        {
            ((c3,), (LEAF, LEAF, LEAF)): 1,
            ((LEAF,), (c3,)): 1,
            ((l2,), forest([l2, LEAF])): 2,
        }
    )


def _random_tree(rng, n):
    parent = [rng.randrange(v) for v in range(1, n)]
    kids = [[] for _ in range(n)]
    for v in range(n - 1, 0, -1):
        kids[parent[v - 1]].append(v)

    def build(v):
        return RootedTree(build(c) for c in kids[v])

    return build(0)


def test_contract_equals_subset_oracle():
    for t in trees_up_to(8):
        assert contract_coproduct((t,)) == contract_coproduct_oracle(t), t
    rng = random.Random(11)
    for _ in range(24):
        t = _random_tree(rng, rng.randint(9, 11))
        assert contract_coproduct((t,)) == contract_coproduct_oracle(t), t


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_contract_closed_forms_at_twenty_vertices():
    n = 20
    want = {}
    for parts in _partitions(n):
        coeff = math.factorial(len(parts))
        for mult in Counter(parts).values():
            coeff //= math.factorial(mult)
        want[((ladder(len(parts)),), forest(ladder(p) for p in parts))] = coeff
    assert len(want) == 627
    assert contract_coproduct((ladder(n),)) == HCKTensor(want)
    want = {
        ((corolla(n - s),), forest([corolla(s + 1)] + [LEAF] * (n - 1 - s))): math.comb(n - 1, s)
        for s in range(n)
    }
    assert contract_coproduct((corolla(n),)) == HCKTensor(want)


def test_cut_equals_edge_cut_oracle_through_five_vertices():
    for t in trees_up_to(5):
        assert cut_coproduct((t,)) == cut_coproduct_oracle(t), t


def test_cut_cocycle_identity():
    pool = list(trees_up_to(3))
    rng = random.Random(7)
    for _ in range(12):
        f = forest(rng.sample(pool, k=rng.randint(0, 2)))
        lifted = bplus(f)
        rhs = HCKTensor.basis(((), (lifted,)))
        for (a, b), c in cut_coproduct(f).terms.items():
            rhs = rhs + HCKTensor.basis(((bplus(a),), b), c)
        assert cut_coproduct((lifted,)) == rhs, f


def test_coassociativity_and_counits_through_five_vertices():
    side = TREE_SIDE
    for t in trees_up_to(5):
        for cp, eps in ((side.Delta, side.eps_Delta), (side.delta, side.eps_delta)):
            assert coassociative(cp, (t,)), (t, cp.__name__)
            assert counital(cp, eps, (t,)), (t, cp.__name__)


def test_tree_cointeraction_through_four_vertices():
    for t in trees_up_to(4):
        assert cointeraction(TREE_SIDE, (t,)), t


def test_counit_fixtures():
    assert counit_contract(HCKElem.one()) == 1
    assert counit_contract(HCKElem.basis((LEAF, LEAF, LEAF))) == 1
    assert counit_contract(HCKElem.tree(ladder(2))) == 0
    assert counit_cut(HCKElem.one()) == 1
    assert counit_cut(HCKElem.tree(LEAF)) == 0


def test_order_polynomial_table():
    X = Poly.x()
    half = Fraction(1, 2)
    table = {
        LEAF: X,
        ladder(2): (X * X - X).scale(half),
        corolla(3): indefinite_sum(X * X),
        ladder(3): binomial_poly(3),
        corolla(4): indefinite_sum(X**3),
        T_A: indefinite_sum(X * binomial_poly(2)),
        T_B: indefinite_sum(indefinite_sum(X * X)),
        ladder(4): binomial_poly(4),
    }
    for t, want in table.items():
        assert strict_order_poly((t,)) == want, t
    # frozen closed forms from the displayed table
    assert strict_order_poly((corolla(4),)) == Poly(
        {4: Fraction(1, 4), 3: Fraction(-1, 2), 2: Fraction(1, 4)}
    )  # X^2(X-1)^2/4
    assert strict_order_poly((T_A,)) == Poly(
        {4: Fraction(1, 8), 3: Fraction(-5, 12), 2: Fraction(3, 8), 1: Fraction(-1, 12)}
    )  # (3X-1)(X-1)(X-2)X/24
    assert strict_order_poly((T_B,)) == Poly(
        {4: Fraction(1, 12), 3: Fraction(-1, 3), 2: Fraction(5, 12), 1: Fraction(-1, 6)}
    )  # (X-1)^2(X-2)X/12


def test_order_polynomial_families():
    for n in range(1, 6):
        assert strict_order_poly((ladder(n),)) == binomial_poly(n)
        p = strict_order_poly((corolla(n),))
        for k in range(1, 7):
            assert p(k) == sum(j ** (n - 1) for j in range(k)), (n, k)


def _increasing_labellings(f, k: int) -> int:
    """Labellings of the forest f by 1..k that increase strictly from each
    parent to its children, by dynamic programming on the root's label."""

    def rooted_at(t):  # [v] -> labellings of t with root label v
        counts = [0] + [1] * k
        for child in t.children:
            sub, above, acc = rooted_at(child), [0] * (k + 1), 0
            for v in range(k, 0, -1):
                above[v] = acc  # the child's labellings with root label > v
                acc += sub[v]
            counts = [x * y for x, y in zip(counts, above)]
        return counts

    return math.prod(sum(rooted_at(t)) for t in f)


def test_order_poly_counts_strictly_increasing_labellings():
    for t in trees_up_to(9):
        p = strict_order_poly((t,))
        assert all(p(k) == _increasing_labellings((t,), k) for k in range(t.size + 2)), t
    rng = random.Random(8)
    pool = list(trees_up_to(6))
    for _ in range(30):
        forests = [forest(rng.choices(pool, k=rng.randint(0, 3))) for _ in range(3)]
        for f in forests:
            p = strict_order_poly(f)
            size = sum(t.size for t in f)
            assert all(p(k) == _increasing_labellings(f, k) for k in range(size + 2)), f
        e = HCKElem([(f, Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for f in forests])
        want = Poly.zero()
        for f, c in e.terms.items():
            want = want + strict_order_poly(f).scale(c)
        assert strict_order_poly_elem(e) == want


def test_stats_identities_through_seven_vertices():
    for t in trees_up_to(7):
        s, p, m = tree_stats(t)
        assert lift_coeff(m) * p * s == alpha_factorial(m), t
        assert alpha_factorial(m) % s == 0, t
