"""Tests of the benchmark's own machinery: self time, the tail rule, the
speed probe, and that tracing leaves the program as it found it."""

import gc
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 40, 70, 0),
        ("a.leaf", 12, 20, 1),
        ("lone", 200, 250, -1),
    ]
    assert spans.self_times(tree) == [100 - 20 - 30, 20 - 8, 30, 8, 50]


def test_self_time_counts_overlapping_children_once():
    tree = [("root", 0, 100, -1), ("a", 10, 50, 0), ("b", 30, 60, 0), ("c", 90, 120, 0)]
    # children cover [10, 60] and [90, 100] of the root's interval
    assert spans.self_times(tree)[0] == 100 - 50 - 10


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer, inner = tracer.nid("outer", "x"), tracer.nid("inner", "y")
    i = tracer.open(outer)  # t=0
    j = tracer.open(inner)  # t=10
    tracer.close(j)  # t=20
    tracer.close(i)  # t=30
    assert tracer.spans() == [("outer", 0, 30, -1), ("inner", 10, 20, 0)]
    assert spans.self_times(tracer.spans()) == [20, 10]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert summary.tail_percentile(20) == 50
    assert summary.tail_percentile(100) == 90
    assert summary.tail_percentile(99) == 80
    assert summary.tail_percentile(1000) == 99
    assert summary.tail_percentile(10000) == 99.9
    assert summary.tail_percentile(10) == 100.0
    for n in (20, 57, 99, 100, 548, 1000, 10000):
        p = summary.tail_percentile(n)
        _, beyond = summary.nearest_rank(list(range(n)), p)
        assert beyond >= summary.MIN_BEYOND


def test_latency_summary_takes_each_ops_median_round_at_reference_speed():
    ref = speed.REFERENCE_S
    rounds = [
        {"ops": [{"s": float(i) * slow, "probe": ref * slow} for i in range(100)]}
        for slow in (1.0, 2.0, 1.5)
    ]
    rounds[1]["ops"][7]["s"] += 1000.0
    per_op = summary.per_op_median(rounds)
    assert per_op == pytest.approx([float(i) for i in range(100)])
    lat = summary.latency_summary(per_op)
    assert lat["tail_percentile"] == 90
    assert lat["tail"] == 89.0
    assert lat["tail_beyond"] == 10
    assert lat["p50"] == 49.5


def test_probe_holds_off_the_collector_and_restores_it(monkeypatch):
    seen = []
    work = speed._work
    monkeypatch.setattr(speed, "_work", lambda: seen.append(gc.isenabled()) or work())
    assert speed.probe_s() > 0
    assert seen == [False] * speed.PROBE_RUNS
    assert gc.isenabled()


def _bindings():
    from mindex import linear, morphisms, selfcheck

    mods = spans._modules()
    return (
        {name: dict(vars(mod)) for name, mod in mods.items()},
        dict(vars(linear.LinComb)),
        list(selfcheck.SUITES),
        dict(vars(morphisms.mu_character)),
    )


def _same(a, b):
    mods_a, cls_a, suites_a, mu_a = a
    mods_b, cls_b, suites_b, mu_b = b
    for name in mods_a:
        assert mods_a[name].keys() == mods_b[name].keys()
        for key, value in mods_a[name].items():
            assert mods_b[name][key] is value, f"{name}.{key}"
    assert all(cls_b[k] is v for k, v in cls_a.items())
    assert all(x is y for x, y in zip(suites_a, suites_b))
    assert all(mu_b[k] is v for k, v in mu_a.items() if k != "_cache")


def test_wrappers_are_removed_after_a_traced_run():
    from mindex import bialgebra, monomials, morphisms

    before = _bindings()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert bialgebra.ordered_splits is not before[0]["monomials"]["ordered_splits"]
        assert morphisms.mu_character._on_block is not before[3]["_on_block"]
        e = bialgebra.SElem.block((2, 1))
        bialgebra._sub_coproduct_block.__wrapped__.cache_clear()
        bialgebra._block_coproduct_fm.cache_clear()
        bialgebra.sub_coproduct(e)
        morphisms.mu_value((1, 1))
    recorded = len(tracer.span_name)
    assert recorded > 0
    assert tracer.counts["monomials.ordered_splits.yielded"][0] == sum(
        1 for k in range(1, 4) for _ in monomials.ordered_splits((2, 1), k)
    )
    _same(before, _bindings())
    bialgebra.sub_coproduct(bialgebra.SElem.block((1, 2)))
    assert len(tracer.span_name) == recorded


def test_wrappers_are_removed_when_the_run_raises():
    from mindex import trees

    before = _bindings()
    tracer = spans.Tracer()
    try:
        with spans.traced(tracer):
            trees.ladder(0)
    except ValueError:
        pass
    _same(before, _bindings())

