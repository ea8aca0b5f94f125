"""mindex benchmark: seeded workloads, each round in a fresh interpreter.

    python3 perfbench/run.py --workload forest-cold --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one worker process at a time):

* ``forest-cold``: block coproducts, antipodes and invariants of forest
  monomials; ``ordered_splits``, the block coproducts and Fraction sums
  dominate while the tree layer idles.
* ``tree-cold``: enumeration, cut and contraction coproducts, strict order
  polynomials, lift and ``via-ck`` invariants, Dyson-Schwinger expansion, and
  a deep slice of thin trees that exceeds the recursion limit at the seed
  commit; the forest block coproducts idle.
* ``cli-session``: a Zipf-repeating stream of small commands through
  ``mindex.cli.render_command`` in one process, ending with a selfcheck; memo
  hits, parsing, argparse and formatting dominate.

Each round starts a new worker, so every memo starts empty, and runs the same
op list.  Rounds repeat until ``--seconds`` have passed.  Every op time is
scaled to a reference CPU speed by probes run around it (see ``speed.py``):
a shared machine's CPU can slow by 2x for minutes at a time.  An op's time is its
median over the run's rounds, and ``wall_s`` is the sum of those.
``setup_s`` is the median of the run's set-ups, two per round, each scaled by
a probe the worker runs before its imports.  See ``METRICS.md``.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and it holds the per-layer
metrics, read from timing wrappers around the calls into each layer.  The
full record of a run, spans included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import loads  # noqa: E402
import summary  # noqa: E402
from speed import scaled  # noqa: E402

OP_BUDGET_S = {"forest-cold": 5.0, "tree-cold": 5.0, "cli-session": 10.0}
ROUND_TIMEOUT_S = 60.0
SETUPS_PER_ROUND = 2
FRONTIER_ATTEMPTS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_kib": "KiB",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # each worker reads the compiled bytecode the first one wrote, as an
    # installed package would, and hashes strings the same way every run
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(job: dict, timeout_s: float = ROUND_TIMEOUT_S) -> tuple[tuple[float, float], dict]:
    """Run one worker; returns ((set-up seconds, start-up probe seconds), result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=worker_env(),
        text=True,
    )
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline().split()
        setup_s = time.perf_counter() - t0
        if len(ready) != 3 or ready[0] != "ready":
            _, err = proc.communicate()
            raise WorkerError(f"worker did not start: {err.strip()[-2000:]}")
        out, err = proc.communicate(json.dumps(job) + "\n")
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker gave no result (exit {proc.returncode}): {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("ok"):
        raise WorkerError(result.get("error", "worker failed"))
    probe, spent = float(ready[1]), float(ready[2])
    return (setup_s - spent, probe), result


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "mindex")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_rounds(workload: str, specs: list, seconds: float, trace: bool, spans_path: str):
    """Rounds until ``seconds`` have passed; with trace, untraced and traced
    rounds alternate and at least one of each runs."""
    base = {
        "ops": specs,
        "budget_s": OP_BUDGET_S[workload],
        "repeats": workload == "cli-session",
    }
    plain, traced, setups = [], [], []
    spawn({"exit": True})  # the first start compiles the bytecode
    deadline = time.perf_counter() + seconds
    while True:
        setups += [spawn({"exit": True})[0] for _ in range(SETUPS_PER_ROUND)]
        want_trace = trace and len(traced) < len(plain)
        job = dict(base, trace=want_trace, spans_path=spans_path if want_trace else None)
        _, result = spawn(job)
        (traced if want_trace else plain).append(result)
        if time.perf_counter() >= deadline and (not trace or traced):
            return plain, traced, setups


def run_frontier(workload: str) -> dict:
    """Largest size on the family whose op finishes within the budget; the
    better of two fresh workers, so that one slow burst does not lower it."""
    fam = loads.FRONTIERS[workload]
    specs = loads.frontier_ops(workload)
    job = {"ops": specs, "budget_s": fam["budget_s"], "frontier": True}
    attempts = [spawn(job)[1]["ops"] for _ in range(FRONTIER_ATTEMPTS)]

    def within(op):
        # the alarm reads the speed before the op only; the op's time is
        # checked again at the speed of both its probes
        return op["status"] == "ok" and scaled(op["s"], op["probe"]) <= fam["budget_s"]

    def reached(ops):
        return max((size for size, op in zip(fam["sizes"], ops) if within(op)), default=0)

    best = max(attempts, key=reached)
    return {
        "value": reached(best),
        "unit": fam["unit"],
        "budget_s": fam["budget_s"],
        "steps": [
            f"{size}:{scaled(op['s'], op['probe']):.3f}s{'' if within(op) else ' over'}"
            if op["status"] == "ok" else f"{size}:{op['status']}"
            for size, op in zip(fam["sizes"], best)
        ],
        "saturated": reached(best) == fam["sizes"][-1],
        "wrong": any(op["status"] == "wrong" for ops in attempts for op in ops),
    }


def end_to_end(plain, setups) -> tuple[dict, dict]:
    per_op = summary.per_op_median(plain)
    lat = summary.latency_summary(per_op)
    values = {
        "wall_s": sum(per_op),
        "op_p50_s": lat["p50"],
        "op_tail_s": lat["tail"],
        "setup_s": statistics.median(scaled(raw, probe) for raw, probe in setups),
        "peak_rss_kib": summary.median_of(plain, "peak_rss_kib"),
    }
    return values, lat


def per_layer(plain, traced) -> dict:
    # a traced round's times are scaled by the speed its ops saw
    for r in traced:
        factor = summary.round_wall(r) / r["wall_s"]
        r["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in r["layers"].items()}
    layers = summary.median_metrics([r["layers"] for r in traced])
    layers["memo.entries"] = statistics.median(r["memo"]["entries"] for r in traced)
    layers["memo.hit_ratio"] = statistics.median(r["memo"]["hit_ratio"] for r in traced)
    layers["trees.recursion_errors"] = statistics.median(
        sum(1 for op in r["ops"] if op["error"] == "RecursionError") for r in plain
    )
    layers["trace.wall_s"] = statistics.median(summary.round_wall(r) for r in traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
        summary.round_wall(r) for r in plain
    )
    return layers


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=loads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "mindex", "__init__.py")):
        print("error: no mindex sources under src/ next to the benchmark", file=sys.stderr)
        return 2

    prov = provenance(args.seed)
    specs = loads.generate(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        plain, traced, setups = run_rounds(
            args.workload, specs, args.seconds, bool(args.trace), stem + "-spans.json"
        )
        frontier = None
        if not args.trace and args.workload in loads.FRONTIERS:
            frontier = run_frontier(args.workload)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    fails = summary.failure_counts(rounds)
    correct = fails["wrong"] == 0 and not (frontier and frontier["wrong"])
    e2e, lat = end_to_end(plain, setups)
    record = {
        "workload": args.workload,
        "provenance": prov,
        "rounds": {"untraced": len(plain), "traced": len(traced), "ops_per_round": len(specs)},
        "failures": fails,
        "fail_ratio": fails["failed"] / fails["attempted"],
        "failed_ops": summary.failed_ops(rounds),
        "end_to_end": e2e,
        "latency": lat,
        "frontier": frontier,
        "round_wall_s": [summary.round_wall(r) for r in plain],
        "round_raw_wall_s": [r["wall_s"] for r in plain],
        "round_op_s": [summary.op_times(r) for r in plain],
        "round_op_raw": [[[op["s"], op["before"], op["after"]] for op in r["ops"]] for r in plain],
        "setup_samples": [{"s": raw, "probe": probe} for raw, probe in setups],
    }

    print(f"# mindex benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("# " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# rounds: {len(plain)} untraced, {len(traced)} traced; {len(specs)} ops per round")
    print(
        f"# ops attempted={fails['attempted']} failed={fails['failed']} "
        f"(errors={fails['error']} timeouts={fails['timeout']} wrong={fails['wrong']})"
    )
    for line in record["failed_ops"]:
        print(f"#   failed: {line}")
    for name, value in e2e.items():
        extra = ""
        if name == "op_tail_s":
            extra = (
                f"  (p{lat['tail_percentile']:g} of {lat['samples']} ops, "
                f"{lat['tail_beyond']} beyond)"
            )
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{extra}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio")
    if frontier is not None:
        print(
            f"frontier {frontier['value']} {frontier['unit']}  (budget {frontier['budget_s']} s; "
            f"steps {' '.join(frontier['steps'])}{'; saturated' if frontier['saturated'] else ''})"
        )

    if args.trace:
        layers = per_layer(plain, traced)
        record["per_layer"] = layers
        total = layers["trace.wall_s"] or 1.0
        for name, value in layers.items():
            share = f"  ({value / total:.1%} of traced wall)" if name.endswith(".self_s") else ""
            print(f"{name} {value:.6g} {layer_units(name)}{share}")
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": fails["attempted"],
                "failed": fails["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
