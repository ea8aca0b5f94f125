"""One benchmark round in a fresh interpreter.

Protocol: the worker probes the CPU speed, imports ``mindex`` and
``mindex.cli``, writes ``ready <probe seconds> <seconds spent probing>`` on
stdout (the parent's clock for set-up time stops there), reads one JSON job
from stdin, runs its ops in order with a speed probe before and after each,
checks the outputs after the timed phase, and writes one JSON result line.  A
job of ``{"exit": true}`` stops right after set-up.

The interpreter keeps its default recursion limit and garbage-collector
settings: raising either would measure a different program.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

_t = time.perf_counter()
_probe = speed.probe_s()
_spent = time.perf_counter() - _t

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mindex  # noqa: E402
import mindex.cli  # noqa: E402

sys.stdout.write(f"ready {_probe!r} {_spent!r}\n")
sys.stdout.flush()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402


class OpTimeout(Exception):
    """Raised by SIGALRM when an op runs over its budget."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_ops(specs, budget_s, tracer=None, frontier=False):
    """Run each op under its budget; returns (records, outputs, contexts,
    wall_s).  On a frontier family the budget is at reference speed and the
    run stops at the first op that does not finish."""
    import ops

    prepared = [ops.prepare(spec) for spec in specs]
    records, outputs = [], []
    signal.signal(signal.SIGALRM, _alarm)
    clock = time.perf_counter
    for spec, (label, thunk, _) in zip(specs, prepared):
        status, error, out = "ok", None, None
        before = speed.probe_s()
        root = tracer.open(tracer.nid(f"op.{spec[0]}", ops.LAYER[spec[0]])) if tracer else None
        t0 = clock()
        signal.setitimer(
            signal.ITIMER_REAL, budget_s * before / speed.REFERENCE_S if frontier else budget_s
        )
        try:
            out = thunk()
        except OpTimeout:
            status = "timeout"
        except RecursionError:
            status, error = "error", "RecursionError"
        except Exception as exc:  # an op's crash is recorded, not fatal
            status, error = "error", type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = clock()
        if root is not None:
            tracer.close(root)
        after = speed.probe_s()
        records.append(
            {"kind": spec[0], "label": label, "s": t1 - t0, "before": before, "after": after,
             "probe": (before + after) / 2, "status": status, "error": error}
        )
        outputs.append(out)
        if frontier and status != "ok":
            break
    wall_s = sum(rec["s"] for rec in records)
    return records, outputs, [ctx for _, _, ctx in prepared], wall_s


def check_all(specs, records, outputs, contexts, pinned):
    import ops

    for spec, rec, out, ctx in zip(specs, records, outputs, contexts):
        if rec["status"] != "ok":
            continue
        try:
            good = ops.check(spec, ctx, out, pinned)
        except Exception as exc:  # a check that cannot run counts as wrong
            good = False
            rec["check_error"] = f"{type(exc).__name__}: {exc}"
        if not good:
            rec["status"] = "wrong"


def check_repeats(specs, records, outputs):
    """In a session, each repeated command must print what it printed first."""
    import ops

    first = {}
    for spec, rec, out in zip(specs, records, outputs):
        if rec["status"] != "ok":
            continue
        key = ops.digest_key(spec)
        if key in first and first[key] != out:
            rec["status"] = "wrong"
        first.setdefault(key, out)


def main():
    job = json.loads(sys.stdin.readline())
    if job.get("exit"):
        return {"ok": True}
    import loads
    import spans

    specs = job["ops"]
    pinned = loads.load_digests()
    result = {}
    if job.get("trace"):
        tracer = spans.Tracer()
        with spans.traced(tracer):
            records, outputs, contexts, wall_s = run_ops(specs, job["budget_s"], tracer)
        result["layers"] = spans.layer_metrics(tracer)
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    else:
        records, outputs, contexts, wall_s = run_ops(
            specs, job["budget_s"], frontier=job.get("frontier", False)
        )
    result["memo"] = spans.memo_stats()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_all(specs, records, outputs, contexts, pinned)
    if job.get("repeats"):
        check_repeats(specs, records, outputs)
    result.update(ok=True, wall_s=wall_s, ops=records)
    return result


if __name__ == "__main__":
    try:
        out = main()
    except Exception:
        out = {"ok": False, "error": traceback.format_exc()}
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
