"""Workload process for the in-process workloads; started by run.py.

Protocol on stdin/stdout, one JSON document per line:

* run.py sends the job: workload, seconds, trace flag, warm-up inputs
  and census inputs.
* the worker writes ``more`` whenever it needs inputs and reads back a
  JSON list of inputs; its clock is stopped while it waits, so input
  generation and reference computation count in no metric.
* the worker ends with one ``{"result": ...}`` line.

A pass is closed-loop with one caller: each op starts when the previous
one and its oracle check have finished.  Checks run outside the clock.
The census inputs (known defects, see workloads.py) run last and count
in no metric.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import warnings

import ops
import spans
import speed

# peak RSS is read when this many measured ops have finished: U's memo
# table grows with every op, so a high-water mark read at the end of a
# timed pass would depend on how many ops the host's speed let it fit
RSS_AT_OPS = 300


def _fetch():
    sys.stdout.write("more\n")
    sys.stdout.flush()
    return json.loads(sys.stdin.readline())


def run_pass(wl, seconds, inputs=None, tracer=None):
    """Closed-loop pass until ``seconds`` of clock time, or over ``inputs``.

    Returns the op records and the clock time; with ``inputs`` None the
    inputs are fetched from run.py and returned in ``consumed``.
    """
    cache = ops.u_cache()
    if cache is not None:
        cache.cache_clear()  # also zeroes its hit and miss counts
    records, consumed, queue = [], [], list(inputs or [])
    clock = 0.0
    replay = inputs is not None
    cal = speed.Calibration()
    i = 0
    while (i < len(queue)) if replay else (clock < seconds):
        if not replay and i == len(queue):
            queue.extend(_fetch())
        if cal.due(clock):
            cal.take(clock)
        inp = queue[i]
        root = tracer.begin_op(i) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out, exc = wl.run(inp), None
        except Exception as e:  # every raise is an op failure, classified below
            out, exc = None, e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op(root)
        clock += t1 - t0
        rec = {"label": inp["label"], "ms": (t1 - t0) * 1e3, "at": clock, "ok": False,
               "digits": None}
        if exc is None:
            try:
                rec["ok"], rec["digits"], rec["extra"] = wl.check(inp, out)
            except Exception as e:  # a result the oracle cannot read is a failure
                rec["error"] = f"check: {type(e).__name__}: {e}"
                rec["library_error"] = False
        else:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["library_error"] = _is_library_error(exc)
            if hasattr(wl, "declined"):
                rec["extra"] = wl.declined(inp)
        records.append(rec)
        consumed.append(inp)
        i += 1
        if i == RSS_AT_OPS:
            rss_mb = _peak_rss_mb()
    if i < RSS_AT_OPS:
        rss_mb = _peak_rss_mb()
    cal.scale(records)
    hits = misses = 0
    if cache is not None:
        hits, misses = cache.cache_info().hits, cache.cache_info().misses
    return {"records": records, "clock_s": clock,
            "scaled_s": sum(r["scaled_ms"] for r in records) / 1e3, "cache_hits": hits,
            "cache_misses": misses, "cache_present": cache is not None,
            "calibration_ms": cal.ms, "peak_rss_mb": rss_mb}, consumed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _is_library_error(exc) -> bool:
    """True for the errors dcheun raises on purpose (its DcheunError family,
    ValueError for bad arguments, ArithmeticError from numerics)."""
    names = {cls.__name__ for cls in type(exc).__mro__}
    return bool(names & {"DcheunError", "ValueError", "ArithmeticError"})


def main() -> int:
    job = json.loads(sys.stdin.readline())
    warnings.simplefilter("ignore")
    wl = ops.load(job["workload"])
    for inp in job["warmup"]:
        try:
            wl.check(inp, wl.run(inp))
        except Exception:  # warm-up outcomes count in no metric
            pass
    result = {}
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        traced, consumed = run_pass(wl, job["seconds"], tracer=tracer)
        tracer.uninstall()
        untraced, _ = run_pass(wl, job["seconds"], inputs=consumed)
        result["untraced_scaled_s"] = untraced["scaled_s"]
        result["layers"] = spans.layer_metrics(tracer)
        result["absent"] = tracer.absent
        if job.get("spans_path"):
            tracer.save(job["spans_path"])
        result["pass"] = traced
    else:
        result["pass"], _ = run_pass(wl, job["seconds"])
    result["peak_rss_mb"] = result["pass"]["peak_rss_mb"]
    result["census"], _ = run_pass(wl, 0, inputs=job["census"])
    sys.stdout.write(json.dumps({"result": result}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
