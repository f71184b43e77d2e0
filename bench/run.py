"""dcheun benchmark: one seeded, closed-loop workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload series_eval --seed 1 --seconds 15 --trace 0

Workloads: series_eval, spectrum, integrals, cli_cold (see bench/meta.json
for why each exists and which layers it exercises).  The library is
imported from ``src/``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A full
record, with the machine fingerprint, is written under bench/out/.

The measured inputs are ones the library handles, so "failed" is 0 and
any failure is a regression.  Each run also checks one census input per
known defect (workloads.CENSUS) and prints the outcome; census ops count
in no end-to-end metric and not in "attempted" or "failed".
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): one caller, steadier timings.  Set
# before numpy loads here and inherited by every child.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(1, str(SRC))  # cli_cold input generation closes series with dcheun

import oracles  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
WARMUP_OPS = 4
BATCH = 16
DEADLINE_S = 170.0  # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
    "peak_rss_mb": "MB", "digits_min": "digits",
}
LAYER_UNITS = {
    "specialfn.hyp_u.calls": "count", "specialfn.hyp_u.self_s": "s",
    "specialfn.hyp_u.cache_hit_ratio": "ratio", "specialfn.mpmath.calls": "count",
    "specialfn.mpmath.self_s": "s", "specialfn.mpmath_ratio": "ratio",
    "solutions.evaluate.calls": "count", "solutions.evaluate.self_s": "s",
    "solutions.build.calls": "count", "solutions.build.self_s": "s",
    "solutions.u_calls_per_eval": "ratio",
    "recurrence.char_value.calls": "count", "recurrence.char_value.self_s": "s",
    "recurrence.char_root.calls": "count", "recurrence.char_root.iterations": "count",
    "recurrence.char_root.failures": "count", "recurrence.char_root.self_s": "s",
    "recurrence.generate.calls": "count", "recurrence.generate.self_s": "s",
    "recurrence.tridiag_eigen.self_s": "s",
    "core.params.constructions": "count", "core.apply_rule.calls": "count",
    "qes.spectrum.self_s": "s", "qes.eigenfunction.calls": "count",
    "qes.eigenfunction.self_s": "s", "qes.eigenfunction.match_failures": "count",
    "qes.level_recall": "ratio", "qes.spurious_levels": "count",
    "kernels.contour_quad.calls": "count", "kernels.contour_quad.self_s": "s",
    "kernels.integrand_u_calls": "count", "kernels.verify_adjoint.self_s": "s",
    "cli.import_s": "s", "cli.command_s": "s", "cli.import.kernels_s": "s",
    "census.fail_frac": "ratio",
    "bench.self_s": "s", "trace.other_self_s": "s", "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def fingerprint() -> dict:
    fp = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
          "blas_threads": BLAS_THREADS, "loadavg_start": loadavg()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            fp[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            fp[pkg] = None
    fp["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            fp["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    fp["source_sha256"] = digest.hexdigest()[:16]
    return fp


def spawn(argv, **kw):
    """Start a child; returns (process, start time)."""
    t0 = time.perf_counter()
    return subprocess.Popen(argv, env=child_env(), cwd=ROOT, **kw), t0


def importtime(stderr: str) -> dict:
    """Cumulative seconds of the top-level dcheun imports, and of dcheun.kernels,
    from ``python -X importtime`` output."""
    top = kernels = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) * 1e-6
        name = parts[2][1:]  # the separator's own space
        depth = (len(name) - len(name.lstrip(" "))) // 2
        name = name.strip()
        if depth == 0 and name.split(".")[0] == "dcheun":
            top += cumulative
        if name == "dcheun.kernels":
            kernels = cumulative
    return {"import_s": top, "kernels_s": kernels}


def setup_probes(workload: str, trace: bool) -> dict:
    """Fresh interpreters that import what the workload needs, then report.

    Set-up time runs from launch to the child's "ready" line; the median
    over SETUP_PROBES launches is reported, scaled by the median of the
    kernel times the probes measure (one probe's own kernel time is too
    noisy to scale its launch alone).
    """
    code = "".join(f"import {m}\n" for m in workloads.IMPORTS[workload])
    code += "import sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
    # after "ready", outside the timed span, the probe calibrates its own CPU
    code += f"sys.path.insert(0, {str(BENCH)!r})\nimport speed\nprint(speed.sample_ms())\n"
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", code]
    times, kernels, imports = [], [], []
    OUT.mkdir(exist_ok=True)
    for _ in range(SETUP_PROBES):
        # stderr goes to a file: -X importtime output can fill a pipe before "ready"
        with open(OUT / "probe_stderr.txt", "w+") as err_file:
            proc, t0 = spawn(argv, stdout=subprocess.PIPE, stderr=err_file, text=True)
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            kernel_ms = proc.stdout.readline()
            proc.stdout.read()
            proc.wait()
            err_file.seek(0)
            err = err_file.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        times.append(t1 - t0)
        kernels.append(float(kernel_ms))
        imports.append(importtime(err))
    raw = statistics.median(times)
    return {"setup_s": raw * speed.NOMINAL_MS / statistics.median(kernels), "raw_s": raw,
            "samples": times,
            "import_s": statistics.median(x["import_s"] for x in imports),
            "kernels_s": statistics.median(x["kernels_s"] for x in imports)}


def run_worker(workload, seed, seconds, trace, deadline) -> dict:
    """Drive worker.py: answer its requests for inputs until it reports."""
    job = {"workload": workload, "seconds": seconds, "trace": trace,
           "warmup": workloads.make_inputs(workload, seed, 1, 0, WARMUP_OPS),
           "census": workloads.census_inputs(workload, seed)}
    if trace:
        OUT.mkdir(exist_ok=True)
        job["spans_path"] = str(OUT / f"spans_{workload}.npz")
    proc, _ = spawn([sys.executable, str(BENCH / "worker.py")], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True)
    # a worker stuck inside one op sends nothing; kill it at the deadline
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    served = 0
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        for line in proc.stdout:
            if time.monotonic() > deadline:
                raise RuntimeError("worker overran the run deadline")
            if line.strip() == "more":
                batch = workloads.make_inputs(workload, seed, 0, served, BATCH)
                served += BATCH
                proc.stdin.write(json.dumps(batch) + "\n")
                proc.stdin.flush()
            elif line.startswith("{"):
                return json.loads(line)["result"]
        raise RuntimeError("worker exited without a result")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def check_cli(inp, rc, stdout):
    """(passed, digits, extra) for one CLI call; see ops.py for the tolerances."""
    if rc != inp["expect_rc"]:
        return False, None, {}
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False, None, {}
    if "schema_version" not in doc:
        return False, None, {}
    kind = inp["kind"]
    if kind == "eval":
        p = [complex(*x) for x in inp["params"]]
        params = types.SimpleNamespace(b1=p[0], b2=p[1], b3=p[2], omega=p[3], eta=p[4])
        worst = 0.0
        for r in doc["records"]:
            z, v, d1, d2 = (complex(r[k].replace("i", "j")) for k in ("z", "value", "d1", "d2"))
            worst = max(worst, ops._rel_residual(params, z, v, d1, d2))
        return worst < ops.SERIES_TOL, oracles.digits(worst), {}
    if kind.startswith("spectrum"):
        found = [complex(r["energy"].replace("i", "j")) for r in doc["records"]]
        return ops.check_levels(inp["levels"], found)
    if kind.startswith("verify"):
        # the suite's figures are its own checks, not errors the benchmark measured
        return bool(doc.get("passed")), None, {}
    return True, None, {}


# ``python -m dcheun.cli ARGS`` as runpy runs it, followed (outside the CLI's
# own work, after it exits) by a timing of the calibration kernel on the
# child's CPU, reported on stderr; the exit code is passed through.
CLI_CHILD = f"""import runpy, sys
try:
    runpy.run_module("dcheun.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
sys.path.insert(0, {str(BENCH)!r})
import speed
sys.stderr.write("\\ncalibration_ms %r\\n" % speed.sample_ms())
sys.exit(code)
"""


def run_cli_pass(seed, seconds, deadline, inputs=None, trace=False):
    """Closed-loop pass of cold CLI processes, one at a time."""
    records, consumed = [], []
    clock, i, queue = 0.0, 0, list(inputs or [])
    replay = inputs is not None
    while (i < len(queue)) if replay else (clock < seconds):
        if time.monotonic() > deadline:
            raise RuntimeError("CLI pass overran the run deadline")
        if not replay and i == len(queue):
            queue.extend(workloads.make_inputs("cli_cold", seed, 0, len(queue), BATCH))
        inp = queue[i]
        argv = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", CLI_CHILD, *inp["argv"]]
        proc, t0 = spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("CLI call overran the run deadline") from None
        t1 = time.perf_counter()
        clock += t1 - t0
        ok, dig, extra = check_cli(inp, proc.returncode, out)
        kernel = [float(line.split()[1]) for line in err.splitlines()
                  if line.startswith("calibration_ms ")]
        rec = {"label": inp["label"], "ms": (t1 - t0) * 1e3, "ok": ok, "digits": dig,
               "extra": extra, "kernel_ms": kernel[0] if kernel else None}
        if not ok:
            rec["error"] = f"exit {proc.returncode}: {err.strip()[-300:]}"
            # the CLI reports its own errors as JSON; a traceback is a crash
            rec["library_error"] = "Traceback" not in err
        if trace:
            imp = importtime(err)
            rec["import_s"], rec["kernels_s"] = imp["import_s"], imp["kernels_s"]
        records.append(rec)
        consumed.append(inp)
        i += 1
    # one child's kernel time is a ~2 ms sample and too noisy to scale its
    # op alone: every op is scaled by the pass's median kernel time
    cal = [r["kernel_ms"] for r in records if r["kernel_ms"] is not None]
    factor = speed.NOMINAL_MS / statistics.median(cal or [speed.NOMINAL_MS])
    for r in records:
        r["scaled_ms"] = r["ms"] * factor
    return {"records": records, "clock_s": clock,
            "scaled_s": sum(r["scaled_ms"] for r in records) / 1e3, "cache_hits": 0,
            "cache_misses": 0, "cache_present": False, "calibration_ms": cal}, consumed


def summarize(pass_result: dict) -> dict:
    recs = pass_result["records"]
    lat = sorted(r["scaled_ms"] for r in recs)
    n = len(lat)
    failed = [r for r in recs if not r["ok"]]
    errors: dict = {}
    for r in failed:
        key = r["label"] + ": " + r.get("error", "oracle check failed").split(":")[0]
        errors[key] = errors.get(key, 0) + 1
    digit_values = [r["digits"] for r in recs if r["digits"] is not None]
    passed_digits = [r["digits"] for r in recs if r["digits"] is not None and r["ok"]]
    by_label: dict = {}
    for r in recs:
        by_label.setdefault(r["label"], []).append(r["scaled_ms"])
    # mean op time of the mix when every category takes its median time:
    # one op category with rare, very slow cases cannot swing it
    typical_ms = sum(len(v) * statistics.median(v) for v in by_label.values()) / max(n, 1)
    levels = [r["extra"] for r in recs if r.get("extra") and "levels_ref" in r["extra"]]
    return {
        "attempted": n,
        "failed": len(failed),
        "succeeded": n - len(failed),
        "clock_s": pass_result["clock_s"],
        "typical_ms": typical_ms,
        "p50_ms": statistics.median(lat) if lat else None,
        "raw_p50_ms": statistics.median(r["ms"] for r in recs) if recs else None,
        # the 90th percentile needs ten samples beyond it
        "p90_ms": lat[math.ceil(0.9 * n) - 1] if n >= 100 else None,
        "digits_min": min(passed_digits) if passed_digits else None,
        "digits_min_all": min(digit_values) if digit_values else None,
        "errors": errors,
        "unexpected": [r["error"] for r in failed if r.get("error") and not r.get("library_error")],
        "levels_ref": sum(x["levels_ref"] for x in levels),
        "levels_found": sum(x["levels_found"] for x in levels),
        "spurious": sum(x["spurious"] for x in levels),
    }


def layer_figures(workload, summary, census, pass_result, res, setup, untraced_s) -> dict:
    layers = dict(res.get("layers") or {})
    span_s = layers.pop("trace.span_s", 0.0)
    clock = pass_result["clock_s"]
    lookups = pass_result["cache_hits"] + pass_result["cache_misses"]
    layers["specialfn.hyp_u.cache_hit_ratio"] = pass_result["cache_hits"] / lookups if lookups else 0.0
    # every measured spectrum op that misses a level fails; the census
    # holds the problems where levels go missing today
    layers["qes.level_recall"] = (census["levels_found"] / census["levels_ref"]
                                  if census["levels_ref"] else 0.0)
    layers["qes.spurious_levels"] = census["spurious"]
    layers["census.fail_frac"] = census["failed"] / max(census["attempted"], 1)
    recs = pass_result["records"]
    if workload == "cli_cold":
        layers["cli.import_s"] = statistics.median(r["import_s"] for r in recs)
        layers["cli.import.kernels_s"] = statistics.median(r["kernels_s"] for r in recs)
        layers["cli.command_s"] = statistics.median(r["ms"] / 1e3 - r["import_s"] for r in recs)
        # children are not traced: an op's time is its import plus its command
        accounted = sum(r["ms"] for r in recs) / 1e3
    else:
        layers["cli.import_s"] = setup["import_s"]
        layers["cli.import.kernels_s"] = setup["kernels_s"]
        layers["cli.command_s"] = 0.0
        # named layer self times + unnamed spans + benchmark code + time between ops
        accounted = sum(v for k, v in layers.items() if k.endswith(".self_s") and v) + (
            layers.get("trace.other_self_s", 0.0) + clock - span_s)
    # both passes ran the same inputs; compare their calibrated op times
    layers["trace.overhead_s"] = pass_result["scaled_s"] - untraced_s
    layers["trace.accounted_frac"] = accounted / clock if clock else 0.0
    return {name: layers.get(name, 0.0) for name in LAYER_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dcheun" / "__init__.py").is_file():
        print(f"error: no dcheun sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace)
    fp = fingerprint()
    setup = setup_probes(args.workload, trace)
    if args.workload == "cli_cold":
        pass_result, consumed = run_cli_pass(args.seed, args.seconds, deadline, trace=trace)
        untraced_s = pass_result["scaled_s"]
        if trace:
            untraced_s = run_cli_pass(args.seed, args.seconds, deadline,
                                      inputs=consumed)[0]["scaled_s"]
        res = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
        res["census"], _ = run_cli_pass(args.seed, 0, deadline,
                                        inputs=workloads.census_inputs("cli_cold", args.seed))
    else:
        res = run_worker(args.workload, args.seed, args.seconds, trace, deadline)
        pass_result = res["pass"]
        untraced_s = res.get("untraced_scaled_s", pass_result["scaled_s"])
    fp["loadavg_end"] = loadavg()
    loads = [x[0] for x in (fp["loadavg_start"], fp["loadavg_end"]) if x]
    fp["loaded"] = bool(loads) and max(loads) > (fp["nproc"] or 1)

    summary = summarize(pass_result)
    census = summarize(res["census"])
    e2e = {
        "setup_s": setup["setup_s"],
        "throughput_ops_s": (summary["succeeded"] / max(summary["attempted"], 1)
                             / (summary["typical_ms"] * 1e-3)),
        "latency_p50_ms": summary["p50_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "digits_min": summary["digits_min"] if summary["digits_min"] is not None else 0.0,
    }
    # the measured inputs are ones the library handles: any failure is wrong
    correct = summary["failed"] == 0 and not summary["unexpected"] and not census["unexpected"]
    if trace:
        metrics = layer_figures(args.workload, summary, census, pass_result, res, setup,
                                untraced_s)
        units = LAYER_UNITS
    else:
        metrics, units = e2e, E2E_UNITS

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if fp["loaded"]:
        print(f"WARNING: loaded machine (1-min load {max(loads):.2f} > nproc {fp['nproc']})")
    print(f"ops attempted {summary['attempted']}  failed {summary['failed']}  "
          f"fail_frac {summary['failed'] / max(summary['attempted'], 1):.4f}  "
          f"latency samples {summary['attempted']}")
    for key, count in sorted(summary["errors"].items()):
        print(f"  failure  {count:4d}  {key}")
    for err in summary["unexpected"][:5]:
        print(f"  UNEXPECTED  {err}")
    print(f"census of known defects (outside every metric): attempted {census['attempted']}  "
          f"failed {census['failed']}  fail_frac {census['failed'] / max(census['attempted'], 1):.4f}")
    for key, count in sorted(census["errors"].items()):
        print(f"  census failure  {count:4d}  {key}")
    for err in census["unexpected"][:5]:
        print(f"  census UNEXPECTED  {err}")
    cal = pass_result["calibration_ms"]
    if cal:
        print(f"calibration kernel ms: median {statistics.median(cal):.4f}  min {min(cal):.4f}  "
              f"max {max(cal):.4f}  ({len(cal)} samples; nominal {speed.NOMINAL_MS})")
    print(f"raw (unscaled): setup_s {setup['raw_s']:.6g} s  latency_p50_ms "
          f"{summary['raw_p50_ms']:.6g} ms  throughput (succeeded / clock) "
          f"{summary['succeeded'] / pass_result['clock_s']:.6g} 1/s")
    dmin = summary["digits_min_all"]
    print("digits_min over every returned value = " + ("none" if dmin is None else f"{dmin:.4f}"))
    p90 = summary["p90_ms"]
    print("latency_p90_ms = " + (f"{p90:.4f} ms" if p90 is not None else
                                 f"not reported ({summary['attempted']} samples, fewer than 10 beyond p90)"))
    print(f"setup samples s = {', '.join(f'{x:.4f}' for x in setup['samples'])}")
    if not trace:
        for name, value in e2e.items():
            print(f"{name} = {value:.6g} {E2E_UNITS[name]}")
    else:
        print(f"op time, calibrated: traced {pass_result['scaled_s']:.4f} s  untraced {untraced_s:.4f} s")
        if res.get("absent"):
            print("absent (reported as null): " + ", ".join(res["absent"]))
        for name, value in metrics.items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name} = {shown} {LAYER_UNITS[name]}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fp, "summary": summary, "census": census,
              "end_to_end": e2e, "metrics": metrics,
              "setup_samples_s": setup["samples"], "latency_p90_ms": p90,
              "calibration_ms": pass_result["calibration_ms"],
              "ops": [[r["label"], r["ms"], r["scaled_ms"], r["ok"]] for r in pass_result["records"]]}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
