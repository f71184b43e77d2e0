"""Benchmark-side spans around calls into the dcheun layers.

``Tracer.install`` rebinds each traced function object wherever a
``dcheun.*`` module namespace holds it (found by identity), so calls made
through any module's globals are seen; ``uninstall`` restores the
originals.  A span records (name, start, end, parent, op id) into flat
arrays kept in memory; ``layer_metrics`` turns them into per-layer
figures after the run.  A target the library no longer has is recorded
as absent, and its metrics are reported as None.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (home module, attribute, span name): several functions may share a name
SPAN_TARGETS = (
    ("dcheun.specialfn", "hyp_u", "specialfn.hyp_u"),
    ("dcheun.solutions", "evaluate", "solutions.evaluate"),
    ("dcheun.solutions", "build_pair_power", "solutions.build"),
    ("dcheun.solutions", "build_pair_coulomb", "solutions.build"),
    ("dcheun.solutions", "build_pair_coulomb_nu", "solutions.build"),
    ("dcheun.solutions", "r3_family", "solutions.build"),
    ("dcheun.recurrence", "char_value", "recurrence.char_value"),
    ("dcheun.recurrence", "char_root", "recurrence.char_root"),
    ("dcheun.recurrence", "generate", "recurrence.generate"),
    ("dcheun.recurrence", "generate_minimal", "recurrence.generate"),
    ("dcheun.recurrence", "generate_two_sided", "recurrence.generate"),
    ("dcheun.recurrence", "tridiag_eigen", "recurrence.tridiag_eigen"),
    ("dcheun.qes", "qes_spectrum", "qes.spectrum"),
    ("dcheun.qes", "infinite_spectrum", "qes.spectrum"),
    ("dcheun.qes", "eigenfunction", "qes.eigenfunction"),
    ("dcheun.qes", "schrodinger_residual", "qes.schrodinger_residual"),
    ("dcheun.kernels", "contour_quad", "kernels.contour_quad"),
    ("dcheun.kernels", "quad", "kernels.quad"),
    ("dcheun.kernels", "verify_adjoint", "kernels.verify_adjoint"),
    ("dcheun.kernels", "verify_transform", "kernels.verify_transform"),
    ("dcheun.kernels", "verify_boundary_terms", "kernels.verify_boundary_terms"),
)
OP_SPAN = "bench.op"
MPMATH_SPAN = "specialfn.mpmath"


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the part of a span that
    its children cover is the sum of their durations.
    """
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    par = np.asarray(parents, dtype=np.int64)
    has = par >= 0
    covered = np.bincount(par[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def under(names, parents, ancestor_ids) -> np.ndarray:
    """Boolean mask: the span has an ancestor whose name id is in ``ancestor_ids``."""
    names = np.asarray(names, dtype=np.int64)
    par = np.asarray(parents, dtype=np.int64)
    hit = np.zeros(len(names), dtype=bool)
    cur = par.copy()
    while True:
        live = cur >= 0
        if not live.any():
            return hit
        hit[live] |= np.isin(names[cur[live]], list(ancestor_ids))
        cur[live] = par[cur[live]]


def rebind(original, replacement) -> list:
    """Point every dcheun.* module attribute that is ``original`` at ``replacement``.

    Returns (module, attribute, original) triples for undoing the change.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dcheun" or mod_name.startswith("dcheun.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict = {}
        self.absent: list = []
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, observe=None):
        """A wrapper that records one span per call of ``fn``."""
        nid = self.name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if observe is not None:
                    observe(None, exc)
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if observe is not None:
                observe(result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, wrapper) -> None:
        self._undo.extend(rebind(original, wrapper))

    def install(self) -> None:
        for home, attr, name in SPAN_TARGETS:
            mod = sys.modules.get(home)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.absent.append(f"{home}.{attr}")
                continue
            self._rebind(original, self.wrap(original, name, self._observer(name)))
        core = sys.modules.get("dcheun.core")
        apply_rule = getattr(core, "apply_rule", None)
        if apply_rule is None:
            self.absent.append("dcheun.core.apply_rule")
        else:
            def counted_apply_rule(*args, **kwargs):
                self.count("core.apply_rule.calls")
                return apply_rule(*args, **kwargs)
            self._rebind(apply_rule, counted_apply_rule)
        params = getattr(core, "DcheParams", None)
        post_init = getattr(params, "__post_init__", None)
        if post_init is None:
            self.absent.append("dcheun.core.DcheParams.__post_init__")
        else:
            def counted_post_init(obj):
                self.count("core.params.constructions")
                post_init(obj)
            params.__post_init__ = counted_post_init
            self._undo.append((params, "__post_init__", post_init))
        mpmath = sys.modules.get("mpmath")
        if mpmath is not None:
            self._undo.append((mpmath, "hyperu", mpmath.hyperu))
            mpmath.hyperu = self.wrap(mpmath.hyperu, MPMATH_SPAN)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def _observer(self, name: str):
        if name == "recurrence.char_root":
            def observe(result, exc):
                if exc is None:
                    self.count("recurrence.char_root.iterations", result.iterations)
                elif isinstance(exc, Exception):
                    self.count("recurrence.char_root.failures")
            return observe
        if name == "qes.eigenfunction":
            def observe(result, exc):
                if type(exc).__name__ == "MatchFailure":
                    self.count("qes.eigenfunction.match_failures")
            return observe
        return None

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; returns its index for ``end_op``."""
        self.op_id = op_id
        idx = len(self.start)
        self.name.append(self.name_id(OP_SPAN))
        self.parent.append(-1)
        self.op.append(op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def end_op(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.op_id = -1

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# per-layer metric -> (span name, statistic) for the plain span figures
SPAN_METRICS = {
    "specialfn.hyp_u.calls": ("specialfn.hyp_u", "calls"),
    "specialfn.hyp_u.self_s": ("specialfn.hyp_u", "self_s"),
    "specialfn.mpmath.calls": (MPMATH_SPAN, "calls"),
    "specialfn.mpmath.self_s": (MPMATH_SPAN, "self_s"),
    "solutions.evaluate.calls": ("solutions.evaluate", "calls"),
    "solutions.evaluate.self_s": ("solutions.evaluate", "self_s"),
    "solutions.build.self_s": ("solutions.build", "self_s"),
    "recurrence.char_value.calls": ("recurrence.char_value", "calls"),
    "recurrence.char_value.self_s": ("recurrence.char_value", "self_s"),
    "recurrence.char_root.calls": ("recurrence.char_root", "calls"),
    "recurrence.char_root.self_s": ("recurrence.char_root", "self_s"),
    "recurrence.generate.calls": ("recurrence.generate", "calls"),
    "recurrence.generate.self_s": ("recurrence.generate", "self_s"),
    "recurrence.tridiag_eigen.self_s": ("recurrence.tridiag_eigen", "self_s"),
    "qes.spectrum.self_s": ("qes.spectrum", "self_s"),
    "qes.eigenfunction.calls": ("qes.eigenfunction", "calls"),
    "qes.eigenfunction.self_s": ("qes.eigenfunction", "self_s"),
    "kernels.contour_quad.calls": ("kernels.contour_quad", "calls"),
    "kernels.contour_quad.self_s": ("kernels.contour_quad", "self_s"),
    "kernels.verify_adjoint.self_s": ("kernels.verify_adjoint", "self_s"),
}
COUNT_METRICS = (
    "recurrence.char_root.iterations", "recurrence.char_root.failures",
    "qes.eigenfunction.match_failures", "core.params.constructions",
    "core.apply_rule.calls",
)
# function whose absence makes a metric absent
_SOURCE = {
    "recurrence.char_root.iterations": "dcheun.recurrence.char_root",
    "recurrence.char_root.failures": "dcheun.recurrence.char_root",
    "qes.eigenfunction.match_failures": "dcheun.qes.eigenfunction",
    "core.params.constructions": "dcheun.core.DcheParams.__post_init__",
    "core.apply_rule.calls": "dcheun.core.apply_rule",
    "solutions.build.calls": "dcheun.solutions.build_pair_power",
    "solutions.u_calls_per_eval": "dcheun.solutions.evaluate",
    "kernels.integrand_u_calls": "dcheun.kernels.contour_quad",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans and counters.

    Also returns ``bench.self_s`` (self time of the op root spans: the
    benchmark's own code plus untraced library code called directly from
    it), ``trace.other_self_s`` (self time of traced spans that no named
    metric reports, such as scipy quad's own work) and ``trace.span_s``
    (the summed root-span durations), so that the self times can be
    checked to account for the traced time.
    """
    names = np.frombuffer(tracer.name, np.int32).astype(np.int64)
    parents = np.frombuffer(tracer.parent, np.int32).astype(np.int64)
    starts, ends = np.frombuffer(tracer.start), np.frombuffer(tracer.end)
    own = self_times(starts, ends, parents)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def select(name):
        return names == ids[name] if name in ids else np.zeros(len(names), bool)

    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        mask = select(span)
        out[metric] = int(mask.sum()) if stat == "calls" else float(own[mask].sum())
    for key in COUNT_METRICS:
        out[key] = tracer.counts.get(key, 0)
    build = select("solutions.build")
    out["solutions.build.calls"] = int((build & ~under(names, parents, {ids.get("solutions.build", -2)})).sum())
    u, ev = select("specialfn.hyp_u"), select("solutions.evaluate")
    in_eval = under(names, parents, {ids.get("solutions.evaluate", -2)})
    out["solutions.u_calls_per_eval"] = float((u & in_eval).sum()) / max(int(ev.sum()), 1)
    in_quad = under(names, parents, {ids.get("kernels.contour_quad", -2)})
    out["kernels.integrand_u_calls"] = int(((u & ~in_eval) | ev)[in_quad].sum())
    calls = out["specialfn.hyp_u.calls"]
    out["specialfn.mpmath_ratio"] = out["specialfn.mpmath.calls"] / max(calls, 1)
    root = select(OP_SPAN)
    reported = {span for span, stat in SPAN_METRICS.values() if stat == "self_s"} | {OP_SPAN}
    other = ~np.isin(names, [ids[n] for n in reported if n in ids])
    out["trace.other_self_s"] = float(own[other].sum())
    out["bench.self_s"] = float(own[root].sum())
    out["trace.span_s"] = float((ends - starts)[root].sum())
    absent = set(tracer.absent)
    for metric in out:
        src = _SOURCE.get(metric)
        span = SPAN_METRICS.get(metric, (None,))[0]
        homes = {f"{h}.{a}" for h, a, n in SPAN_TARGETS if n == span}
        if (src in absent) or (homes and homes <= absent):
            out[metric] = None
    return out
