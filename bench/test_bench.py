"""Tests of the benchmark itself: seeded inputs, live checks, span arithmetic."""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_differs(workload):
    first = workloads.make_inputs(workload, 5, 0, 0, 8)
    assert workloads.make_inputs(workload, 5, 0, 0, 8) == first
    # batching does not change input i
    assert workloads.make_inputs(workload, 5, 0, 3, 5) == first[3:]
    assert workloads.make_inputs(workload, 6, 0, 0, 8) != first
    # the warm-up stream never repeats a measured input
    assert not any(x in first for x in workloads.make_inputs(workload, 5, 1, 0, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_census_is_seeded_and_labelled(workload):
    census = workloads.census_inputs(workload, 5)
    assert census == workloads.census_inputs(workload, 5)
    assert census != workloads.census_inputs(workload, 6)
    assert [x["label"] for x in census] == list(workloads.CENSUS[workload])


def test_u_fault_raises_series_eval_fail_frac():
    """Perturbing U by a relative 1e-6 must make the residual checks fail.

    A constant factor would scale every term alike and leave each member
    a solution, so the factor varies with U's first parameter, which
    steps along the series ladder.
    """
    wl = ops.load("series_eval")
    inputs = workloads.make_inputs("series_eval", 3, 0, 0, 12)  # one cycle of families
    original = sys.modules["dcheun.specialfn"].hyp_u

    def faulty_u(a, b, z):
        return original(a, b, z) * (1 + 1e-6 * complex(a).real)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clean, _ = worker.run_pass(wl, 0, inputs=inputs)
        undo = spans.rebind(original, faulty_u)
        try:
            faulted, _ = worker.run_pass(wl, 0, inputs=inputs)
        finally:
            spans.restore(undo)

    def fail_frac(p):
        return sum(not r["ok"] for r in p["records"]) / len(p["records"])

    assert fail_frac(faulted) > fail_frac(clean) + 0.25


def test_self_time_arithmetic_on_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = spans.self_times(starts, ends, parents)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == ends[0] - starts[0]
    names = [0, 1, 2, 1]
    assert spans.under(names, parents, {1}).tolist() == [False, False, True, False]
    assert spans.under(names, parents, {0}).tolist() == [False, True, True, True]


def test_tracer_nests_spans_and_accounts_for_time():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    leaf_w = tracer.wrap(leaf, "leaf")

    def mid():
        return leaf_w() + leaf_w()

    mid_w = tracer.wrap(mid, "mid")
    root = tracer.begin_op(0)
    mid_w()
    leaf_w()
    tracer.end_op(root)
    parents = np.frombuffer(tracer.parent, np.int32).tolist()
    assert parents == [-1, 0, 1, 1, 0]
    own = spans.self_times(tracer.start, tracer.end, parents)
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     dcheun.errors",
        "import time:       200 |     500000 |   dcheun.kernels",
        "import time:       300 |     900000 | dcheun",
        "import time:        20 |         20 | dcheun.cli",
        "import time:        10 |         10 | json",
    ])
    got = run.importtime(text)
    assert got["import_s"] == pytest.approx(0.90002)
    assert got["kernels_s"] == pytest.approx(0.5)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
