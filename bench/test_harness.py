"""Tests of the benchmark's own arithmetic and bookkeeping.

    python -m pytest bench/ -q

Not part of tier-1 (``pytest.ini`` collects ``tests/`` only).  Nothing here
runs a workload; the checks are on the code every verdict rests on.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import run, spec, stats  # noqa: E402
from bench.tracing import SpanTracer, coverage_problems  # noqa: E402


# ----------------------------------------------------------------------
# Nearest-rank percentile (the PR 10 off-by-one class)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "values, q, expected",
    [
        (list(range(1, 101)), 0.99, 99),   # not 100: rank ceil(99) = 99
        (list(range(1, 101)), 0.50, 50),
        (list(range(1, 101)), 1.00, 100),
        (list(range(1, 102)), 0.99, 100),  # ceil(99.99) = 100 of 101
        ([1, 2, 3, 4], 0.50, 2),           # lower of the middle pair
        ([1, 2, 3, 4, 5], 0.50, 3),
        (list(range(1, 11)), 0.99, 10),    # too few samples: the maximum
        (list(range(1, 11)), 0.10, 1),
        ([7.5], 0.99, 7.5),
        ([5, 1, 4, 2, 3], 0.60, 3),        # unsorted input
    ],
)
def test_percentile_nearest_rank(values, q, expected):
    assert stats.percentile(values, q) == expected


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    for q in (0.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            stats.percentile([1, 2], q)


def test_quartile_spread_and_worsening():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [100, 102, 98, 101, 99, 103, 97, 100, 100, 100]
    assert 0.0 < stats.quartile_spread(values) < 0.05
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


# ----------------------------------------------------------------------
# Span bookkeeping
# ----------------------------------------------------------------------
def _scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_spans_subtract_child_time():
    # outer [0, 100] contains inner [10, 30] and inner [40, 45].
    tracer = SpanTracer(clock=_scripted_clock([0, 10, 30, 40, 45, 100]))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.total_ns("outer") == 100
    assert tracer.self_ns("outer") == 100 - 20 - 5
    assert tracer.total_ns("inner") == tracer.self_ns("inner") == 25
    # Self times partition the root span exactly.
    assert tracer.attributed_s() == pytest.approx(100 / 1e9)


def test_grandchild_time_is_charged_once():
    # a [0, 100] > b [10, 90] > c [20, 50]: a's self time excludes all of b,
    # b's excludes c; c's time must not be subtracted from a twice.
    tracer = SpanTracer(clock=_scripted_clock([0, 10, 20, 50, 90, 100]))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda: c())
    tracer.wrap("a", lambda: b())()
    assert tracer.self_ns("a") == 20
    assert tracer.self_ns("b") == 50
    assert tracer.self_ns("c") == 30


def test_span_records_parent_correlation_units_and_errors():
    tracer = SpanTracer(clock=_scripted_clock(range(0, 1000, 10)))
    tracer.corr = "agreement-7"

    def boom():
        raise KeyError("x")

    failing = tracer.wrap("failing", boom)
    sized = tracer.wrap("sized", lambda items: items, units=lambda a, r: len(r))
    owned = tracer.wrap("owned", lambda obj: None, corr=lambda obj: obj.general)

    def body():
        sized([1, 2, 3])
        owned(types.SimpleNamespace(general=("p", 4)))
        with pytest.raises(KeyError):
            failing()

    tracer.wrap("root", body)()
    assert tracer.units("sized") == 3
    assert tracer.errors("failing") == 1 and tracer.calls("failing") == 1
    assert not tracer._stack  # the raising span was popped
    by_name = {span[2]: span for span in tracer.spans}
    root_id = by_name["root"][0]
    assert by_name["root"][1] is None
    assert {by_name[n][1] for n in ("sized", "owned", "failing")} == {root_id}
    assert by_name["sized"][5] == "agreement-7"   # inherited from the parent
    assert by_name["owned"][5] == ("p", 4)        # its own slot id


def test_span_retention_is_capped_but_aggregates_are_not():
    tracer = SpanTracer(keep_spans=3)
    fn = tracer.wrap("f", lambda: None)
    for _ in range(10):
        fn()
    assert len(tracer.spans) == 3 and tracer.calls("f") == 10


def test_patch_restores_and_skips_missing_targets(capsys):
    import bench.stats as target

    tracer = SpanTracer()
    original = target.failed_share
    assert tracer.patch("x.failed_share", "bench.stats", None, "failed_share")
    assert target.failed_share is not original
    target.failed_share(1, 2)
    assert tracer.calls("x.failed_share") == 1
    assert not tracer.patch("x.gone", "bench.stats", None, "no_such_function")
    assert not tracer.patch("x.gone2", "bench.no_such_module", None, "f")
    assert tracer.skipped == ["x.gone", "x.gone2"]
    assert "not found" in capsys.readouterr().err
    tracer.uninstall()
    assert target.failed_share is original


def test_coverage_flags_silent_wrappers_and_count_mismatches():
    tracer = SpanTracer()
    # Nothing installed, nothing called: every must-fire wrapper is silent.
    silent = coverage_problems(tracer, "sim", {})
    assert any("never called" in p for p in silent)
    for name in ("sim.engine.run_until", "net.network.broadcast"):
        assert any(p.startswith(name) for p in silent)
    # A skipped (vanished) target is not reported as silent.
    tracer.skipped.append("sim.engine.run_until")
    assert not any(
        p.startswith("sim.engine.run_until")
        for p in coverage_problems(tracer, "sim", {})
    )
    mismatch = coverage_problems(tracer, "sim", {"copies sent": (10, 12)})
    assert "copies sent: wrappers saw 10, program counted 12" in mismatch
    assert not any(
        "copies sent" in p
        for p in coverage_problems(tracer, "sim", {"copies sent": (12, 12)})
    )


# ----------------------------------------------------------------------
# failed_share accounting
# ----------------------------------------------------------------------
def test_failed_commands_clean_short_timed_out_divergent():
    # clean: everything applied everywhere
    assert stats.failed_commands(20_000, [20_000] * 4, True) == 0
    # short: the run ended with commands never applied anywhere
    assert stats.failed_commands(20_000, [19_500] * 4, True) == 500
    # timed out: the respawned replica never caught up; it sets the count
    assert stats.failed_commands(20_000, [20_000, 20_000, 11_823, 20_000], True) == 8_177
    # divergent logs vouch for nothing
    assert stats.failed_commands(20_000, [20_000] * 4, False) == 20_000
    # no replica reported at all
    assert stats.failed_commands(20_000, [], True) == 20_000
    # a replica ahead of the submitted count cannot make the number negative
    assert stats.failed_commands(10, [12, 12], True) == 0
    with pytest.raises(ValueError):
        stats.failed_commands(-1, [0], True)


def test_failed_share():
    assert stats.failed_share(0, 100) == 0.0
    assert stats.failed_share(8_177, 20_000) == pytest.approx(0.40885)
    assert stats.failed_share(0, 0) == 1.0  # nothing attempted is not a pass


def test_a_run_that_returned_nothing_fails_its_whole_schedule():
    empty = {"metrics": {}, "attempted": 0, "failed": 0, "info": {},
             "problems": ["measure phase exceeded its 50s timeout"], "machine": {}}
    result = run.finish("svc_asyncio_hot", 0, 15.0, dict(empty))
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == round(
        spec.OFFERED_RATE["svc_asyncio_hot"] * 15.0
    )
    result = run.finish("sim_agree", 0, 15.0, dict(empty))
    assert result["attempted"] == result["failed"] == 1


def test_finish_checks_the_metric_set():
    full = {name: 1.0 for name in spec.END_TO_END}
    record = {"metrics": dict(full), "attempted": 10, "failed": 0, "info": {},
              "problems": [], "machine": {}}
    result = run.finish("sim_agree", 0, 15.0, record)
    assert result["correct"]
    assert result["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    record["metrics"].pop("commit_p99_ms")
    record["metrics"]["made_up"] = 2.0
    result = run.finish("sim_agree", 0, 15.0, record)
    assert not result["correct"]
    assert any("missing" in p and "commit_p99_ms" in p for p in result["problems"])
    assert any("not in BENCHMARK.json" in p for p in result["problems"])


# ----------------------------------------------------------------------
# Two sets of the same code
# ----------------------------------------------------------------------
def _result(workload, **metrics):
    values = {name: 100.0 for name in spec.END_TO_END}
    values.update(metrics)
    return {
        "workload": workload,
        "metrics": {n: {"value": v, "unit": spec.END_TO_END[n]["unit"]}
                    for n, v in values.items()},
        "info": {"msgs_per_agreement": 72_102.5},
        "problems": [],
    }


def test_compare_sets_bounds_and_exact_metrics(capsys):
    bound = spec.END_TO_END["cpu_us_per_cmd"]["bound"]
    inside = 100.0 * (1 + bound * 0.9)
    outside = 100.0 * (1 + bound * 1.5)
    assert not run.compare_sets(
        [_result("svc_asyncio_hot")], [_result("svc_asyncio_hot", cpu_us_per_cmd=inside)]
    )
    complaints = run.compare_sets(
        [_result("svc_asyncio_hot")], [_result("svc_asyncio_hot", cpu_us_per_cmd=outside)]
    )
    assert len(complaints) == 1 and "cpu_us_per_cmd" in complaints[0]
    # The same gap in the other direction is caught too.
    assert run.compare_sets(
        [_result("svc_asyncio_hot", cpu_us_per_cmd=outside)], [_result("svc_asyncio_hot")]
    )
    # Simulated-time metrics must repeat exactly on sim_*, however small the gap.
    complaints = run.compare_sets(
        [_result("sim_agree")], [_result("sim_agree", decide_mean_d=100.0000001)]
    )
    assert complaints and "(exact)" in complaints[0]
    other = _result("sim_agree")
    other["info"]["msgs_per_agreement"] = 72_103.0
    assert any("msgs_per_agreement" in c
               for c in run.compare_sets([_result("sim_agree")], [other]))
    capsys.readouterr()


# ----------------------------------------------------------------------
# Names and BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed_and_unique():
    names = list(spec.WORKLOADS) + list(spec.END_TO_END) + list(spec.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for table in (spec.END_TO_END, spec.PER_LAYER):
        for meta in table.values():
            assert UNIT.match(meta["unit"]), meta
            assert meta["better"] in ("lower", "higher")


def test_benchmark_json_meets_the_contract():
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    doc = json.loads(path.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = spec.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # All runs, with set-up, must fit the driver's budget.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) <= 3420


def test_runner_and_benchmark_json_name_the_same_things():
    assert list(spec.WORKLOADS) == [
        "sim_agree", "sim_adversary", "svc_asyncio_hot", "svc_asyncio_fastnet",
        "svc_socket_kill",
    ]
    assert set(spec.OFFERED_RATE) == {w for w in spec.WORKLOADS if w.startswith("svc_")}
    assert set(spec.EXACT_ON_SIM) <= set(spec.END_TO_END)
    from bench import workloads

    assert set(workloads.zero_layers()) == set(spec.PER_LAYER)
    assert set(workloads.INJECTED_DELAY) == set(spec.OFFERED_RATE)
    assert set(workloads.REF_CYCLES) == {w for w in spec.WORKLOADS if w.startswith("sim_")}
