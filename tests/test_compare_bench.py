"""tools/compare_bench.py stops on a benchmark run it cannot read, and says which run and why; it marks
a metric unresolved when its runs spread wider than its bound, and reads the per-layer runs of
tools/branch_layers.py by position."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_bench.py"
BRANCH_LAYERS = TOOL.parent / "branch_layers.py"


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(code):
    return [sys.executable, "-c", code]


def test_run_json_reads_the_last_line(compare_bench, tmp_path):
    argv = _child("print('warming up'); print('{\"attempted\": 3}')")
    assert compare_bench.run_json(argv, tmp_path) == {"attempted": 3}


def test_a_failed_run_exits_non_zero_with_its_argv_checkout_and_stderr_tail(compare_bench, tmp_path):
    code = "import sys; print('{}'); [print('line', i, file=sys.stderr) for i in range(30)]; sys.exit(3)"
    argv = _child(code)
    with pytest.raises(SystemExit) as stop:
        compare_bench.run_json(argv, tmp_path)
    message = str(stop.value.code)
    assert stop.value.code != 0 and "exited 3" in message
    assert repr(argv) in message and str(tmp_path) in message
    assert "line 29" in message and "line 10" in message and "line 9\n" not in message


@pytest.mark.parametrize("stdout", ["", "not json"], ids=["empty", "not-json"])
def test_a_run_without_a_json_last_line_exits_non_zero_with_its_stderr(compare_bench, tmp_path, stdout):
    argv = _child(f"import sys; print({stdout!r}); print('the traceback', file=sys.stderr)")
    with pytest.raises(SystemExit) as stop:
        compare_bench.run_json(argv, tmp_path)
    message = str(stop.value.code)
    assert "printed no JSON last line" in message
    assert repr(argv) in message and str(tmp_path) in message and "the traceback" in message


OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}
LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15}


def test_a_metric_whose_runs_spread_within_the_bound_is_resolved(compare_bench):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    change = [98.0, 99.0, 97.0, 98.5, 97.5, 98.0, 99.0, 97.0, 98.0, 98.0]
    result = compare_bench.compare_metric(OPS, parent, change)
    assert not result["unresolved"] and not result["beyond_bound"] and not result["gain_resolved"]
    assert result["change_over_parent"] == 0.98


@pytest.mark.parametrize("metric", [OPS, LATENCY], ids=["higher", "lower"])
def test_a_metric_whose_runs_spread_past_the_bound_is_unresolved(compare_bench, metric):
    # the parent's quartiles span 60..140 around a median of 100: 0.8 > 0.15
    parent = [60.0, 140.0, 60.0, 140.0, 100.0, 100.0, 60.0, 140.0, 100.0, 100.0]
    change = [95.0, 105.0, 97.0, 103.0, 100.0, 99.0, 101.0, 98.0, 102.0, 100.0]
    assert compare_bench.compare_metric(metric, parent, change)["unresolved"]
    assert compare_bench.compare_metric(metric, change, parent)["unresolved"]


@pytest.mark.parametrize("metric", [OPS, LATENCY], ids=["higher", "lower"])
def test_a_wide_metric_is_resolved_when_every_change_run_beats_every_parent_run(compare_bench, metric):
    low = [10.0, 14.0, 10.0, 14.0, 12.0, 12.0, 10.0, 14.0, 12.0, 12.0]
    high = [100.0, 140.0, 100.0, 140.0, 120.0, 120.0, 100.0, 140.0, 120.0, 120.0]
    parent, change = (low, high) if metric["better"] == "higher" else (high, low)
    result = compare_bench.compare_metric(metric, parent, change)
    assert not result["unresolved"] and not result["beyond_bound"] and result["gain_resolved"]
    assert compare_bench.compare_metric(metric, change, parent)["unresolved"]


def layer_report(us: float) -> dict:
    return {"ghz.n8": {"cold_table": {"median": us, "q1": us, "q3": us}}}


def test_per_layer_runs_are_read_by_position_parent_first(compare_bench):
    runs = [[layer_report(100.0), layer_report(80.0)], [layer_report(120.0), layer_report(90.0)],
            [layer_report(110.0), layer_report(70.0)]]
    assert compare_bench.compare_layers(runs) == {
        "ghz.cold_table.n8.us": {"parent": 110.0, "change": 80.0, "change_over_parent": 80.0 / 110.0}
    }


def test_one_source_given_twice_is_timed_as_two_series(compare_bench):
    # keyed by path, ``src src`` would merge both packages' samples into one entry and compare it with itself
    src = str(TOOL.parents[1] / "src")
    report = compare_bench.run_json([sys.executable, str(BRANCH_LAYERS), src, src, "--states", "1"], TOOL.parent)
    assert isinstance(report, list) and len(report) == 2 and report[0].keys() == report[1].keys()
    per_layer = compare_bench.compare_layers([report])
    for side, key in enumerate(("parent", "change")):
        assert per_layer["ghz.cold_table.n8.us"][key] == report[side]["ghz.n8"]["cold_table"]["median"]
        assert per_layer["auth.session.decoy.n3.us"][key] == report[side]["auth.decoy.n3"]["session"]["median"]
