"""tools/compare_bench.py stops on a benchmark run it cannot read, and says which run and why."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_bench.py"


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
