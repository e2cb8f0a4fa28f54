"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(WORKLOADS)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Per workload: the traced run's result and its spans."""
    out = {}
    for name in NAMES:
        proc = _run(name, 1)
        result = _result(proc)
        info = json.loads(proc.stdout.splitlines()[-2])
        spans = [Span(**s) for s in json.loads(Path(info["spans"]).read_text())]
        out[name] = (result, spans, info)
    return out


def _assert_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec_metrics}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _result(_run(workload, 0))
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics_printed_with_units(traced, workload):
    result, _, info = traced[workload]
    _assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["trace.iterations"]["value"] >= 3
    # traced and untraced iterations alternate
    assert len(info["untraced_iter_s_all"]) - len(info["traced_iter_s_all"]) in (0, 1)


@pytest.mark.parametrize("workload", NAMES)
def test_spans_nest(traced, workload):
    _, spans, _ = traced[workload]
    by_id = {s.id: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s.start <= s.end
        if s.parent is None:
            assert s.name == "bench.iteration"
            continue
        parent = by_id[s.parent]
        assert parent.start <= s.start and s.end <= parent.end, (s, parent)
        assert s.iteration == parent.iteration


@pytest.mark.parametrize("workload", NAMES)
def test_self_times_sum_to_iteration_wall_time(traced, workload):
    result, spans, _ = traced[workload]
    own = self_times(spans)
    assert min(own.values()) >= 0.0
    for root in (s for s in spans if s.parent is None):
        total = sum(own[s.id] for s in spans if s.iteration == root.iteration)
        assert total == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)
    assert result["metrics"]["trace.accounted_frac"]["value"] == pytest.approx(1.0)


def test_self_time_arithmetic():
    spans = [Span(0, "bench.iteration", 0.0, 10.0, None, 0),
             Span(1, "cli.analyze", 1.0, 9.0, 0, 0),
             Span(2, "quality.variation_stats", 2.0, 8.0, 1, 0),
             Span(3, "powercalib.calibrate", 2.0, 3.0, 2, 0),
             Span(4, "phase.differential_series", 4.0, 6.0, 2, 0)]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}
    m = layer_metrics(spans, [])
    assert m["quality.variation_stats_s"] == 3.0
    assert m["cli.self_s"] == 2.0 and m["cli.analyze_s"] == 8.0
    assert m["trace.accounted_frac"] == 1.0
    assert layer_metrics(spans, ["ingest.parse_text_s"])["ingest.parse_text_s"] == 0.0


def test_overlapping_children_count_once():
    spans = [Span(0, "bench.iteration", 0.0, 10.0, None, 0),
             Span(1, "cli.parse", 1.0, 6.0, 0, 0),
             Span(2, "cli.parse", 4.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_install_fails_when_a_traced_name_is_gone(monkeypatch):
    import csicalib.cli  # noqa: F401
    import csicalib.ingest
    import tracer

    monkeypatch.setitem(tracer.TRACED, "no_such_function", ("ingest.none", None))
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.Tracer().install()
    assert not hasattr(csicalib.ingest.parse_text_trace, "traced_span")


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        WORKLOADS["codec_mixed"](work, seed, tiny=True).setup()
        return (work / "input.bin").read_bytes()

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "c") != inputs(6, "d")


def test_output_check_catches_a_wrong_round_trip(tmp_path):
    from csicalib import cli

    workload = WORKLOADS["codec_mixed"](tmp_path, 1, tiny=True)
    workload.setup()
    assert [cli.main(argv) for argv in workload.commands()] == [0, 0]
    assert workload.check() == []
    out = tmp_path / "roundtrip.bin"
    out.write_bytes(out.read_bytes()[:-1] + b"\x00")
    assert workload.check() != []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("capture_analysis", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
