"""How main ends a run: only a run as the program freezes the collector."""

import gc

from csicalib import SimConfig, simulate_capture, write_text_trace
from csicalib.cli import main


def test_only_a_run_as_the_program_freezes_the_collector(tmp_path, monkeypatch):
    trace = tmp_path / "trace.txt"
    trace.write_text(write_text_trace(simulate_capture(SimConfig(n_packets=20, seed=0))))
    argv = ["calibrate", "--in", str(trace), "--out", str(tmp_path / "cal")]
    frozen = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr("sys.argv", ["csicalib", *argv])
    try:
        assert main() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
