"""A simulated Capture against the list of its records.

simulate_capture returns a Capture: the simulator's arrays as columns.  The
analysis reads a Capture as one block of column views and a list of
records in stacks of at most _STACK_RECORDS, so the same capture goes
through both paths.  Every value computed per record must be the same
bits either way; so must the row views, against the per-packet reference
simulator.
"""

import dataclasses

import numpy as np
import pytest

from csicalib import (
    SimConfig,
    calibrate,
    check_ratio_consistency,
    differential_series,
    simulate_capture,
    variation_stats,
)
from csicalib.errors import AbsentPort
from csicalib.ingest import _STACK_RECORDS, Capture, capture_blocks, common_n_rx, layout_runs
from csicalib.powercalib import canonical_pairs

from conftest import REALISTIC_DISTORTION, random_record
from test_chipsim_reference import CASES, _assert_identical, _ref_simulate_capture

N_PACKETS = _STACK_RECORDS + 44  # the list path reads two stacks

ATTENUATIONS = {1: (30.0,), 2: (30.0, 44.0), 3: (33.0, 30.0, 36.0)}


def _simulated(n_rx, quantize):
    config = SimConfig(attenuation_db=ATTENUATIONS[n_rx], n_packets=N_PACKETS, seed=n_rx,
                       quantize=quantize)
    return simulate_capture(config, REALISTIC_DISTORTION)


def _with_no_readings(capture):
    """The capture with absent ports, a record with none, and zero-CSI rows."""
    n_rx = capture.csi.shape[2]
    rssi = capture.rssi.copy()
    rssi[[3, 260], n_rx - 1] = 0
    rssi[8, :] = 0
    csi = capture.csi.copy()
    csi[5, :, 0, :] = 0
    csi[[11, 270], :, :, :] = 0
    return dataclasses.replace(capture, rssi=rssi, csi=csi)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_bits(a, b):
    """Dataclass results (or lists of them) equal field by field, bit for bit."""
    if isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_bits(x, y)
        return
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape, f.name
            assert _bits(x) == _bits(y), f.name
        elif isinstance(x, tuple) and x and isinstance(x[0], float):
            assert _bits(x) == _bits(y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("n_rx", [1, 2, 3])
@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("no_readings", [False, True], ids=["plain", "no_readings"])
def test_capture_analyses_like_its_records(n_rx, quantize, no_readings, consts):
    capture = _simulated(n_rx, quantize)
    if no_readings:
        capture = _with_no_readings(capture)
    records = list(capture)
    assert isinstance(capture, Capture) and len(records) == N_PACKETS
    assert len(list(capture_blocks(records))) == 2

    _assert_same_bits(calibrate(capture, consts), calibrate(records, consts))
    _assert_same_bits(check_ratio_consistency(capture), check_ratio_consistency(records))
    pairs = canonical_pairs(n_rx)
    _assert_same_bits(differential_series(capture, pairs), differential_series(records, pairs))
    _assert_same_bits(variation_stats(capture, consts), variation_stats(records, consts))
    if no_readings:
        frame = calibrate(capture, consts)
        assert np.isnan(frame.amplitude_dbm[[8, 11]]).all()
        assert np.isnan(frame.port_power_dbm[3, n_rx - 1])


def test_a_pair_past_n_rx_raises_alike():
    capture = _simulated(2, True)
    for records in (capture, list(capture)):
        with pytest.raises(AbsentPort, match="port 3 absent"):
            differential_series(records, (2, 0))


@pytest.mark.parametrize("case", ["jitter", "unquantized_no_jitter", "n_rx_1", "one_packet"])
def test_rows_are_the_reference_records(case):
    config, distortion = CASES[case]
    capture = simulate_capture(config, distortion)
    ref = _ref_simulate_capture(config, distortion)
    assert isinstance(capture, Capture) and len(capture) == len(ref)
    assert list(capture) == ref
    _assert_identical([capture[t] for t in range(len(capture))], ref)
    _assert_identical([capture[-1], capture[0]], [ref[-1], ref[0]])
    with pytest.raises(IndexError):
        capture[len(capture)]
    with pytest.raises(IndexError):
        capture[-len(capture) - 1]


def test_rows_validate_and_hold_python_ints():
    config, distortion = CASES["jitter"]
    capture = simulate_capture(config, distortion)
    for t in (0, 1, len(capture) - 1):
        record = capture[t]
        record.validate()
        values = [record.timestamp_low, record.bfee_count, record.n_rx, record.n_tx,
                  record.noise, record.agc, record.rate_flags,
                  *record.rssi, *record.antenna_perm]
        assert all(type(v) is int for v in values)
        assert np.shares_memory(record.csi, capture.csi)


def test_unquantized_rows_pad_absent_ports_with_int_zero():
    config, distortion = CASES["unquantized_no_jitter"]
    capture = simulate_capture(config, distortion)
    assert capture.rssi.dtype == np.float64
    for record in capture:
        assert [type(v) for v in record.rssi] == [float, float, int]


def test_slice_is_a_capture_of_views():
    capture = _simulated(3, True)
    part = capture[10:50:3]
    assert isinstance(part, Capture)
    assert list(part) == list(capture)[10:50:3]
    assert np.shares_memory(part.csi, capture.csi)
    assert len(capture[5:5]) == 0 and list(capture[5:5]) == []


def test_layout_runs_and_common_n_rx_of_a_capture():
    capture = _simulated(2, True)
    assert layout_runs(capture) == [slice(0, N_PACKETS)]
    assert layout_runs(capture[3:3]) == []
    assert common_n_rx(capture) == 2


def test_blocks_of_a_list_stack_each_layout_run():
    rng = np.random.default_rng(5)
    records = []
    while len(records) < 3 * _STACK_RECORDS:
        records += [random_record(rng)] * int(rng.integers(1, 200))
    parts = []
    for part, rssi, agc, csi in capture_blocks(records, "rssi", "agc", "csi"):
        assert 0 < len(csi) <= _STACK_RECORDS
        assert rssi.tolist() == [list(r.rssi) for r in records[part]]
        assert agc.tolist() == [r.agc for r in records[part]]
        assert csi.tobytes() == np.stack([r.csi for r in records[part]]).tobytes()
        parts.append(part)
    assert [t for part in parts for t in range(part.start, part.stop)] == list(range(len(records)))
    # No block crosses a layout run.
    runs = layout_runs(records)
    assert all(any(run.start <= p.start and p.stop <= run.stop for run in runs) for p in parts)


def test_a_capture_is_one_block_of_its_own_columns():
    capture = _simulated(3, True)
    ((part, rssi, csi),) = capture_blocks(capture, "rssi", "csi")
    assert part == slice(0, N_PACKETS)
    assert rssi is capture.rssi and csi is capture.csi
