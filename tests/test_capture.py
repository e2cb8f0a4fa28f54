"""The Capture: one representation of a capture, of any mix of layouts.

The simulator and both parsers return a Capture, and the analysis and
both writers read its columns.  A list of records becomes a Capture in
ingest.as_capture, so the same capture can be given either way: every
value computed per record must be the same bits either way, and no
function reading a Capture builds its records.  Its row views must be the
records themselves: those of the per-packet reference simulator, and
those a list of records holds.
"""

import dataclasses

import numpy as np
import pytest

from csicalib import (
    Capture,
    SimConfig,
    calibrate,
    check_ratio_consistency,
    differential_series,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    simulate_capture,
    variation_stats,
    write_text_trace,
)
from csicalib.errors import AbsentPort, InsufficientData, InvariantViolation
from csicalib.ingest import _TEXT_BLOCK_LINES, N_SUBCARRIERS, as_capture, common_n_rx
from csicalib import cli
from csicalib.powercalib import canonical_pairs, frames_to_csv

from conftest import REALISTIC_DISTORTION, make_record, random_record, ref_layout_runs
from test_chipsim_reference import CASES, _assert_identical, _ref_simulate_capture

N_PACKETS = 300

ATTENUATIONS = {1: (30.0,), 2: (30.0, 44.0), 3: (33.0, 30.0, 36.0)}


def _simulated(n_rx, quantize=True):
    config = SimConfig(attenuation_db=ATTENUATIONS[n_rx], n_packets=N_PACKETS, seed=n_rx,
                       quantize=quantize)
    return simulate_capture(config, REALISTIC_DISTORTION)


def _with_no_readings(capture):
    """The capture with absent ports, a record with none, and zero-CSI rows."""
    (csi,) = capture.parts
    n_rx = csi.shape[2]
    rssi = capture.rssi.copy()
    rssi[[3, 260], n_rx - 1] = 0
    rssi[8, :] = 0
    csi = csi.copy()
    csi[5, :, 0, :] = 0
    csi[[11, 270], :, :, :] = 0
    return dataclasses.replace(capture, rssi=rssi, parts=(csi,))


def _mixed_records(n, seed=5, n_rx=None):
    """Records in runs of one layout, of any layout or of n_rx ports only."""
    rng = np.random.default_rng(seed)
    records = []
    while len(records) < n:
        record = random_record(rng)
        if n_rx is None or record.n_rx == n_rx:
            records += [dataclasses.replace(record, bfee_count=len(records) + i,
                                            csi=record.csi.copy())
                        for i in range(int(rng.integers(1, 90)))]
    return records[:n]


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


def _assert_analyses_alike(capture, records, consts):
    for run in ref_layout_runs(records):
        _assert_same_bits(calibrate(capture[run], consts), calibrate(records[run], consts))
    _assert_same_bits(check_ratio_consistency(capture), check_ratio_consistency(records))
    pairs = canonical_pairs(common_n_rx(records))
    _assert_same_bits(differential_series(capture, pairs), differential_series(records, pairs))
    _assert_same_bits(variation_stats(capture, consts), variation_stats(records, consts))


@pytest.mark.parametrize("n_rx", [1, 2, 3])
@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("no_readings", [False, True], ids=["plain", "no_readings"])
def test_capture_analyses_like_its_records(n_rx, quantize, no_readings, consts):
    capture = _simulated(n_rx, quantize)
    if no_readings:
        capture = _with_no_readings(capture)
    records = list(capture)
    assert isinstance(capture, Capture) and len(records) == N_PACKETS
    _assert_analyses_alike(capture, records, consts)
    if no_readings:
        frame = calibrate(capture, consts)
        assert np.isnan(frame.amplitude_dbm[[8, 11]]).all()
        assert np.isnan(frame.port_power_dbm[3, n_rx - 1])


def test_mixed_layout_capture_analyses_like_its_records(consts):
    records = _mixed_records(400, n_rx=3)
    capture = parse_text_trace(write_text_trace(records))
    runs = ref_layout_runs(capture)
    assert len(runs) > 3 and len(capture.parts) > len(runs)  # runs cross blocks of lines
    assert runs == ref_layout_runs(records)
    _assert_analyses_alike(capture, records, consts)


def test_a_pair_past_n_rx_raises_alike():
    capture = _simulated(2)
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
        assert np.shares_memory(record.csi, capture.parts[0])


def test_unquantized_rows_pad_absent_ports_with_int_zero():
    config, distortion = CASES["unquantized_no_jitter"]
    capture = simulate_capture(config, distortion)
    assert capture.rssi.dtype == np.float64
    for record in capture:
        assert [type(v) for v in record.rssi] == [float, float, int]


def test_slice_is_a_capture_of_views():
    capture = _simulated(3)
    part = capture[10:50:3]
    assert isinstance(part, Capture)
    assert list(part) == list(capture)[10:50:3]
    assert np.shares_memory(part.parts[0], capture.parts[0])
    assert len(capture[5:5]) == 0 and list(capture[5:5]) == [] and capture[5:5].parts == ()


@pytest.mark.parametrize("t", [slice(None), slice(5, 300, 7), slice(60, 70), slice(None, None, -1),
                               slice(290, 3, -13), slice(-100, None, 2), slice(64, 64),
                               slice(400, 500)])
def test_slices_across_parts_are_the_slices_of_the_list(t):
    records = _mixed_records(300)
    capture = parse_text_trace(write_text_trace(records))
    assert len(capture.parts) > 8
    part = capture[t]
    assert part == records[t] and list(part) == list(capture)[t]
    assert sum(map(len, part.parts)) == len(part) == len(records[t])
    assert all(any(np.shares_memory(p, q) for q in capture.parts) for p in part.parts)


def test_parsed_captures_equal_their_records_either_way():
    records = _mixed_records(200)
    for capture in (parse_text_trace(write_text_trace(records)),
                    parse_binary_trace(encode_binary_trace(records))):
        assert isinstance(capture, Capture)
        assert capture == records and records == capture
        assert not capture != records and not records != capture
        assert capture != records[:-1] and records[:-1] != capture
        assert capture[:-1] != records and capture[:-1] == records[:-1]
        other = list(records)
        other[150] = dataclasses.replace(other[150], agc=(other[150].agc + 1) % 256)
        assert capture != other and other != capture
        other = list(records)
        other[7] = dataclasses.replace(other[7], csi=other[7].csi + 1)
        assert capture != other and other != capture
        assert capture == capture[:]
        assert capture != 3 and capture != tuple(records)


def test_list_of_a_capture_is_a_mutable_list():
    capture = _simulated(2)
    before, rows = list(capture), list(capture)
    assert type(rows) is list and len(rows) == N_PACKETS
    rows.append(rows[0])
    rows[1] = dataclasses.replace(rows[1], agc=rows[1].agc + 1)
    del rows[2]
    assert len(rows) == N_PACKETS and rows[1].agc == before[1].agc + 1
    assert capture == before and capture != rows


def test_a_list_becomes_a_capture_of_a_part_per_layout_run():
    # Two runs of one record each: a (1, 1) record within a run of (3, 3)
    # records, and one at the end.
    mixed = _mixed_records(300)
    single = make_record(n_rx=1, rssi=(36, 0, 0))
    records = mixed[:50] + [single] + mixed[50:] + [dataclasses.replace(single)]
    capture = as_capture(records)
    assert as_capture(capture) is capture
    runs = ref_layout_runs(records)
    assert ref_layout_runs(capture) == runs and len(runs) > 3
    assert [len(p) for p in capture.parts] == [rows.stop - rows.start for rows in runs]
    for p, rows in zip(capture.parts, runs):
        run = records[rows]
        if len(run) == 1:  # a view of the record's csi
            assert np.shares_memory(p, run[0].csi) and p[0].shape == run[0].csi.shape
        else:  # the run's csi stacked
            assert not any(np.shares_memory(p, r.csi) for r in run)
            assert np.array_equal(p, np.stack([r.csi for r in run]))
    assert sum(len(p) == 1 for p in capture.parts) == 2
    assert capture == records
    assert len(as_capture([])) == 0 and as_capture([]).parts == ()


def test_layout_runs_and_common_n_rx_of_a_capture():
    capture = _simulated(2)
    assert ref_layout_runs(capture) == [slice(0, N_PACKETS)]
    assert ref_layout_runs(capture[3:3]) == []
    assert common_n_rx(capture) == 2
    parsed = parse_text_trace(write_text_trace(capture))
    assert len(parsed.parts) == -(-N_PACKETS // _TEXT_BLOCK_LINES)
    assert ref_layout_runs(parsed) == [slice(0, N_PACKETS)]
    assert common_n_rx(parsed) == 2


@pytest.mark.parametrize("empty", [list, lambda: parse_text_trace(""), lambda: _simulated(2)[3:3]],
                         ids=["list", "parsed", "slice"])
@pytest.mark.parametrize("read", [common_n_rx, calibrate])
def test_a_capture_of_no_record_raises_insufficient_data(read, empty, consts):
    args = (consts,) if read is calibrate else ()
    with pytest.raises(InsufficientData, match="need at least one record"):
        read(empty(), *args)


class _CountedParts(tuple):
    """A capture's parts that count each visit to a part, by iteration or index."""

    visits = 0

    def __iter__(self):
        for csi in super().__iter__():
            self.visits += 1
            yield csi

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.visits += len(got) if isinstance(i, slice) else 1
        return got


def test_layout_runs_walk_the_parts_once(consts, monkeypatch, tmp_path):
    # n_tx alternates: every record is a layout run, and a part, of its own.
    rng = np.random.default_rng(1)
    shapes = [(N_SUBCARRIERS, 3, 1 + t % 2) for t in range(2000)]
    capture = parse_text_trace(write_text_trace([
        make_record(csi=rng.integers(-60, 60, shape) + 1j * rng.integers(-60, 60, shape),
                    n_tx=shape[2]) for shape in shapes]))
    assert len(capture.parts) == len(ref_layout_runs(capture)) == 2000
    # The frames and stats of one slice of the capture per run.
    frames = [calibrate(capture[rows], consts) for rows in ref_layout_runs(capture)]
    with monkeypatch.context() as m:
        m.setattr(Capture, "runs",
                  lambda self: ((rows, self[rows]) for rows in ref_layout_runs(self)))
        stats = variation_stats(capture, consts)

    parts = _CountedParts(capture.parts)
    counted = dataclasses.replace(capture, parts=parts)
    runs = list(counted.runs())
    assert parts.visits == len(parts)
    assert [rows for rows, _ in runs] == ref_layout_runs(capture)
    _assert_same_bits([calibrate(run, consts) for _, run in runs], frames)
    # A few passes over the parts, where a slice per run made 2000.
    parts.visits = 0
    _assert_same_bits(variation_stats(counted, consts), stats)
    assert parts.visits <= 5 * len(parts)
    parts.visits = 0
    monkeypatch.setattr(cli, "_read_trace", lambda path: counted)
    assert cli.main(["calibrate", "--in", "trace.txt", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "amplitudes.csv").read_bytes() == frames_to_csv(frames).encode()
    assert parts.visits <= 5 * len(parts)


def test_a_capture_is_its_parts_as_they_are():
    capture = _simulated(3)
    ((rows, csi),) = capture.blocks()
    assert rows == slice(0, N_PACKETS) and csi is capture.parts[0]


# --- no record is built ------------------------------------------------------

def test_reading_a_capture_builds_no_record(built, consts):
    capture = _simulated(3)
    records = _mixed_records(N_PACKETS)
    text, data = write_text_trace(capture), encode_binary_trace(records)
    built[0] = 0
    calibrate(capture, consts)
    check_ratio_consistency(capture)
    differential_series(capture, canonical_pairs(3))
    variation_stats(capture, consts)
    assert built[0] == 0
    assert write_text_trace(capture) == text and built[0] == 0
    assert parse_text_trace(text) == capture
    built[0] = 0
    parsed = parse_binary_trace(data)
    assert encode_binary_trace(parsed) == data and built[0] == 0
    parse_text_trace(write_text_trace(parsed))
    assert built[0] == 0


def test_a_faulty_capture_raises_its_earliest_fault_across_layouts(built):
    # A header fault in a later row of one layout and a CSI fault in an
    # earlier row of another: the earlier row's error, whichever layout is
    # checked first, found without building a record per row.
    records = _mixed_records(300)
    layout = as_capture(records).layout()
    early = int(np.flatnonzero((layout != layout[0]).any(axis=1))[0]) + 1
    late = int(np.flatnonzero((layout == layout[0]).all(axis=1))[-1])
    assert early < late and tuple(layout[early]) != tuple(layout[late])
    records[early].csi[0, 0, 0] = 1.5
    records[late].noise = 200
    capture = as_capture(records)
    built[0] = 0
    for writer in (write_text_trace, encode_binary_trace):
        with pytest.raises(InvariantViolation, match="csi components must be integer-valued"):
            writer(capture)
    assert built[0] == 0
    records[early].csi[0, 0, 0] = 1.0
    records[early].rate_flags = -1
    records[late].csi[0, 0, 0] = 300
    for writer in (write_text_trace, encode_binary_trace):
        with pytest.raises(InvariantViolation, match="rate_flags out of u16 range"):
            writer(as_capture(records))
    assert built[0] == 0


def test_a_faulty_capture_raises_its_first_faulty_records_error():
    records = _mixed_records(200)
    records[150].csi[0, 0, 0] = 200
    records[170].agc = 300
    capture = as_capture(records)
    for writer in (write_text_trace, encode_binary_trace):
        with pytest.raises(InvariantViolation, match=r"csi components must lie in \[-128, 127\]"):
            writer(capture)
    capture = dataclasses.replace(capture, rssi=capture.rssi.astype(float))
    for writer in (write_text_trace, encode_binary_trace):
        with pytest.raises(InvariantViolation, match="rssi entries must be ints, got float"):
            writer(capture)
