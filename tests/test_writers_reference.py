"""The CSV writers and the differential phase against their loop versions.

The reference functions below are the straightforward per-row and
per-record implementations.  The library writes rows without the stdlib
csv writer and computes the phase of a whole capture at once; both must
give exactly the same bytes and bits.
"""

import csv
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csicalib import _dectext
from csicalib import (
    SimConfig,
    calibrate,
    circular_stats,
    differential_series,
    simulate_capture,
    wrap_deg,
)
from csicalib.errors import AbsentPort
from csicalib.phase import DifferentialPhaseSeries, series_to_csv
from csicalib.powercalib import CalibratedFrame, canonical_pairs, frames_to_csv

from conftest import REALISTIC_DISTORTION, make_record, random_record, ref_layout_runs


def _ref_frames_to_csv(frames):
    buf = io.StringIO()
    if frames:
        first = frames[0]
        for port, power in enumerate(first.port_power_dbm):
            if not np.isnan(power):
                buf.write(f"# port_power_dbm,port={port + 1},{power:.4f}\n")
        if not np.isnan(first.total_power_dbm):
            buf.write(f"# total_power_dbm,{first.total_power_dbm:.4f}\n")
    writer = csv.writer(buf)
    writer.writerow(["packet", "port", "subcarrier", "tx", "amplitude_dbm"])
    for t, frame in enumerate(frames):
        amp = frame.amplitude_dbm
        n_sc, n_rx, n_tx = amp.shape
        for k in range(n_sc):
            for p in range(n_rx):
                for tx in range(n_tx):
                    v = amp[k, p, tx]
                    writer.writerow([t, p + 1, k, tx, "" if np.isnan(v) else f"{v:.6f}"])
    return buf.getvalue()


def _ref_series_to_csv(series_list):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["packet", "subcarrier", "pair", "phase_deg", "unmeasurable"])
    for series in series_list:
        n_pkt, n_sc = series.phase_deg.shape
        for t in range(n_pkt):
            for k in range(n_sc):
                masked = bool(np.isnan(series.phase_deg[t, k]))
                value = "" if masked else f"{series.phase_deg[t, k]:.6f}"
                writer.writerow([t, k, series.label, value, int(masked)])
    return buf.getvalue()


def _ref_differential_phase(record, pair):
    i, j = pair
    for port in (i, j):
        if port >= record.n_rx:
            raise AbsentPort(f"port {port + 1} absent")
    hi = record.csi[:, i, 0]
    hj = record.csi[:, j, 0]
    mask = (hi == 0) | (hj == 0)
    if record.rssi[i] == 0 or record.rssi[j] == 0:
        mask[:] = True
    phase = np.full(hi.shape, np.nan)
    ok = ~mask
    phase[ok] = wrap_deg(np.degrees(np.angle(hi[ok])) - np.degrees(np.angle(hj[ok])))
    return phase, mask


def _ref_differential_series(records, pair):
    phases, masks = [], []
    for record in records:
        phase, mask = _ref_differential_phase(record, pair)
        phases.append(phase)
        masks.append(mask)
    return np.array(phases), np.array(masks)


def _ref_circular_stats(angles_deg):
    # One column at a time, over its angles alone.
    a = np.asarray(angles_deg, dtype=float).reshape(-1)
    a = a[~np.isnan(a)]
    if a.size < 2:
        return np.nan, np.nan
    z = np.exp(1j * np.deg2rad(a))
    mean = float(wrap_deg(np.degrees(np.angle(z.mean()))))
    dev = wrap_deg(a - mean)
    return mean, float(np.sqrt(np.mean(dev**2)))


def _capture(attenuation, n_packets=150, seed=5):
    config = SimConfig(attenuation_db=attenuation, n_packets=n_packets, seed=seed)
    return simulate_capture(config, REALISTIC_DISTORTION)


def _assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def captures():
    return {
        "balanced": _capture((33.0, 30.0, 36.0)),
        # Port 3 at 62 dB loses many CSI entries to zero: NaN amplitudes
        # and masked phases.
        "weak_port": _capture((20.0, 30.0, 62.0)),
    }


@pytest.mark.parametrize("name", ["balanced", "weak_port"])
def test_capture_outputs_match_reference(captures, name, consts):
    records = captures[name]
    frames = [calibrate(r, consts) for r in records]
    assert frames_to_csv([calibrate(records, consts)]) == _ref_frames_to_csv(frames)

    series = []
    for pair in canonical_pairs(3):
        s = differential_series(records, pair)
        ref_phase, ref_mask = _ref_differential_series(records, pair)
        _assert_bit_identical(s.phase_deg, ref_phase)
        _assert_bit_identical(np.isnan(s.phase_deg), ref_mask)
        series.append(s)
    assert series_to_csv(series) == _ref_series_to_csv(series)

    if name == "weak_port":
        assert any(np.isnan(f.amplitude_dbm).any() for f in frames)
        assert any(np.isnan(s.phase_deg).any() for s in series)
        assert not all(np.isnan(s.phase_deg).all() for s in series)


@pytest.mark.parametrize("name", ["balanced", "weak_port"])
def test_circular_stats_match_per_column_reference(captures, name):
    # NaN-free columns keep the per-column bits; a NaN enters the
    # columnwise sums as 0, which may move a column's last bit.
    records = list(captures[name])
    # Port 1 absent in the first 149 records: pairs 2/1 and 1/3 keep one
    # angle per subcarrier, too few for a statistic.
    sparse = [replace(r, rssi=(0, *r.rssi[1:])) for r in records[:-1]] + records[-1:]
    for capture in (records, sparse):
        for pair in canonical_pairs(3):
            phase = differential_series(capture, pair).phase_deg
            stats = circular_stats(phase)
            ref = np.array([_ref_circular_stats(phase[:, k]) for k in range(30)])
            got = np.stack([stats["mean_deg"], stats["std_deg"]], axis=1)
            assert got.shape == ref.shape == (30, 2)
            short = (~np.isnan(phase)).sum(axis=0) < 2
            assert np.array_equal(np.isnan(got), np.repeat(short[:, None], 2, axis=1))
            full = ~np.isnan(phase).any(axis=0)
            _assert_bit_identical(got[full], ref[full])
            if name == "weak_port":
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)
    if name == "balanced":
        phase = differential_series(records, (1, 0)).phase_deg
        assert not np.isnan(phase).any()


def test_mixed_layout_amplitudes_match_reference(consts):
    rng = np.random.default_rng(17)
    records = [random_record(rng) for _ in range(60)]
    frames = [calibrate(r, consts) for r in records]
    assert len({f.amplitude_dbm.shape for f in frames}) > 3
    runs = ref_layout_runs(records)
    assert any(run.stop - run.start > 1 for run in runs)
    text = frames_to_csv([calibrate(records[run], consts) for run in runs])
    assert text == _ref_frames_to_csv(frames)


def test_empty_inputs_match_reference():
    assert frames_to_csv([]) == _ref_frames_to_csv([])
    assert series_to_csv([]) == _ref_series_to_csv([])


@pytest.mark.parametrize("name", ["balanced", "weak_port"])
def test_series_rows_match_single_record_series(captures, name):
    records = captures[name]
    for pair in canonical_pairs(3):
        s = differential_series(records, pair)
        for t, record in enumerate(records):
            one = differential_series([record], pair)
            _assert_bit_identical(s.phase_deg[t], one.phase_deg[0])
            _assert_bit_identical(np.isnan(s.phase_deg[t]), np.isnan(one.phase_deg[0]))


def test_absent_port_rows_match_reference(captures):
    records = list(captures["weak_port"][:10])
    records[4] = replace(records[4], rssi=(40, 40, 0))
    records[7] = replace(records[7], rssi=(0, 0, 30))
    for pair in canonical_pairs(3) + ((0, 1),):
        s = differential_series(records, pair)
        ref_phase, ref_mask = _ref_differential_series(records, pair)
        _assert_bit_identical(s.phase_deg, ref_phase)
        _assert_bit_identical(np.isnan(s.phase_deg), ref_mask)
        assert np.isnan(s.phase_deg[7]).all()
        assert np.isnan(s.phase_deg[4]).all() == (2 in pair)


def test_port_beyond_n_rx_errors_match_reference(captures):
    records = list(captures["balanced"][:10])
    records[6] = replace(records[6], n_rx=2, rssi=(40, 40, 0),
                         csi=records[6].csi[:, :2].copy())
    for pair in ((2, 1), (0, 2)):
        with pytest.raises(AbsentPort) as ref:
            _ref_differential_series(records, pair)
        with pytest.raises(AbsentPort) as new:
            differential_series(records, pair)
        assert str(new.value) == str(ref.value) == "port 3 absent"


@st.composite
def _pair_captures(draw):
    """Records of n_rx 1-3 and n_tx 1-3, with zero CSI entries and absent
    ports, and a tuple of ordered pairs of ports 0-2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    min_rx = draw(st.integers(1, 3))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        n_rx = int(rng.integers(min_rx, 4))
        n_tx = int(rng.integers(1, 4))
        # Components in -2..2: about one entry in eight is zero.
        shape = (30, n_rx, n_tx)
        csi = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
        rssi = [int(v) if rng.random() > 0.2 else 0 for v in rng.integers(1, 256, n_rx)]
        records.append(make_record(csi=csi, n_rx=n_rx, n_tx=n_tx,
                                   rssi=rssi + [0] * (3 - n_rx),
                                   antenna_perm=list(range(n_rx)) + [0] * (3 - n_rx)))
    ordered = list(itertools.permutations(range(3), 2))
    pairs = draw(st.lists(st.sampled_from(ordered), max_size=4).map(tuple))
    return records, pairs


@settings(max_examples=300, deadline=None)
@given(_pair_captures())
@example(([], ((1, 0), (2, 1), (0, 2))))
@example(([make_record()], ()))
def test_pairs_call_equals_one_pair_calls(capture):
    # Bit for bit, NaN included, and equal to the per-record reference;
    # where the reference raises for a pair, the call for all pairs raises
    # the error of the first such pair.
    records, pairs = capture
    expected = []
    for pair in pairs:
        try:
            expected.append(_ref_differential_series(records, pair)[0].reshape(-1, 30))
        except AbsentPort as exc:
            for call in (pairs, pair):
                with pytest.raises(AbsentPort) as got:
                    differential_series(records, call)
                assert str(got.value) == str(exc)
            return
    got = differential_series(records, pairs)
    assert [s.pair for s in got] == list(pairs)
    for new, pair, ref_phase in zip(got, pairs, expected):
        _assert_bit_identical(new.phase_deg, ref_phase)
        _assert_bit_identical(new.phase_deg, differential_series(records, pair).phase_deg)


def test_pairs_call_raises_the_first_failing_pairs_error():
    # Record 1 has two ports and record 2 one: pair 2/1 first fails on
    # record 2, pair 1/3 on record 1.
    records = [make_record(), make_record(n_rx=2, rssi=(36, 39, 0)),
               make_record(n_rx=1, rssi=(36, 0, 0))]
    for pairs, message in ((((1, 0), (2, 1), (0, 2)), "port 2 absent"),
                           (((0, 2), (1, 0)), "port 3 absent"),
                           (((1, 0), (0, 1)), "port 2 absent"),
                           (((2, 0), (1, 0)), "port 3 absent")):
        with pytest.raises(AbsentPort, match=message):
            differential_series(records, pairs)
        with pytest.raises(AbsentPort, match=message):
            [differential_series(records, pair) for pair in pairs]
    # The message names the first port of the pair that the record lacks.
    with pytest.raises(AbsentPort, match="port 2 absent"):
        differential_series(records[::2], ((1, 2),))


# Cells that stress the %.6f template: NaN, signed zeros, values that
# round to -0.000000 or to +-180.000000, and the wrap boundary itself.
_EDGE_PHASES = [np.nan, -0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, 179.9999996,
                -179.9999996, 180.0, -180.0, 1e-300, -1e-300]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(list(itertools.permutations(range(3), 2))),
    st.lists(st.one_of(st.sampled_from(_EDGE_PHASES),
                       st.floats(-180.0, 180.0, allow_nan=False)),
             min_size=0, max_size=90),
    st.sets(st.integers(0, 2))), max_size=3))
def test_series_to_csv_matches_reference(spec):
    series = []
    for pair, values, nan_rows in spec:
        phase = np.resize(np.array(values, dtype=float), (len(values) // 30 + 1) * 30)
        phase = phase.reshape(-1, 30) if values else np.empty((0, 30))
        for t in nan_rows:
            if t < len(phase):
                phase[t] = np.nan  # a record with no pair phase
        series.append(DifferentialPhaseSeries(pair=pair, phase_deg=phase))
    assert series_to_csv(series) == _ref_series_to_csv(series)


# --- digit and block edges ---------------------------------------------------
# The writers format _dectext._BLOCK_PACKETS packets at a time.  Packet
# numbers gain a digit at 10, 100 and 1000: inside a block of 256 packets,
# and at a block edge where a frame starts there or blocks are 10 packets.

def _edge_values(rng, shape, low, high):
    """Uniform values in [low, high) with _EDGE_PHASES cells and NaN packets."""
    values = rng.uniform(low, high, shape)
    cells = rng.random(shape) < 0.05
    values[cells] = rng.choice(_EDGE_PHASES, cells.sum())
    values[rng.random(shape[0]) < 0.02] = np.nan  # a packet with no reading
    return values


def _frame(rng, n_packets, n_rx, n_tx):
    """A capture frame of n_packets, as calibrate gives it, of edge values."""
    power = rng.uniform(-80.0, -30.0, (n_packets, n_rx))
    power[0, -1] = np.nan  # an absent port in the header block
    return CalibratedFrame(power, rng.uniform(-80.0, -30.0, n_packets),
                           rng.uniform(0.0, 1.0, n_packets),
                           _edge_values(rng, (n_packets, 30, n_rx, n_tx), -110.0, -20.0))


def _record_frames(frame):
    """The frame of each record of a capture frame, as _ref_frames_to_csv reads them."""
    return [CalibratedFrame(tuple(power.tolist()), total, rho, amp)
            for power, total, rho, amp in zip(frame.port_power_dbm, frame.total_power_dbm.tolist(),
                                               frame.rho.tolist(), frame.amplitude_dbm)]


_FRAME_LAYOUTS = {
    # One frame over 0..1099: each new digit inside a block.
    "one_frame": [(1100, 3, 1)],
    # Frames of other n_tx starting at 10, 100 and 1000: each new digit at a block edge.
    "frame_edges": [(10, 3, 2), (90, 2, 3), (900, 1, 1), (120, 3, 3)],
}


@pytest.mark.parametrize("block", [None, 10], ids=["block256", "block10"])
@pytest.mark.parametrize("layout", list(_FRAME_LAYOUTS))
def test_frames_to_csv_across_digit_and_block_edges(layout, block, monkeypatch):
    if block:
        monkeypatch.setattr(_dectext, "_BLOCK_PACKETS", block)
    rng = np.random.default_rng(len(layout))
    frames = [_frame(rng, *shape) for shape in _FRAME_LAYOUTS[layout]]
    expected = _ref_frames_to_csv([f for frame in frames for f in _record_frames(frame)])
    assert frames_to_csv(frames) == expected
    assert "\r\n1000,1,0,0," in expected and "\r\n999,1,29," in expected
    assert ",-0.000000\r\n" in expected and ",\r\n" in expected


@pytest.mark.parametrize("block", [None, 10], ids=["block256", "block10"])
def test_series_to_csv_across_digit_and_block_edges(block, monkeypatch):
    if block:
        monkeypatch.setattr(_dectext, "_BLOCK_PACKETS", block)
    rng = np.random.default_rng(23)
    series = [DifferentialPhaseSeries(pair, _edge_values(rng, (1100, 30), -180.0, 180.0))
              for pair in canonical_pairs(3)]
    expected = _ref_series_to_csv(series)
    assert series_to_csv(series) == expected
    assert "\r\n1000,0,2/1," in expected and ",,1\r\n" in expected
    assert ",-0.000000,0\r\n" in expected and ",-180.000000,0\r\n" in expected
