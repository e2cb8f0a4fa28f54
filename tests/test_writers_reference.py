"""The CSV writers and the differential phase against their loop versions.

The reference functions below are the straightforward per-row and
per-record implementations.  The library writes rows without the stdlib
csv writer and computes the phase of a whole capture at once; both must
give exactly the same bytes and bits.
"""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from csicalib import (
    SimConfig,
    calibrate,
    differential_series,
    simulate_capture,
    wrap_deg,
)
from csicalib.errors import AbsentPort
from csicalib.phase import series_to_csv
from csicalib.powercalib import canonical_pairs, frames_to_csv

from conftest import REALISTIC_DISTORTION, random_record


def _ref_frames_to_csv(frames):
    buf = io.StringIO()
    if frames:
        first = frames[0]
        for port in sorted(first.port_power_dbm):
            buf.write(f"# port_power_dbm,port={port + 1},{first.port_power_dbm[port]:.4f}\n")
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
                masked = bool(series.unmeasurable_mask[t, k])
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
    assert frames_to_csv(frames) == _ref_frames_to_csv(frames)

    series = []
    for pair in canonical_pairs(3):
        s = differential_series(records, pair)
        ref_phase, ref_mask = _ref_differential_series(records, pair)
        _assert_bit_identical(s.phase_deg, ref_phase)
        _assert_bit_identical(s.unmeasurable_mask, ref_mask)
        series.append(s)
    assert series_to_csv(series) == _ref_series_to_csv(series)

    if name == "weak_port":
        assert any(np.isnan(f.amplitude_dbm).any() for f in frames)
        assert any(s.unmeasurable_mask.any() for s in series)
        assert not all(s.unmeasurable_mask.all() for s in series)


def test_mixed_layout_amplitudes_match_reference(consts):
    rng = np.random.default_rng(17)
    frames = [calibrate(random_record(rng), consts) for _ in range(60)]
    assert len({f.amplitude_dbm.shape for f in frames}) > 3
    assert frames_to_csv(frames) == _ref_frames_to_csv(frames)


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
            _assert_bit_identical(s.unmeasurable_mask[t], one.unmeasurable_mask[0])


def test_absent_port_rows_match_reference(captures):
    records = list(captures["weak_port"][:10])
    records[4] = replace(records[4], rssi=(40, 40, 0))
    records[7] = replace(records[7], rssi=(0, 0, 30))
    for pair in canonical_pairs(3) + ((0, 1),):
        s = differential_series(records, pair)
        ref_phase, ref_mask = _ref_differential_series(records, pair)
        _assert_bit_identical(s.phase_deg, ref_phase)
        _assert_bit_identical(s.unmeasurable_mask, ref_mask)
        assert s.unmeasurable_mask[7].all()
        assert s.unmeasurable_mask[4].all() == (2 in pair)


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
