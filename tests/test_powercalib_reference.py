"""The capture calibration kernel against its per-record loop version.

The reference below calibrates one record at a time.  On integer CSI each
squared magnitude, and any sum of up to 90 of them, is exact, so the
kernel, which stacks a capture and sums each record's squares in another
order, must give the same bits.  Float CSI (the simulator with quantize
off) has no exact sum: there the kernel must agree within 1e-12 dB.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from csicalib import (
    SimConfig,
    calibrate,
    parse_text_trace,
    rssi_to_dbm,
    simulate_capture,
    total_power,
    write_text_trace,
)
from csicalib.ingest import _TEXT_BLOCK_LINES
from csicalib.powercalib import CalibratedFrame

from conftest import REALISTIC_DISTORTION, random_record, ref_layout_runs


def _ref_calibrate(record, consts):
    present = record.present_ports()
    port_power = tuple([rssi_to_dbm(rssi, record.agc, consts)
                        for rssi in record.rssi[: record.n_rx]])
    p_total = total_power(port_power)

    c = record.csi
    sq = c.real * c.real + c.imag * c.imag
    if len(present) < record.n_rx:  # an absent port has no amplitude
        sq[:, np.isnan(port_power), :] = 0.0
    denom = float(sq[:, present, :].sum())
    rho = 10.0 ** (p_total / 10.0) / denom if denom else math.nan

    with np.errstate(divide="ignore"):
        amplitude = 10.0 * np.log10(rho * sq)
    amplitude[sq == 0.0] = np.nan  # unmeasurable, not -inf

    return CalibratedFrame(
        port_power_dbm=port_power,
        total_power_dbm=p_total,
        rho=rho,
        amplitude_dbm=amplitude,
    )


def _simulated(n_packets=600, seed=9, **kwargs):
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=n_packets, seed=seed,
                       **kwargs)
    return simulate_capture(config, REALISTIC_DISTORTION)


def _with_no_readings(records):
    records = list(records)
    records[3] = replace(records[3], rssi=(records[3].rssi[0], 0, records[3].rssi[2]))
    records[5] = replace(records[5], csi=np.zeros_like(records[5].csi))
    records[8] = replace(records[8], rssi=(0, 0, 0))
    return records


def _mixed_n_tx(rng, n):
    # Common n_rx, n_tx varying in runs, some ports absent or zero.
    records = []
    while len(records) < n:
        record = random_record(rng)
        if record.n_rx != 3:
            continue
        if rng.random() < 0.2:
            record.rssi = (record.rssi[0], 0, record.rssi[2])
        if rng.random() < 0.2:
            record.csi[:, int(rng.integers(3)), :] = 0
        records += [record] * int(rng.integers(1, 5))
    return records


@pytest.fixture(scope="module")
def captures():
    simulated = _simulated()
    return {
        "simulated": simulated,
        "parsed": parse_text_trace(write_text_trace(simulated)),
        "no_readings": _with_no_readings(simulated[:40]),
        "mixed_n_tx": _mixed_n_tx(np.random.default_rng(31), 300),
        "float": _simulated(n_packets=300, quantize=False),
    }


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_row_matches(frame, t, ref):
    assert _bits(frame.port_power_dbm[t]) == _bits(ref.port_power_dbm)
    assert _bits(frame.total_power_dbm[t]) == _bits(ref.total_power_dbm)
    assert _bits(frame.rho[t]) == _bits(ref.rho)
    assert frame.amplitude_dbm[t].shape == ref.amplitude_dbm.shape
    assert _bits(frame.amplitude_dbm[t]) == _bits(ref.amplitude_dbm)


@pytest.mark.parametrize("name", ["simulated", "parsed", "no_readings", "mixed_n_tx"])
def test_capture_matches_reference_bit_for_bit(captures, name, consts):
    records = captures[name]
    runs = ref_layout_runs(records)
    if name == "mixed_n_tx":
        assert len({records[run.start].n_tx for run in runs}) == 3
    else:
        assert runs == [slice(0, len(records))]
    if name in ("simulated", "parsed"):
        # A simulated capture is one part of transposed views; a parsed one
        # a C-contiguous part per block of lines.
        contiguous = {r.csi.flags.c_contiguous for r in records}
        assert contiguous == {name == "parsed"}
        parts = -(-len(records) // _TEXT_BLOCK_LINES) if name == "parsed" else 1
        assert len(records.parts) == parts
    for run in runs:
        frame = calibrate(records[run], consts)
        n = run.stop - run.start
        assert frame.port_power_dbm.shape == (n, 3)
        assert frame.total_power_dbm.shape == frame.rho.shape == (n,)
        assert frame.amplitude_dbm.shape == (n, *records[run.start].csi.shape)
        for t in range(n):
            _assert_row_matches(frame, t, _ref_calibrate(records[run.start + t], consts))


def test_no_reading_rows_are_nan(captures, consts):
    frame = calibrate(captures["no_readings"], consts)
    assert np.isnan(frame.amplitude_dbm[3][:, 1]).all()
    assert not np.isnan(frame.amplitude_dbm[3][:, [0, 2]]).any()
    for t in (5, 8):
        assert math.isnan(frame.rho[t]) and np.isnan(frame.amplitude_dbm[t]).all()
    assert math.isfinite(frame.total_power_dbm[5]) and math.isnan(frame.total_power_dbm[8])


@pytest.mark.parametrize("name", ["simulated", "no_readings", "mixed_n_tx", "float"])
def test_one_record_equals_its_row_of_the_capture(captures, name, consts):
    records = captures[name]
    for run in ref_layout_runs(records):
        frame = calibrate(records[run], consts)
        for t, record in enumerate(records[run]):
            one = calibrate(record, consts)
            assert type(one.port_power_dbm) is tuple
            assert type(one.total_power_dbm) is float and type(one.rho) is float
            _assert_row_matches(frame, t, one)


def test_float_csi_matches_reference_within_1e_12_db(captures, consts):
    records = captures["float"]
    assert not all((r.csi == np.round(r.csi)).all() for r in records)
    frame = calibrate(records, consts)
    for t, record in enumerate(records):
        ref = _ref_calibrate(record, consts)
        assert frame.port_power_dbm[t].tolist() == list(ref.port_power_dbm)
        assert frame.total_power_dbm[t] == ref.total_power_dbm
        assert frame.rho[t] == pytest.approx(ref.rho, rel=1e-13)
        np.testing.assert_allclose(frame.amplitude_dbm[t], ref.amplitude_dbm,
                                   rtol=0, atol=1e-12)


def test_capture_of_mixed_layouts_raises(consts):
    # A capture of several layouts is calibrated one layout run at a time.
    records = _mixed_n_tx(np.random.default_rng(32), 20)
    with pytest.raises(ValueError, match="same shape"):
        calibrate(records, consts)
