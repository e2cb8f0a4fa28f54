import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicalib import (
    CalibrationConstants,
    calibrate,
    check_ratio_consistency,
    csi_power_ratio_db,
    rssi_to_dbm,
    total_power,
)
from csicalib.errors import AbsentPort, AllZeroCsi, EmptyInput, ZeroChannel
from csicalib.powercalib import canonical_pairs

from conftest import make_record, random_record


def test_measured_rssi_table(consts):
    # (nominal, agc) -> dBm with the default 44 dB chain offset
    cases = {(37, 62): -69, (38, 62): -68, (36, 28): -36, (39, 28): -33, (31, 28): -41}
    for (rssi, agc), expected in cases.items():
        assert rssi_to_dbm(rssi, agc, consts) == expected


def test_rssi_offsets_cancel(consts):
    assert rssi_to_dbm(44, 0, consts) == 0.0


def test_rssi_absent_port(consts):
    with pytest.raises(AbsentPort):
        rssi_to_dbm(0, 28, consts)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 255), st.integers(0, 255), st.integers(1, 60))
def test_rssi_affine_in_agc(rssi, agc, gain):
    consts = CalibrationConstants()
    base = rssi_to_dbm(rssi, agc, consts)
    assert rssi_to_dbm(rssi, agc + gain, consts) == base - gain


def test_total_power_equal_ports():
    # three equal ports add 10*log10(3)
    assert total_power([-69, -69, -69]) == pytest.approx(-69 + 10 * math.log10(3), abs=1e-6)


def test_total_power_mixed_ports():
    # frozen from direct evaluation of the linear sum
    expected = 10 * math.log10(10**-3.6 + 10**-3.3 + 10**-4.1)
    assert expected == pytest.approx(-30.799765, abs=1e-5)
    assert total_power([-36, -33, -41]) == pytest.approx(expected, abs=1e-9)


def test_total_power_single_and_empty():
    assert total_power([-50]) == pytest.approx(-50, abs=1e-12)
    with pytest.raises(EmptyInput):
        total_power([])


def test_total_power_order_independent():
    assert total_power([-36, -33, -41]) == total_power([-41, -36, -33])


def test_ratio_doubled_vector():
    rng = np.random.default_rng(0)
    v = rng.integers(-50, 51, 30) + 1j * rng.integers(-50, 51, 30)
    assert csi_power_ratio_db(2 * v, v) == pytest.approx(20 * math.log10(2), abs=1e-6)
    assert csi_power_ratio_db(v, v) == 0.0


def test_ratio_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.integers(-128, 128, 30) + 1j * rng.integers(-128, 128, 30)
        b = rng.integers(-100, 101, 30) + 1j * rng.integers(-100, 101, 30)
        if not a.any() or not b.any():
            continue
        sa = sum((x.real**2 + x.imag**2) for x in a)
        sb = sum((x.real**2 + x.imag**2) for x in b)
        assert csi_power_ratio_db(a, b) == pytest.approx(10 * math.log10(sa / sb), abs=1e-9)


def test_ratio_antisymmetric_exact():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.integers(-128, 128, 30) + 1j * rng.integers(-128, 128, 30)
        b = rng.integers(-100, 101, 30) + 1j * rng.integers(-100, 101, 30)
        if not a.any() or not b.any():
            continue
        assert csi_power_ratio_db(a, b) == -csi_power_ratio_db(b, a)


def test_ratio_zero_channel():
    v = np.ones(30, dtype=complex)
    with pytest.raises(ZeroChannel):
        csi_power_ratio_db(v, np.zeros(30, dtype=complex))


def _record_with_csi_ratios(rssi, ratios_21_32_db):
    """Rows whose pairwise power ratios equal the given dB values exactly."""
    r21, r32 = ratios_21_32_db
    base = np.ones(30, dtype=complex)
    rows = np.stack(
        [base, base * 10 ** (r21 / 20), base * 10 ** ((r21 + r32) / 20)]
    )  # (3, 30)
    return make_record(csi=rows.T[:, :, None], rssi=rssi)


def test_ratio_consistency_measured_style(consts):
    # RSSI ratios (3, -8, 5); CSI rows constructed to carry (3.19, -7.60, 4.41)
    record = _record_with_csi_ratios((36, 39, 31), (3.19, -7.60))
    result = {pr.label: pr for pr in check_ratio_consistency(record, consts)}
    assert result["2/1"].rssi_ratio_db == 3
    assert result["3/2"].rssi_ratio_db == -8
    assert result["1/3"].rssi_ratio_db == 5
    assert result["2/1"].discrepancy_db == pytest.approx(0.19, abs=1e-9)
    assert result["3/2"].discrepancy_db == pytest.approx(0.40, abs=1e-9)
    assert result["1/3"].discrepancy_db == pytest.approx(-0.59, abs=1e-9)


def test_ratio_consistency_identical_ports(consts):
    record = _record_with_csi_ratios((40, 40, 40), (0.0, 0.0))
    for pr in check_ratio_consistency(record, consts):
        assert pr.discrepancy_db == pytest.approx(0.0, abs=1e-12)


def test_ratio_consistency_of_one_port_is_empty(consts):
    record = make_record(n_rx=1, rssi=(40, 0, 0), csi=np.ones((30, 1, 1)))
    assert check_ratio_consistency(record, consts) == []


def test_ratio_consistency_absent_port_pairs_are_nan(consts):
    record = _record_with_csi_ratios((36, 0, 31), (3.19, -7.60))
    result = {pr.label: pr for pr in check_ratio_consistency(record, consts)}
    assert list(result) == ["2/1", "3/2", "1/3"]
    for label in ("2/1", "3/2"):
        pr = result[label]
        assert math.isnan(pr.rssi_ratio_db) and math.isnan(pr.csi_ratio_db)
        assert math.isnan(pr.discrepancy_db)
    assert result["1/3"].rssi_ratio_db == 5
    assert result["1/3"].discrepancy_db == pytest.approx(-0.59, abs=1e-9)


def test_calibrate_rho(consts):
    # P_total = 0 dBm and sum of squared magnitudes 4 -> rho = 0.25
    csi = np.zeros((30, 1, 1), dtype=complex)
    csi[0, 0, 0] = 2.0
    record = make_record(csi=csi, n_rx=1, rssi=(44, 0, 0), agc=0,
                         antenna_perm=(0, 1, 2))
    frame = calibrate(record, consts)
    assert frame.total_power_dbm == pytest.approx(0.0, abs=1e-12)
    assert frame.rho == pytest.approx(0.25, abs=1e-12)
    assert frame.amplitude_dbm[0, 0, 0] == pytest.approx(0.0, abs=1e-9)
    assert np.isnan(frame.amplitude_dbm[1, 0, 0])


def test_calibrate_scale_invariance(consts):
    rng = np.random.default_rng(11)
    record = random_record(rng)
    frame1 = calibrate(record, consts)
    record.csi *= 7.5
    frame2 = calibrate(record, consts)
    assert frame2.rho == pytest.approx(frame1.rho / 7.5**2, rel=1e-12)
    np.testing.assert_allclose(
        frame2.amplitude_dbm, frame1.amplitude_dbm, atol=1e-9, equal_nan=True
    )


def test_calibrate_closure(consts):
    # recombining calibrated amplitudes must reproduce the total power
    rng = np.random.default_rng(12)
    for _ in range(50):
        record = random_record(rng)
        frame = calibrate(record, consts)
        present = record.present_ports()
        amp = frame.amplitude_dbm[:, present, :]
        linear = np.nansum(10 ** (amp / 10.0))
        assert 10 * math.log10(linear) == pytest.approx(
            frame.total_power_dbm, abs=1e-9
        )


def test_calibrate_total_power_bounds(consts):
    rng = np.random.default_rng(13)
    for _ in range(30):
        record = random_record(rng)
        frame = calibrate(record, consts)
        peak = max(frame.port_power_dbm.values())
        n = len(frame.port_power_dbm)
        assert peak - 1e-9 <= frame.total_power_dbm <= peak + 10 * math.log10(n) + 1e-9


def test_calibrate_all_zero_csi(consts):
    record = make_record(csi=np.zeros((30, 3, 1), dtype=complex))
    with pytest.raises(AllZeroCsi):
        calibrate(record, consts)


def test_calibrate_no_present_ports(consts):
    record = make_record(rssi=(0, 0, 0))
    with pytest.raises(AbsentPort):
        calibrate(record, consts)


def _ref_ratio_consistency(record):
    # Two power sums per pair, as csi_power_ratio_db takes them.
    out = []
    for j, i in canonical_pairs(record.n_rx):
        if record.rssi[i] == 0 or record.rssi[j] == 0:
            out.append(((j, i), math.nan, math.nan, math.nan))
            continue
        rssi_ratio = float(record.rssi[j] - record.rssi[i])
        try:
            csi_ratio = csi_power_ratio_db(record.csi[:, j, :], record.csi[:, i, :])
        except ZeroChannel:
            csi_ratio = math.nan
        out.append(((j, i), rssi_ratio, csi_ratio, csi_ratio - rssi_ratio))
    return out


def test_ratio_consistency_matches_per_pair_sums(consts):
    rng = np.random.default_rng(21)
    for _ in range(300):
        record = random_record(rng)
        # Non-integer components, so the order of summation shows in the bits.
        record.csi *= rng.uniform(0.1, 3.0, record.csi.shape)
        if rng.random() < 0.3:
            record.csi[:, int(rng.integers(record.n_rx)), :] = 0
        if record.n_rx == 3 and rng.random() < 0.2:
            record.rssi = (record.rssi[0], 0, record.rssi[2])
        got = [(pr.pair, pr.rssi_ratio_db, pr.csi_ratio_db, pr.discrepancy_db)
               for pr in check_ratio_consistency(record, consts)]
        # repr compares floats bit for bit and lets NaN equal NaN.
        assert repr(got) == repr(_ref_ratio_consistency(record))
