import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicalib import (
    CalibrationConstants,
    calibrate,
    check_ratio_consistency,
    rssi_to_dbm,
    total_power,
)
from csicalib.errors import MixedLayout
from csicalib.powercalib import canonical_pairs, frames_to_csv

from conftest import make_record, random_record


def test_measured_rssi_table(consts):
    # (nominal, agc) -> dBm with the default 44 dB chain offset
    cases = {(37, 62): -69, (38, 62): -68, (36, 28): -36, (39, 28): -33, (31, 28): -41}
    for (rssi, agc), expected in cases.items():
        assert rssi_to_dbm(rssi, agc, consts) == expected


def test_rssi_offsets_cancel(consts):
    assert rssi_to_dbm(44, 0, consts) == 0.0


def test_rssi_absent_port(consts):
    # A readout of 0 marks an absent port: no power, at any AGC.
    assert math.isnan(rssi_to_dbm(0, 28, consts))
    assert math.isnan(rssi_to_dbm(0, 0, consts))


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
    assert math.isnan(total_power([]))


def test_total_power_skips_nan():
    # An absent port (NaN) adds nothing: the bits of the present ports' sum.
    assert total_power([-36, math.nan, -41]) == total_power([-36, -41])
    assert total_power([math.nan, -50, math.nan]) == total_power([-50])
    assert math.isnan(total_power([math.nan, math.nan, math.nan]))


def test_total_power_order_independent():
    assert total_power([-36, -33, -41]) == total_power([-41, -36, -33])


def _record_with_csi_ratios(rssi, ratios_21_32_db):
    """Rows whose pairwise power ratios equal the given dB values exactly."""
    r21, r32 = ratios_21_32_db
    base = np.ones(30, dtype=complex)
    rows = np.stack(
        [base, base * 10 ** (r21 / 20), base * 10 ** ((r21 + r32) / 20)]
    )  # (3, 30)
    return make_record(csi=rows.T[:, :, None], rssi=rssi)


def test_ratio_consistency_measured_style():
    # RSSI ratios (3, -8, 5); CSI rows constructed to carry (3.19, -7.60, 4.41)
    record = _record_with_csi_ratios((36, 39, 31), (3.19, -7.60))
    result = {pr.label: pr for pr in check_ratio_consistency([record])}
    assert result["2/1"].rssi_ratio_db.tolist() == [3]
    assert result["3/2"].rssi_ratio_db.tolist() == [-8]
    assert result["1/3"].rssi_ratio_db.tolist() == [5]
    assert result["2/1"].discrepancy_db == pytest.approx([0.19], abs=1e-9)
    assert result["3/2"].discrepancy_db == pytest.approx([0.40], abs=1e-9)
    assert result["1/3"].discrepancy_db == pytest.approx([-0.59], abs=1e-9)


def test_ratio_consistency_identical_ports():
    record = _record_with_csi_ratios((40, 40, 40), (0.0, 0.0))
    for pr in check_ratio_consistency([record]):
        assert pr.discrepancy_db == pytest.approx([0.0], abs=1e-12)


def test_ratio_consistency_of_one_port_is_empty():
    record = make_record(n_rx=1, rssi=(40, 0, 0), csi=np.ones((30, 1, 1)))
    assert check_ratio_consistency([record]) == []


def test_ratio_consistency_of_empty_capture_is_empty():
    assert check_ratio_consistency([]) == []


def test_ratio_consistency_mixed_n_rx_raises():
    one = make_record(n_rx=2, rssi=(40, 40, 0), csi=np.ones((30, 2, 1)))
    with pytest.raises(MixedLayout, match="record 1 has n_rx=3"):
        check_ratio_consistency([one, make_record()])


def test_ratio_consistency_absent_port_pairs_are_nan():
    record = _record_with_csi_ratios((36, 0, 31), (3.19, -7.60))
    result = {pr.label: pr for pr in check_ratio_consistency([record])}
    assert list(result) == ["2/1", "3/2", "1/3"]
    for label in ("2/1", "3/2"):
        pr = result[label]
        assert np.isnan(pr.rssi_ratio_db).all() and np.isnan(pr.csi_ratio_db).all()
        assert np.isnan(pr.discrepancy_db).all()
    assert result["1/3"].rssi_ratio_db.tolist() == [5]
    assert result["1/3"].discrepancy_db == pytest.approx([-0.59], abs=1e-9)


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
        absent = [rssi == 0 for rssi in record.rssi[: record.n_rx]]
        assert [math.isnan(p) for p in frame.port_power_dbm] == absent
        powers = [p for p in frame.port_power_dbm if not math.isnan(p)]
        peak = max(powers)
        n = len(powers)
        assert peak - 1e-9 <= frame.total_power_dbm <= peak + 10 * math.log10(n) + 1e-9


def test_calibrate_all_zero_csi(consts):
    # RSSI reads every port, so the powers stand, but no CSI entry can
    # carry them: no scale and no amplitude.
    record = make_record(csi=np.zeros((30, 3, 1), dtype=complex))
    frame = calibrate(record, consts)
    assert frame.port_power_dbm == tuple(rssi_to_dbm(r, 28, consts) for r in (36, 39, 31))
    assert frame.total_power_dbm == total_power(frame.port_power_dbm)
    assert math.isfinite(frame.total_power_dbm)
    assert math.isnan(frame.rho)
    assert frame.amplitude_dbm.shape == (30, 3, 1)
    assert np.isnan(frame.amplitude_dbm).all()


def test_calibrate_no_present_ports(consts):
    rng = np.random.default_rng(4)
    csi = rng.uniform(1.0, 20.0, (30, 3, 2)) + 1j * rng.uniform(1.0, 20.0, (30, 3, 2))
    frame = calibrate(make_record(csi=csi, n_tx=2, rssi=(0, 0, 0)), consts)
    assert len(frame.port_power_dbm) == 3
    assert all(math.isnan(p) for p in frame.port_power_dbm)
    assert math.isnan(frame.total_power_dbm)
    assert math.isnan(frame.rho)
    assert frame.amplitude_dbm.shape == (30, 3, 2)
    assert np.isnan(frame.amplitude_dbm).all()


def test_frames_to_csv_header_of_a_record_with_no_reading(consts):
    text = frames_to_csv([calibrate([make_record(rssi=(0, 0, 0)), make_record()], consts)])
    assert text.startswith("packet,port,subcarrier,tx,amplitude_dbm\r\n")
    assert "#" not in text
    # Its rows are there, every amplitude empty.
    rows = text.split("\r\n")[1:91]
    assert rows[0] == "0,1,0,0," and all(row.endswith(",") for row in rows)
    assert rows[-1] == "0,3,29,0,"
    # Zero CSI keeps the powers, whose lines follow the port lines' rule.
    zero = calibrate([make_record(csi=np.zeros((30, 3, 1), dtype=complex))], consts)
    header = frames_to_csv([zero]).split("packet,")[0].splitlines()
    assert [line.split(",")[0] for line in header] == ["# port_power_dbm"] * 3 + [
        "# total_power_dbm"]


def test_calibrate_absent_port_has_no_amplitude(consts):
    rng = np.random.default_rng(8)
    csi = rng.uniform(1.0, 20.0, (30, 3, 2)) + 1j * rng.uniform(1.0, 20.0, (30, 3, 2))
    frame = calibrate(make_record(csi=csi, n_tx=2, rssi=(36, 0, 31)), consts)
    assert type(frame.port_power_dbm) is tuple
    assert frame.port_power_dbm[0] == rssi_to_dbm(36, 28, consts)
    assert math.isnan(frame.port_power_dbm[1])
    assert frame.port_power_dbm[2] == rssi_to_dbm(31, 28, consts)
    assert np.all(np.isnan(frame.amplitude_dbm[:, 1, :]))
    # Power and scale come from the present ports alone, as without port 2.
    alone = calibrate(make_record(csi=csi[:, [0, 2], :], n_rx=2, n_tx=2,
                                  rssi=(36, 31, 0)), consts)
    assert frame.total_power_dbm == alone.total_power_dbm
    assert frame.rho == alone.rho
    assert np.array_equal(frame.amplitude_dbm[:, [0, 2], :], alone.amplitude_dbm)


def _ref_csi_power_ratio_db(csi_i, csi_j):
    """Power ratio of two per-subcarrier channel rows as a difference of log
    sums, so that swapping the arguments negates it exactly; None if either
    row is all zero."""
    si = float(np.sum(csi_i.real * csi_i.real + csi_i.imag * csi_i.imag))
    sj = float(np.sum(csi_j.real * csi_j.real + csi_j.imag * csi_j.imag))
    if sj == 0.0 or si == 0.0:
        return None
    return 10.0 * (math.log10(si) - math.log10(sj))


def _ref_ratio_consistency(record):
    # Two power sums per pair, one pair and one record at a time.
    out = []
    for j, i in canonical_pairs(record.n_rx):
        if record.rssi[i] == 0 or record.rssi[j] == 0:
            out.append(((j, i), math.nan, math.nan, math.nan))
            continue
        rssi_ratio = float(record.rssi[j] - record.rssi[i])
        csi_ratio = _ref_csi_power_ratio_db(record.csi[:, j, :], record.csi[:, i, :])
        if csi_ratio is None:
            csi_ratio = math.nan
        out.append(((j, i), rssi_ratio, csi_ratio, csi_ratio - rssi_ratio))
    return out


def _records_for_ratio_check(rng, n, n_rx=None):
    records = []
    while len(records) < n:
        record = random_record(rng)
        if n_rx is not None and record.n_rx != n_rx:
            continue
        # Non-integer components, so the order of summation shows in the bits.
        record.csi *= rng.uniform(0.1, 3.0, record.csi.shape)
        if rng.random() < 0.3:
            record.csi[:, int(rng.integers(record.n_rx)), :] = 0
        if record.n_rx == 3 and rng.random() < 0.2:
            record.rssi = (record.rssi[0], 0, record.rssi[2])
        records.append(record)
    return records


def _per_record(ratios, t):
    return [(pr.pair, float(pr.rssi_ratio_db[t]), float(pr.csi_ratio_db[t]),
             float(pr.discrepancy_db[t])) for pr in ratios]


def test_ratio_consistency_matches_per_pair_sums():
    rng = np.random.default_rng(21)
    for record in _records_for_ratio_check(rng, 300):
        got = _per_record(check_ratio_consistency([record]), 0)
        # repr compares floats bit for bit and lets NaN equal NaN.
        assert repr(got) == repr(_ref_ratio_consistency(record))


@pytest.mark.parametrize("n_rx", [2, 3])
def test_ratio_consistency_of_a_capture_matches_each_record(n_rx):
    # One capture of mixed n_tx: every record's entry equals the reference
    # of that record alone, bit for bit.
    rng = np.random.default_rng(22 + n_rx)
    records = _records_for_ratio_check(rng, 120, n_rx)
    assert len({r.n_tx for r in records}) == 3
    ratios = check_ratio_consistency(records)
    assert [pr.pair for pr in ratios] == list(canonical_pairs(n_rx))
    assert all(pr.discrepancy_db.shape == (120,) for pr in ratios)
    for t, record in enumerate(records):
        assert repr(_per_record(ratios, t)) == repr(_ref_ratio_consistency(record))


@pytest.mark.parametrize("n_rx", [2, 3])
def test_ratio_consistency_csi_power_is_the_exact_integer_sum(n_rx):
    # Integer CSI, mixed n_tx, each port's components within -r..r: each
    # port's CSI power is exactly its integer sum of re*re + im*im, so each
    # ratio is the difference of the logs of those sums, bit for bit.  With
    # small components, as a weak port reads, |csi|**2 is often not exact:
    # abs(1+1j)**2 is 2.0000000000000004.
    rng = np.random.default_rng(40 + n_rx)
    records = []
    for _ in range(200):
        n_tx = int(rng.integers(1, 4))
        r = rng.choice([0, 1, 2, 3, 127], size=(1, n_rx, 1))
        csi = (rng.integers(-r, r + 1, (30, n_rx, n_tx))
               + 1j * rng.integers(-r, r + 1, (30, n_rx, n_tx)))
        records.append(make_record(csi=csi, n_rx=n_rx, n_tx=n_tx,
                                   rssi=(36, 39, 31)[:n_rx] + (0,) * (3 - n_rx)))
    ratios = check_ratio_consistency(records)
    for t, record in enumerate(records):
        re = record.csi.real.astype(int)
        im = record.csi.imag.astype(int)
        power = [sum(int(v) for v in (re[:, p] ** 2 + im[:, p] ** 2).ravel())
                 for p in range(n_rx)]
        log_power = [math.log10(s) if s else math.nan for s in power]
        for pr in ratios:
            j, i = pr.pair
            expected = 10.0 * (log_power[j] - log_power[i])
            assert repr(float(pr.csi_ratio_db[t])) == repr(expected)
