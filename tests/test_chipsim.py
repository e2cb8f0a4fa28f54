import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from csicalib import (
    CalibrationConstants,
    MultipathTap,
    PhaseDistortion,
    QualityThresholds,
    SimConfig,
    differential_series,
    encode_binary_trace,
    recommend,
    run_sweep,
    simulate_capture,
    sweep_outputs,
    variation_stats,
)
from csicalib.errors import ConfigError

from conftest import REALISTIC_DISTORTION


BALANCED = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=100, seed=0)


def test_determinism_byte_identical():
    a = encode_binary_trace(simulate_capture(BALANCED, REALISTIC_DISTORTION))
    b = encode_binary_trace(simulate_capture(BALANCED, REALISTIC_DISTORTION))
    assert a == b


def test_seed_changes_output():
    a = encode_binary_trace(simulate_capture(BALANCED, REALISTIC_DISTORTION))
    other = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=100, seed=1)
    b = encode_binary_trace(simulate_capture(other, REALISTIC_DISTORTION))
    assert a != b


def test_agc_tracks_strongest_port():
    records = simulate_capture(BALANCED, REALISTIC_DISTORTION)
    assert {r.agc for r in records} == {28}


def test_agc_pins_low_on_strong_signal():
    config = SimConfig(attenuation_db=(15.0, 15.0, 15.0), n_packets=30, seed=0)
    records = simulate_capture(config, REALISTIC_DISTORTION)
    assert {r.agc for r in records} == {26}


def test_agc_pins_high_on_weak_signal():
    config = SimConfig(attenuation_db=(75.0, 75.0, 75.0), n_packets=30, seed=0)
    records = simulate_capture(config, REALISTIC_DISTORTION)
    assert {r.agc for r in records} == {63}


def test_agc_nonincreasing_in_attenuation():
    prev = None
    for att in (20.0, 30.0, 40.0, 50.0, 60.0, 70.0):
        config = SimConfig(attenuation_db=(att, att, att), n_packets=5, seed=0)
        agc = simulate_capture(config)[0].agc
        if prev is not None:
            assert agc >= prev
        prev = agc


def test_rssi_readouts_match_chain(consts):
    records = simulate_capture(BALANCED, REALISTIC_DISTORTION)
    mean_rssi = np.mean([r.rssi for r in records], axis=0)
    # ideal chain: rssi = tx - att + agc + 44 = (36, 39, 33)
    assert mean_rssi[0] == pytest.approx(36, abs=1)
    assert mean_rssi[1] == pytest.approx(39, abs=1)
    assert mean_rssi[2] == pytest.approx(33, abs=1)


def test_zero_csi_on_unbalanced_channels(consts):
    config = SimConfig(attenuation_db=(30.0, 80.0, 80.0), n_packets=50, seed=0)
    stats = variation_stats(simulate_capture(config, REALISTIC_DISTORTION), consts)
    assert stats.zero_fraction[0] < 0.01
    assert stats.zero_fraction[1] >= 0.9
    assert stats.zero_fraction[2] >= 0.9


def test_exact_mode_amplitude(consts):
    # noise and quantization off: calibrated amplitude variation vanishes
    config = SimConfig(
        attenuation_db=(33.0, 30.0, 36.0),
        noise_floor_dbm=None,
        quantize=False,
        n_packets=20,
        seed=0,
    )
    stats = variation_stats(simulate_capture(config, REALISTIC_DISTORTION), consts)
    assert float(np.max(stats.port_amp_std_db())) < 1e-6
    # and amplitudes recover tx minus attenuation minus 10*log10(30) exactly
    spread_db = 10 * math.log10(30)
    for p, att in enumerate(config.attenuation_db):
        expected = config.tx_power_dbm - att - spread_db
        assert float(np.max(np.abs(stats.amp_mean_dbm[p] - expected))) < 1e-6


def test_exact_mode_differential_phase_is_port_offset():
    config = SimConfig(
        attenuation_db=(30.0, 30.0, 30.0),
        noise_floor_dbm=None,
        quantize=False,
        n_packets=20,
        seed=0,
    )
    records = simulate_capture(config, REALISTIC_DISTORTION)
    d = REALISTIC_DISTORTION.delta_deg
    for pair in ((1, 0), (2, 1), (0, 2)):
        series = differential_series(records, pair)
        expected = d[pair[0]] - d[pair[1]]
        drift = np.ptp(series.phase_deg)
        assert drift < 1e-9
        assert float(series.phase_deg[0, 0]) == pytest.approx(expected, abs=1e-9)


def test_exact_mode_ratio_discrepancy_vanishes():
    config = SimConfig(
        attenuation_db=(33.0, 30.0, 36.0),
        noise_floor_dbm=None,
        quantize=False,
        n_packets=5,
        seed=0,
    )
    results = run_sweep([config], REALISTIC_DISTORTION)
    assert max(results[0].ratio_max_abs_db.values()) < 1e-9


def test_quantized_ratio_discrepancy_small():
    results = run_sweep([BALANCED], REALISTIC_DISTORTION)
    assert max(results[0].ratio_max_abs_db.values()) <= 1.0


def test_same_attenuation_sweep_trend(consts):
    # phase variation grows with loss; modest below 50 dB, large at 66/80
    stds = {}
    for att in (16.0, 30.0, 40.0, 50.0, 66.0, 80.0):
        config = SimConfig(attenuation_db=(att, att, att), n_packets=80, seed=2)
        stats = variation_stats(
            simulate_capture(config, REALISTIC_DISTORTION), consts
        )
        stds[att] = float(np.nanmean(stats.pair_phase_std_deg()))
    for att in (16.0, 30.0, 40.0, 50.0):
        assert stds[att] < 2.0
    assert stds[66.0] >= 3 * stds[40.0]
    assert stds[80.0] > stds[66.0]


def test_unbalanced_set_phase_variation(consts):
    config = SimConfig(attenuation_db=(23.0, 50.0, 50.0), n_packets=80, seed=3)
    stats = variation_stats(simulate_capture(config, REALISTIC_DISTORTION), consts)
    stds = stats.pair_phase_std_deg()
    # pairs spanning the 27 dB gap are far noisier than a balanced capture
    assert float(np.max(stds)) > 5.0


def test_sweep_balanced_set_verdicts():
    rows = [
        (60.0, 56.0, 66.0),
        (53.0, 50.0, 63.0),
        (23.0, 26.0, 20.0),
        (40.0, 43.0, 46.0),
        (33.0, 30.0, 36.0),
        (50.0, 56.0, 53.0),
    ]
    configs = [
        SimConfig(attenuation_db=row, n_packets=60, seed=10 + i)
        for i, row in enumerate(rows)
    ]
    results = run_sweep(configs, REALISTIC_DISTORTION)
    for row, res in zip(rows, results):
        if max(row) > 60.0:
            # over the loss ceiling: class demoted, no STD guarantees
            assert res.verdict.cls == "Unstable"
            continue
        if min(row) < 29.0:
            # strong enough to pin the adaptive gain at its low clamp
            assert res.verdict.cls == "AgcSaturatedLow"
        else:
            assert res.verdict.cls == "Reliable"
        assert float(np.max(res.stats.port_amp_std_db())) < 0.5
        assert float(np.max(res.stats.pair_phase_std_deg())) < 5.0


def test_sweep_points_equal_their_sweeps_of_one():
    # Consecutive points differ in one field of the held draw's key at a
    # time, so a key that misses a field, or a stale draw, shows here.
    a = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=60, seed=4)
    b = replace(a, attenuation_db=(40.0, 30.0, 36.0))
    c = replace(b, seed=5)
    d = replace(c, n_packets=80)
    e = replace(d, attenuation_db=(40.0, 30.0))
    f = replace(e, noise_floor_dbm=None)
    g = replace(f, noise_floor_dbm=-82.0)
    configs = [a, b, c, d, e, f, g, a, g, a]
    for config, res in zip(configs, run_sweep(configs, REALISTIC_DISTORTION)):
        (alone,) = run_sweep([config], REALISTIC_DISTORTION)
        for field in fields(res.stats):
            assert np.asarray(getattr(res.stats, field.name)).tobytes() == \
                np.asarray(getattr(alone.stats, field.name)).tobytes(), field.name
        assert res.rssi_deviation_db.tobytes() == alone.rssi_deviation_db.tobytes()
        assert repr(res.ratio_max_abs_db) == repr(alone.ratio_max_abs_db)
        assert res.verdict.to_json() == alone.verdict.to_json()


def test_sweep_rssi_deviation_bounded():
    results = run_sweep([BALANCED], REALISTIC_DISTORTION)
    assert results[0].rssi_deviation_db.shape == (3,)
    for dev in results[0].rssi_deviation_db:
        assert abs(dev) <= 1.5


def test_multipath_channel_still_calibrates(consts):
    config = SimConfig(
        attenuation_db=(33.0, 30.0, 36.0),
        multipath=(
            MultipathTap(gain=1.0),
            MultipathTap(gain=0.4, phase_deg=60.0, delay_slope_deg=9.0),
        ),
        n_packets=60,
        seed=5,
    )
    stats = variation_stats(simulate_capture(config, REALISTIC_DISTORTION), consts)
    assert np.all(stats.port_amp_std_db() < 0.5)
    for p, att in enumerate(config.attenuation_db):
        assert stats.port_power_mean_dbm[p] == pytest.approx(
            config.tx_power_dbm - att, abs=1.5
        )


_OUT_OF_RANGE = [
    ({"n_packets": 0}, "n_packets must be >= 1"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"attenuation_db": ()}, "attenuation_db needs 1 to 3 entries"),
    ({"attenuation_db": (30.0,) * 4}, "attenuation_db needs 1 to 3 entries"),
    ({"multipath": ()}, "at least one multipath tap required"),
    ({"noise_floor_dbm": 10.0}, "noise floor must sit below transmit power"),
    ({"agc_min_db": 63}, "need 0 <= agc_min_db < agc_max_db <= 255"),
    ({"c_fixed_db": 1e5}, "c_fixed=100000.0 dB puts calibrated port powers"),
    ({"adc_ref_amplitude": 1e306}, "chain values put a linear power or the count scale"),
    ({"multipath": (MultipathTap(gain=0.0),)}, "multipath taps cancel to a zero channel"),
    ({"multipath": (MultipathTap(gain=2.0), MultipathTap(gain=-2.0))},
     "multipath taps cancel to a zero channel"),
    # A NaN passes every comparison: each used to build, then fail in
    # simulate_capture, and adc_ref_amplitude=0 simulated all-zero CSI.
    ({"tx_power_dbm": math.nan}, "tx_power_dbm must be a number, got NaN"),
    ({"noise_floor_dbm": math.nan}, "noise_floor_dbm must be a number, got NaN"),
    ({"attenuation_db": (30.0, math.nan, 30.0)}, "attenuation_db must be a number, got NaN"),
    # An infinite transmit power used to build, then fail in simulate_capture.
    ({"tx_power_dbm": math.inf}, "tx_power_dbm must be finite, got an infinity"),
    ({"tx_power_dbm": -math.inf}, "tx_power_dbm must be finite, got an infinity"),
    # An infinite ADC target used to build and simulate all-zero CSI, with
    # an AGC floor of -inf; NaN and -inf got the message of the float range.
    ({"adc_target_dbm": math.nan}, "adc_target_dbm must be a number, got NaN"),
    ({"adc_target_dbm": math.inf}, "adc_target_dbm must be finite, got an infinity"),
    ({"adc_target_dbm": -math.inf}, "adc_target_dbm must be finite, got an infinity"),
    ({"adc_ref_amplitude": 0.0}, "adc_ref_amplitude must be > 0, got 0.0"),
    ({"adc_ref_amplitude": -30.0}, "adc_ref_amplitude must be > 0, got -30.0"),
]


@pytest.mark.parametrize("values, message", _OUT_OF_RANGE)
def test_config_out_of_range_raises_when_built(values, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        SimConfig(**values)
    with pytest.raises(ConfigError, match=re.escape(message)):
        replace(BALANCED, **values)


@pytest.mark.parametrize("field", ["gain", "phase_deg", "delay_slope_deg"])
def test_a_nan_multipath_tap_raises_when_built(field):
    with pytest.raises(ConfigError, match=f"{field} must be a number, got NaN"):
        MultipathTap(**{field: math.nan})


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", ["gain", "phase_deg", "delay_slope_deg"])
def test_an_infinite_multipath_tap_raises_when_built(field, value):
    # Such a tap used to build, then fail in simulate_capture.
    with pytest.raises(ConfigError, match=f"{field} must be finite, got an infinity"):
        MultipathTap(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["cfo_rate_deg", "sfo_slope_deg", "pdd_jitter_deg",
                                   "delta_deg"])
def test_a_distortion_that_is_not_finite_raises_when_built(field, value):
    # Such a distortion used to build, then fail in simulate_capture with
    # "the simulated chain leaves the float range", naming no field.
    message = ("must be a number, got NaN" if math.isnan(value)
               else "must be finite, got an infinity")
    given = (0.0, value, 0.0) if field == "delta_deg" else value
    with pytest.raises(ConfigError, match=f"{field} {message}"):
        PhaseDistortion(**{field: given})
    with pytest.raises(ConfigError, match=f"{field} {message}"):
        replace(PhaseDistortion(), **{field: given})


def test_an_infinite_chain_is_refused_before_recommend():
    # recommend used to raise OverflowError on an infinite transmit power.
    with pytest.raises(ConfigError, match="tx_power_dbm must be finite, got an infinity"):
        recommend([10, 10, 10], chain=SimConfig(tx_power_dbm=math.inf))


def test_a_nan_chain_is_refused_before_recommend():
    # recommend used to add (0, 0, 0) dB on a chain with a NaN transmit
    # power, where the default chain adds (19, 19, 19).
    assert recommend([10, 10, 10], chain=SimConfig()).added_attenuation_db == (19.0, 19.0, 19.0)
    with pytest.raises(ConfigError, match="tx_power_dbm must be a number, got NaN"):
        recommend([10, 10, 10], chain=SimConfig(tx_power_dbm=math.nan))


def test_a_channel_past_the_float_range_raises_when_simulated():
    # A tap this strong overflows only in the simulation's arithmetic.
    config = SimConfig(multipath=(MultipathTap(gain=1e200),))
    with pytest.raises(ConfigError, match="the simulated chain leaves the float range"):
        simulate_capture(config)


def test_config_validation():
    with pytest.raises(ConfigError):
        run_sweep([])
    # Thresholds that would class a 5 dB spread unmeasurable cannot be built.
    with pytest.raises(ConfigError, match="spread_reliable_db must not exceed"):
        run_sweep([BALANCED], thresholds=QualityThresholds(spread_unmeasurable_db=5.0))


def test_sweep_outputs_need_results_of_one_port_count():
    with pytest.raises(ConfigError, match=re.escape("one port count, got []")):
        sweep_outputs([])
    configs = [SimConfig(attenuation_db=(30.0,) * n, n_packets=5) for n in (3, 1, 2)]
    results = run_sweep(configs)
    with pytest.raises(ConfigError, match=re.escape("one port count, got [1, 2, 3]")):
        sweep_outputs(results)
    for n_rx, res in zip((3, 1, 2), results):
        header = sweep_outputs([res])["report.csv"].splitlines()[0].split(",")
        assert len(header) == 3 + 3 * n_rx + len(res.stats.pairs)


@pytest.mark.parametrize("delta_deg", [(40.0,), (0.0, 40.0)])
def test_short_delta_deg_is_config_error(delta_deg):
    distortion = PhaseDistortion(delta_deg=delta_deg)
    with pytest.raises(ConfigError, match=f"delta_deg needs at least 3 entries, one per port, "
                                          f"got {len(delta_deg)}"):
        simulate_capture(SimConfig(), distortion)
    # A chain of as many ports as entries takes it.
    chain = SimConfig(attenuation_db=(30.0,) * len(delta_deg))
    assert len(simulate_capture(chain, distortion)) == chain.n_packets


def test_calibration_constants_follow_the_chain():
    assert SimConfig().calibration_constants() == CalibrationConstants()
    chain = SimConfig(c_fixed_db=40.0, agc_min_db=20, agc_max_db=60)
    assert chain.calibration_constants() == CalibrationConstants(40.0, 20, 60)


def test_sweep_calibrates_each_config_with_its_own_chain():
    configs = [BALANCED, SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=100,
                                   seed=0, c_fixed_db=50.0)]
    for res in run_sweep(configs, REALISTIC_DISTORTION):
        assert res.verdict.cls == "Reliable"
        for deviation in res.rssi_deviation_db:
            assert abs(deviation) <= 1.5


def test_distortion_free_capture_is_static():
    config = SimConfig(
        attenuation_db=(33.0, 30.0, 36.0),
        noise_floor_dbm=None,
        n_packets=10,
        seed=0,
    )
    records = simulate_capture(config)
    first = records[0].csi
    for record in records[1:]:
        np.testing.assert_array_equal(record.csi, first)
