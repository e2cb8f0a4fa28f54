import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicalib import (
    CalibrationConstants,
    QualityThresholds,
    SimConfig,
    VariationStats,
    classify,
    classify_losses,
    simulate_capture,
    stats_to_csv,
    variation_stats,
)
from csicalib.errors import ConfigError, InsufficientData

from conftest import REALISTIC_DISTORTION, make_record


def _stats(zero_fraction=(0.0, 0.0, 0.0), agc=(28, 28, 28), n_rx=3):
    pairs = ((1, 0), (2, 1), (0, 2))
    return VariationStats(
        amp_mean_dbm=np.zeros((n_rx, 30)),
        amp_std_db=np.zeros((n_rx, 30)),
        phase_mean_deg=np.zeros((len(pairs), 30)),
        phase_std_deg=np.zeros((len(pairs), 30)),
        zero_fraction=np.asarray(zero_fraction, dtype=float),
        pairs=pairs,
        agc_readouts=tuple(agc),
        port_power_mean_dbm=np.full(n_rx, -40.0),
        n_records=len(agc),
    )


def test_identical_records_zero_variation(consts):
    rng = np.random.default_rng(21)
    csi = (rng.integers(-40, 41, (30, 3, 1))
           + 1j * rng.integers(-40, 41, (30, 3, 1))).astype(complex)
    records = [make_record(csi=csi.copy()) for _ in range(10)]
    stats = variation_stats(records, consts)
    np.testing.assert_allclose(stats.port_amp_std_db(), 0.0, atol=1e-9)
    np.testing.assert_allclose(stats.pair_phase_std_deg(), 0.0, atol=1e-9)
    np.testing.assert_allclose(stats.zero_fraction, 0.0)


def test_port_power_mean_skips_absent_records():
    # A fractional C makes the powers non-integers, so the order of the
    # summation shows in the bits.
    consts = CalibrationConstants(c_fixed=44.37)
    rng = np.random.default_rng(5)
    records = [make_record(rssi=(int(a), int(b), int(c) if t % 4 else 0), agc=int(agc))
               for t, (a, b, c, agc) in enumerate(rng.integers(20, 60, (40, 4)))]
    stats = variation_stats(records, consts)
    assert stats.port_power_mean_dbm.shape == (3,)
    for p in range(3):
        present = [float(r.rssi[p] - r.agc - consts.c_fixed) for r in records if r.rssi[p]]
        assert stats.port_power_mean_dbm[p] == float(np.mean(present))
    # Port 3 reads absent in 10 of the 40 records: its amplitude statistics
    # are those of the other 30.
    used = [r for r in records if r.rssi[2]]
    assert len(used) == 30
    np.testing.assert_allclose(stats.amp_mean_dbm[2],
                               variation_stats(used, consts).amp_mean_dbm[2], rtol=1e-12)

    never = variation_stats([replace(r, rssi=(*r.rssi[:2], 0)) for r in records], consts)
    assert np.isnan(never.port_power_mean_dbm[2])
    assert np.all(np.isnan(never.amp_std_db[2]))
    assert np.array_equal(never.port_power_mean_dbm[:2], stats.port_power_mean_dbm[:2])


def test_variation_stats_needs_two_records(consts):
    with pytest.raises(InsufficientData):
        variation_stats([make_record()], consts)


@pytest.mark.parametrize("losses", [[math.nan, 40], [40, math.nan]])
def test_a_nan_loss_is_an_unmeasured_port(losses):
    # A NaN loss used to read Reliable, since no comparison with NaN holds.
    assert classify_losses(losses) == classify_losses([math.inf, 40]) == "PhaseUnmeasurable"
    assert classify(_stats(n_rx=2), losses) == classify(_stats(n_rx=2), [math.inf, 40])


def test_classify_losses_examples():
    assert classify_losses([33, 30, 36]) == "Reliable"
    assert classify_losses([66, 66, 66]) == "Unstable"
    assert classify_losses([23, 50, 50]) == "Degraded"
    assert classify_losses([30, 80, 80]) == "PhaseUnmeasurable"
    assert classify_losses([30, None, 80]) == "PhaseUnmeasurable"


def test_classify_balanced_losses(consts):
    verdict = classify(_stats(), [33, 30, 36])
    assert verdict.cls == "Reliable"
    assert verdict.reasons == []


def test_classify_degraded_spread(consts):
    verdict = classify(_stats(), [23, 50, 50])
    assert verdict.cls == "Degraded"
    assert any(r["check"] == "loss_spread" for r in verdict.reasons)


def test_classify_unstable(consts):
    verdict = classify(_stats(), [66, 66, 66])
    assert verdict.cls == "Unstable"
    assert any(r["check"] == "max_loss" for r in verdict.reasons)


def test_classify_unmeasurable_from_zero_fraction(consts):
    verdict = classify(_stats(zero_fraction=(0.0, 1.0, 1.0)), [30, 80, 80])
    assert verdict.cls == "PhaseUnmeasurable"
    checks = {r["check"] for r in verdict.reasons}
    assert "zero_fraction" in checks


def test_classify_without_losses_checks_the_spread_of_the_port_powers():
    def verdict(powers, losses=None, thresholds=QualityThresholds()):
        stats = _stats(agc=(27, 28, 40))
        stats.port_power_mean_dbm = np.array(powers)
        return classify(stats, losses, thresholds)

    weak = verdict([-33.0, -33.0, -53.0])
    assert (weak.cls, weak.reasons) == ("Degraded", [
        {"check": "power_spread", "threshold": 10.0, "observed": 20.0}])
    # Only the ports that read present count; fewer than two have no spread.
    far = verdict([-33.0, np.nan, -73.5])
    assert (far.cls, far.reasons) == ("PhaseUnmeasurable", [
        {"check": "power_spread", "threshold": 30.0, "observed": 40.5}])
    assert verdict([-33.0, np.nan, np.nan]).cls == "Reliable"
    assert verdict([-33.0, -36.0, -39.0]).cls == "Reliable"
    assert verdict([-33.0, -36.0, -39.0], thresholds=QualityThresholds(
        spread_reliable_db=5.0)).cls == "Degraded"
    # Given losses, their spread is checked, not the powers'.
    assert verdict([-33.0, np.nan, -73.5], [30, 30, 30]).reasons == []


def test_classify_agc_pinning(consts):
    low = classify(_stats(agc=(26, 26, 26)), [20, 20, 20])
    assert low.cls == "AgcSaturatedLow"
    high = classify(_stats(agc=(63, 63, 63)), [55, 55, 55])
    assert high.cls == "AgcSaturatedHigh"
    mixed = classify(_stats(agc=(26, 27, 26)), [33, 30, 36])
    assert mixed.cls == "Reliable"


def test_classify_precedence(consts):
    # unmeasurable spread plus a pinned AGC: the spread wins
    verdict = classify(_stats(agc=(63, 63, 63)), [20, 55, 55])
    assert verdict.cls == "PhaseUnmeasurable"
    # over-ceiling loss plus pinned AGC: unstable wins
    verdict = classify(_stats(agc=(63, 63, 63)), [61, 61, 61])
    assert verdict.cls == "Unstable"


_SEVERITY = {
    "Reliable": 0,
    "Degraded": 1,
    "AgcSaturatedHigh": 2,
    "AgcSaturatedLow": 2,
    "Unstable": 3,
    "PhaseUnmeasurable": 4,
}


def test_classify_losses_monotone_in_max_port():
    # raising only the already-largest loss never improves the class
    rng = np.random.default_rng(31)
    for _ in range(200):
        losses = sorted(rng.uniform(15, 75, 3))
        before = classify_losses(losses)
        bumped = losses[:2] + [losses[2] + float(rng.uniform(0, 30))]
        after = classify_losses(bumped)
        assert _SEVERITY[after] >= _SEVERITY[before]


_THRESHOLDS_OUT_OF_RANGE = [
    ({"spread_reliable_db": 40.0}, "spread_reliable_db must not exceed spread_unmeasurable_db"),
    ({"spread_unmeasurable_db": 5.0},
     "spread_reliable_db must not exceed spread_unmeasurable_db"),
    ({"zero_fraction_max": 1.5}, "zero_fraction_max must lie in [0, 1]"),
    ({"zero_fraction_max": -0.1}, "zero_fraction_max must lie in [0, 1]"),
    # A NaN ceiling used to class every loss Reliable, since no loss exceeds NaN.
    ({"max_loss_db": math.nan}, "max_loss_db must be a number, got NaN"),
    ({"spread_reliable_db": math.nan}, "spread_reliable_db must be a number, got NaN"),
    ({"spread_unmeasurable_db": math.nan}, "spread_unmeasurable_db must be a number, got NaN"),
]


@pytest.mark.parametrize("values, message", _THRESHOLDS_OUT_OF_RANGE)
def test_thresholds_out_of_range_raise_when_built(values, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        QualityThresholds(**values)
    with pytest.raises(ConfigError, match=re.escape(message)):
        replace(QualityThresholds(), **values)


def test_inconsistent_thresholds_never_reach_classify():
    # These used to class a 20 dB spread PhaseUnmeasurable and raise nothing.
    stats = _stats(agc=(27, 28, 40))
    with pytest.raises(ConfigError, match="spread_reliable_db must not exceed"):
        classify_losses([30, 45, 50], QualityThresholds(spread_reliable_db=40,
                                                        spread_unmeasurable_db=5))
    with pytest.raises(ConfigError, match="spread_reliable_db must not exceed"):
        classify(stats, [30, 45, 50], QualityThresholds(spread_reliable_db=40,
                                                         spread_unmeasurable_db=5))


_loss = st.one_of(st.none(), st.floats(0.0, 100.0))
# Only thresholds that can be built: the reliable spread at most the unmeasurable one.
_thresholds = st.builds(
    lambda max_loss_db, spreads: QualityThresholds(max_loss_db, *sorted(spreads)),
    st.floats(0.0, 100.0),
    st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_loss, min_size=2, max_size=3), _thresholds)
def test_classify_losses_agrees_with_classify(losses, thresholds):
    # With no zero CSI and no AGC pinning, only the loss rules decide.
    stats = _stats(agc=(27, 28, 40))
    assert classify_losses(losses, thresholds) == classify(stats, losses, thresholds).cls


def test_classify_losses_permutation_invariant():
    rng = np.random.default_rng(32)
    for _ in range(100):
        losses = list(rng.uniform(15, 90, 3))
        ref = classify_losses(losses)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert classify_losses([losses[i] for i in perm]) == ref


def test_simulated_capture_stats_bounds(consts):
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=60, seed=4)
    records = simulate_capture(config, REALISTIC_DISTORTION)
    stats = variation_stats(records, consts)
    assert np.all(stats.port_amp_std_db() < 0.5)
    assert np.all(stats.pair_phase_std_deg() < 3.0)
    assert np.all(stats.zero_fraction < 0.01)
    # measured port powers track tx minus attenuation to within ~1.5 dB
    for p, att in enumerate(config.attenuation_db):
        assert stats.port_power_mean_dbm[p] == pytest.approx(
            config.tx_power_dbm - att, abs=1.5
        )


def test_stats_to_csv_shape(consts):
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=20, seed=4)
    stats = variation_stats(simulate_capture(config, REALISTIC_DISTORTION), consts)
    text = stats_to_csv([("run1", stats)])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("label,amp_std_port1_db")
    assert lines[1].startswith("run1,")


def test_stats_to_csv_leaves_every_missing_value_empty(consts):
    # Ports 2 and 3 at 90 dB read no CSI at all: no amplitude, no phase.
    config = SimConfig(attenuation_db=(30.0, 90.0, 90.0), n_packets=30)
    stats = variation_stats(simulate_capture(config), consts)
    row = stats_to_csv([("weak", stats)]).splitlines()[1]
    assert row == "weak,0.0000,,,,,,0.0000,1.0000,1.0000"


def test_zero_fraction_matches_per_record_means(consts):
    # The reference takes each record's zero fraction with np.mean and then
    # their mean; records differ in n_tx, which weights their entries.
    rng = np.random.default_rng(8)
    for n_rx, n_packets in ((1, 9), (2, 40), (3, 300)):
        records = []
        for _ in range(n_packets):
            n_tx = int(rng.integers(1, 4))
            csi = rng.integers(-1, 2, (30, n_rx, n_tx)) + 1j * rng.integers(-1, 2, (30, n_rx, n_tx))
            csi[rng.random(csi.shape) < rng.random()] = 0
            csi[0, 0, 0] = 1
            records.append(make_record(csi=csi, n_rx=n_rx, n_tx=n_tx,
                                       rssi=[40] * n_rx + [0] * (3 - n_rx)))
        expected = np.array([
            np.mean([np.mean(r.csi[:, p, :] == 0) for r in records]) for p in range(n_rx)
        ])
        got = variation_stats(records, consts).zero_fraction
        assert got.tobytes() == expected.tobytes()
