import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from csicalib import (
    ControlAction,
    ControlSettings,
    QualityThresholds,
    SimConfig,
    classify_losses,
    closed_loop,
    estimate_losses,
    recommend,
    trajectory_to_jsonl,
)
from csicalib.errors import ConfigError, InsufficientPorts

from conftest import REALISTIC_DISTORTION


def test_balanced_losses_no_action():
    action = recommend([33, 30, 36])
    assert action.is_zero()
    assert action.feasible
    assert action.predicted_class == "Reliable"


def test_unbalanced_losses_lift_weak_side():
    action = recommend([23, 50, 50])
    assert action.feasible
    assert action.added_attenuation_db[1] == 0
    assert action.added_attenuation_db[2] == 0
    assert 17 <= action.added_attenuation_db[0] <= 27
    assert action.predicted_class == "Reliable"


def test_over_ceiling_is_infeasible():
    action = recommend([30, 80, 80])
    assert not action.feasible
    assert action.is_zero()
    assert action.predicted_class == "PhaseUnmeasurable"


def test_unmeasured_port_is_infeasible():
    action = recommend([30, None, 40])
    assert not action.feasible


def test_an_unmeasured_port_is_infeasible_under_an_infinite_ceiling():
    # Under an infinite ceiling this used to raise ValueError (a NaN spread),
    # where the verdict reads PhaseUnmeasurable.
    thresholds = QualityThresholds(max_loss_db=math.inf)
    for losses in ([math.inf, 10], [None, 10]):
        action = recommend(losses, thresholds=thresholds)
        assert not action.feasible and action.is_zero()
        assert action.predicted_class == classify_losses(losses, thresholds) == "PhaseUnmeasurable"
    unbounded = QualityThresholds(math.inf, math.inf, math.inf)
    assert not recommend([None, 40], thresholds=unbounded).feasible


_loss = st.one_of(st.none(), st.floats(-20.0, 120.0))
# The reliable spread is finite, so an unmeasured port is never Reliable.
_thresholds = st.builds(
    lambda max_loss_db, reliable, unmeasurable: QualityThresholds(
        max_loss_db, reliable, max(reliable, unmeasurable)),
    st.one_of(st.floats(0.0, 100.0), st.just(math.inf)),
    st.floats(0.0, 40.0),
    st.one_of(st.floats(0.0, 40.0), st.just(math.inf)),
)


@hyp_settings(max_examples=300, deadline=None)
@given(st.lists(_loss, min_size=2, max_size=3), _thresholds, st.floats(-10.0, 10.0),
       st.floats(0.0, 5.0))
def test_recommend_decides_by_the_verdicts_loss_checks(losses, thresholds, tx_power_dbm,
                                                       target):
    chain = SimConfig(tx_power_dbm=tx_power_dbm)
    action = recommend(losses, ControlSettings(balance_target_db=target), chain, thresholds)
    measured = [math.inf if l is None else l for l in losses]
    no_action = (classify_losses(losses, thresholds) == "Reliable"
                 and min(measured) >= chain.agc_floor_loss_db())
    assert (action.is_zero() and action.predicted_class == "Reliable") == no_action
    assert action.feasible == (None not in losses and max(measured) <= thresholds.max_loss_db)
    if action.feasible:
        # No addition takes a port past the ceiling, so none predicts Unstable.
        final = [l + a for l, a in zip(measured, action.added_attenuation_db)]
        assert max(final) <= thresholds.max_loss_db
        assert action.predicted_class != "Unstable"


def test_an_agc_floor_above_the_ceiling_caps_the_lift_at_the_ceiling():
    # The AGC floor lies at 32 + 10 = 42 dB, above the 40 dB ceiling: the
    # ports stop at the ceiling, and the AGC stays pinned low.  This used to
    # add 12 dB per port and predict Unstable.
    chain, thresholds = SimConfig(tx_power_dbm=10.0), QualityThresholds(max_loss_db=40)
    action = recommend([30, 30, 30], chain=chain, thresholds=thresholds)
    assert action == ControlAction((10.0, 10.0, 10.0), True, "AgcSaturatedLow")


def test_a_lift_rounded_up_to_a_whole_db_stops_at_the_ceiling():
    # Balancing to 0.3 dB asks for 10.2 dB on the 49.5 dB port; a whole
    # 11 dB would take it past the 60 dB ceiling, which used to predict
    # Unstable.  Capped at 10 dB, the spread is 0.5 dB.
    action = recommend([60, 49.5], ControlSettings(balance_target_db=0.3))
    assert action == ControlAction((0.0, 10.0), True, "Reliable")


@pytest.mark.parametrize("losses", [[math.nan, 40], [40, math.nan]])
def test_a_nan_loss_is_an_unmeasured_port(losses):
    # [nan, 40] used to raise a bare ValueError and [40, nan] to return a
    # zero Reliable action: NaN reads as unmeasured, as None does.
    action = recommend(losses)
    assert action == recommend([math.inf, 40])
    assert not action.feasible and action.is_zero()
    assert action.predicted_class == "PhaseUnmeasurable"


def test_estimate_losses_maps_nan_to_inf():
    losses = estimate_losses(np.array([-36.0, np.nan, -39.5]), -3.0)
    assert losses == (33.0, math.inf, 36.5)
    assert all(type(l) is float for l in losses)
    assert recommend(losses).predicted_class == recommend([33, None, 36.5]).predicted_class


def test_needs_two_ports():
    with pytest.raises(InsufficientPorts):
        recommend([30])


def test_strong_signal_lifted_off_agc_floor():
    action = recommend([15, 15, 15])
    final = [15 + a for a in action.added_attenuation_db]
    assert min(final) >= SimConfig().agc_floor_loss_db()
    assert max(final) <= QualityThresholds().max_loss_db


@pytest.mark.parametrize("tx_power_dbm", [-3.0, 0.0, 6.0])
def test_recommend_lifts_to_the_given_chain_agc_floor(tx_power_dbm):
    chain = SimConfig(tx_power_dbm=tx_power_dbm)
    action = recommend([15, 15, 15], chain=chain)
    # The floor is agc_min + 1 - adc_target + tx_power = 32 + tx_power dB.
    assert chain.agc_floor_loss_db() == 32.0 + tx_power_dbm
    assert [15 + a for a in action.added_attenuation_db] == [32.0 + tx_power_dbm] * 3


def test_recommend_reads_ceiling_and_spread_from_thresholds():
    assert not recommend([30, 30, 55], thresholds=QualityThresholds(max_loss_db=50)).feasible
    assert recommend([30, 30, 38]).is_zero()
    action = recommend([30, 30, 38], thresholds=QualityThresholds(spread_reliable_db=5))
    assert action.added_attenuation_db == (5.0, 5.0, 0.0)
    strict = QualityThresholds(spread_reliable_db=2)
    assert recommend([30, 30, 38], thresholds=strict).predicted_class == "Degraded"


def _brute_force_feasible(losses, thresholds):
    """Search additive attenuations for a spread/ceiling-satisfying point."""
    grid = np.arange(0.0, 61.0, 2.0)
    a0, a1, a2 = np.meshgrid(grid, grid, grid, indexing="ij")
    f0 = losses[0] + a0
    f1 = losses[1] + a1
    f2 = losses[2] + a2
    top = np.maximum(np.maximum(f0, f1), f2)
    bottom = np.minimum(np.minimum(f0, f1), f2)
    ok = (top <= thresholds.max_loss_db) & (top - bottom <= thresholds.spread_reliable_db)
    return bool(ok.any())


def test_feasibility_matches_brute_force():
    _assert_feasibility_matches_brute_force(QualityThresholds())


def test_feasibility_matches_brute_force_under_other_thresholds():
    _assert_feasibility_matches_brute_force(
        QualityThresholds(max_loss_db=50.0, spread_reliable_db=5.0))


def _assert_feasibility_matches_brute_force(thresholds):
    for losses in itertools.combinations_with_replacement(range(0, 91, 5), 3):
        action = recommend(list(losses), thresholds=thresholds)
        assert action.feasible == _brute_force_feasible(losses, thresholds), losses


def test_actions_are_safe_and_idempotent():
    settings = ControlSettings()
    thresholds = QualityThresholds()
    rng = np.random.default_rng(41)
    for _ in range(300):
        losses = list(rng.uniform(5, 90, 3))
        action = recommend(losses, settings)
        assert all(a >= 0 for a in action.added_attenuation_db)
        if not action.feasible:
            assert action.is_zero()
            continue
        final = [l + a for l, a in zip(losses, action.added_attenuation_db)]
        assert max(final) <= thresholds.max_loss_db + 1e-9
        if not action.is_zero():
            assert max(final) - min(final) <= thresholds.spread_reliable_db + 1e-9
        # a second pass on the corrected losses never acts again
        assert recommend(final, settings).is_zero()


def test_closed_loop_balanced_is_fixpoint(consts):
    initial = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    assert len(steps) == 1
    assert steps[0].verdict.cls == "Reliable"
    assert steps[0].action.is_zero()


def test_closed_loop_converges_from_spread(consts):
    initial = SimConfig(attenuation_db=(23.0, 50.0, 50.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    assert len(steps) <= 3
    assert steps[-1].verdict.cls == "Reliable"
    # attenuation only ever increases
    for earlier, later in zip(steps, steps[1:]):
        for a, b in zip(earlier.config.attenuation_db, later.config.attenuation_db):
            assert b >= a


def test_closed_loop_converges_from_strong_signal(consts):
    initial = SimConfig(attenuation_db=(15.0, 15.0, 15.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    assert steps[-1].verdict.cls == "Reliable"
    assert len(steps) <= 3


def test_closed_loop_stops_when_infeasible(consts):
    initial = SimConfig(attenuation_db=(30.0, 80.0, 80.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    assert len(steps) == 1
    assert not steps[-1].action.feasible
    assert steps[-1].config.attenuation_db == initial.attenuation_db


@pytest.mark.parametrize("max_iters", [0, -1])
def test_control_settings_out_of_range_raise_when_built(max_iters):
    with pytest.raises(ConfigError, match="max_iters must be >= 1"):
        ControlSettings(max_iters=max_iters)
    with pytest.raises(ConfigError, match="max_iters must be >= 1"):
        replace(ControlSettings(), max_iters=max_iters)


@pytest.mark.parametrize("target", [-5.0, -1e-9, math.nan])
def test_negative_or_nan_balance_target_raises_when_built(target):
    # -5 made recommend([30, 30, 50]) add (25, 25, 5) dB, attenuating the
    # weakest port, and NaN raised a bare ValueError from math.ceil.
    with pytest.raises(ConfigError, match="balance_target_db must be >= 0"):
        ControlSettings(balance_target_db=target)
    with pytest.raises(ConfigError, match="balance_target_db must be >= 0"):
        replace(ControlSettings(), balance_target_db=target)
    action = recommend([30, 30, 50], ControlSettings(balance_target_db=0.0))
    assert action.added_attenuation_db == (20.0, 20.0, 0.0)


def test_recommend_is_never_handed_inconsistent_thresholds():
    with pytest.raises(ConfigError, match="spread_reliable_db must not exceed"):
        recommend([30, 30, 38], thresholds=QualityThresholds(spread_reliable_db=40.0))


def test_closed_loop_stops_after_max_iters():
    # From a 27 dB spread the loop needs two steps; one is all it may take.
    initial = SimConfig(attenuation_db=(23.0, 50.0, 50.0), n_packets=40, seed=0)
    assert len(closed_loop(initial, REALISTIC_DISTORTION)) == 2
    (step,) = closed_loop(initial, REALISTIC_DISTORTION, ControlSettings(max_iters=1))
    assert step.verdict.cls != "Reliable" and not step.action.is_zero()
    with pytest.raises(ConfigError, match="max_iters must be >= 1"):
        closed_loop(initial, REALISTIC_DISTORTION, ControlSettings(max_iters=0))


def test_trajectory_jsonl_roundtrips(consts):
    initial = SimConfig(attenuation_db=(23.0, 50.0, 50.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    lines = trajectory_to_jsonl(steps).strip().splitlines()
    assert len(lines) == len(steps)
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["iteration"] == i
        assert len(obj["attenuation_db"]) == 3
        assert obj["verdict"] in (
            "Reliable", "Degraded", "AgcSaturatedLow", "AgcSaturatedHigh",
            "Unstable", "PhaseUnmeasurable",
        )


def test_estimated_losses_track_truth(consts):
    initial = SimConfig(attenuation_db=(23.0, 50.0, 50.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    for step in steps:
        for est, att in zip(step.estimated_loss_db, step.config.attenuation_db):
            if math.isinf(est):
                continue
            assert est == pytest.approx(att, abs=2.0)


def test_control_action_serialization():
    action = ControlAction((24.0, 0.0, 0.0), feasible=True, predicted_class="Reliable")
    obj = action.to_obj()
    assert obj == {
        "added_attenuation_db": [24.0, 0.0, 0.0],
        "feasible": True,
        "predicted_class": "Reliable",
    }


@pytest.mark.parametrize("tx_power_dbm, att, final_cls", [
    (0.0, 30.0, "Reliable"),   # AGC pinned low: lifted by 2 dB, then Reliable
    (0.0, 62.0, "Unstable"),   # beyond the 60 dB ceiling; was read as 59 dB
    (-6.0, 58.0, "Reliable"),  # within the ceiling; was read as 61 dB
])
def test_closed_loop_uses_the_controlled_chain(tx_power_dbm, att, final_cls):
    initial = SimConfig(tx_power_dbm=tx_power_dbm, attenuation_db=(att, att, att),
                        n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION)
    for step in steps:
        for est, true in zip(step.estimated_loss_db, step.config.attenuation_db):
            assert est == pytest.approx(true, abs=1.5)
    assert steps[-1].verdict.cls == final_cls
    assert steps[-1].action.feasible == (final_cls != "Unstable")


def test_closed_loop_lower_ceiling_is_infeasible():
    # Every port at or below 50 dB would need the 55 dB port made stronger,
    # which added attenuation cannot do.
    initial = SimConfig(attenuation_db=(20.0, 40.0, 55.0), n_packets=40, seed=0)
    steps = closed_loop(initial, REALISTIC_DISTORTION,
                        thresholds=QualityThresholds(max_loss_db=50.0))
    assert len(steps) == 1
    assert not steps[0].action.feasible
    assert steps[0].action.is_zero()


def test_closed_loop_balances_to_a_tighter_spread():
    initial = SimConfig(attenuation_db=(30.0, 30.0, 38.0), n_packets=40, seed=0)
    thresholds = QualityThresholds(spread_reliable_db=5.0)
    steps = closed_loop(initial, REALISTIC_DISTORTION, thresholds=thresholds)
    assert steps[0].verdict.cls == "Degraded"
    assert not steps[0].action.is_zero()
    assert steps[-1].verdict.cls == "Reliable"
    final = steps[-1].config.attenuation_db
    assert max(final) - min(final) <= thresholds.spread_reliable_db
