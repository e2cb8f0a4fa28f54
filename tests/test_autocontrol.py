import itertools
import json
import math

import numpy as np
import pytest

from csicalib import (
    ControlAction,
    ControlSettings,
    SimConfig,
    closed_loop,
    recommend,
    trajectory_to_jsonl,
)
from csicalib.errors import InsufficientPorts

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


def test_needs_two_ports():
    with pytest.raises(InsufficientPorts):
        recommend([30])


def test_strong_signal_lifted_off_agc_floor():
    settings = ControlSettings()
    action = recommend([15, 15, 15], settings)
    final = [15 + a for a in action.added_attenuation_db]
    assert min(final) >= settings.agc_floor_loss_db()
    assert max(final) <= settings.max_loss_db


def _brute_force_feasible(losses, settings):
    """Search additive attenuations for a spread/ceiling-satisfying point."""
    grid = np.arange(0.0, 61.0, 2.0)
    a0, a1, a2 = np.meshgrid(grid, grid, grid, indexing="ij")
    f0 = losses[0] + a0
    f1 = losses[1] + a1
    f2 = losses[2] + a2
    top = np.maximum(np.maximum(f0, f1), f2)
    bottom = np.minimum(np.minimum(f0, f1), f2)
    ok = (top <= settings.max_loss_db) & (top - bottom <= settings.spread_ok_db)
    return bool(ok.any())


def test_feasibility_matches_brute_force():
    settings = ControlSettings()
    for losses in itertools.combinations_with_replacement(range(0, 91, 5), 3):
        action = recommend(list(losses), settings)
        assert action.feasible == _brute_force_feasible(losses, settings), losses


def test_actions_are_safe_and_idempotent():
    settings = ControlSettings()
    rng = np.random.default_rng(41)
    for _ in range(300):
        losses = list(rng.uniform(5, 90, 3))
        action = recommend(losses, settings)
        assert all(a >= 0 for a in action.added_attenuation_db)
        if not action.feasible:
            assert action.is_zero()
            continue
        final = [l + a for l, a in zip(losses, action.added_attenuation_db)]
        assert max(final) <= settings.max_loss_db + 1e-9
        if not action.is_zero():
            assert max(final) - min(final) <= settings.spread_ok_db + 1e-9
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
