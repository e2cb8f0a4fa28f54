"""Closed-loop attenuation balancing.

When the inter-port spread is too large for a stable measurement, adding
attenuation to the strong ports balances the channels without touching the
weak one.  The controller only ever adds attenuation, keeps every port at
or below the loss ceiling, and lifts all ports together when the signal is
so strong that the adaptive gain would pin at its minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, InsufficientPorts
from .ingest import CalibrationConstants
from .chipsim import PhaseDistortion, SimConfig, simulate_capture
from .quality import QualityThresholds, QualityVerdict, classify, classify_losses, variation_stats


@dataclass(frozen=True)
class ControlSettings:
    """Control-law parameters on top of the classification thresholds.

    balance_target_db is the spread the controller balances to when it has
    to act (tighter than the 10 dB acceptance bound to leave margin for
    the ~2 dB RSSI estimation error).  The tx/adc/agc fields describe the
    chain so the controller can keep the adaptive gain off its lower clamp;
    closed_loop replaces all four with those of the SimConfig it controls,
    so they only matter to a direct call of recommend.
    """

    balance_target_db: float = 3.0
    spread_ok_db: float = 10.0
    max_loss_db: float = 60.0
    tx_power_dbm: float = -3.0
    adc_target_dbm: float = -5.0
    agc_min_db: int = 26
    agc_max_db: int = 63

    def agc_floor_loss_db(self) -> float:
        """Smallest port loss keeping the AGC readout above its lower clamp."""
        # AGC readout is adc_target - (tx - min_loss); keep it one dB above
        # the clamp so pinning detection cannot trigger.
        return self.agc_min_db + 1 - self.adc_target_dbm + self.tx_power_dbm


@dataclass(frozen=True)
class ControlAction:
    added_attenuation_db: tuple[float, ...]
    feasible: bool
    predicted_class: str

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.added_attenuation_db)

    def to_obj(self) -> dict:
        return {
            "added_attenuation_db": list(self.added_attenuation_db),
            "feasible": self.feasible,
            "predicted_class": self.predicted_class,
        }


def recommend(est_port_loss_db, settings: ControlSettings = ControlSettings()) -> ControlAction:
    """Per-port attenuation additions that balance the channels.

    Losses of None or infinity mean the port could not be measured.  The
    weakest channel can never be helped by adding attenuation, so any loss
    above the ceiling makes the action infeasible (zero adjustments).
    """
    losses = [math.inf if l is None else float(l) for l in est_port_loss_db]
    if len(losses) < 2:
        raise InsufficientPorts("need loss estimates for at least two ports")

    zero = (0.0,) * len(losses)
    if max(losses) > settings.max_loss_db:
        return ControlAction(zero, feasible=False,
                             predicted_class=classify_losses(losses))

    spread = max(losses) - min(losses)
    agc_floor = settings.agc_floor_loss_db()
    if spread <= settings.spread_ok_db and min(losses) >= agc_floor:
        return ControlAction(zero, feasible=True, predicted_class="Reliable")

    # Lift every port to a common floor: within balance_target_db of the
    # weakest channel and high enough to keep the AGC off its minimum.
    floor_level = max(max(losses) - settings.balance_target_db, agc_floor)
    added = tuple(float(max(0, math.ceil(floor_level - l))) for l in losses)
    final = [l + a for l, a in zip(losses, added)]
    return ControlAction(added, feasible=True,
                         predicted_class=classify_losses(final))


@dataclass
class LoopStep:
    iteration: int
    config: SimConfig
    estimated_loss_db: tuple[float, ...]
    verdict: QualityVerdict
    action: ControlAction


def estimate_losses(stats_port_power: dict[int, float], n_rx: int,
                    tx_power_dbm: float) -> tuple[float, ...]:
    """Loss per port from measured (RSSI-derived) power; inf when absent."""
    return tuple(
        tx_power_dbm - stats_port_power[p] if p in stats_port_power else math.inf
        for p in range(n_rx)
    )


def closed_loop(
    initial: SimConfig,
    distortion: PhaseDistortion | None = None,
    settings: ControlSettings = ControlSettings(),
    thresholds: QualityThresholds = QualityThresholds(),
    consts: CalibrationConstants | None = None,
    max_iters: int = 8,
) -> list[LoopStep]:
    """Iterate simulate -> calibrate -> estimate -> recommend -> apply.

    Loss estimates come only from the measured RSSI, never from the
    configured attenuations.  The loop stops on a Reliable verdict, an
    infeasible or empty action, or max_iters.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if consts is None:
        consts = CalibrationConstants(
            c_fixed=initial.c_fixed_db,
            agc_min=initial.agc_min_db,
            agc_max=initial.agc_max_db,
        )
    # The loop changes only attenuations and seeds, so the chain stays
    # initial's throughout.
    settings = replace(
        settings,
        tx_power_dbm=initial.tx_power_dbm,
        adc_target_dbm=initial.adc_target_dbm,
        agc_min_db=initial.agc_min_db,
        agc_max_db=initial.agc_max_db,
    )
    config = initial
    steps: list[LoopStep] = []
    for iteration in range(max_iters):
        records = simulate_capture(config, distortion)
        stats = variation_stats(records, consts)
        est = estimate_losses(
            stats.port_power_mean_dbm, len(config.attenuation_db),
            settings.tx_power_dbm,
        )
        verdict = classify(stats, est, thresholds, consts)
        if verdict.cls == "Reliable":
            action = ControlAction(
                (0.0,) * len(est), feasible=True, predicted_class="Reliable"
            )
            steps.append(LoopStep(iteration, config, est, verdict, action))
            break
        action = recommend(est, settings)
        steps.append(LoopStep(iteration, config, est, verdict, action))
        if not action.feasible or action.is_zero():
            break
        config = replace(
            config,
            attenuation_db=tuple(
                a + add
                for a, add in zip(config.attenuation_db, action.added_attenuation_db)
            ),
            seed=config.seed + 1,
        )
    return steps


def trajectory_to_jsonl(steps: list[LoopStep]) -> str:
    import json

    lines = []
    for step in steps:
        lines.append(
            json.dumps(
                {
                    "iteration": step.iteration,
                    "attenuation_db": list(step.config.attenuation_db),
                    "estimated_loss_db": [
                        None if math.isinf(l) else l for l in step.estimated_loss_db
                    ],
                    "verdict": step.verdict.cls,
                    "action": step.action.to_obj(),
                },
                separators=(",", ":"),
            )
        )
    return "".join(line + "\n" for line in lines)
