"""Closed-loop attenuation balancing.

When the inter-port spread is too large for a stable measurement, adding
attenuation to the strong ports balances the channels without touching the
weak one.  The controller only ever adds attenuation, in whole dB, keeps
every port at or below the loss ceiling, and lifts all ports together when
the signal is so strong that the adaptive gain would pin at its minimum.
Where the ceiling lies below that AGC floor, the ceiling wins, and the
action predicts AgcSaturatedLow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .errors import ConfigError, InsufficientPorts
from .chipsim import PhaseDistortion, SimConfig, simulate_capture
from .quality import (QualityThresholds, QualityVerdict, _as_losses, _checks, _most_severe,
                      classify, variation_stats)


@dataclass(frozen=True)
class ControlSettings:
    """Control-law parameters on top of the classification thresholds.

    balance_target_db is the spread the controller balances to when it has
    to act, tighter than the thresholds' reliable spread to leave margin
    for the ~2 dB RSSI estimation error.  max_iters bounds the steps of
    closed_loop.  Both are checked when built: a max_iters below 1, or a
    balance_target_db that is negative or NaN, which would attenuate the
    weakest port or leave the action undefined, raises ConfigError.
    """

    balance_target_db: float = 3.0
    max_iters: int = 8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not self.balance_target_db >= 0:
            raise ConfigError(f"balance_target_db must be >= 0, got {self.balance_target_db}")


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


def recommend(
    est_port_loss_db,
    settings: ControlSettings = ControlSettings(),
    chain: SimConfig = SimConfig(),
    thresholds: QualityThresholds = QualityThresholds(),
) -> ControlAction:
    """Per-port attenuation additions that balance the channels.

    The action is decided by the verdict's checks under thresholds: the
    loss rows of quality's table, those of classify_losses, and on the
    feasible path its AGC-floor row on chain.  An unmeasured port (a loss
    of None, NaN or infinity) or a loss above the ceiling makes the action
    infeasible under any thresholds, since the weakest channel can never
    be helped by adding attenuation: it adds nothing and predicts the
    class of the losses.
    When no check triggers and no port sits below the AGC floor of chain,
    the chain the losses were measured on, the action is zero and predicts
    Reliable.  Otherwise every port is lifted to a common floor in whole
    dB, each addition capped so that no port passes the ceiling, and
    predicted_class is the class of the balanced losses by the same
    checks: AgcSaturatedLow where the cap leaves a port below the AGC
    floor, which happens when that floor lies above the ceiling.
    """
    losses = _as_losses(est_port_loss_db)
    if len(losses) < 2:
        raise InsufficientPorts("need loss estimates for at least two ports")

    checks = _checks(thresholds, losses=losses)
    zero = (0.0,) * len(losses)
    if any(map(math.isinf, losses)) or any(cls == "Unstable" for cls, _ in checks):
        return ControlAction(zero, feasible=False, predicted_class=_most_severe(checks))
    if not _checks(thresholds, losses=losses, chain=chain):
        return ControlAction(zero, feasible=True, predicted_class="Reliable")

    # Lift every port to a common floor: within balance_target_db of the
    # weakest channel and high enough to keep the AGC off its minimum.  Each
    # addition is rounded up to a whole dB, then capped at the largest whole
    # dB that keeps the port at or below the ceiling (an infinite one caps
    # nothing, since min() then keeps the whole-dB addition).
    floor_level = max(max(losses) - settings.balance_target_db, chain.agc_floor_loss_db())
    ceiling = thresholds.max_loss_db
    added = tuple(float(max(0, math.floor(min(math.ceil(floor_level - l), ceiling - l))))
                  for l in losses)
    # AgcSaturatedLow where the cap kept a port below the AGC floor.
    checks = _checks(thresholds, losses=[l + a for l, a in zip(losses, added)], chain=chain)
    return ControlAction(added, feasible=True, predicted_class=_most_severe(checks))


@dataclass
class LoopStep:
    iteration: int
    config: SimConfig
    estimated_loss_db: tuple[float, ...]
    verdict: QualityVerdict
    action: ControlAction


def estimate_losses(port_power_dbm, tx_power_dbm: float) -> tuple[float, ...]:
    """Loss per port from measured (RSSI-derived) power; inf where it is NaN."""
    return tuple(math.inf if math.isnan(p) else tx_power_dbm - p
                 for p in map(float, port_power_dbm))


def closed_loop(
    initial: SimConfig,
    distortion: PhaseDistortion | None = None,
    settings: ControlSettings = ControlSettings(),
    thresholds: QualityThresholds = QualityThresholds(),
) -> list[LoopStep]:
    """Iterate simulate -> calibrate -> estimate -> recommend -> apply.

    The chain (transmit power, ADC target, AGC clamps, C) is initial's
    throughout, since the loop changes only attenuations and seeds.
    Loss estimates come only from the measured RSSI, never from the
    configured attenuations.  thresholds decide the verdict of each step,
    and recommend decides the action through the same loss checks, so a
    port the capture could not measure makes the action infeasible.  A
    Reliable verdict takes the zero action.  The loop stops on an
    infeasible or zero action or after settings.max_iters steps.  The
    settings, the thresholds and each step's SimConfig are checked when
    built, so the loop itself checks nothing.
    """
    consts = initial.calibration_constants()
    config = initial
    steps: list[LoopStep] = []
    for iteration in range(settings.max_iters):
        stats = variation_stats(simulate_capture(config, distortion), consts)
        est = estimate_losses(stats.port_power_mean_dbm, config.tx_power_dbm)
        verdict = classify(stats, est, thresholds, consts)
        action = (ControlAction((0.0,) * len(est), feasible=True, predicted_class="Reliable")
                  if verdict.cls == "Reliable" else recommend(est, settings, config, thresholds))
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
    return "".join(json.dumps({
        "iteration": step.iteration,
        "attenuation_db": list(step.config.attenuation_db),
        "estimated_loss_db": [None if math.isinf(l) else l for l in step.estimated_loss_db],
        "verdict": step.verdict.cls,
        "action": step.action.to_obj(),
    }, separators=(",", ":")) + "\n" for step in steps)
