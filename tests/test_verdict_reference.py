"""classify, classify_losses and recommend against a frozen copy of their
rules as three separate code paths (zero-fraction and AGC-pinning checks in
classify, spread and ceiling checks in _loss_checks, and an AGC-floor
condition stated twice in recommend).

The library states every check once, in quality._CHECKS.  The reasons of
every verdict, in order, and every ControlAction must be those of the
reference below, but for one check added to the table since: with no
losses, classify checks the spread of the measured port powers
(power_spread, see _with_power_spread).
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csicalib import (
    CalibrationConstants,
    ControlAction,
    ControlSettings,
    QualityThresholds,
    SimConfig,
    VariationStats,
    classify,
    classify_losses,
    recommend,
)
from csicalib.errors import InsufficientPorts
from csicalib.quality import _CHECKS

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"

_REF_PRECEDENCE = ("PhaseUnmeasurable", "Unstable", "AgcSaturatedLow", "AgcSaturatedHigh",
                   "Degraded", "Reliable")


def _ref_as_losses(est_port_loss_db):
    return [math.inf if l is None else float(l) for l in est_port_loss_db]


def _ref_reason(check, threshold, observed):
    return {"check": check, "threshold": threshold,
            "observed": "inf" if math.isinf(observed) else observed}


def _ref_spread(losses):
    if len(losses) < 2:
        return 0.0
    if any(math.isinf(l) for l in losses):
        return math.inf
    return max(losses) - min(losses)


def _ref_loss_checks(losses, thresholds):
    checks = []
    spread = _ref_spread(losses)
    if spread > thresholds.spread_unmeasurable_db:
        checks.append(("PhaseUnmeasurable", _ref_reason(
            "loss_spread", thresholds.spread_unmeasurable_db, spread)))
    elif spread > thresholds.spread_reliable_db:
        checks.append(("Degraded", _ref_reason(
            "loss_spread", thresholds.spread_reliable_db, spread)))
    max_loss = max(losses)
    if max_loss > thresholds.max_loss_db:
        checks.append(("Unstable", _ref_reason("max_loss", thresholds.max_loss_db, max_loss)))
    return checks


def _ref_most_severe(checks):
    triggered = {cls for cls, _ in checks}
    return next((cls for cls in _REF_PRECEDENCE if cls in triggered), "Reliable")


def _ref_classify(stats, est_port_loss_db, thresholds, consts):
    """(class, reasons) of a capture."""
    checks = []
    zmax = float(stats.zero_fraction.max()) if stats.zero_fraction.size else 0.0
    if zmax > thresholds.zero_fraction_max:
        checks.append(("PhaseUnmeasurable", _ref_reason(
            "zero_fraction", thresholds.zero_fraction_max, zmax)))
    if est_port_loss_db is not None:
        checks += _ref_loss_checks(_ref_as_losses(est_port_loss_db), thresholds)
    readouts = set(stats.agc_readouts)
    if readouts == {consts.agc_min}:
        checks.append(("AgcSaturatedLow", _ref_reason(
            "agc_pinned_low", consts.agc_min, consts.agc_min)))
    elif readouts == {consts.agc_max}:
        checks.append(("AgcSaturatedHigh", _ref_reason(
            "agc_pinned_high", consts.agc_max, consts.agc_max)))
    return _ref_most_severe(checks), [reason for _, reason in checks]


def _ref_recommend(est_port_loss_db, settings, chain, thresholds):
    losses = _ref_as_losses(est_port_loss_db)
    if len(losses) < 2:
        raise InsufficientPorts("need loss estimates for at least two ports")
    checks = _ref_loss_checks(losses, thresholds)
    zero = (0.0,) * len(losses)
    if any(map(math.isinf, losses)) or any(cls == "Unstable" for cls, _ in checks):
        return ControlAction(zero, feasible=False, predicted_class=_ref_most_severe(checks))
    agc_floor = chain.agc_floor_loss_db()
    if not checks and min(losses) >= agc_floor:
        return ControlAction(zero, feasible=True, predicted_class="Reliable")
    floor_level = max(max(losses) - settings.balance_target_db, agc_floor)
    ceiling = thresholds.max_loss_db
    added = tuple(float(max(0, math.floor(min(math.ceil(floor_level - l), ceiling - l))))
                  for l in losses)
    final = [l + a for l, a in zip(losses, added)]
    checks = _ref_loss_checks(final, thresholds)
    if min(final) < agc_floor:
        checks.append(("AgcSaturatedLow", None))
    return ControlAction(added, feasible=True, predicted_class=_ref_most_severe(checks))


def _with_power_spread(stats, losses, thresholds, verdict):
    """(class, reasons) of a verdict of the reference with power_spread added.

    With no losses, the spread of the port powers that are not NaN is
    checked as loss_spread checks the losses', and its reason follows that
    of zero_fraction.
    """
    cls, reasons = verdict
    if losses is not None:
        return verdict
    present = [p for p in stats.port_power_mean_dbm.tolist() if not math.isnan(p)]
    spread = max(present) - min(present) if len(present) > 1 else 0.0
    for spread_cls, limit in (("PhaseUnmeasurable", thresholds.spread_unmeasurable_db),
                              ("Degraded", thresholds.spread_reliable_db)):
        if spread > limit:
            at = int(bool(reasons) and reasons[0]["check"] == "zero_fraction")
            reasons = [*reasons[:at], _ref_reason("power_spread", limit, spread), *reasons[at:]]
            return _ref_most_severe([(cls, None), (spread_cls, None)]), reasons
    return verdict


def _stats(zero_fraction, agc_readouts, powers=(-40.0,)):
    n_rx = max(len(zero_fraction), 1)
    return VariationStats(
        amp_mean_dbm=np.zeros((n_rx, 30)),
        amp_std_db=np.zeros((n_rx, 30)),
        phase_mean_deg=np.zeros((3, 30)),
        phase_std_deg=np.zeros((3, 30)),
        zero_fraction=np.asarray(zero_fraction, dtype=float),
        pairs=((1, 0), (2, 1), (0, 2)),
        agc_readouts=tuple(agc_readouts),
        port_power_mean_dbm=np.asarray(powers, dtype=float),
        n_records=len(agc_readouts),
    )


_limit = st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 10.0, 30.0, 60.0, math.inf]))
_thresholds = st.builds(
    lambda max_loss_db, spreads, zero_fraction_max: QualityThresholds(
        max_loss_db, *sorted(spreads), zero_fraction_max),
    _limit,
    st.tuples(_limit, _limit),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
)
_loss = st.one_of(st.none(), st.just(math.inf), st.floats(-20.0, 120.0),
                  st.integers(0, 90))
_losses = st.lists(_loss, min_size=1, max_size=3)


@st.composite
def _consts_and_readouts(draw):
    agc_min = draw(st.integers(0, 60))
    agc_max = draw(st.integers(agc_min + 1, 255))
    consts = CalibrationConstants(agc_min=agc_min, agc_max=agc_max)
    readouts = draw(st.one_of(
        st.just({agc_min}), st.just({agc_max}), st.just({agc_min, agc_max}),
        st.just({agc_min - 6, agc_min} if agc_min >= 6 else {agc_min, agc_min + 1}),
        st.sets(st.integers(0, 255), min_size=1, max_size=4)))
    order = draw(st.permutations(sorted(readouts)))
    return consts, [*order, order[0]]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])), max_size=3),
       _consts_and_readouts(), st.one_of(st.none(), _losses), _thresholds,
       st.lists(st.one_of(st.floats(-100.0, 0.0), st.just(math.nan)), max_size=3))
@example([0.0, 1.0, 1.0], (CalibrationConstants(), [26, 26]), [30, 80, 80],
         QualityThresholds(), [-33.0, -83.0, -83.0])
@example([0.0], (CalibrationConstants(), [20, 26]), None, QualityThresholds(), [-40.0])
@example([0.0, 0.0], (CalibrationConstants(), [63, 63]), [None, 10],
         QualityThresholds(math.inf, math.inf, math.inf), [-40.0, -40.0])
@example([0.0, 1.0, 0.0], (CalibrationConstants(), [63, 63]), None, QualityThresholds(),
         [-33.0, -33.0, -53.0])
@example([0.0, 0.0, 1.0], (CalibrationConstants(), [26, 26]), None, QualityThresholds(),
         [-33.0, -73.0, math.nan])
def test_classify_matches_the_reference(zero_fraction, consts_and_readouts, losses, thresholds,
                                        powers):
    consts, readouts = consts_and_readouts
    stats = _stats(zero_fraction, readouts, powers)
    verdict = classify(stats, losses, thresholds, consts)
    want = _with_power_spread(stats, losses, thresholds,
                              _ref_classify(stats, losses, thresholds, consts))
    assert (verdict.cls, verdict.reasons) == want
    if losses is not None:
        assert classify_losses(losses, thresholds) == _ref_most_severe(
            _ref_loss_checks(_ref_as_losses(losses), thresholds))


@settings(max_examples=600, deadline=None)
@given(_losses, _thresholds, st.floats(-10.0, 10.0), st.floats(-8.0, 0.0),
       st.one_of(st.floats(0.0, 5.0), st.just(0.0)))
@example([None, 10], QualityThresholds(math.inf, math.inf, math.inf), -3.0, -5.0, 3.0)
@example([30, 30, 30], QualityThresholds(max_loss_db=40), 10.0, -5.0, 3.0)
@example([60, 49.5], QualityThresholds(), -3.0, -5.0, 0.3)
def test_recommend_matches_the_reference(losses, thresholds, tx_power_dbm, adc_target_dbm,
                                         target):
    chain = SimConfig(tx_power_dbm=tx_power_dbm, adc_target_dbm=adc_target_dbm)
    settings_ = ControlSettings(balance_target_db=target)
    try:
        want = _ref_recommend(losses, settings_, chain, thresholds)
    except InsufficientPorts:
        with pytest.raises(InsufficientPorts):
            recommend(losses, settings_, chain, thresholds)
        return
    assert recommend(losses, settings_, chain, thresholds) == want


def test_an_unmeasured_port_under_infinite_thresholds_predicts_reliable():
    # Infeasible, since the port cannot be measured, and Reliable, since no
    # loss check triggers: the AGC floor is not checked off the feasible
    # path, although the measured port lies below it.
    thresholds = QualityThresholds(math.inf, math.inf, math.inf)
    action = recommend([None, 10], thresholds=thresholds)
    assert action == ControlAction((0.0, 0.0), False, "Reliable")
    assert action == _ref_recommend([None, 10], ControlSettings(), SimConfig(), thresholds)


def test_the_formats_doc_lists_every_check_in_order():
    doc = FORMATS.read_text(encoding="utf-8")
    section = re.search(r"### Verdict checks and their order\n(.*?)\n#", doc, re.S).group(1)
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    at = [next((i for i, row in enumerate(rows) if row.startswith(f"| `{name}`")), -1)
          for name, *_ in _CHECKS]
    assert -1 not in at and at == sorted(at) and len(rows) == len(_CHECKS)
