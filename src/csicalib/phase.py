"""Differential phase extraction and circular statistics.

The raw per-port phase drifts packet to packet with the common oscillator
offsets; differencing two ports of the same chip cancels every common term
and leaves only the channel phase difference plus a constant per-port
offset, so the differential series is the stable observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import _dectext
from .errors import AbsentPort
from .ingest import N_SUBCARRIERS, Capture, RawCsiRecord, as_capture
from .powercalib import pair_label


def _wrap_in_place(a: np.ndarray) -> np.ndarray:
    np.subtract(180.0, a, out=a)
    # On [-360, 720), where differences of wrapped angles land, two steps
    # give np.mod(a, 360.0)'s bits: a - 360 is exact (Sterbenz), a + 360 is
    # the one rounding that np.mod applies after fmod, and -0 + 0 is the +0
    # that np.mod gives.  fmin and fmax skip NaN; their initial values let
    # an empty or all-NaN array through.
    if (np.fmin.reduce(a, axis=None, initial=np.inf) >= -360.0
            and np.fmax.reduce(a, axis=None, initial=-np.inf) < 720.0):
        a -= (a >= 360.0) * 360.0
        a += (a < 0.0) * 360.0
    else:
        np.mod(a, 360.0, out=a)
    np.subtract(180.0, a, out=a)
    return a


def wrap_deg(angle_deg):
    """Wrap angles (scalar or array) to (-180, 180]."""
    # [()] returns a scalar for scalar input and the array otherwise.
    return _wrap_in_place(np.array(angle_deg, dtype=float))[()]


@dataclass
class DifferentialPhaseSeries:
    """Differential phase of one ordered port pair over a whole capture.

    phase_deg is (packets, subcarriers); NaN marks an entry that cannot be
    measured, and is the only such mark.
    """

    pair: tuple[int, int]
    phase_deg: np.ndarray = field(repr=False)

    @property
    def label(self) -> str:
        return pair_label(self.pair)


def differential_series(
    records: Capture | list[RawCsiRecord], pairs: tuple
) -> DifferentialPhaseSeries | list[DifferentialPhaseSeries]:
    """Differential phase of every record on the first transmit stream.

    pairs is one ordered port pair (i, j), which gives one series, or a
    tuple of pairs, as canonical_pairs returns, which gives a list of
    series in that order, each equal to its one-pair call's.  The capture
    is read once for all pairs: each port's angles and unmeasurable
    entries are found once per call.

    A record where either port of a pair reads absent (RSSI 0) has no
    pair phase: its whole row is NaN, as a zero CSI entry is.  A pair port
    beyond a record's n_rx raises AbsentPort, as the first failing pair's
    one-pair call would.
    """
    if len(pairs) == 0:
        return []
    if isinstance(pairs[0], Integral):
        return differential_series(records, (pairs,))[0]
    capture = as_capture(records)
    n_rx = [csi.shape[2] for csi in capture.parts]
    for pair in pairs:
        n = next((n for n in n_rx if n <= max(pair)), None)
        if n is not None:
            raise AbsentPort(f"port {next(p for p in pair if p >= n) + 1} absent")
    # Each port's angles in degrees, and where it has no phase: at a zero
    # entry, or anywhere in a record where it reads absent.  Every record
    # has the ports below m.
    m = 1 + max(max(pair) for pair in pairs)
    angle = np.empty((len(capture), N_SUBCARRIERS, m))
    unmeasurable = np.empty(angle.shape, dtype=bool)
    for part, csi in capture.blocks():
        csi = csi[:, :, :m, 0]
        np.arctan2(csi.imag, csi.real, out=angle[part])  # np.angle(csi)
        np.equal(csi, 0, out=unmeasurable[part])
        unmeasurable[part] |= capture.rssi[part, None, :m] == 0
    np.degrees(angle, out=angle)
    series = []
    for pair in pairs:
        i, j = pair
        phase = np.subtract(angle[..., i], angle[..., j])
        _wrap_in_place(phase)
        phase[unmeasurable[..., i] | unmeasurable[..., j]] = np.nan
        series.append(DifferentialPhaseSeries(pair=pair, phase_deg=phase))
    return series


def circular_stats(angles_deg) -> dict:
    """Mean and spread of wrapped angles, per column, skipping NaN.

    Reduces along the first axis: each column of a (T, ...) input is one
    set of angles, and mean_deg and std_deg have the shape of one row, so
    a 1-D input gives scalars.  The mean is the angle of the mean unit
    vector; the spread is the population standard deviation of deviations
    wrapped to (-180, 180] around that mean.  For the small dispersions
    this toolkit cares about it coincides with the familiar linear
    standard deviation.  A column with fewer than two angles gets NaN.
    """
    a = np.asarray(angles_deg, dtype=float)
    shape = a.shape[1:]
    # One C-contiguous row per column: each row sums in the pairwise order
    # of a 1-D sum over its angles.  A NaN enters each sum as 0, so a
    # column with a NaN may differ in the last bit from the sum over its
    # angles alone.
    rows = np.ascontiguousarray(a.reshape(a.shape[0], math.prod(shape)).T)
    nan = np.isnan(rows)
    count = rows.shape[1] - nan.sum(axis=1)
    z = np.exp(1j * np.deg2rad(rows))
    z[nan] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = wrap_deg(np.degrees(np.angle(z.sum(axis=1) / count)))
        dev = _wrap_in_place(rows - mean[:, None])
        dev[nan] = 0.0
        std = np.sqrt((dev**2).sum(axis=1) / count)
    mean[count < 2] = np.nan
    std[count < 2] = np.nan
    return {"mean_deg": mean.reshape(shape)[()], "std_deg": std.reshape(shape)[()]}


def series_to_csv(series_list: list[DifferentialPhaseSeries]) -> str:
    """CSV export: packet index, subcarrier, pair, phase_deg, unmeasurable.

    Rows end in CRLF, as the stdlib csv writer's; a NaN phase is written as
    an empty value with unmeasurable 1 (docs/FORMATS.md); every other
    phase as f"{v:.6f}" writes it.
    """
    text = ["packet,subcarrier,pair,phase_deg,unmeasurable\r\n"]
    for series in series_list:
        labels = [f",{k},{series.label}," for k in range(series.phase_deg.shape[1])]
        text.extend(_dectext.packet_rows(0, labels, series.phase_deg, (",0\r\n", ",1\r\n")))
    return "".join(text)
