"""Differential phase extraction and circular statistics.

The raw per-port phase drifts packet to packet with the common oscillator
offsets; differencing two ports of the same chip cancels every common term
and leaves only the channel phase difference plus a constant per-port
offset, so the differential series is the stable observable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import AbsentPort, InsufficientData
from .ingest import N_SUBCARRIERS, RawCsiRecord
from .powercalib import pair_label


def _wrap_in_place(a: np.ndarray) -> np.ndarray:
    np.subtract(180.0, a, out=a)
    np.mod(a, 360.0, out=a)
    np.subtract(180.0, a, out=a)
    return a


def wrap_deg(angle_deg):
    """Wrap angles (scalar or array) to (-180, 180]."""
    # [()] returns a scalar for scalar input and the array otherwise.
    return _wrap_in_place(np.array(angle_deg, dtype=float))[()]


def _phase_difference(hi: np.ndarray, hj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped angle(hi) - angle(hj) in degrees, elementwise, any shape.

    Returns (phase_deg, unmeasurable_mask); where either sample is zero the
    phase is undefined, so the mask is set and the phase holds NaN.
    """
    mask = (hi == 0) | (hj == 0)
    # Every step writes in place: over a whole capture each temporary is
    # T x 30 floats, and freeing them fragments the heap enough to raise
    # the peak memory of the CSV writing that follows.
    phase = np.angle(hi)
    np.degrees(phase, out=phase)
    angle_j = np.angle(hj)
    np.degrees(angle_j, out=angle_j)
    np.subtract(phase, angle_j, out=phase)
    _wrap_in_place(phase)
    phase[mask] = np.nan
    return phase, mask


@dataclass
class DifferentialPhaseSeries:
    """Differential phase of one ordered port pair over a whole capture."""

    pair: tuple[int, int]
    phase_deg: np.ndarray = field(repr=False)        # (packets, subcarriers), NaN where masked
    unmeasurable_mask: np.ndarray = field(repr=False)  # same shape, bool

    @property
    def label(self) -> str:
        return pair_label(self.pair)


def differential_series(
    records: list[RawCsiRecord], pair: tuple[int, int]
) -> DifferentialPhaseSeries:
    """Differential phase of every record on the first transmit stream.

    A record where either port of the pair reads absent (RSSI 0) has no
    pair phase: its whole row is masked, as a zero CSI entry is.  A pair
    port beyond a record's n_rx raises AbsentPort.
    """
    i, j = pair
    absent = []
    for t, record in enumerate(records):
        for port in pair:
            if port >= record.n_rx:
                raise AbsentPort(f"port {port + 1} absent")
        if record.rssi[i] == 0 or record.rssi[j] == 0:
            absent.append(t)
    # The reshape gives an empty capture its (0, 30) shape.
    phase, mask = _phase_difference(
        np.array([r.csi[:, i, 0] for r in records]).reshape(-1, N_SUBCARRIERS),
        np.array([r.csi[:, j, 0] for r in records]).reshape(-1, N_SUBCARRIERS),
    )
    phase[absent] = np.nan
    mask[absent] = True
    return DifferentialPhaseSeries(pair=pair, phase_deg=phase, unmeasurable_mask=mask)


def circular_stats(angles_deg) -> dict[str, float]:
    """Mean and spread of wrapped angles.

    The mean is the angle of the mean unit vector; the spread is the
    population standard deviation of deviations wrapped to (-180, 180]
    around that mean.  For the small dispersions this toolkit cares about
    it coincides with the familiar linear standard deviation.
    """
    a = np.asarray(angles_deg, dtype=float).reshape(-1)
    a = a[~np.isnan(a)]
    if a.size < 2:
        raise InsufficientData("need at least two angles")
    z = np.exp(1j * np.deg2rad(a))
    mean = float(wrap_deg(np.degrees(np.angle(z.mean()))))
    dev = wrap_deg(a - mean)
    return {"mean_deg": mean, "std_deg": float(np.sqrt(np.mean(dev**2)))}


def series_to_csv(series_list: list[DifferentialPhaseSeries]) -> str:
    """CSV export: packet index, subcarrier, pair, phase_deg, unmeasurable.

    Rows end in CRLF, as the stdlib csv writer's; a masked phase is written
    as an empty value (docs/FORMATS.md).
    """
    buf = io.StringIO()
    write = buf.write
    write("packet,subcarrier,pair,phase_deg,unmeasurable\r\n")
    for series in series_list:
        n_pkt, n_sc = series.phase_deg.shape
        middles = [f",{k},{series.label}," for k in range(n_sc)]
        for t in range(n_pkt):
            packet = str(t)
            for middle, v, masked in zip(
                middles,
                series.phase_deg[t].tolist(),
                series.unmeasurable_mask[t].tolist(),
            ):
                if masked:
                    write(f"{packet}{middle},1\r\n")
                else:
                    write(f"{packet}{middle}{v:.6f},0\r\n")
    return buf.getvalue()
