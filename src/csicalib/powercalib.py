"""Absolute power calibration: nominal RSSI to dBm, CSI amplitude restoration.

Nominal RSSI is relative to the adaptive gain and the fixed chain offset;
stripping both yields absolute per-port power.  The total power then fixes
a linear scale factor that converts nominal squared CSI magnitude into
per-subcarrier amplitude in dBm.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AbsentPort,
    AllZeroCsi,
    EmptyInput,
    ZeroChannel,
)
from .ingest import CalibrationConstants, RawCsiRecord

#: Canonical unordered port pairs, reported numerator-first (2/1, 3/2, 1/3).
PORT_PAIRS_3 = ((1, 0), (2, 1), (0, 2))


def canonical_pairs(n_rx: int) -> tuple[tuple[int, int], ...]:
    if n_rx >= 3:
        return PORT_PAIRS_3
    if n_rx == 2:
        return ((1, 0),)
    return ()


def pair_label(pair: tuple[int, int]) -> str:
    return f"{pair[0] + 1}/{pair[1] + 1}"


@dataclass
class CalibratedFrame:
    """Absolute powers and per-subcarrier amplitudes for one record.

    amplitude_dbm has the same shape as the record's CSI matrix; entries
    whose CSI magnitude is exactly zero hold NaN, the "unmeasurable" sentinel
    (never -inf), so downstream statistics can count rather than propagate
    them.
    """

    port_power_dbm: dict[int, float]
    total_power_dbm: float
    rho: float
    amplitude_dbm: np.ndarray = field(repr=False)


def rssi_to_dbm(rssi: int, agc: float, consts: CalibrationConstants) -> float:
    """Absolute port power in dBm from a nominal RSSI readout."""
    if rssi == 0:
        raise AbsentPort("rssi readout of 0 marks an absent port")
    return float(rssi - agc - consts.c_fixed)


def total_power(port_powers_dbm) -> float:
    """Combine per-port powers (dBm) into total received power (dBm)."""
    powers = list(port_powers_dbm)
    if not powers:
        raise EmptyInput("no port powers given")
    return 10.0 * math.log10(sum(10.0 ** (p / 10.0) for p in powers))


def csi_power_ratio_db(csi_i: np.ndarray, csi_j: np.ndarray) -> float:
    """Power ratio of two per-subcarrier channel vectors, in dB.

    Computed as the difference of log sums so that swapping the arguments
    negates the result exactly.
    """
    si = float(np.sum(np.abs(np.asarray(csi_i)) ** 2))
    sj = float(np.sum(np.abs(np.asarray(csi_j)) ** 2))
    if sj == 0.0 or si == 0.0:
        raise ZeroChannel("all-zero channel in power ratio")
    return 10.0 * (math.log10(si) - math.log10(sj))


@dataclass(frozen=True)
class PairRatio:
    """RSSI-implied vs CSI-implied power ratio for one port pair."""

    pair: tuple[int, int]
    rssi_ratio_db: float
    csi_ratio_db: float
    discrepancy_db: float

    @property
    def label(self) -> str:
        return pair_label(self.pair)


def check_ratio_consistency(
    record: RawCsiRecord, consts: CalibrationConstants
) -> list[PairRatio]:
    """Report the RSSI vs CSI power-ratio agreement for each canonical pair.

    Reporting only: a large discrepancy never raises.  A pair with an
    absent port (RSSI 0) has no ratio: all three values are NaN.  A pair
    with an all-zero CSI row keeps its RSSI ratio and gets NaN CSI ratio
    and discrepancy.  A one-port record has no pair and gives [].
    """
    # log10 of each port's CSI power, None for an all-zero row.  Each row
    # is C-contiguous, so its sum runs in the order, and gives the bits, of
    # the sum csi_power_ratio_db takes over record.csi[:, p, :].
    rows = np.ascontiguousarray(record.csi.transpose(1, 0, 2)).reshape(record.n_rx, -1)
    power = np.abs(rows)
    power *= power
    log_power = [math.log10(s) if s != 0.0 else None for s in power.sum(axis=1).tolist()]
    results = []
    for j, i in canonical_pairs(record.n_rx):
        rssi_ratio = csi_ratio = math.nan
        if record.rssi[j] != 0 and record.rssi[i] != 0:
            rssi_ratio = float(record.rssi[j] - record.rssi[i])
            if log_power[j] is not None and log_power[i] is not None:
                csi_ratio = 10.0 * (log_power[j] - log_power[i])
        results.append(
            PairRatio(
                pair=(j, i),
                rssi_ratio_db=rssi_ratio,
                csi_ratio_db=csi_ratio,
                discrepancy_db=csi_ratio - rssi_ratio,
            )
        )
    return results


def calibrate(record: RawCsiRecord, consts: CalibrationConstants) -> CalibratedFrame:
    """Restore absolute per-port power and per-subcarrier amplitude in dBm."""
    present = record.present_ports()
    if not present:
        raise AbsentPort("no present ports in record")

    port_power = {p: rssi_to_dbm(record.rssi[p], record.agc, consts) for p in present}
    p_total = total_power(port_power.values())

    sq = np.abs(record.csi) ** 2
    denom = float(sq[:, present, :].sum())
    if denom == 0.0:
        raise AllZeroCsi("CSI is zero on every present port")
    rho = 10.0 ** (p_total / 10.0) / denom

    with np.errstate(divide="ignore"):
        amplitude = 10.0 * np.log10(rho * sq)
    amplitude[sq == 0.0] = np.nan  # unmeasurable, not -inf

    return CalibratedFrame(
        port_power_dbm=port_power,
        total_power_dbm=p_total,
        rho=rho,
        amplitude_dbm=amplitude,
    )


# --- serialization -----------------------------------------------------------

def frames_to_csv(frames: list[CalibratedFrame]) -> str:
    """CSV with columns: packet index, port, subcarrier, amplitude_dbm.

    The header block lists per-port and total powers of the first frame as
    comment lines.  Rows end in CRLF, as the stdlib csv writer's; a NaN
    amplitude is written as an empty value (docs/FORMATS.md).
    """
    buf = io.StringIO()
    if frames:
        first = frames[0]
        for port in sorted(first.port_power_dbm):
            buf.write(f"# port_power_dbm,port={port + 1},{first.port_power_dbm[port]:.4f}\n")
        buf.write(f"# total_power_dbm,{first.total_power_dbm:.4f}\n")
    write = buf.write
    write("packet,port,subcarrier,tx,amplitude_dbm\r\n")
    shape = None
    for t, frame in enumerate(frames):
        amp = frame.amplitude_dbm
        if amp.shape != shape:
            # ",port,subcarrier,tx," of every entry in C order of (k, p, tx).
            shape = amp.shape
            n_sc, n_rx, n_tx = shape
            prefixes = [
                f",{p + 1},{k},{tx},"
                for k in range(n_sc) for p in range(n_rx) for tx in range(n_tx)
            ]
        packet = str(t)
        for prefix, v in zip(prefixes, amp.reshape(-1).tolist()):
            if v != v:  # NaN
                write(f"{packet}{prefix}\r\n")
            else:
                write(f"{packet}{prefix}{v:.6f}\r\n")
    return buf.getvalue()
