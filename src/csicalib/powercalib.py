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

from .ingest import CalibrationConstants, RawCsiRecord, common_n_rx

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

    port_power_dbm holds n_rx floats, NaN for a port that reads absent
    (RSSI 0).  amplitude_dbm has the same shape as the record's CSI matrix;
    entries whose CSI magnitude is exactly zero, and every entry of an
    absent port, hold NaN, the "unmeasurable" sentinel (never -inf), so
    downstream statistics can skip rather than propagate them.  A record
    with no reading has NaN rho, and NaN total_power_dbm if every port
    reads absent.
    """

    port_power_dbm: tuple[float, ...]
    total_power_dbm: float
    rho: float
    amplitude_dbm: np.ndarray = field(repr=False)


def rssi_to_dbm(rssi: int, agc: float, consts: CalibrationConstants) -> float:
    """Absolute port power in dBm from a nominal RSSI readout.

    A readout of 0 marks an absent port, which has no power: NaN.
    """
    return float(rssi - agc - consts.c_fixed) if rssi else math.nan


def total_power(port_powers_dbm) -> float:
    """Combine per-port powers (dBm) into total received power (dBm).

    NaN powers (absent ports) are skipped; with none left the total is NaN.
    """
    linear = [10.0 ** (p / 10.0) for p in port_powers_dbm if not math.isnan(p)]
    return 10.0 * math.log10(sum(linear)) if linear else math.nan


@dataclass(frozen=True)
class PairRatio:
    """RSSI-implied vs CSI-implied power ratio of one port pair over a capture.

    rssi_ratio_db, csi_ratio_db and discrepancy_db are (T,) arrays, one
    entry per record of the capture.
    """

    pair: tuple[int, int]
    rssi_ratio_db: np.ndarray
    csi_ratio_db: np.ndarray
    discrepancy_db: np.ndarray

    @property
    def label(self) -> str:
        return pair_label(self.pair)


def check_ratio_consistency(records: list[RawCsiRecord]) -> list[PairRatio]:
    """Report the RSSI vs CSI power-ratio agreement for each canonical pair.

    Reporting only: a large discrepancy never raises.  In a record where a
    port of the pair reads absent (RSSI 0), the pair has no ratio: all three
    values are NaN.  In a record where a port of the pair has an all-zero
    CSI row, the pair keeps its RSSI ratio and gets NaN CSI ratio and
    discrepancy.  An empty or one-port capture has no pair and gives [];
    records of different n_rx raise MixedLayout.
    """
    if not records:
        return []
    n_rx = common_n_rx(records)
    # Each record's CSI power per port, summed over one C-contiguous row of
    # its (K, n_tx) entries; records are stacked by n_tx, since the row
    # length sets the order of the sum and so its bits.
    n_tx = np.array([r.n_tx for r in records])
    power = np.empty((len(records), n_rx))
    for m in set(n_tx.tolist()):
        idx = np.flatnonzero(n_tx == m)
        sq = np.abs(np.array([records[t].csi for t in idx]))  # (T_m, K, n_rx, m)
        sq *= sq
        rows = np.ascontiguousarray(sq.transpose(0, 2, 1, 3)).reshape(idx.size, n_rx, -1)
        power[idx] = rows.sum(axis=2)
    # math.log10, whose bits do not depend on the platform's SIMD loops.
    log_power = np.array([math.log10(s) if s else math.nan for s in power.ravel().tolist()])
    log_power = log_power.reshape(power.shape)
    rssi = np.array([r.rssi[:n_rx] for r in records], dtype=float)
    rssi[rssi == 0] = math.nan  # an absent port: no ratio of either kind
    log_power[np.isnan(rssi)] = math.nan
    results = []
    for j, i in canonical_pairs(n_rx):
        rssi_ratio = rssi[:, j] - rssi[:, i]
        csi_ratio = 10.0 * (log_power[:, j] - log_power[:, i])
        results.append(PairRatio(pair=(j, i), rssi_ratio_db=rssi_ratio,
                                 csi_ratio_db=csi_ratio,
                                 discrepancy_db=csi_ratio - rssi_ratio))
    return results


def calibrate(record: RawCsiRecord, consts: CalibrationConstants) -> CalibratedFrame:
    """Restore absolute per-port power and per-subcarrier amplitude in dBm.

    A record with no reading, every port absent or zero CSI on every
    present port, calibrates to NaN as an absent port and a zero CSI entry
    do (see CalibratedFrame); it never raises.
    """
    present = record.present_ports()
    port_power = tuple([rssi_to_dbm(rssi, record.agc, consts)
                        for rssi in record.rssi[: record.n_rx]])
    p_total = total_power(port_power)

    sq = np.abs(record.csi) ** 2
    if len(present) < record.n_rx:  # an absent port has no amplitude
        sq[:, np.isnan(port_power), :] = 0.0
    denom = float(sq[:, present, :].sum())
    rho = 10.0 ** (p_total / 10.0) / denom if denom else math.nan

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

    The header block lists the first frame's power of each present port and
    its total power as comment lines; a first frame whose every port reads
    absent has none.  Rows end in CRLF, as the stdlib csv writer's; a NaN
    amplitude is written as an empty value (docs/FORMATS.md).
    """
    buf = io.StringIO()
    if frames:
        first = frames[0]
        for port, power in enumerate(first.port_power_dbm):
            if not math.isnan(power):
                buf.write(f"# port_power_dbm,port={port + 1},{power:.4f}\n")
        if not math.isnan(first.total_power_dbm):
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
