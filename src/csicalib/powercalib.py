"""Absolute power calibration: nominal RSSI to dBm, CSI amplitude restoration.

Nominal RSSI is relative to the adaptive gain and the fixed chain offset;
stripping both yields absolute per-port power.  The total power then fixes
a linear scale factor that converts nominal squared CSI magnitude into
per-subcarrier amplitude in dBm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _dectext
from .ingest import CalibrationConstants, Capture, RawCsiRecord, as_capture, common_n_rx

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
    """Absolute powers and per-subcarrier amplitudes of one record or a capture.

    For one record, port_power_dbm is a tuple of n_rx floats, NaN for a port
    that reads absent (RSSI 0), and amplitude_dbm has the shape of the
    record's CSI matrix; entries whose CSI magnitude is exactly zero, and
    every entry of an absent port, hold NaN, the "unmeasurable" sentinel
    (never -inf), so downstream statistics can skip rather than propagate
    them.  A record with no reading has NaN rho, and NaN total_power_dbm if
    every port reads absent.  For a capture of T records every field is an
    array with a leading T axis: port_power_dbm (T, n_rx), total_power_dbm
    and rho (T,), amplitude_dbm (T, 30, n_rx, n_tx).
    """

    port_power_dbm: tuple[float, ...] | np.ndarray
    total_power_dbm: float | np.ndarray
    rho: float | np.ndarray
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


def check_ratio_consistency(records: Capture | list[RawCsiRecord]) -> list[PairRatio]:
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
    capture = as_capture(records)
    n_rx = common_n_rx(capture)
    # Each record's CSI power per port, summed over one C-contiguous row of
    # its (K, n_tx) entries; the row length sets the order of the sum and
    # so its bits.  Each square is re*re + im*im, as in calibrate: exact on
    # integer CSI, where |csi|**2 is not.
    power = np.empty((len(capture), n_rx))
    for rows, csi in capture.blocks():
        csi = csi.transpose(0, 2, 1, 3)
        sq = np.multiply(csi.real, csi.real, order="C")
        sq += csi.imag * csi.imag
        power[rows] = sq.reshape(len(sq), n_rx, -1).sum(axis=2)
    rssi = capture.rssi[:, :n_rx].astype(float)
    # math.log10, whose bits do not depend on the platform's SIMD loops.
    log_power = np.array([math.log10(s) if s else math.nan for s in power.ravel().tolist()])
    log_power = log_power.reshape(power.shape)
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


def calibrate(records: RawCsiRecord | Capture | list,
              consts: CalibrationConstants) -> CalibratedFrame:
    """Restore absolute per-port power and per-subcarrier amplitude in dBm.

    records is one record, or a non-empty capture of one n_rx and n_tx,
    such as one run of Capture.runs(): a Capture or a list of records.  A
    capture's frame gives every field a leading T axis (see
    CalibratedFrame), and its row t equals the frame of record t alone.  A
    record with no reading, every port absent or zero CSI on every present
    port, calibrates to NaN as an absent port and a zero CSI entry do; it
    never raises.

    Integer CSI, which every trace holds, calibrates exactly: each squared
    magnitude, and each record's sum of them, is exact in any order.  Float
    CSI (the simulator with quantize off) has no exact sum: summing a
    record's squares in another order, as a loop over its own csi array
    does, may move an amplitude by about 1e-14 dB.
    """
    if isinstance(records, RawCsiRecord):
        f = calibrate([records], consts)
        return CalibratedFrame(tuple(f.port_power_dbm[0].tolist()), f.total_power_dbm.item(),
                               f.rho.item(), f.amplitude_dbm[0])
    capture = as_capture(records)
    shape = capture.parts[0].shape[1:]
    n_rx = shape[1]
    port_power = np.empty((len(capture), n_rx))
    p_total = np.empty(len(capture))
    rho = np.empty(len(capture))
    amplitude = np.empty((len(capture), *shape))
    for part, csi in capture.blocks():
        if csi.shape[1:] != shape:
            raise ValueError("a capture's csi must have the same shape in every record")
        # rssi_to_dbm's arithmetic, on arrays: the same bits.
        rssi = capture.rssi[part, :n_rx]
        power = port_power[part]
        np.subtract(rssi - capture.agc[part, None], consts.c_fixed, out=power)
        power[rssi == 0] = np.nan  # an absent port has no power
        # total_power's Python arithmetic, once per distinct row of port
        # powers; a row with NaN is a key of its own, and is still found.
        rows = list(map(tuple, power.tolist()))
        distinct = {row: total_power(row) for row in set(rows)}
        p_total[part] = [distinct[row] for row in rows]
        linear = np.array([10.0 ** (p / 10.0) for p in p_total[part].tolist()])

        sq = amplitude[part]  # |csi|^2, then the amplitude, in place
        np.multiply(csi.real, csi.real, out=sq)
        sq += csi.imag * csi.imag
        sq.transpose(0, 2, 1, 3)[np.isnan(power)] = 0.0  # an absent port has no amplitude
        denom = sq.reshape(len(sq), -1).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho[part] = np.where(denom != 0, linear / denom, np.nan)
        sq[sq == 0.0] = np.nan  # unmeasurable, not -inf
        sq *= rho[part, None, None, None]
        np.log10(sq, out=sq)
        sq *= 10.0
    return CalibratedFrame(port_power, p_total, rho, amplitude)


# --- serialization -----------------------------------------------------------

def frames_to_csv(frames: list[CalibratedFrame]) -> str:
    """CSV with columns: packet index, port, subcarrier, tx, amplitude_dbm.

    frames holds capture frames (see calibrate), one per layout run of a
    capture, in order; packets are numbered across them.  The header block
    lists the first packet's power of each present port and its total
    power as comment lines; a first packet whose every port reads absent
    has none.  Rows end in CRLF, as the stdlib csv writer's; a NaN
    amplitude is written as an empty value (docs/FORMATS.md).
    """
    text = []
    if frames:
        first = frames[0]
        for port, power in enumerate(first.port_power_dbm[0].tolist()):
            if not math.isnan(power):
                text.append(f"# port_power_dbm,port={port + 1},{power:.4f}\n")
        if not math.isnan(first.total_power_dbm[0]):
            text.append(f"# total_power_dbm,{first.total_power_dbm[0]:.4f}\n")
    text.append("packet,port,subcarrier,tx,amplitude_dbm\r\n")
    packet = 0
    for frame in frames:
        amp = frame.amplitude_dbm
        # One packet's rows, in C order of (k, p, tx).
        labels = [f",{p + 1},{k},{tx}," for k, p, tx in np.ndindex(amp.shape[1:])]
        text.extend(_dectext.packet_rows(packet, labels, amp.reshape(len(amp), -1),
                                         ("\r\n", "\r\n")))
        packet += len(amp)
    return "".join(text)
