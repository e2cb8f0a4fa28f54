"""Deterministic receiver-chain simulator for cabled attenuator experiments.

Models one transmit port feeding three receive ports through a power
divider and independent attenuators: a static (optionally multipath)
channel, complex white Gaussian noise at the receiver input, strongest-port
AGC steering to a fixed ADC target, integer quantization of the CSI
components, and integer RSSI readouts.  Zero CSI on badly unbalanced
channels emerges from quantization alone, not from a hard-coded rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import CalibrationConstants, N_SUBCARRIERS, RawCsiRecord
from .powercalib import check_ratio_consistency
from .quality import (
    QualityThresholds,
    QualityVerdict,
    VariationStats,
    classify,
    variation_stats,
)


@dataclass(frozen=True)
class MultipathTap:
    """One propagation path: linear gain, phase offset, and a per-subcarrier
    phase slope standing in for the path delay."""

    gain: float = 1.0
    phase_deg: float = 0.0
    delay_slope_deg: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Ground-truth description of the cabled chain.

    noise_floor_dbm is the aggregate in-band noise power per port, spread
    evenly over the 30 subcarriers; None disables noise.  quantize=False is
    a diagnostic mode that skips CSI rounding/clipping and RSSI rounding so
    the analysis pipeline can be checked against exact values; its float
    RSSI fails RawCsiRecord.validate, so such records cannot be written out.
    The chain constants c_fixed_db, agc_min_db and agc_max_db default to
    those of CalibrationConstants, which calibration_constants() returns
    for this chain.
    """

    tx_power_dbm: float = -3.0
    attenuation_db: tuple[float, ...] = (30.0, 30.0, 30.0)
    multipath: tuple[MultipathTap, ...] = (MultipathTap(),)
    noise_floor_dbm: float | None = -92.0
    adc_target_dbm: float = -5.0
    adc_ref_amplitude: float = 30.0
    agc_min_db: int = CalibrationConstants.agc_min
    agc_max_db: int = CalibrationConstants.agc_max
    n_packets: int = 100
    seed: int = 0
    quantize: bool = True
    c_fixed_db: float = CalibrationConstants.c_fixed

    def validate(self) -> None:
        if self.n_packets < 1:
            raise ConfigError("n_packets must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 1 <= len(self.attenuation_db) <= 3:
            raise ConfigError("attenuation_db needs 1 to 3 entries")
        if len(self.multipath) < 1:
            raise ConfigError("at least one multipath tap required")
        if self.noise_floor_dbm is not None and \
                self.noise_floor_dbm >= self.tx_power_dbm:
            raise ConfigError("noise floor must sit below transmit power")
        if not 0 <= self.agc_min_db < self.agc_max_db <= 255:
            raise ConfigError("need 0 <= agc_min_db < agc_max_db <= 255, "
                              "the range of the AGC readout")
        self.calibration_constants()
        _linear_scales(self)

    def calibration_constants(self) -> CalibrationConstants:
        """The constants that calibrate this chain's readouts."""
        return CalibrationConstants(
            c_fixed=self.c_fixed_db, agc_min=self.agc_min_db, agc_max=self.agc_max_db
        )

    def agc_floor_loss_db(self) -> float:
        """Smallest port loss keeping the AGC readout above its lower clamp."""
        # The AGC readout is adc_target - (tx - min_loss); keep it one dB
        # above the clamp so pinning detection cannot trigger.
        return self.agc_min_db + 1 - self.adc_target_dbm + self.tx_power_dbm


@dataclass(frozen=True)
class PhaseDistortion:
    """Oscillator-induced phase terms, common to all ports except delta_deg.

    cfo_rate_deg drifts the common phase per packet, sfo_slope_deg adds a
    per-subcarrier slope growing per packet, pdd_jitter_deg is a random
    common offset per packet, and delta_deg are the constant per-port
    offsets from the PLL locking point, one per port (simulate_capture
    reads the first n_rx).
    """

    cfo_rate_deg: float = 0.0
    sfo_slope_deg: float = 0.0
    pdd_jitter_deg: float = 0.0
    delta_deg: tuple[float, ...] = (0.0, 0.0, 0.0)


def _linear_scales(config: SimConfig) -> tuple[list[float], float, float]:
    """(port powers in mW, noise std per part and subcarrier, count scale).

    The count scale takes a port whose amplified power hits the ADC target
    to adc_ref_amplitude counts per subcarrier on a flat channel.  Raises
    ConfigError when a power, or the count scale at the top AGC clamp,
    leaves the float range.
    """
    try:
        port_power_lin = [10.0 ** ((config.tx_power_dbm - a) / 10.0)
                          for a in config.attenuation_db]
        if config.noise_floor_dbm is None:
            noise_scale = 0.0
        else:
            per_sub = 10.0 ** (config.noise_floor_dbm / 10.0) / N_SUBCARRIERS
            noise_scale = math.sqrt(per_sub / 2.0)
        kappa = config.adc_ref_amplitude * math.sqrt(N_SUBCARRIERS) / \
            10.0 ** (config.adc_target_dbm / 20.0)
        top_scale = kappa * 10.0 ** (config.agc_max_db / 20.0)
    except (OverflowError, ZeroDivisionError):
        top_scale = math.inf
    if not math.isfinite(top_scale):
        raise ConfigError("chain values put a linear power or the count scale "
                          "beyond the float range")
    return port_power_lin, noise_scale, kappa


def _unit_channel(config: SimConfig) -> np.ndarray:
    """Complex channel shape normalized to unit total power over subcarriers."""
    k = np.arange(N_SUBCARRIERS)
    h = np.zeros(N_SUBCARRIERS, dtype=np.complex128)
    for tap in config.multipath:
        h += tap.gain * np.exp(1j * np.deg2rad(tap.phase_deg + tap.delay_slope_deg * k))
    norm = math.sqrt(float(np.sum(np.abs(h) ** 2)))
    if norm == 0.0:
        raise ConfigError("multipath taps cancel to a zero channel")
    return h / norm


def simulate_capture(
    config: SimConfig, distortion: PhaseDistortion | None = None
) -> list[RawCsiRecord]:
    """Produce a deterministic capture of records for the configured chain.

    The output is a function of the seed through one fixed draw order, which
    the golden digests in tests/test_chipsim_reference.py pin: per packet,
    the phase jitter (only when pdd_jitter_deg is set), then the real parts
    of the (n_rx, 30) noise, then the imaginary parts.  Noise is drawn even
    when noise_floor_dbm is None.  The whole capture is computed as
    (T, n_rx, 30) arrays; each record's csi is a view into them.  Values
    whose arithmetic leaves the float range raise ConfigError.
    """
    config.validate()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _simulate(config, distortion or PhaseDistortion())
    except FloatingPointError as exc:
        raise ConfigError(f"the simulated chain leaves the float range ({exc})") from exc


def _simulate(config: SimConfig, distortion: PhaseDistortion) -> list[RawCsiRecord]:
    rng = np.random.default_rng(config.seed)
    n_rx = len(config.attenuation_db)
    n_packets = config.n_packets
    u = _unit_channel(config)  # (K,)
    k = np.arange(N_SUBCARRIERS)

    port_power_lin, noise_scale, kappa = _linear_scales(config)
    # Per-subcarrier complex signal per port; sum over subcarriers of |x|^2
    # equals the port power in mW.
    x = np.sqrt(np.array(port_power_lin))[:, None] * u[None, :]  # (n_rx, K)

    # One row of normals per packet, in the per-packet draw order.  Every
    # step below repeats the operations of a per-packet computation, in
    # place where it can, so the records are bit-identical to it (signed
    # zeros included).
    n_jitter = 1 if distortion.pdd_jitter_deg else 0
    n_noise = n_rx * N_SUBCARRIERS
    draws = rng.standard_normal((n_packets, n_jitter + 2 * n_noise))
    shape = (n_packets, n_rx, N_SUBCARRIERS)

    noise = np.multiply(draws[:, n_jitter + n_noise:].reshape(shape), 1j)
    noise += draws[:, n_jitter : n_jitter + n_noise].reshape(shape)
    noise *= noise_scale

    t = np.arange(n_packets, dtype=np.float64)[:, None]
    common = distortion.sfo_slope_deg * k * t  # (T, K)
    common += distortion.cfo_rate_deg * t
    # Generator.normal(0, s) is 0 + s * z for one standard normal z.
    common += 0.0 + distortion.pdd_jitter_deg * draws[:, :1] if n_jitter else 0.0
    del draws
    np.deg2rad(common, out=common)
    delta = np.deg2rad(np.asarray(distortion.delta_deg[:n_rx]))
    y = np.multiply(common[:, None, :] + delta[:, None], 1j)
    np.exp(y, out=y)
    y *= x
    y += noise
    del noise

    power = np.abs(y)
    np.square(power, out=power)
    p_meas = np.log10(power.sum(axis=2))  # (T, n_rx)
    p_meas *= 10.0
    del power
    agc = [
        int(min(max(round(config.adc_target_dbm - m), config.agc_min_db), config.agc_max_db))
        for m in p_meas.max(axis=1).tolist()
    ]
    y *= np.array([kappa * 10.0 ** (a / 20.0) for a in agc])[:, None, None]

    readout = p_meas + np.array(agc, dtype=np.float64)[:, None]
    readout += config.c_fixed_db
    if config.quantize:
        re = np.round(y.real)
        np.clip(re, -128, 127, out=re)
        im = np.round(y.imag)
        np.clip(im, -128, 127, out=im)
        np.multiply(im, 1j, out=y)
        y += re
        del re, im
        np.round(readout, out=readout)
        np.clip(readout, 0, 255, out=readout)
        readout = readout.astype(np.int64)
    else:
        # Calibration squares and sums the counts: overflow raises here.
        np.square(np.abs(y)).sum(axis=(1, 2))
    pad = (0,) * (3 - n_rx)
    rssi = [tuple(row) + pad for row in readout.tolist()]

    return [
        RawCsiRecord(
            timestamp_low=(i * 1024) & 0xFFFFFFFF,
            bfee_count=i & 0xFFFF,
            n_rx=n_rx,
            n_tx=1,
            rssi=rssi[i],
            noise=-92,
            agc=agc[i],
            antenna_perm=(0, 1, 2),
            rate_flags=0x0100,
            csi=counts.T[:, :, None],  # (K, n_rx, 1)
        )
        for i, counts in enumerate(y)
    ]


@dataclass
class SweepResult:
    """Full-pipeline outcome for one sweep configuration."""

    config: SimConfig
    stats: VariationStats
    verdict: QualityVerdict
    ratio_max_abs_db: dict[str, float]
    rssi_deviation_db: dict[int, float]


def run_sweep(
    configs: list[SimConfig],
    distortion: PhaseDistortion | None = None,
    thresholds: QualityThresholds = QualityThresholds(),
) -> list[SweepResult]:
    """Simulate, calibrate, and classify each configuration in turn.

    Each configuration is calibrated with its own chain constants.  Loss
    estimates for classification come from the simulator ground truth (the
    configured attenuations).  Results only depend on each entry's own
    config and seed, so order is immaterial.
    """
    if not configs:
        raise ConfigError("empty sweep")
    results = []
    for config in configs:
        consts = config.calibration_constants()
        records = simulate_capture(config, distortion)
        stats = variation_stats(records, consts)
        verdict = classify(stats, config.attenuation_db, thresholds, consts)

        ratio_max: dict[str, float] = {}
        for record in records:
            for pr in check_ratio_consistency(record, consts):
                if math.isnan(pr.discrepancy_db):
                    continue
                ratio_max[pr.label] = max(
                    ratio_max.get(pr.label, 0.0), abs(pr.discrepancy_db)
                )

        deviation = {
            p: stats.port_power_mean_dbm[p]
            - (config.tx_power_dbm - config.attenuation_db[p])
            for p in stats.port_power_mean_dbm
        }
        results.append(
            SweepResult(
                config=config,
                stats=stats,
                verdict=verdict,
                ratio_max_abs_db=ratio_max,
                rssi_deviation_db=deviation,
            )
        )
    return results

