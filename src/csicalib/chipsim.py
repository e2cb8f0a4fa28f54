"""Deterministic receiver-chain simulator for cabled attenuator experiments.

Models one transmit port feeding three receive ports through a power
divider and independent attenuators: a static (optionally multipath)
channel, complex white Gaussian noise at the receiver input, strongest-port
AGC steering to a fixed ADC target, integer quantization of the CSI
components, and integer RSSI readouts.  Zero CSI on badly unbalanced
channels emerges from quantization alone, not from a hard-coded rule.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import CalibrationConstants, Capture, N_SUBCARRIERS
from .powercalib import canonical_pairs, check_ratio_consistency, pair_label
from .quality import (
    QualityThresholds,
    QualityVerdict,
    VariationStats,
    _reject_nan,
    classify,
    csv_cell,
    variation_stats,
)
from .svgchart import line_chart


@dataclass(frozen=True)
class MultipathTap:
    """One propagation path: linear gain, phase offset, and a per-subcarrier
    phase slope standing in for the path delay.  A value that is not finite
    (NaN or an infinity) raises ConfigError when the tap is built."""

    gain: float = 1.0
    phase_deg: float = 0.0
    delay_slope_deg: float = 0.0

    def __post_init__(self):
        _reject_nan(self, "gain", "phase_deg", "delay_slope_deg", finite=True)


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

    A SimConfig is checked when it is built, dataclasses.replace included:
    values out of range, a NaN power or loss, a tx_power_dbm or an
    adc_target_dbm that is not finite, an adc_ref_amplitude not above 0, a
    chain whose linear powers or count scale leave the float range, and
    multipath taps that cancel to a zero channel raise ConfigError.  A port
    that reads nothing, and a noise_floor_dbm of -inf, simulate.  So does
    an infinite attenuation, but only while its port gets noise: with
    noise_floor_dbm None or -inf, its zero power is simulate_capture's
    float-range ConfigError, which tests/test_cli.py pins for an
    attenuation_db of [30, 30, 4000].
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

    def __post_init__(self):
        if self.n_packets < 1:
            raise ConfigError("n_packets must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 1 <= len(self.attenuation_db) <= 3:
            raise ConfigError("attenuation_db needs 1 to 3 entries")
        if len(self.multipath) < 1:
            raise ConfigError("at least one multipath tap required")
        _reject_nan(self, "tx_power_dbm", "adc_target_dbm", finite=True)
        _reject_nan(self, "noise_floor_dbm", "attenuation_db")
        if not self.adc_ref_amplitude > 0:
            raise ConfigError(f"adc_ref_amplitude must be > 0, got {self.adc_ref_amplitude}")
        if self.noise_floor_dbm is not None and self.noise_floor_dbm >= self.tx_power_dbm:
            raise ConfigError("noise floor must sit below transmit power")
        if not 0 <= self.agc_min_db < self.agc_max_db <= 255:
            raise ConfigError("need 0 <= agc_min_db < agc_max_db <= 255, "
                              "the range of the AGC readout")
        self.calibration_constants()
        _linear_scales(self)
        with np.errstate(all="ignore"):  # a channel past the float range is simulate_capture's
            _unit_channel(self)

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
    reads the first n_rx).  A value that is not finite (NaN or an
    infinity) raises ConfigError when the distortion is built.
    """

    cfo_rate_deg: float = 0.0
    sfo_slope_deg: float = 0.0
    pdd_jitter_deg: float = 0.0
    delta_deg: tuple[float, ...] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _reject_nan(self, "cfo_rate_deg", "sfo_slope_deg", "pdd_jitter_deg", "delta_deg",
                    finite=True)


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
        h += float(tap.gain) * np.exp(
            1j * np.deg2rad(float(tap.phase_deg) + float(tap.delay_slope_deg) * k))
    norm = math.sqrt(float(np.sum(np.abs(h) ** 2)))
    if norm == 0.0:
        raise ConfigError("multipath taps cancel to a zero channel")
    return h / norm


def simulate_capture(
    config: SimConfig, distortion: PhaseDistortion | None = None, *, _held: dict | None = None
) -> Capture:
    """Produce a deterministic capture of the configured chain.

    The output is a function of the seed through one fixed draw order, which
    the golden digests in tests/test_chipsim_reference.py pin: per packet,
    the phase jitter (only when pdd_jitter_deg is set), then the real parts
    of the (n_rx, 30) noise, then the imaginary parts.  Noise is drawn even
    when noise_floor_dbm is None.  The whole capture is computed as
    (T, n_rx, 30) arrays, and the Capture's columns are those arrays: its
    one csi part is a view of the counts, and no record is built until one
    is indexed.  Values whose arithmetic leaves the float range, a capture
    too large for memory, and a delta_deg with fewer than n_rx entries,
    raise ConfigError.
    """
    distortion = distortion or PhaseDistortion()
    n_rx = len(config.attenuation_db)
    if len(distortion.delta_deg) < n_rx:
        raise ConfigError(f"delta_deg needs at least {n_rx} entries, one per port, "
                          f"got {len(distortion.delta_deg)}")
    # _held is run_sweep's, for one distortion: it keeps the last draw under
    # the config fields that _draw reads, for the next point to reuse.
    held = {} if _held is None else _held
    key = (config.seed, config.n_packets, n_rx, config.noise_floor_dbm)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if key not in held:
                held.clear()
                held[key] = _draw(config, distortion)
            return _simulate(config, *held[key])
    except FloatingPointError as exc:
        raise ConfigError(f"the simulated chain leaves the float range ({exc})") from exc
    except MemoryError as exc:
        raise ConfigError("the simulated capture needs more memory than is available "
                          f"({exc})") from exc


def _draw(config: SimConfig, distortion: PhaseDistortion) -> tuple[np.ndarray, np.ndarray]:
    """The random and oscillator terms of a capture, each (T, n_rx, 30):
    the phasors exp(i(common + delta)) and the scaled complex noise.

    They depend on the seed, n_packets, the port count, noise_floor_dbm
    and the distortion, not on the attenuations.  Both come back
    read-only, so a held draw cannot change under a later capture.
    """
    rng = np.random.default_rng(config.seed)
    n_rx = len(config.attenuation_db)
    n_packets = config.n_packets
    k = np.arange(N_SUBCARRIERS)
    noise_scale = _linear_scales(config)[1]

    # One row of normals per packet, in the per-packet draw order.  Every
    # step below and in _simulate repeats the operations of a per-packet
    # computation, in place where it can, so the records are bit-identical
    # to it (signed zeros included).
    n_jitter = 1 if distortion.pdd_jitter_deg else 0
    n_noise = n_rx * N_SUBCARRIERS
    draws = rng.standard_normal((n_packets, n_jitter + 2 * n_noise))
    shape = (n_packets, n_rx, N_SUBCARRIERS)

    noise = np.multiply(draws[:, n_jitter + n_noise:].reshape(shape), 1j)
    noise += draws[:, n_jitter : n_jitter + n_noise].reshape(shape)
    noise *= noise_scale

    t = np.arange(n_packets, dtype=np.float64)[:, None]
    common = float(distortion.sfo_slope_deg) * k * t  # (T, K)
    common += distortion.cfo_rate_deg * t
    # Generator.normal(0, s) is 0 + s * z for one standard normal z.
    common += 0.0 + distortion.pdd_jitter_deg * draws[:, :1] if n_jitter else 0.0
    del draws
    np.deg2rad(common, out=common)
    delta = np.deg2rad(np.asarray(distortion.delta_deg[:n_rx], dtype=float))
    phasors = np.multiply(common[:, None, :] + delta[:, None], 1j)
    np.exp(phasors, out=phasors)
    phasors.flags.writeable = noise.flags.writeable = False
    return phasors, noise


def _simulate(config: SimConfig, phasors: np.ndarray, noise: np.ndarray) -> Capture:
    n_rx = len(config.attenuation_db)
    n_packets = config.n_packets
    u = _unit_channel(config)  # (K,)

    port_power_lin, _, kappa = _linear_scales(config)
    # Per-subcarrier complex signal per port; sum over subcarriers of |x|^2
    # equals the port power in mW.
    x = np.sqrt(np.array(port_power_lin))[:, None] * u[None, :]  # (n_rx, K)
    y = phasors * x
    y += noise

    power = np.abs(y)
    np.square(power, out=power)
    p_meas = np.log10(power.sum(axis=2))  # (T, n_rx)
    p_meas *= 10.0
    del power
    # np.round rounds half to even, as round() does.
    agc = np.round(config.adc_target_dbm - p_meas.max(axis=1))
    np.clip(agc, config.agc_min_db, config.agc_max_db, out=agc)
    agc = agc.astype(np.int64)
    # The gain of each AGC value in Python arithmetic, once per value.
    agc_values = agc.tolist()
    gain = {a: kappa * 10.0 ** (a / 20.0) for a in set(agc_values)}
    y *= np.array([gain[a] for a in agc_values])[:, None, None]

    readout = p_meas + agc[:, None]
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

    i = np.arange(n_packets)
    return Capture(
        timestamp_low=(i * 1024) & 0xFFFFFFFF,
        bfee_count=i & 0xFFFF,
        rssi=np.pad(readout, ((0, 0), (0, 3 - n_rx))),
        noise=np.full(n_packets, -92),
        agc=agc,
        antenna_perm=np.tile([0, 1, 2], (n_packets, 1)),
        rate_flags=np.full(n_packets, 0x0100),
        parts=(y.transpose(0, 2, 1)[..., None],),  # (T, K, n_rx, 1)
    )


@dataclass
class SweepResult:
    """Full-pipeline outcome for one sweep configuration.

    ratio_max_abs_db maps each pair label to its largest absolute RSSI vs
    CSI ratio discrepancy over the measurable records.  rssi_deviation_db
    is (n_rx,): each port's mean calibrated power minus its true power,
    NaN for a port that reads absent in every record.
    """

    config: SimConfig
    stats: VariationStats
    verdict: QualityVerdict
    ratio_max_abs_db: dict[str, float]
    rssi_deviation_db: np.ndarray


def run_sweep(
    configs: list[SimConfig],
    distortion: PhaseDistortion | None = None,
    thresholds: QualityThresholds = QualityThresholds(),
) -> list[SweepResult]:
    """Simulate, calibrate, and classify each configuration in turn.

    Each configuration is calibrated with its own chain constants.  Loss
    estimates for classification come from the simulator ground truth (the
    configured attenuations).  Results only depend on each entry's own
    config and seed, so order is immaterial: each result is that config's
    sweep of one.

    The CLI's sweep runs every point on the one resolved seed, as the
    paper steps its attenuators on one link.  So the points share their
    noise and oscillator draws, and report rows differ only through the
    attenuations: a paired comparison.  That is why consecutive points of
    one seed, packet count, port count and noise floor simulate from one
    draw, made once.
    """
    if not configs:
        raise ConfigError("empty sweep")
    results = []
    held: dict = {}
    for config in configs:
        consts = config.calibration_constants()
        capture = simulate_capture(config, distortion, _held=held)
        stats = variation_stats(capture, consts)
        ratios = check_ratio_consistency(capture)
        del capture  # released before the next one is simulated, to lower peak memory
        verdict = classify(stats, config.attenuation_db, thresholds, consts)

        ratio_max = {pr.label: float(np.nanmax(np.abs(pr.discrepancy_db)))
                     for pr in ratios if not np.isnan(pr.discrepancy_db).all()}

        deviation = stats.port_power_mean_dbm - (
            config.tx_power_dbm - np.array(config.attenuation_db))
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


def sweep_outputs(results: list[SweepResult]) -> dict[str, str]:
    """The files of a sweep, by name: report.csv and its three SVG charts.

    report.csv has one row per result, in order (docs/FORMATS.md), and
    amp_std.svg, phase_std.svg and rssi_deviation.svg plot its columns
    against each point's largest attenuation.  The results must share one
    port count: an empty list, or one holding several port counts, raises
    ConfigError.
    """
    port_counts = sorted({len(res.config.attenuation_db) for res in results})
    if len(port_counts) != 1:
        raise ConfigError(f"sweep outputs need results of one port count, got {port_counts}")
    (n_rx,) = port_counts
    ports = [f"port {p + 1}" for p in range(n_rx)]
    pairs = [pair_label(pair) for pair in canonical_pairs(n_rx)]
    values = [[*res.stats.port_amp_std_db(), *res.stats.pair_phase_std_deg(),
               *res.rssi_deviation_db,
               max(res.ratio_max_abs_db.values(), default=math.nan)] for res in results]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["index"]
        + [f"attenuation_port{p + 1}_db" for p in range(n_rx)]
        + [f"amp_std_port{p + 1}_db" for p in range(n_rx)]
        + [f"phase_std_{label}_deg" for label in pairs]
        + [f"rssi_deviation_port{p + 1}_db" for p in range(n_rx)]
        + ["max_ratio_discrepancy_db", "verdict"]
    )
    for idx, (res, row) in enumerate(zip(results, values)):
        writer.writerow([idx] + [f"{a:g}" for a in res.config.attenuation_db]
                        + [csv_cell(v) for v in row] + [res.verdict.cls])
    outputs = {"report.csv": buf.getvalue()}

    # Each chart plots report columns, in order, against the largest attenuation.
    xs = [max(res.config.attenuation_db) for res in results]
    columns = iter(zip(*values))
    for name, title, y_label, labels in (
        ("amp_std.svg", "Amplitude STD vs attenuation", "amplitude STD (dB)", ports),
        ("phase_std.svg", "Phase STD vs attenuation", "phase STD (deg)",
         [f"pair {label}" for label in pairs]),
        ("rssi_deviation.svg", "RSSI deviation vs attenuation", "deviation (dB)", ports),
    ):
        series = [(label, xs, [float(v) for v in next(columns)]) for label in labels]
        outputs[name] = line_chart(
            series, title=title, x_label="max attenuation (dB)", y_label=y_label)
    return outputs
