"""End-to-end acceptance checks for the whole toolkit.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line so the suite doubles as a checklist when run with -s.
"""

import itertools
import math
import time

import numpy as np

from csicalib import (
    CalibrationConstants,
    ControlSettings,
    PhaseDistortion,
    QualityThresholds,
    SimConfig,
    calibrate,
    closed_loop,
    csi_payload_len,
    differential_series,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    recommend,
    rssi_to_dbm,
    run_sweep,
    simulate_capture,
    variation_stats,
    write_text_trace,
)
from csicalib.ingest import N_SUBCARRIERS

from conftest import REALISTIC_DISTORTION, random_record

CONSTS = CalibrationConstants()


def _finish(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, "; ".join(failures)


def test_criterion_01_rssi_conversion_table():
    cases = {(37, 62): -69, (38, 62): -68, (36, 28): -36, (39, 28): -33,
             (31, 28): -41}
    start = time.perf_counter()
    results = {k: rssi_to_dbm(k[0], k[1], CONSTS) for k in cases}
    elapsed = time.perf_counter() - start
    failures = [
        f"{k}: got {results[k]}, want {v}" for k, v in cases.items()
        if results[k] != v
    ]
    if elapsed >= 1e-3:
        failures.append(f"runtime {elapsed * 1e3:.3f} ms >= 1 ms")
    _finish(1, "measured RSSI to dBm, exact", failures)


def test_criterion_02_amplitude_closure():
    rng = np.random.default_rng(1001)
    failures = []
    worst = 0.0
    for _ in range(1000):
        record = random_record(rng)
        frame = calibrate(record, CONSTS)
        amp = frame.amplitude_dbm[:, record.present_ports(), :]
        recombined = 10 * math.log10(float(np.nansum(10 ** (amp / 10.0))))
        worst = max(worst, abs(recombined - frame.total_power_dbm))
    if worst > 1e-9:
        failures.append(f"worst closure error {worst:.3e} dB > 1e-9")
    _finish(2, "total power closure over 1000 records", failures)


def test_criterion_03_ratio_identity():
    rows = [
        (60.0, 56.0, 66.0),
        (53.0, 50.0, 63.0),
        (23.0, 26.0, 20.0),
        (40.0, 43.0, 46.0),
        (33.0, 30.0, 36.0),
        (50.0, 56.0, 53.0),
    ]
    configs = [
        SimConfig(attenuation_db=row, n_packets=100, seed=100 + i)
        for i, row in enumerate(rows)
    ]
    start = time.perf_counter()
    results = run_sweep(configs, REALISTIC_DISTORTION)
    elapsed = time.perf_counter() - start
    failures = []
    for row, res in zip(rows, results):
        for label, disc in res.ratio_max_abs_db.items():
            if disc > 1.5:
                failures.append(f"{row} pair {label}: |discrepancy| {disc:.2f} > 1.5")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f} s >= 5 s")
    _finish(3, "RSSI vs CSI power ratios within 1.5 dB", failures)


def test_criterion_04_variation_trend():
    levels = (16.0, 19.0, 20.0, 26.0, 30.0, 36.0, 40.0,
              46.0, 50.0, 56.0, 60.0, 66.0, 70.0, 80.0)
    start = time.perf_counter()
    stds = {}
    amps = {}
    for att in levels:
        config = SimConfig(attenuation_db=(att, att, att), n_packets=100,
                           seed=200)
        stats = variation_stats(
            simulate_capture(config, REALISTIC_DISTORTION), CONSTS
        )
        stds[att] = float(np.nanmean(stats.pair_phase_std_deg()))
        amps[att] = float(np.nanmax(stats.port_amp_std_db()))
    elapsed = time.perf_counter() - start
    failures = []
    for att in levels:
        if att <= 50.0:
            if amps[att] >= 0.5:
                failures.append(f"amp STD {amps[att]:.2f} at {att} dB >= 0.5")
            if stds[att] >= 2.0:
                failures.append(f"phase STD {stds[att]:.2f} at {att} dB >= 2")
    if stds[66.0] < 3 * stds[40.0]:
        failures.append(
            f"phase STD at 66 dB ({stds[66.0]:.2f}) < 3x value at 40 dB "
            f"({stds[40.0]:.2f})"
        )
    if stds[80.0] <= stds[66.0]:
        failures.append(
            f"phase STD at 80 dB ({stds[80.0]:.2f}) <= value at 66 dB "
            f"({stds[66.0]:.2f})"
        )
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    _finish(4, "equal-attenuation sweep trend", failures)


def test_criterion_05_zero_csi_threshold():
    failures = []
    unbalanced = SimConfig(attenuation_db=(30.0, 80.0, 80.0), n_packets=100,
                           seed=300)
    (res,) = run_sweep([unbalanced], REALISTIC_DISTORTION)
    for port in (1, 2):
        frac = float(res.stats.zero_fraction[port])
        if frac < 0.9:
            failures.append(f"weak port {port + 1} zero fraction {frac:.2f} < 0.9")
    if res.verdict.cls != "PhaseUnmeasurable":
        failures.append(f"verdict {res.verdict.cls} != PhaseUnmeasurable")
    balanced = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=100,
                         seed=301)
    (res,) = run_sweep([balanced], REALISTIC_DISTORTION)
    frac = float(res.stats.zero_fraction.max())
    if frac >= 0.01:
        failures.append(f"balanced capture zero fraction {frac:.4f} >= 1%")
    _finish(5, "zero CSI on unbalanced channels", failures)


def test_criterion_06_agc_clamp():
    failures = []
    cases = {
        (16.0, 16.0, 16.0): {26},
        (80.0, 80.0, 80.0): {63},
    }
    for att, want in cases.items():
        records = simulate_capture(
            SimConfig(attenuation_db=att, n_packets=50, seed=400),
            REALISTIC_DISTORTION,
        )
        got = {r.agc for r in records}
        if got != want:
            failures.append(f"{att}: AGC readouts {sorted(got)}, want {sorted(want)}")
    records = simulate_capture(
        SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=50, seed=401),
        REALISTIC_DISTORTION,
    )
    for r in records:
        if abs(r.agc - 28) > 1:
            failures.append(f"balanced capture AGC {r.agc} not within 28 +- 1")
            break
    _finish(6, "AGC pinning and mid-range readout", failures)


def test_criterion_07_differential_cancellation():
    distortions = [
        PhaseDistortion(cfo_rate_deg=17.3, sfo_slope_deg=0.11,
                        pdd_jitter_deg=4.0, delta_deg=(0.0, 40.0, -70.0)),
        PhaseDistortion(cfo_rate_deg=-123.4, sfo_slope_deg=0.7,
                        pdd_jitter_deg=25.0, delta_deg=(12.0, -91.0, 177.0)),
    ]
    config = SimConfig(
        attenuation_db=(33.0, 30.0, 36.0),
        noise_floor_dbm=None,
        quantize=False,
        n_packets=1000,
        seed=500,
    )
    failures = []
    for di, distortion in enumerate(distortions):
        records = simulate_capture(config, distortion)
        for pair in ((1, 0), (2, 1), (0, 2)):
            series = differential_series(records, pair)
            drift = float(np.ptp(series.phase_deg))
            if drift > 1e-9:
                failures.append(
                    f"distortion {di} pair {pair}: drift {drift:.3e} deg > 1e-9"
                )
    _finish(7, "oscillator terms cancel in differential phase", failures)


def test_criterion_08_parser_roundtrip():
    rng = np.random.default_rng(600)
    records = [random_record(rng) for _ in range(1000)]
    failures = []
    if parse_binary_trace(encode_binary_trace(records)) != records:
        failures.append("binary roundtrip mismatch")
    if parse_text_trace(write_text_trace(records)) != records:
        failures.append("text roundtrip mismatch")
    for n_rx, n_tx in itertools.product((1, 2, 3), repeat=2):
        bits = N_SUBCARRIERS * (n_rx * n_tx * 16 + 3)
        if csi_payload_len(n_rx, n_tx) != (bits + 7) // 8:
            failures.append(f"length formula wrong for {n_rx}x{n_tx}")
    _finish(8, "trace encode/parse identity over 1000 records", failures)


def _brute_force_feasible(losses, thresholds):
    grid = np.arange(0.0, 61.0, 2.0)
    a0, a1, a2 = np.meshgrid(grid, grid, grid, indexing="ij")
    f0, f1, f2 = losses[0] + a0, losses[1] + a1, losses[2] + a2
    top = np.maximum(np.maximum(f0, f1), f2)
    bottom = np.minimum(np.minimum(f0, f1), f2)
    ok = (top <= thresholds.max_loss_db) & (top - bottom <= thresholds.spread_reliable_db)
    return bool(ok.any())


def test_criterion_09_control_loop():
    settings = ControlSettings()
    thresholds = QualityThresholds()
    rng = np.random.default_rng(700)
    failures = []
    for i in range(100):
        losses = [float(v) for v in rng.uniform(15.0, 90.0, 3)]
        action = recommend(losses, settings)
        expected = _brute_force_feasible(losses, thresholds)
        if action.feasible != expected:
            failures.append(f"{losses}: feasible {action.feasible} != {expected}")
            continue
        initial = SimConfig(
            attenuation_db=tuple(losses), n_packets=30, seed=700 + i
        )
        steps = closed_loop(initial, REALISTIC_DISTORTION, settings=settings)
        for step in steps[1:]:
            if max(step.config.attenuation_db) > thresholds.max_loss_db:
                failures.append(
                    f"{losses}: applied attenuation exceeded the 60 dB ceiling"
                )
        if action.feasible:
            if len(steps) > 5:
                failures.append(f"{losses}: {len(steps)} iterations > 5")
            elif steps[-1].verdict.cls != "Reliable":
                failures.append(
                    f"{losses}: ended {steps[-1].verdict.cls}, want Reliable"
                )
    _finish(9, "attenuation balancing loop", failures)


def test_criterion_10_variation_table_partition():
    # (attenuations, reference amp STDs dB, reference phase STDs deg)
    set1 = [
        ((23.0, 50.0, 50.0), None, (8.77, 13.35, 9.91)),
        ((26.0, 56.0, 40.0), None, (14.65, 15.23, 2.97)),
    ]
    set3_quoted = ((33.0, 30.0, 36.0), (0.20, 0.20, 0.24), (1.48, 1.62, 1.76))
    set3 = [
        ((40.0, 43.0, 46.0), None, None),
        ((33.0, 30.0, 36.0), None, None),
        ((50.0, 56.0, 53.0), None, None),
    ]
    failures = []

    for si, (att, _, _) in enumerate(set1):
        stats = variation_stats(
            simulate_capture(
                SimConfig(attenuation_db=att, n_packets=100, seed=800 + si),
                REALISTIC_DISTORTION,
            ),
            CONSTS,
        )
        stds = stats.pair_phase_std_deg()
        for pi, pair in enumerate(stats.pairs):
            diff = abs(att[pair[0]] - att[pair[1]])
            if diff > 20.0 and stds[pi] <= 5.0:
                failures.append(
                    f"set1 {att} pair {pair}: phase STD {stds[pi]:.2f} <= 5"
                )

    for si, (att, _, _) in enumerate(set3):
        stats = variation_stats(
            simulate_capture(
                SimConfig(attenuation_db=att, n_packets=100, seed=810 + si),
                REALISTIC_DISTORTION,
            ),
            CONSTS,
        )
        if float(np.nanmax(stats.pair_phase_std_deg())) >= 5.0:
            failures.append(f"set3 {att}: phase STD >= 5")
        if float(np.nanmax(stats.port_amp_std_db())) >= 0.5:
            failures.append(f"set3 {att}: amp STD >= 0.5")

    att, ref_amp, ref_phase = set3_quoted
    stats = variation_stats(
        simulate_capture(
            SimConfig(attenuation_db=att, n_packets=100, seed=820),
            REALISTIC_DISTORTION,
        ),
        CONSTS,
    )
    for p, ref in enumerate(ref_amp):
        got = float(stats.port_amp_std_db()[p])
        if not 0.0 < got <= 2 * ref:
            failures.append(f"{att} port {p + 1}: amp STD {got:.2f} vs 2x {ref}")
    for pi, ref in enumerate(ref_phase):
        got = float(stats.pair_phase_std_deg()[pi])
        if not 0.0 < got <= 2 * ref:
            failures.append(f"{att} pair {pi}: phase STD {got:.2f} vs 2x {ref}")
    _finish(10, "variation table set partition", failures)
