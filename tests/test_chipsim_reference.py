"""The whole-capture simulator against its per-packet loop version.

The reference below simulates one packet at a time and draws, per packet,
the phase jitter (when pdd_jitter_deg is set), then the real noise, then
the imaginary noise.  The library draws the whole capture's normals in one
call in that same order, so its records must be bit-identical: the same
header values and types, and the same csi bytes, signed zeros included.
The golden digests pin the simulator's output across changes.
"""

import hashlib
import math

import numpy as np
import pytest

from csicalib import (
    MultipathTap,
    PhaseDistortion,
    SimConfig,
    simulate_capture,
    write_text_trace,
)
from csicalib.chipsim import _unit_channel
from csicalib.ingest import N_SUBCARRIERS, RawCsiRecord

from conftest import REALISTIC_DISTORTION


def _ref_simulate_capture(config, distortion=None):
    config.validate()
    if distortion is None:
        distortion = PhaseDistortion()
    rng = np.random.default_rng(config.seed)
    n_rx = len(config.attenuation_db)
    u = _unit_channel(config)
    k = np.arange(N_SUBCARRIERS)
    port_power_lin = np.array(
        [10.0 ** ((config.tx_power_dbm - a) / 10.0) for a in config.attenuation_db]
    )
    x = np.sqrt(port_power_lin)[:, None] * u[None, :]
    if config.noise_floor_dbm is None:
        noise_scale = 0.0
    else:
        per_sub = 10.0 ** (config.noise_floor_dbm / 10.0) / N_SUBCARRIERS
        noise_scale = math.sqrt(per_sub / 2.0)
    kappa = config.adc_ref_amplitude * math.sqrt(N_SUBCARRIERS) / \
        10.0 ** (config.adc_target_dbm / 20.0)

    delta = np.deg2rad(np.asarray(distortion.delta_deg[:n_rx]))
    records = []
    for t in range(config.n_packets):
        common = (
            distortion.cfo_rate_deg * t
            + distortion.sfo_slope_deg * k * t
            + (rng.normal(0.0, distortion.pdd_jitter_deg) if distortion.pdd_jitter_deg else 0.0)
        )
        rot = np.exp(1j * (np.deg2rad(common)[None, :] + delta[:, None]))
        noise = noise_scale * (
            rng.standard_normal((n_rx, N_SUBCARRIERS))
            + 1j * rng.standard_normal((n_rx, N_SUBCARRIERS))
        )
        y = x * rot + noise
        p_meas = 10.0 * np.log10(np.sum(np.abs(y) ** 2, axis=1))
        agc = int(
            np.clip(
                round(config.adc_target_dbm - float(p_meas.max())),
                config.agc_min_db,
                config.agc_max_db,
            )
        )
        gain = kappa * 10.0 ** (agc / 20.0)
        counts = gain * y
        if config.quantize:
            re = np.clip(np.round(counts.real), -128, 127)
            im = np.clip(np.round(counts.imag), -128, 127)
            counts = re + 1j * im
            rssi = tuple(
                int(np.clip(round(float(p) + agc + config.c_fixed_db), 0, 255))
                for p in p_meas
            )
        else:
            rssi = tuple(float(p) + agc + config.c_fixed_db for p in p_meas)
        rssi = tuple(rssi) + (0,) * (3 - n_rx)
        records.append(
            RawCsiRecord(
                timestamp_low=(t * 1024) & 0xFFFFFFFF,
                bfee_count=t & 0xFFFF,
                n_rx=n_rx,
                n_tx=1,
                rssi=rssi,
                noise=-92,
                agc=agc,
                antenna_perm=(0, 1, 2),
                rate_flags=0x0100,
                csi=counts.T[:, :, None],
            )
        )
    return records


_HEADER = ("timestamp_low", "bfee_count", "n_rx", "n_tx", "noise", "agc", "rate_flags")

NO_JITTER = PhaseDistortion(cfo_rate_deg=17.3, sfo_slope_deg=0.11,
                            delta_deg=(0.0, 40.0, -70.0))
# Negative rates make the t = 0 phase a negative zero.
NEGATIVE = PhaseDistortion(cfo_rate_deg=-5.0, sfo_slope_deg=-0.3, pdd_jitter_deg=2.5,
                           delta_deg=(-0.0, -15.0, 120.0))
TWO_TAP = (MultipathTap(), MultipathTap(gain=0.6, phase_deg=70.0, delay_slope_deg=11.0))

CASES = {
    "jitter": (SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=150, seed=3),
               REALISTIC_DISTORTION),
    "no_jitter": (SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=150, seed=3),
                  NO_JITTER),
    "no_distortion": (SimConfig(n_packets=60, seed=5), None),
    "negative_rates": (SimConfig(attenuation_db=(20.0, 45.0, 58.0), n_packets=80, seed=9),
                       NEGATIVE),
    "no_noise": (SimConfig(noise_floor_dbm=None, n_packets=60, seed=1),
                 REALISTIC_DISTORTION),
    "no_noise_no_distortion": (SimConfig(noise_floor_dbm=None, n_packets=20), None),
    "multipath": (SimConfig(attenuation_db=(40.0, 30.0, 50.0), multipath=TWO_TAP,
                            n_packets=100, seed=4), REALISTIC_DISTORTION),
    "unquantized": (SimConfig(quantize=False, n_packets=80, seed=2), REALISTIC_DISTORTION),
    "unquantized_no_jitter": (SimConfig(attenuation_db=(25.0, 35.0), quantize=False,
                                        n_packets=40, seed=8), NO_JITTER),
    "n_rx_1": (SimConfig(attenuation_db=(30.0,), n_packets=60, seed=6), REALISTIC_DISTORTION),
    "n_rx_2": (SimConfig(attenuation_db=(30.0, 44.0), n_packets=60, seed=7), NO_JITTER),
    "n_rx_3_unbalanced": (SimConfig(attenuation_db=(30.0, 80.0, 80.0), n_packets=60, seed=0),
                          REALISTIC_DISTORTION),
    "one_packet": (SimConfig(n_packets=1, seed=12), REALISTIC_DISTORTION),
    "one_packet_no_jitter": (SimConfig(attenuation_db=(30.0, 40.0), n_packets=1, seed=12),
                             None),
    "agc_pinned_low": (SimConfig(attenuation_db=(12.0, 15.0, 15.0), n_packets=40, seed=0),
                       REALISTIC_DISTORTION),
    "agc_pinned_high": (SimConfig(attenuation_db=(75.0, 78.0, 80.0), n_packets=40, seed=0),
                        REALISTIC_DISTORTION),
    "custom_chain": (SimConfig(tx_power_dbm=0.0, adc_target_dbm=-8.0, adc_ref_amplitude=24.0,
                               agc_min_db=20, agc_max_db=50, c_fixed_db=41.5,
                               n_packets=50, seed=10), REALISTIC_DISTORTION),
}


def _assert_identical(new, ref):
    assert len(new) == len(ref)
    for t, (a, b) in enumerate(zip(new, ref)):
        for name in _HEADER:
            va, vb = getattr(a, name), getattr(b, name)
            assert type(va) is type(vb) and va == vb, (t, name)
        assert [type(v) for v in a.rssi] == [type(v) for v in b.rssi], t
        assert tuple(a.rssi) == tuple(b.rssi), t
        assert tuple(a.antenna_perm) == tuple(b.antenna_perm), t
        assert a.csi.dtype == b.csi.dtype and a.csi.shape == b.csi.shape, t
        # Bytes, not values: -0.0 == 0.0 but their bytes differ.
        assert a.csi.tobytes() == b.csi.tobytes(), t


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case):
    config, distortion = CASES[case]
    _assert_identical(simulate_capture(config, distortion),
                      _ref_simulate_capture(config, distortion))


def test_agc_clamp_cases_reach_each_clamp():
    low, distortion = CASES["agc_pinned_low"]
    high, _ = CASES["agc_pinned_high"]
    assert {r.agc for r in simulate_capture(low, distortion)} == {low.agc_min_db}
    assert {r.agc for r in simulate_capture(high, distortion)} == {high.agc_max_db}


def test_negative_zero_components_occur():
    # The grid must exercise the sign of rounded zero components, or the
    # byte comparison above would not pin it.
    config, distortion = CASES["n_rx_3_unbalanced"]
    csi = np.stack([r.csi for r in simulate_capture(config, distortion)])
    parts = np.concatenate([csi.real.ravel(), csi.imag.ravel()])
    zeros = parts[parts == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


@pytest.mark.parametrize("case", ["jitter", "no_noise", "n_rx_1", "agc_pinned_high"])
def test_header_values_are_python_ints(case):
    config, distortion = CASES[case]
    for record in simulate_capture(config, distortion):
        values = [getattr(record, name) for name in _HEADER]
        values += list(record.rssi) + list(record.antenna_perm)
        assert all(type(v) is int for v in values)


# sha256 of write_text_trace(simulate_capture(...)) from the per-packet
# simulator.  Integer text keeps them independent of CPU and numpy version.
GOLDEN = {
    0: "d5ef0ee954be65a914c4c52d6db8bb871ef007b4609abc6210c95d346c7d7281",
    1: "773187d5a80abb485d9668732e47e1f2fd5254f2c365d616ab8de7d683ee05d2",
    7: "a4d801dadb5dee743773e730d9b430d6d02a60355a0128b82755740a0d16cde4",
    2024: "c9d18db37a4cca1db7d78ad27ecf420810447358ccebca2a50705ee16bef48d1",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_digest(seed):
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=200, seed=seed)
    text = write_text_trace(simulate_capture(config, REALISTIC_DISTORTION))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[seed]
