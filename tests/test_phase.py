import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicalib import (
    circular_stats,
    differential_phase,
    differential_series,
    wrap_deg,
)
from csicalib.errors import AbsentPort, InsufficientData
from csicalib.phase import series_to_csv

from conftest import make_record


def test_wrap_range():
    angles = np.array([-180.0, 180.0, 181.0, 540.0, -540.0, 0.0, 359.9])
    wrapped = wrap_deg(angles)
    assert np.all(wrapped > -180.0) and np.all(wrapped <= 180.0)
    assert wrap_deg(181.0) == pytest.approx(-179.0)
    assert wrap_deg(-180.0) == 180.0


def _two_port_record(row_i, row_j):
    csi = np.stack([np.asarray(row_j), np.asarray(row_i)], axis=1)[:, :, None]
    return make_record(csi=csi, n_rx=2, rssi=(40, 40, 0))


def test_differential_quadrature():
    record = _two_port_record(np.full(30, 1j), np.ones(30))
    phase, mask = differential_phase(record, (1, 0))
    assert not mask.any()
    np.testing.assert_allclose(phase, 90.0, atol=1e-12)


def test_differential_common_rotation_invariant():
    rng = np.random.default_rng(2)
    row_j = rng.normal(size=30) + 1j * rng.normal(size=30)
    row_i = rng.normal(size=30) + 1j * rng.normal(size=30)
    record = _two_port_record(row_i, row_j)
    base, _ = differential_phase(record, (1, 0))
    for angle in (13.7, 91.0, 200.0, -77.3):
        rot = np.exp(1j * math.radians(angle))
        record2 = _two_port_record(row_i * rot, row_j * rot)
        rotated, _ = differential_phase(record2, (1, 0))
        np.testing.assert_allclose(
            wrap_deg(rotated - base), 0.0, atol=1e-9
        )


def test_differential_antisymmetric():
    rng = np.random.default_rng(3)
    row_j = rng.integers(-50, 51, 30) + 1j * rng.integers(-50, 51, 30)
    row_i = rng.integers(-50, 51, 30) + 1j * rng.integers(-50, 51, 30)
    record = _two_port_record(row_i, row_j)
    fwd, mask = differential_phase(record, (1, 0))
    rev, _ = differential_phase(record, (0, 1))
    ok = ~mask
    np.testing.assert_allclose(
        wrap_deg(fwd[ok] + rev[ok]), np.where(np.isclose(np.abs(fwd[ok]), 180), fwd[ok] * 2 % 360, 0), atol=1e-9
    )


def test_differential_masks_zero_entries():
    row_j = np.ones(30, dtype=complex)
    row_i = np.zeros(30, dtype=complex)
    record = _two_port_record(row_i, row_j)
    phase, mask = differential_phase(record, (1, 0))
    assert mask.all()
    assert np.isnan(phase).all()


def test_differential_absent_port():
    record = make_record(rssi=(40, 0, 31))
    with pytest.raises(AbsentPort):
        differential_phase(record, (1, 0))


def test_empty_differential_series_writes_header_only():
    series = differential_series([], (1, 0))
    assert series.phase_deg.shape == series.unmeasurable_mask.shape == (0, 30)
    assert series.phase_deg.dtype == np.float64
    assert series.unmeasurable_mask.dtype == np.bool_
    assert series_to_csv([series]) == "packet,subcarrier,pair,phase_deg,unmeasurable\r\n"


def test_circular_stats_constant():
    stats = circular_stats([10.0, 10.0, 10.0])
    assert stats["mean_deg"] == pytest.approx(10.0, abs=1e-9)
    assert stats["std_deg"] == pytest.approx(0.0, abs=1e-9)


def test_circular_stats_wraparound():
    stats = circular_stats([350.0, 10.0])
    assert stats["mean_deg"] == pytest.approx(0.0, abs=1e-9)
    assert stats["std_deg"] == pytest.approx(10.0, abs=1e-9)


def test_circular_stats_population_std():
    stats = circular_stats([-1.0, 0.0, 1.0])
    assert stats["std_deg"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)


def test_circular_stats_insufficient():
    with pytest.raises(InsufficientData):
        circular_stats([5.0])
    with pytest.raises(InsufficientData):
        circular_stats([np.nan, np.nan, 3.0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-180, 180), min_size=3, max_size=20),
    st.floats(-360, 360),
)
def test_circular_stats_rotation(angles, shift):
    base = circular_stats(angles)
    shifted = circular_stats([a + shift for a in angles])
    assert shifted["std_deg"] == pytest.approx(base["std_deg"], abs=1e-6)
    assert float(wrap_deg(shifted["mean_deg"] - base["mean_deg"] - shift)) == \
        pytest.approx(0.0, abs=1e-6)
