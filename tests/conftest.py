import numpy as np
import pytest

from csicalib import CalibrationConstants, PhaseDistortion, RawCsiRecord
from csicalib.ingest import N_SUBCARRIERS, _runs, as_capture


@pytest.fixture
def consts():
    return CalibrationConstants()


@pytest.fixture
def built(monkeypatch):
    """The number of RawCsiRecord objects built since the test began."""
    count = [0]
    init = RawCsiRecord.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RawCsiRecord, "__init__", counting_init)
    return count


def ref_layout_runs(records):
    """A slice for each run of consecutive records of one (n_rx, n_tx).

    The reference for the rows of Capture.runs(), from each record's layout.
    """
    return [slice(a, b) for a, b in _runs(as_capture(records).layout())]


# Oscillator drift representative of a real unsynchronized link; common to
# all ports, so it only dithers the quantizer without biasing differentials.
REALISTIC_DISTORTION = PhaseDistortion(
    cfo_rate_deg=17.3,
    sfo_slope_deg=0.11,
    pdd_jitter_deg=4.0,
    delta_deg=(0.0, 40.0, -70.0),
)


def make_record(
    csi=None,
    n_rx=3,
    n_tx=1,
    rssi=(36, 39, 31),
    agc=28,
    noise=-92,
    timestamp_low=0,
    bfee_count=0,
    antenna_perm=(0, 1, 2),
    rate_flags=0x0100,
):
    if csi is None:
        csi = np.ones((N_SUBCARRIERS, n_rx, n_tx), dtype=np.complex128)
    return RawCsiRecord(
        timestamp_low=timestamp_low,
        bfee_count=bfee_count,
        n_rx=n_rx,
        n_tx=n_tx,
        rssi=tuple(rssi),
        noise=noise,
        agc=agc,
        antenna_perm=tuple(antenna_perm),
        rate_flags=rate_flags,
        csi=np.asarray(csi, dtype=np.complex128),
    )


def random_record(rng: np.random.Generator) -> RawCsiRecord:
    n_rx = int(rng.integers(1, 4))
    n_tx = int(rng.integers(1, 4))
    rssi = [int(rng.integers(1, 256)) for _ in range(n_rx)] + [0] * (3 - n_rx)
    perm = list(rng.permutation(n_rx)) + [int(v) for v in rng.integers(0, 4, 3 - n_rx)]
    csi = (
        rng.integers(-128, 128, (N_SUBCARRIERS, n_rx, n_tx))
        + 1j * rng.integers(-128, 128, (N_SUBCARRIERS, n_rx, n_tx))
    ).astype(np.complex128)
    return make_record(
        csi=csi,
        n_rx=n_rx,
        n_tx=n_tx,
        rssi=rssi,
        agc=int(rng.integers(0, 256)),
        noise=int(rng.integers(-128, 128)),
        timestamp_low=int(rng.integers(0, 2**32)),
        bfee_count=int(rng.integers(0, 2**16)),
        antenna_perm=[int(p) for p in perm],
        rate_flags=int(rng.integers(0, 2**16)),
    )
