"""The binary and text codecs against their loop versions.

The reference functions below decode and encode one 8-bit component at a
time, record by record, straight from the layout in docs/FORMATS.md.  The
library checks every frame first and then decodes the payloads of each
(n_rx, n_tx) layout as one array; it must give the same records, the same
bytes and the same errors, raised in the same order.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from csicalib import (
    SimConfig,
    csi_payload_len,
    encode_binary_trace,
    parse_binary_trace,
    simulate_capture,
    write_text_trace,
)
from csicalib.cli import main
from csicalib.errors import (
    CsiCalibError,
    InvariantViolation,
    LengthMismatch,
    TruncatedRecord,
)
from csicalib.ingest import CSI_RECORD_CODE, N_SUBCARRIERS, RawCsiRecord

from conftest import REALISTIC_DISTORTION, make_record, random_record


# --- reference codec ---------------------------------------------------------

def _ref_read_s8(payload, bitpos):
    byte, rem = divmod(bitpos, 8)
    v = payload[byte] >> rem
    if rem:
        v |= payload[byte + 1] << (8 - rem)
    v &= 0xFF
    return v - 256 if v > 127 else v


def _ref_write_u8(buf, bitpos, value):
    v = value & 0xFF
    byte, rem = divmod(bitpos, 8)
    buf[byte] |= (v << rem) & 0xFF
    if rem:
        buf[byte + 1] |= v >> (8 - rem)


def _ref_decode_perm(antenna_sel):
    return (antenna_sel & 0x3, (antenna_sel >> 2) & 0x3, (antenna_sel >> 4) & 0x3)


def _ref_parse_record_body(body):
    if len(body) < 20:
        raise TruncatedRecord("record body shorter than fixed header")
    n_rx, n_tx = body[8], body[9]
    noise = body[13] - 256 if body[13] > 127 else body[13]
    antenna_sel = body[15]
    declared_len = int.from_bytes(body[16:18], "little")
    perm = _ref_decode_perm(antenna_sel)
    # The record rules a header's bytes can break, in the order of the rule
    # table, before the lengths.
    if not (1 <= n_rx <= 3 and 1 <= n_tx <= 3):
        raise InvariantViolation("n_rx and n_tx must be in 1..3")
    if any(body[10 + n_rx : 13]):
        raise InvariantViolation("rssi of absent ports must be exactly 0")
    if sorted(perm[:n_rx]) != list(range(n_rx)):
        raise InvariantViolation("antenna_perm prefix is not a permutation")
    expected = csi_payload_len(n_rx, n_tx)
    if declared_len != expected:
        raise LengthMismatch(f"declared {declared_len}, computed {expected}")
    if len(body) < 20 + declared_len:
        raise TruncatedRecord("CSI payload cut short")

    payload = body[20 : 20 + declared_len]
    csi = np.zeros((N_SUBCARRIERS, n_rx, n_tx), dtype=np.complex128)
    bitpos = 0
    for k in range(N_SUBCARRIERS):
        bitpos += 3
        for stream in range(n_rx):
            for tx in range(n_tx):
                re = _ref_read_s8(payload, bitpos)
                im = _ref_read_s8(payload, bitpos + 8)
                bitpos += 16
                csi[k, perm[stream], tx] = complex(re, im)
    return RawCsiRecord(
        timestamp_low=int.from_bytes(body[0:4], "little"),
        bfee_count=int.from_bytes(body[4:6], "little"),
        n_rx=n_rx,
        n_tx=n_tx,
        rssi=(body[10], body[11], body[12]),
        noise=noise,
        agc=body[14],
        antenna_perm=perm,
        rate_flags=int.from_bytes(body[18:20], "little"),
        csi=csi,
    )


def _ref_parse_binary_trace(data):
    records = []
    off = 0
    total = len(data)
    while off < total:
        if total - off < 3:
            raise TruncatedRecord(f"dangling {total - off} byte(s) at offset {off}")
        frame_len = int.from_bytes(data[off : off + 2], "big")
        code = data[off + 2]
        if frame_len < 1 or off + 2 + frame_len > total:
            raise TruncatedRecord(f"frame at offset {off} exceeds input")
        body = data[off + 3 : off + 2 + frame_len]
        off += 2 + frame_len
        if code == CSI_RECORD_CODE:
            records.append(_ref_parse_record_body(body))
    return records


def _ref_encode_binary_trace(records):
    out = bytearray()
    for record in records:
        record.validate()
        payload_len = csi_payload_len(record.n_rx, record.n_tx)
        payload = bytearray(payload_len)
        perm = record.antenna_perm
        bitpos = 0
        for k in range(N_SUBCARRIERS):
            bitpos += 3
            for stream in range(record.n_rx):
                for tx in range(record.n_tx):
                    entry = record.csi[k, perm[stream], tx]
                    _ref_write_u8(payload, bitpos, int(entry.real))
                    _ref_write_u8(payload, bitpos + 8, int(entry.imag))
                    bitpos += 16
        antenna_sel = perm[0] | (perm[1] << 2) | (perm[2] << 4)
        header = bytearray()
        header += record.timestamp_low.to_bytes(4, "little")
        header += record.bfee_count.to_bytes(2, "little")
        header += b"\x00\x00"
        header += bytes([record.n_rx, record.n_tx, *record.rssi, record.noise & 0xFF,
                         record.agc, antenna_sel])
        header += payload_len.to_bytes(2, "little")
        header += record.rate_flags.to_bytes(2, "little")
        body = bytes(header) + bytes(payload)
        out += (1 + len(body)).to_bytes(2, "big")
        out.append(CSI_RECORD_CODE)
        out += body
    return bytes(out)


def _ref_write_text_trace(records):
    lines = []
    for record in records:
        record.validate()
        obj = {
            "timestamp_low": record.timestamp_low,
            "bfee_count": record.bfee_count,
            "n_rx": record.n_rx,
            "n_tx": record.n_tx,
            "rssi": list(record.rssi),
            "noise": record.noise,
            "agc": record.agc,
            "antenna_perm": list(record.antenna_perm),
            "rate_flags": record.rate_flags,
            "csi": [[int(z.real), int(z.imag)] for z in record.csi.reshape(-1)],
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


# --- helpers -----------------------------------------------------------------

def _assert_same_records(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a == b
        for name in ("timestamp_low", "bfee_count", "n_rx", "n_tx", "noise", "agc",
                     "rate_flags"):
            assert type(getattr(a, name)) is type(getattr(b, name)) is int
        assert a.rssi == b.rssi and type(a.rssi) is tuple
        assert a.antenna_perm == b.antenna_perm and type(a.antenna_perm) is tuple
        assert a.csi.dtype == b.csi.dtype and a.csi.shape == b.csi.shape
        assert a.csi.tobytes() == b.csi.tobytes()


def _outcome(parse, data):
    try:
        return "ok", parse(data)
    except CsiCalibError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(data):
    new = _outcome(parse_binary_trace, data)
    ref = _outcome(_ref_parse_binary_trace, data)
    if new[0] == "ok" and ref[0] == "ok":
        _assert_same_records(new[1], ref[1])
    else:
        assert new == ref
    return new[0]


def _frames(data):
    """(offset, code) of every frame of a well-formed trace."""
    off, out = 0, []
    while off < len(data):
        out.append((off, data[off + 2]))
        off += 2 + int.from_bytes(data[off : off + 2], "big")
    return out


def _with_non_csi(trace, rng, every=4):
    """Insert a random non-CSI frame before about one frame in ``every``."""
    frames = _frames(trace) + [(len(trace), None)]
    out = bytearray()
    for (start, _), (end, _) in zip(frames, frames[1:]):
        if rng.random() < 1.0 / every:
            code = int(rng.integers(0, 255))
            code += code >= CSI_RECORD_CODE
            body = rng.integers(0, 256, int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
            out += (1 + len(body)).to_bytes(2, "big") + bytes([code]) + body
        out += trace[start:end]
    return bytes(out)


def _mixed_trace(seed, n_records):
    rng = np.random.default_rng(seed)
    records = [random_record(rng) for _ in range(n_records)]
    return records, _with_non_csi(encode_binary_trace(records), rng)


# --- identical records and bytes ---------------------------------------------

def test_mixed_layout_trace_matches_reference():
    records, data = _mixed_trace(23, 300)
    assert len({(r.n_rx, r.n_tx) for r in records}) == 9
    assert any(code != CSI_RECORD_CODE for _, code in _frames(data))
    assert encode_binary_trace(records) == _ref_encode_binary_trace(records)
    _assert_same_records(parse_binary_trace(data), _ref_parse_binary_trace(data))
    assert write_text_trace(records) == _ref_write_text_trace(records)


def test_simulated_capture_matches_reference():
    config = SimConfig(attenuation_db=(33.0, 30.0, 62.0), n_packets=2000, seed=8)
    records = list(simulate_capture(config, REALISTIC_DISTORTION))
    data = encode_binary_trace(records)
    assert data == _ref_encode_binary_trace(records)
    decoded = parse_binary_trace(data)
    _assert_same_records(decoded, _ref_parse_binary_trace(data))
    assert decoded == records
    assert write_text_trace(records) == _ref_write_text_trace(records)


@pytest.mark.parametrize("n_rx", [1, 2, 3])
@pytest.mark.parametrize("n_tx", [1, 2, 3])
def test_every_layout_and_selection_byte_matches_reference(n_rx, n_tx):
    rng = np.random.default_rng(10 * n_rx + n_tx)
    shape = (N_SUBCARRIERS, n_rx, n_tx)
    rssi = [40] * n_rx + [0] * (3 - n_rx)
    valid = []
    for sel in range(64):
        perm = _ref_decode_perm(sel)
        if sorted(perm[:n_rx]) != list(range(n_rx)):
            continue
        csi = rng.integers(-128, 128, shape) + 1j * rng.integers(-128, 128, shape)
        # Both extremes of the signed range on every layout.
        csi.flat[0], csi.flat[-1] = -128 + 127j, 127 - 128j
        valid.append(make_record(csi=csi, n_rx=n_rx, n_tx=n_tx, rssi=rssi,
                                 antenna_perm=perm))
    data = encode_binary_trace(valid)
    assert data == _ref_encode_binary_trace(valid)
    _assert_same_records(parse_binary_trace(data), valid)

    # Every selection byte, the two unused high bits included: the same
    # records or the same permutation rule's InvariantViolation.
    template = data[: 23 + csi_payload_len(n_rx, n_tx)]
    outcomes = {_assert_same_outcome(template[:18] + bytes([sel]) + template[19:])
                for sel in range(256)}
    assert outcomes == {"ok", InvariantViolation}


def test_empty_input_matches_reference():
    assert parse_binary_trace(b"") == _ref_parse_binary_trace(b"") == []
    assert encode_binary_trace([]) == _ref_encode_binary_trace([]) == b""
    assert write_text_trace([]) == _ref_write_text_trace([]) == ""


def test_trailing_body_bytes_are_ignored():
    records, data = _mixed_trace(4, 3)
    off, _ = _frames(data)[-1]
    frame_len = int.from_bytes(data[off : off + 2], "big") + 5
    padded = data[:off] + frame_len.to_bytes(2, "big") + data[off + 2 :] + b"\xff" * 5
    assert _assert_same_outcome(padded) == "ok"
    assert parse_binary_trace(padded) == records


# --- identical errors ----------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace():
    return _mixed_trace(31, 5)[1]


def test_every_truncation_matches_reference(small_trace):
    kinds = {_assert_same_outcome(small_trace[:cut]) for cut in range(len(small_trace))}
    assert kinds == {"ok", TruncatedRecord}


@pytest.mark.parametrize("field,offset", [
    ("frame length", 1), ("n_rx", 3 + 8), ("n_tx", 3 + 9),
    ("declared length", 3 + 16), ("antenna_sel", 3 + 15), ("rssi 3", 3 + 12),
])
def test_corrupted_header_byte_matches_reference(small_trace, field, offset):
    kinds = set()
    for start, code in _frames(small_trace):
        if code != CSI_RECORD_CODE:
            continue
        for value in range(256):
            pos = start + offset
            corrupt = small_trace[:pos] + bytes([value]) + small_trace[pos + 1 :]
            kinds.add(_assert_same_outcome(corrupt))
    assert len(kinds) > 1, field


def _error_of(data):
    """The error class and message of data, which both parsers raise alike."""
    _assert_same_outcome(data)
    return _outcome(parse_binary_trace, data)


def _with_frame_len(data):
    """A one-frame trace with its frame length set to its size."""
    return (len(data) - 2).to_bytes(2, "big") + bytes(data[2:])


def test_check_order_on_a_record_with_every_fault():
    # Faults are added to one frame in turn, each checked before those added
    # before it: body length, then the header rules in the order of the
    # rule table, then the declared length, then the payload length.
    record = make_record(n_rx=2, rssi=(40, 40, 0), antenna_perm=(1, 0, 0))
    data = bytearray(_with_frame_len(encode_binary_trace([record])[:-1]))  # payload cut short
    assert _error_of(bytes(data)) == (TruncatedRecord, "CSI payload cut short")
    data[3 + 16] += 1         # declared length
    assert _error_of(bytes(data))[0] is LengthMismatch
    data[3 + 15] = 0x00       # antenna_sel: perm (0, 0) for n_rx=2
    assert _error_of(bytes(data)) == (
        InvariantViolation, "antenna_perm prefix is not a permutation")
    data[3 + 12] = 7          # rssi of port 3, which the record does not have
    assert _error_of(bytes(data)) == (
        InvariantViolation, "rssi of absent ports must be exactly 0")
    data[3 + 9] = 4           # n_tx out of range
    assert _error_of(bytes(data)) == (
        InvariantViolation, "n_rx and n_tx must be in 1..3")
    short = _with_frame_len(data[: 3 + 19])  # body shorter than the header
    assert _error_of(short) == (TruncatedRecord, "record body shorter than fixed header")


def test_check_order_across_frames_is_file_order():
    good = encode_binary_trace([make_record()])
    bad_perm = bytearray(good)
    bad_perm[3 + 15] = 0x00
    long_decl = bytearray(good)
    long_decl[3 + 16] += 1
    # A header fault of an earlier frame comes before a length fault of a
    # later one, and the other way round.
    assert _error_of(good + bytes(bad_perm) + bytes(long_decl))[0] is InvariantViolation
    assert _error_of(good + bytes(long_decl) + bytes(bad_perm))[0] is LengthMismatch
    # So does a header fault before dangling bytes, or a frame past the input.
    assert _error_of(bytes(bad_perm) + b"\x00")[0] is InvariantViolation
    assert _error_of(bytes(bad_perm) + good[:-1])[0] is InvariantViolation
    assert _error_of(good[:-1] + bytes(bad_perm))[0] is TruncatedRecord


_TWO_PORTS = encode_binary_trace([make_record(n_rx=2, rssi=(40, 40, 0), antenna_perm=(1, 0, 0))])
_NON_CSI = b"\x00\x04\x01abc"


def _bad_perm(frame):
    """A two-port CSI frame with the antenna_perm prefix (0, 0)."""
    return frame[: 3 + 15] + b"\x00" + frame[3 + 16 :]


def _stop(kind, frame):
    """The bytes that end a trace with a stop of this kind; frame is the stop frame, if any."""
    return {
        "dangling 2": b"\x00\x07",
        "zero length": b"\x00\x00" + bytes([CSI_RECORD_CODE]),
        "past the end": frame[:-1],
        "short body": _with_frame_len(frame[: 3 + 19]),
        "declared mismatch": frame[: 3 + 16] + bytes([frame[3 + 16] + 1]) + frame[3 + 17 :],
        "cut payload": _with_frame_len(frame[:-1]),
    }[kind]


# Each stop after three valid frames with a header fault in an earlier frame
# or in the stop frame itself.  A fault in a frame read so far wins, and so
# does one in the stop frame when its header was read: not for a short body,
# nor for a frame past the end, which is not read.  Dangling bytes and a
# zero-length frame have no header.
@pytest.mark.parametrize("kind, faulty, expected", [
    ("dangling 2", "earlier", InvariantViolation),
    ("zero length", None, TruncatedRecord),
    ("zero length", "earlier", InvariantViolation),
    ("short body", None, TruncatedRecord),
    ("short body", "earlier", InvariantViolation),
    ("short body", "stop", TruncatedRecord),
    ("past the end", "stop", TruncatedRecord),
    ("declared mismatch", "stop", InvariantViolation),
    ("cut payload", None, TruncatedRecord),
    ("cut payload", "earlier", InvariantViolation),
    ("cut payload", "stop", InvariantViolation),
])
def test_stop_after_valid_frames_matches_reference(kind, faulty, expected):
    second = _bad_perm(_TWO_PORTS) if faulty == "earlier" else _TWO_PORTS
    stop = _stop(kind, _bad_perm(_TWO_PORTS) if faulty == "stop" else _TWO_PORTS)
    data = _TWO_PORTS + _NON_CSI + second + _TWO_PORTS + _NON_CSI + stop
    assert _error_of(data)[0] is expected


def test_encode_error_matches_reference():
    rng = np.random.default_rng(3)
    records = [random_record(rng) for _ in range(6)]
    records[2].csi[0, 0, 0] = 1.5
    records[4].csi[0, 0, 0] = 200
    with pytest.raises(InvariantViolation) as new:
        encode_binary_trace(records)
    with pytest.raises(InvariantViolation) as ref:
        _ref_encode_binary_trace(records)
    assert str(new.value) == str(ref.value) == "csi components must be integer-valued"


# --- arbitrary bytes -------------------------------------------------------------

_VALID = _mixed_trace(77, 6)[1]

# Arbitrary bytes, and a valid trace with a few bytes overwritten or cut.
_hostile_bytes = st.one_of(
    st.binary(max_size=400),
    st.tuples(
        st.lists(st.tuples(st.integers(0, len(_VALID) - 1), st.integers(0, 255)),
                 max_size=4),
        st.integers(0, len(_VALID)),
    ).map(lambda edits: _apply_edits(_VALID, *edits)),
)


def _apply_edits(data, writes, cut):
    out = bytearray(data)
    for pos, value in writes:
        out[pos] = value
    return bytes(out[:cut])


@settings(max_examples=300, deadline=None)
@given(_hostile_bytes)
def test_hostile_bytes_match_reference(data):
    _assert_same_outcome(data)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_hostile_bytes)
def test_cli_parse_binary_exit_code_property(tmp_path, data):
    src, out = tmp_path / "in.bin", tmp_path / "out.txt"
    src.write_bytes(data)
    assert main(["parse", "--in", str(src), "--format", "binary",
                 "--out", str(out)]) in (0, 2)
