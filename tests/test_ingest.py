import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicalib import (
    csi_payload_len,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    write_text_trace,
)
from csicalib.cli import main
from csicalib.errors import (
    InvariantViolation,
    LengthMismatch,
    SchemaError,
    TruncatedRecord,
)
from csicalib.ingest import N_SUBCARRIERS

from conftest import make_record, random_record


@pytest.mark.parametrize("n_rx", [1, 2, 3])
@pytest.mark.parametrize("n_tx", [1, 2, 3])
def test_payload_length_formula(n_rx, n_tx):
    # Independent evaluation of the bit budget: 3 skip bits plus 16 bits
    # per complex entry, per subcarrier, rounded down after +7.
    bits = N_SUBCARRIERS * (n_rx * n_tx * 16 + 3)
    assert csi_payload_len(n_rx, n_tx) == (bits + 7) // 8


def test_payload_length_known_values():
    assert csi_payload_len(1, 1) == 72
    assert csi_payload_len(3, 1) == 192


def test_encode_empty():
    assert encode_binary_trace([]) == b""


def test_minimal_record_total_size():
    record = make_record(n_rx=1, rssi=(40, 0, 0), antenna_perm=(0, 0, 0),
                         csi=np.ones((30, 1, 1)))
    data = encode_binary_trace([record])
    assert len(data) == 3 + 20 + 72


def test_binary_roundtrip_seeded():
    rng = np.random.default_rng(1234)
    records = [random_record(rng) for _ in range(50)]
    assert parse_binary_trace(encode_binary_trace(records)) == records


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_binary_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    record = random_record(rng)
    (back,) = parse_binary_trace(encode_binary_trace([record]))
    assert back == record


def test_truncated_record():
    record = make_record()
    data = encode_binary_trace([record])
    with pytest.raises(TruncatedRecord):
        parse_binary_trace(data[:-1])
    with pytest.raises(TruncatedRecord):
        parse_binary_trace(data[: len(data) // 2])
    with pytest.raises(TruncatedRecord):
        parse_binary_trace(b"\x00")


def test_unknown_codes_skipped():
    record = make_record()
    filler = (3).to_bytes(2, "big") + bytes([0xC4, 0x01, 0x02])
    data = filler + encode_binary_trace([record]) + filler
    assert parse_binary_trace(data) == [record]


def test_length_mismatch():
    data = bytearray(encode_binary_trace([make_record()]))
    # declared CSI length sits at header offset 16 within the body
    data[3 + 16] ^= 0x01
    with pytest.raises(LengthMismatch):
        parse_binary_trace(bytes(data))


def test_bad_permutation():
    data = bytearray(encode_binary_trace([make_record()]))
    data[3 + 15] = 0x00  # all streams claim port 0
    with pytest.raises(InvariantViolation, match="^antenna_perm prefix is not a permutation$"):
        parse_binary_trace(bytes(data))


def test_rssi_past_n_rx_is_rejected(tmp_path, capsys):
    # A one-port record whose second RSSI byte reads 7: the text parser
    # and validate() reject it, and so does the binary parser.
    record = make_record(csi=np.ones((30, 1, 1)), n_rx=1, rssi=(30, 0, 0),
                         antenna_perm=(0, 0, 0))
    data = bytearray(encode_binary_trace([record]))
    assert parse_binary_trace(bytes(data)) == [record]
    data[3 + 11] = 7
    with pytest.raises(InvariantViolation, match="rssi of absent ports must be exactly 0"):
        parse_binary_trace(bytes(data))
    src = tmp_path / "trace.bin"
    src.write_bytes(bytes(data))
    assert main(["parse", "--in", str(src), "--format", "binary",
                 "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == "error: rssi of absent ports must be exactly 0\n"
    assert not (tmp_path / "out.txt").exists()


def test_sign_extension_range_on_arbitrary_payload():
    rng = np.random.default_rng(7)
    record = make_record()
    data = bytearray(encode_binary_trace([record]))
    # scramble the CSI payload; components must still decode into range
    data[3 + 20 :] = bytes(rng.integers(0, 256, len(data) - 23, dtype=np.uint8))
    (back,) = parse_binary_trace(bytes(data))
    assert back.csi.real.min() >= -128 and back.csi.real.max() <= 127
    assert back.csi.imag.min() >= -128 and back.csi.imag.max() <= 127


def test_encode_rejects_out_of_range():
    record = make_record()
    record.csi[0, 0, 0] = 130
    with pytest.raises(InvariantViolation):
        encode_binary_trace([record])
    record = make_record(rssi=(36, 39, 31), n_rx=2)  # absent port must read 0
    with pytest.raises(InvariantViolation):
        encode_binary_trace([record])


def test_text_roundtrip_with_zero_row():
    csi = np.ones((30, 3, 1), dtype=complex)
    csi[:, 1, :] = 0
    record = make_record(csi=csi)
    assert parse_text_trace(write_text_trace([record])) == [record]


def test_text_roundtrip_measured_style_record():
    rng = np.random.default_rng(99)
    csi = (rng.integers(-30, 31, (30, 3, 1))
           + 1j * rng.integers(-30, 31, (30, 3, 1))).astype(complex)
    record = make_record(csi=csi, rssi=(36, 39, 31), agc=28)
    assert parse_text_trace(write_text_trace([record])) == [record]


def test_text_roundtrip_seeded():
    rng = np.random.default_rng(4321)
    records = [random_record(rng) for _ in range(50)]
    assert parse_text_trace(write_text_trace(records)) == records


def test_schema_error_carries_line_number():
    text = write_text_trace([make_record() for _ in range(10)])
    lines = text.splitlines()
    lines[6] = '{"broken": '
    with pytest.raises(SchemaError) as exc_info:
        parse_text_trace("\n".join(lines))
    assert exc_info.value.line == 7


def test_schema_error_on_missing_field():
    text = write_text_trace([make_record()]).replace('"agc"', '"gain"')
    with pytest.raises(SchemaError):
        parse_text_trace(text)


def _text_with(line_no, field, value, n_lines=4):
    objs = [json.loads(write_text_trace([make_record()])) for _ in range(n_lines)]
    objs[line_no - 1][field] = value
    return "\n".join(json.dumps(obj) for obj in objs)


@pytest.mark.parametrize("field, value", [
    ("rssi", [36.0, 39, 31]),
    ("rssi", ["40", 39, 31]),
    ("rssi", [True, 39, 31]),
    ("agc", 28.0),
    ("agc", "28"),
    ("agc", True),
    ("n_rx", 3.0),
    ("n_tx", True),
    ("noise", "-92"),
    ("timestamp_low", 1.5),
    ("bfee_count", False),
    ("rate_flags", None),
    ("antenna_perm", [0, 1.0, 2]),
])
def test_text_parse_rejects_non_integer_field(field, value):
    with pytest.raises(SchemaError) as exc_info:
        parse_text_trace(_text_with(3, field, value))
    assert exc_info.value.line == 3
    assert field in str(exc_info.value)


@pytest.mark.parametrize("pair", [
    [1.7, 2.2], [1.0, 2], [1, -0.0], [True, 1], [1, False], ["1", 2], [1, None],
])
def test_text_parse_rejects_non_integer_csi(pair):
    csi = [[1, 0]] * (N_SUBCARRIERS * 3)
    csi[41] = pair
    with pytest.raises(SchemaError) as exc_info:
        parse_text_trace(_text_with(2, "csi", csi))
    assert exc_info.value.line == 2


@pytest.mark.parametrize("field, value", [
    ("timestamp_low", 5.0),
    ("agc", np.int64(40)),
    ("noise", True),
    ("n_rx", np.int8(3)),
    ("rssi", (36, 39.0, 31)),
    ("rssi", (True, 39, 31)),
    ("antenna_perm", (0, np.int64(1), 2)),
])
def test_validate_requires_python_ints(field, value):
    # Each used to pass validate() and then fail in struct or json.
    record = make_record(**{field: value})
    with pytest.raises(InvariantViolation, match=field):
        record.validate()
    with pytest.raises(InvariantViolation, match=field):
        encode_binary_trace([record])
    with pytest.raises(InvariantViolation, match=field):
        write_text_trace([record])
