"""The record rules: one table, one message per rule by every route.

RawCsiRecord.validate(), both writers, given a list or a Capture, and the
text parser check a record against the same rules in the same order, and
docs/FORMATS.md lists them.  The binary parser checks a frame's header
against the same rules: a frame gives the message of its record's line.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from csicalib import (
    csi_payload_len,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    write_text_trace,
)
from csicalib.errors import InvariantViolation, SchemaError
from csicalib.ingest import _CSI_RULES, _HEADER_RULES, _TEXT_FIELDS, _canonical_head, as_capture

from conftest import make_record

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"


def _with_csi(value, **fields):
    record = make_record(**fields)
    record.csi[0, 0, 0] = value
    return record


#: A record per rule that breaks that rule alone, with the rule's message.
#: text is False where a text line cannot carry the fault: a non-integer
#: CSI component is a JSON type error there.
_ONE_FAULT = [
    ("n_rx and n_tx must be in 1..3", make_record(n_tx=4), True),
    ("timestamp_low out of u32 range", make_record(timestamp_low=2**32), True),
    ("bfee_count out of u16 range", make_record(bfee_count=-1), True),
    ("rate_flags out of u16 range", make_record(rate_flags=2**16), True),
    ("rssi must be three values in 0..255", make_record(rssi=(36, 256, 31)), True),
    ("rssi of absent ports must be exactly 0", make_record(n_rx=2, rssi=(36, 39, 31)), True),
    ("noise out of i8 range", make_record(noise=-129), True),
    ("agc out of u8 range", make_record(agc=256), True),
    ("antenna_perm must be three 2-bit values",
     make_record(n_rx=2, rssi=(36, 39, 0), antenna_perm=(1, 0, 4)), True),
    ("antenna_perm prefix is not a permutation", make_record(antenna_perm=(0, 0, 2)), True),
    ("csi components must be integer-valued", _with_csi(1.5), False),
    ("csi components must lie in [-128, 127]", _with_csi(128j), True),
]


def test_every_rule_has_a_case_in_table_order():
    assert [message for message, _, _ in _ONE_FAULT] == [
        message for message, _ in (*_HEADER_RULES, *_CSI_RULES)]


def _line(record):
    """The text line of any record, valid or not."""
    obj = {name: getattr(record, name) for name in (
        "timestamp_low", "bfee_count", "n_rx", "n_tx", "rssi", "noise", "agc",
        "antenna_perm", "rate_flags")}
    obj["csi"] = [[int(c.real), int(c.imag)] for c in record.csi.reshape(-1)]
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize("message, record, text", _ONE_FAULT,
                         ids=[message for message, _, _ in _ONE_FAULT])
def test_one_fault_gives_its_rules_message_by_every_route(message, record, text):
    with pytest.raises(InvariantViolation) as exc:
        record.validate()
    assert str(exc.value) == message
    good = make_record()
    records = [good, record, good]
    for writer in (write_text_trace, encode_binary_trace):
        for given in (records, as_capture(records)):
            with pytest.raises(InvariantViolation) as exc:
                writer(given)
            assert str(exc.value) == message
    if text:
        lines = write_text_trace([good]) + _line(record) + "\n" + write_text_trace([good])
        with pytest.raises(SchemaError) as exc:
            parse_text_trace(lines)
        assert exc.value.line == 2 and str(exc.value) == f"line 2: {message}"


def _edited_trace(record, edits, n_payload=None):
    """The one-record binary trace of a valid record, bytes edited.

    edits maps a header byte offset to its new value.  n_payload, if
    given, is the new declared length: the payload is padded with zero
    bytes to it and the frame length follows.
    """
    data = bytearray(encode_binary_trace([record]))
    for offset, value in edits.items():
        data[3 + offset] = value
    if n_payload is not None:
        data[3 + 16 : 3 + 18] = n_payload.to_bytes(2, "little")
        data += bytes(3 + 20 + n_payload - len(data))
        data[:2] = (len(data) - 2).to_bytes(2, "big")
    return bytes(data)


#: For each rule a binary frame can break, a one-record trace that breaks it
#: alone, and the record of that frame.  The other header rules are on
#: ranges that a header byte cannot leave.
_BINARY_ONE_FAULT = [
    ("n_rx and n_tx must be in 1..3", make_record(n_rx=4),
     _edited_trace(make_record(), {8: 4}, n_payload=csi_payload_len(4, 1))),
    ("rssi of absent ports must be exactly 0", make_record(n_rx=2, rssi=(36, 39, 31)),
     _edited_trace(make_record(n_rx=2, rssi=(36, 39, 0)), {12: 31})),
    ("antenna_perm prefix is not a permutation", make_record(antenna_perm=(0, 0, 2)),
     _edited_trace(make_record(), {15: 2 << 4})),
]


@pytest.mark.parametrize("message, record, data", _BINARY_ONE_FAULT,
                         ids=[message for message, _, _ in _BINARY_ONE_FAULT])
def test_a_binary_frame_gives_the_message_of_its_records_line(message, record, data):
    with pytest.raises(InvariantViolation) as exc:
        parse_binary_trace(data)
    assert str(exc.value) == message
    with pytest.raises(SchemaError) as exc:
        parse_text_trace(_line(record) + "\n")
    assert str(exc.value) == f"line 1: {message}"
    # Between valid frames, and after a valid frame cut short, the frame's
    # fault comes first in file order.
    good = encode_binary_trace([make_record()])
    for trace in (good + data + good, good + data + good[:-1]):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            parse_binary_trace(trace)


def test_the_checks_of_a_list_record_come_before_the_rules():
    # Only a list record can hold two rssi values; that fault is found before
    # any rule of the table, whatever the record's other faults.
    record = make_record(rssi=(36, 39), timestamp_low=2**32)
    with pytest.raises(InvariantViolation, match=r"rssi must be three values in 0\.\.255"):
        record.validate()
    with pytest.raises(InvariantViolation, match=r"rssi must be three values in 0\.\.255"):
        write_text_trace([make_record(), record])


@pytest.mark.parametrize("field, message", [
    ("rssi", "rssi must be three values in 0..255"),
    ("antenna_perm", "antenna_perm must be three 2-bit values"),
])
def test_a_list_value_without_a_len_breaks_its_length_rule(field, message):
    # Such values used to raise a bare TypeError from len(): an int has no
    # len(), and a 0-d numpy array's raises.
    good = make_record()
    for record in (replace(good, **{field: value}) for value in (5, np.array(5))):
        for check in (record.validate, lambda: write_text_trace([good, record]),
                      lambda: encode_binary_trace([good, record])):
            with pytest.raises(InvariantViolation) as exc:
                check()
            assert str(exc.value) == message


_THREE = as_capture([make_record()] * 3)


@pytest.mark.parametrize("records, message", [
    ([make_record(), make_record(csi=np.ones((30, 2, 1))), make_record()],
     "csi shape (30, 2, 1) does not match (30, 3, 1)"),
    (replace(_THREE, parts=(_THREE.parts[0][:, :29],)),
     "csi shape (29, 3, 1) does not match (30, 3, 1)"),
], ids=["list record", "capture part"])
def test_a_csi_of_another_shape_breaks_the_shape_check(records, message):
    for check in (records[1].validate, lambda: write_text_trace(records),
                  lambda: encode_binary_trace(records)):
        with pytest.raises(InvariantViolation) as exc:
            check()
        assert str(exc.value) == message


@pytest.mark.parametrize("value", [2**64, -2**70])
def test_an_int_past_int64_breaks_its_rule(value):
    record = make_record(agc=value)
    for check in (record.validate, lambda: encode_binary_trace([make_record(), record])):
        with pytest.raises(InvariantViolation, match="agc out of u8 range"):
            check()


def test_the_formats_doc_lists_every_rule_in_order():
    doc = FORMATS.read_text(encoding="utf-8")
    section = re.search(r"### Record checks and their order\n(.*?)\n#", doc, re.S).group(1)
    at = [section.find(f"`{message}`") for message, _ in (*_HEADER_RULES, *_CSI_RULES)]
    assert -1 not in at and at == sorted(at)


def test_the_formats_doc_states_the_canonical_line():
    section = re.search(r"### Canonical line\n(.*?)\n#", FORMATS.read_text(encoding="utf-8"),
                        re.S).group(1)
    keys = re.search(r"\((`.*?`)\)", section, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", keys)) == _TEXT_FIELDS
    example = re.search(r"```\n(.*?)\n```", section, re.S).group(1)
    assert _canonical_head()(example)
