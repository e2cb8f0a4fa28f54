"""The text codec against its loop version.

_ref_parse_text_trace below reads every line with json.loads and checks
it field by field; the reference writer, json.dumps of one object per
record, is in test_codec_reference.py.  The library reads a trace a block
of lines at a time.  A block of lines in the writer's canonical form goes
through a regular expression per line; then array operations over the
block's CSI bodies find where each number starts, check the bytes between
the numbers, and look each number up in a table of the 257 component
texts.  Every line of any other block is read with json.loads.  It must
give the same records and the same errors (class, line number and
message) for every input.  _REF_PAIRS, the grammar of a canonical CSI body
as a regular expression, is the reference of the array checks, and
_REF_COMPONENT that of the table.
"""

import dataclasses
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicalib import (
    SimConfig,
    encode_binary_trace,
    parse_text_trace,
    simulate_capture,
    write_text_trace,
)
from csicalib import ingest
from csicalib.errors import CsiCalibError, InvariantViolation, SchemaError
from csicalib.ingest import _TEXT_BLOCK_LINES, N_SUBCARRIERS, RawCsiRecord

from conftest import REALISTIC_DISTORTION, make_record, random_record
from test_codec_reference import (
    _assert_same_records,
    _ref_encode_binary_trace,
    _ref_write_text_trace,
)


# --- reference parser --------------------------------------------------------

_REF_FIELDS = (
    "timestamp_low", "bfee_count", "n_rx", "n_tx", "rssi", "noise",
    "agc", "antenna_perm", "rate_flags", "csi",
)
_REF_INT_FIELDS = ("timestamp_low", "bfee_count", "n_rx", "n_tx", "noise", "agc", "rate_flags")


def _ref_json_int(value, name, lineno):
    if type(value) is not int:
        raise SchemaError(lineno, f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def _ref_parse_text_trace(text):
    records = []
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(lineno, f"invalid JSON: {exc.msg}") from exc
        except RecursionError as exc:
            raise SchemaError(lineno, "JSON nested too deeply") from exc
        if not isinstance(obj, dict):
            raise SchemaError(lineno, "record must be a JSON object")
        missing = [f for f in _REF_FIELDS if f not in obj]
        if missing:
            raise SchemaError(lineno, f"missing fields: {', '.join(missing)}")
        try:
            ints = {name: _ref_json_int(obj[name], name, lineno) for name in _REF_INT_FIELDS}
            n_rx, n_tx = ints["n_rx"], ints["n_tx"]
            pairs = obj["csi"]
            if len(pairs) != N_SUBCARRIERS * n_rx * n_tx:
                raise SchemaError(
                    lineno,
                    f"csi has {len(pairs)} entries, expected "
                    f"{N_SUBCARRIERS * n_rx * n_tx}",
                )
            if not all(type(re) is int and type(im) is int for re, im in pairs):
                raise SchemaError(lineno, "csi components must be JSON integers")
            flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
            record = RawCsiRecord(
                **ints,
                rssi=tuple(_ref_json_int(r, "rssi", lineno) for r in obj["rssi"]),
                antenna_perm=tuple(
                    _ref_json_int(p, "antenna_perm", lineno) for p in obj["antenna_perm"]
                ),
                csi=flat.reshape(N_SUBCARRIERS, n_rx, n_tx),
            )
            record.validate()
        except SchemaError:
            raise
        except (TypeError, ValueError, KeyError, OverflowError, InvariantViolation) as exc:
            raise SchemaError(lineno, str(exc)) from exc
        records.append(record)
    return records


# A canonical CSI body, the text between '"csi":[[' and ']]}': pairs of JSON
# integers of at most 3 digits, joined by '],['.
_REF_COMPONENT = r"-?(?:[1-9][0-9]{0,2}|0)"
_REF_PAIR = _REF_COMPONENT + "," + _REF_COMPONENT
_REF_PAIRS = re.compile(_REF_PAIR + r"(?:\],\[" + _REF_PAIR + ")*")


def _ref_body_is_canonical(body, n_pairs):
    """Whether a line of n_pairs pairs with this CSI body reads the canonical way."""
    if not _REF_PAIRS.fullmatch(body):
        return False
    values = [int(v) for v in re.findall("-?[0-9]+", body)]
    return len(values) == 2 * n_pairs and all(-128 <= v <= 127 for v in values)


# --- helpers -----------------------------------------------------------------

def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except CsiCalibError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def _assert_same_outcome(text):
    new = _outcome(parse_text_trace, text)
    ref = _outcome(_ref_parse_text_trace, text)
    if new[0] == "ok" and ref[0] == "ok":
        _assert_same_records(new[1], ref[1])
    else:
        assert new == ref
    return new


def _csi(n_rx, n_tx, pairs):
    """A csi of the given layout whose first entries are ``pairs``, then 1+0j."""
    flat = np.ones(N_SUBCARRIERS * n_rx * n_tx, dtype=np.complex128)
    flat[: len(pairs)] = [complex(*p) for p in pairs]
    return flat.reshape(N_SUBCARRIERS, n_rx, n_tx)


# A 2x1 record whose canonical line starts its csi with [12,-3],[-128,127],[0,0].
_BASE = make_record(n_rx=2, n_tx=1, rssi=(40, 41, 0), agc=28, noise=-92,
                    antenna_perm=(1, 0, 3), timestamp_low=4294967295, bfee_count=7,
                    csi=_csi(2, 1, [(12, -3), (-128, 127), (0, 0)]))
_LINE = write_text_trace([_BASE]).rstrip("\n")
_OTHER = write_text_trace([make_record()]).rstrip("\n")


def _three_lines(middle):
    return "\n".join([_OTHER, middle, _OTHER]) + "\n"


def _replaced(old, new):
    assert _LINE.count(old) == 1, old
    return _LINE.replace(old, new)


# --- identical records -------------------------------------------------------

def test_mixed_layout_trace_matches_reference():
    rng = np.random.default_rng(41)
    records = [random_record(rng) for _ in range(300)]
    assert len({(r.n_rx, r.n_tx) for r in records}) == 9
    text = write_text_trace(records)
    assert text == _ref_write_text_trace(records)
    _, parsed = _assert_same_outcome(text)
    _assert_same_records(parsed, records)


@pytest.mark.parametrize("n_tx", [1, 2, 3])
@pytest.mark.parametrize("n_rx", [1, 2, 3])
def test_every_layout_and_every_int8_value_match_reference(n_rx, n_tx):
    # The real and the imaginary parts each take all 256 int8 values, in
    # more lines than a block of the writer holds.
    rng = np.random.default_rng(10 * n_rx + n_tx)
    size = N_SUBCARRIERS * n_rx * n_tx
    n_lines = _TEXT_BLOCK_LINES + 3
    components = np.resize(rng.permutation(np.arange(-128, 128)), (2, n_lines * size))
    rng.shuffle(components, axis=1)
    csi = (components[0] + 1j * components[1]).reshape(n_lines, N_SUBCARRIERS, n_rx, n_tx)
    records = [dataclasses.replace(random_record(rng), n_rx=n_rx, n_tx=n_tx,
                                   rssi=(*rng.integers(1, 256, n_rx).tolist(), *[0] * (3 - n_rx)),
                                   antenna_perm=(*range(n_rx), *[3] * (3 - n_rx)), csi=c)
               for c in csi]
    text = write_text_trace(records)
    assert text == _ref_write_text_trace(records)
    assert {v for r in records for v in r.csi.real.ravel().tolist()} == set(range(-128, 128))
    assert {v for r in records for v in r.csi.imag.ravel().tolist()} == set(range(-128, 128))
    _assert_same_records(parse_text_trace(text), records)


def test_simulated_capture_matches_reference():
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=200, seed=5)
    records = simulate_capture(config, REALISTIC_DISTORTION)
    text = write_text_trace(records)
    assert text == _ref_write_text_trace(records)
    _assert_same_outcome(text)


def test_canonical_lines_take_the_fast_path(monkeypatch):
    # A broken fast path would fall back to json.loads and still give the
    # right records; so note the first line of every block that reaches it.
    reached = []
    from_json_block = ingest._from_json_block

    def fallback(lines, first):
        reached.append(first)
        return from_json_block(lines, first)

    rng = np.random.default_rng(8)
    records = [random_record(rng) for _ in range(200)] + [_BASE]
    monkeypatch.setattr(ingest, "_from_json_block", fallback)
    _assert_same_records(parse_text_trace(write_text_trace(records)), records)
    assert reached == []
    # A whitespace-only line is not canonical: its block, the last, is read
    # with json.loads.
    _assert_same_records(parse_text_trace(write_text_trace(records) + "\n  \n"), records)
    assert reached == [3 * _TEXT_BLOCK_LINES + 1]
    # So is the whole block of a non-canonical line, and no other block.
    lines = write_text_trace(records).split("\n")
    at = _TEXT_BLOCK_LINES + 6
    lines[at] = json.dumps(json.loads(lines[at]))
    reached.clear()
    _assert_same_records(parse_text_trace("\n".join(lines)), records)
    assert reached == [_TEXT_BLOCK_LINES + 1]


def _rewritten(text, keys):
    """Each line of a canonical trace as json.dumps writes it, with its keys in order keys."""
    return "".join(json.dumps({k: obj[k] for k in keys(obj)}) + "\n"
                   for obj in map(json.loads, text.splitlines()))


@pytest.mark.parametrize("keys", [list, lambda obj: list(reversed(obj))])
def test_non_canonical_trace_parses_as_its_canonical_form(keys, built):
    rng = np.random.default_rng(27)
    text = write_text_trace([random_record(rng) for _ in range(200)])
    canonical = parse_text_trace(text)
    spaced = _rewritten(text, keys)
    assert spaced != text and len(spaced.splitlines()) == 200
    built[0] = 0
    parsed = parse_text_trace(spaced)
    assert built[0] == 0
    # Each block is one Capture, as a canonical block is: the parts are the
    # same runs of one layout, not one per record.
    assert [csi.shape for csi in parsed.parts] == [csi.shape for csi in canonical.parts]
    assert len(parsed.parts) < 200
    assert parsed == canonical
    for name in ingest._COLUMNS:
        assert getattr(parsed, name).dtype == getattr(canonical, name).dtype


def test_faulty_canonical_line_before_invalid_json_in_one_block():
    # The canonical reader refuses the block; the JSON reader raises the
    # first faulty line's error.
    text = _three_lines(_replaced('"agc":28', '"agc":300')) + "not json\n"
    assert _assert_same_outcome(text) == (SchemaError, 2, "line 2: agc out of u8 range")


def test_blank_lines_and_crlf_match_reference():
    text = "\n\n" + _LINE + "\r\n   \r\n\t\n" + _OTHER + "\r\n" + _LINE + "\r" + _OTHER
    status, records = _assert_same_outcome(text)
    assert status == "ok" and len(records) == 4


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_only_newline_and_carriage_return_break_lines(separator):
    # The separator line is blank, so the bad line stays line 4.
    text = _OTHER + "\n" + separator + "\n" + _OTHER + "\r\nnot json\n"
    new = _assert_same_outcome(text)
    assert new[:2] == (SchemaError, 4)


@pytest.mark.parametrize("line", [
    json.dumps(json.loads(_LINE)),                              # spaces
    json.dumps(dict(reversed(list(json.loads(_LINE).items())))),  # reordered keys
    _replaced('"csi":[[12,-3]', '"csi":[[-0,-3]'),
    _replaced('"agc":28', '"agc":-0'),
    _replaced('"agc":28', '"agc":28,"extra":null'),
    _replaced('"csi":[[12,-3]', '"csi":[[12, -3]'),
    _LINE + "  ",
    " " + _LINE,
    # Characters that str.splitlines takes for line breaks, raw in a string.
    _replaced('"agc":28', '"agc":28,"note":"a\u2028b\u2029c\x85d"'),
])
def test_valid_non_canonical_line_matches_reference(line):
    status, records = _assert_same_outcome(_three_lines(line))
    assert status == "ok" and len(records) == 3


# --- identical errors --------------------------------------------------------

_REJECTED = [
    _replaced('"agc":28', '"agc":028'),                     # leading zero
    _replaced('"csi":[[12,-3]', '"csi":[[012,-3]'),
    _replaced('"csi":[[12,-3]', '"csi":[[12,-03]'),
    _replaced('"agc":28', '"agc":+28'),                     # plus sign
    _replaced('"csi":[[12,-3]', '"csi":[[+12,-3]'),
    _replaced('"agc":28', '"agc":28.0'),                    # float
    _replaced('"csi":[[12,-3]', '"csi":[[12.0,-3]'),
    _replaced('"csi":[[12,-3]', '"csi":[[1e1,-3]'),
    _replaced('"agc":28', '"agc":true'),                    # boolean
    _replaced('"csi":[[12,-3]', '"csi":[[true,-3]'),
    _replaced('"csi":[[12,-3]', '"csi":[[1200,-3]'),        # 4 digits
    _replaced('"csi":[[12,-3]', '"csi":[[-1000,-3]'),
    _replaced('[-128,127]', '[-128,128]'),                  # out of range
    _replaced('[-128,127]', '[-129,127]'),
    _replaced('"csi":[[12,-3],', '"csi":['),                # wrong pair count
    _LINE[: -len("]]}")] + ",[1,0]]}",
    _replaced('"csi":[[12,-3]', '"csi":[[12,-3,5]'),        # three components
    _replaced('"csi":[[12,-3]', '"csi":[[12]'),
    _replaced('"csi":[[12,-3]', '"csi":[[12,-3,]'),         # trailing commas
    _LINE[: -len("]]}")] + ",]]}",
    _replaced('"csi":[[12,-3]', '"csi":[[12,-]'),           # lone or doubled sign
    _replaced('"csi":[[12,-3]', '"csi":[[12,--3]'),
    _replaced('"csi":[[12,-3]', '"csi":[[12,3-3]'),
    _replaced('"csi":[[12,-3],[', '"csi":[[12,-3]5,['),     # a digit inside '],['
    _replaced("[0,0],[1,0]", "[0,0],5[1,0]"),
    _replaced('"n_rx":2', '"n_rx":4'),
    _replaced('"n_tx":1', '"n_tx":0'),
    _replaced('"rssi":[40,41,0]', '"rssi":[40,41,7]'),      # absent port not 0
    _replaced('"rssi":[40,41,0]', '"rssi":[40,41]'),
    _replaced('"antenna_perm":[1,0,3]', '"antenna_perm":[1,1,3]'),  # bad permutation
    _replaced('"antenna_perm":[1,0,3]', '"antenna_perm":[1,0,4]'),
    _replaced('"timestamp_low":4294967295', '"timestamp_low":4294967296'),
    _replaced('"timestamp_low":4294967295', '"timestamp_low":42949672950'),
    _replaced('"noise":-92', '"noise":-129'),
    _LINE[:-1],                                             # cut short
    _LINE + "}",
    _replaced('"csi":[[12,-3]', '"csi":[[18446744073709551621,-3]'),  # 2**64 + 5
]


@pytest.mark.parametrize("line", _REJECTED)
def test_rejected_line_matches_reference(line):
    outcome = _assert_same_outcome(_three_lines(line))
    assert outcome[:2] == (SchemaError, 2)


def test_rejection_corpus_raises_no_warning(monkeypatch):
    # The canonical reader refuses each rejected line's block itself, with
    # no warning from its array operations (a wrapped uint32 product, a
    # cast, a take), before json.loads raises the line's error.  It reads
    # numbers only through the table of the component texts: numpy's
    # lenient np.fromstring, which warns on an unmatched tail in numpy 1.x
    # and saturates a number beyond int64, is never called.
    def fromstring(*args, **kwargs):
        raise AssertionError("np.fromstring called")

    monkeypatch.setattr(ingest.np, "fromstring", fromstring)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for line in _REJECTED:
            assert ingest._from_canonical_block(_three_lines(line).split("\n")) is None
            with pytest.raises(SchemaError):
                parse_text_trace(_three_lines(line))


_ALPHABET = "0123456789-+,.[]{}\":e tn\x00"
_edit = st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                  st.integers(0, 10**6), st.sampled_from(_ALPHABET))
_CANONICAL = [_LINE, _OTHER, write_text_trace([make_record(n_rx=1, n_tx=2, rssi=(9, 0, 0),
                                                           antenna_perm=(0, 2, 1))]).rstrip()]


def _mutated(line, edits):
    for op, pos, char in edits:
        pos %= len(line) + (op == "insert")
        if op == "insert":
            line = line[:pos] + char + line[pos:]
        elif op == "delete":
            line = line[:pos] + line[pos + 1 :]
        else:
            line = line[:pos] + char + line[pos + 1 :]
    return line


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_CANONICAL), st.lists(_edit, min_size=1, max_size=3))
def test_mutated_canonical_line_matches_reference(line, edits):
    _assert_same_outcome(_three_lines(_mutated(line, edits)))


# --- the byte check against the pairs grammar --------------------------------

_CSI_START = '"csi":[['
# The alphabet of a CSI body, then a sign, a space, a dot, an exponent, a
# non-ASCII digit, a brace and a NUL byte.
_BODY_ALPHABET = "-0123456789,[]" + "+ .e\u0663}\x00"
_body_edit = st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                       st.integers(0, 10**6), st.sampled_from(_BODY_ALPHABET))


def _body(line):
    return line[line.index(_CSI_START) + len(_CSI_START) : -len("]]}")]


def _with_body(line, body):
    return line[: line.index(_CSI_START) + len(_CSI_START)] + body + "]]}"


def _n_pairs(line):
    return len(json.loads(line)["csi"])


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_CANONICAL), st.lists(_body_edit, min_size=1, max_size=3))
def test_byte_check_accepts_what_the_pairs_grammar_accepts(line, edits):
    body = _mutated(_body(line), edits)
    accepted = ingest._from_canonical_block([_with_body(line, body)]) is not None
    assert accepted == _ref_body_is_canonical(body, _n_pairs(line))


@pytest.mark.parametrize("body", ["]\n[{}", "{}]\n[", "]\n[{}]\n[", "{}\n", "\r{}"])
def test_a_body_with_a_line_break_is_not_canonical(body):
    # parse_text_trace never passes a line break in a line; the reader of a
    # canonical block, which joins the bodies with ']\n[', refuses one.
    body = body.format(_body(_LINE))
    assert not _ref_body_is_canonical(body, _n_pairs(_LINE))
    line = _with_body(_LINE, body)
    assert ingest._from_canonical_block([line, _OTHER]) is None
    assert ingest._from_canonical_block([_OTHER, line]) is None


_BLOCK = write_text_trace([random_record(np.random.default_rng(17)) for _ in range(9)]
                          + [_BASE]).split("\n")[:-1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_BLOCK) - 1), st.lists(_body_edit, min_size=1, max_size=3))
def test_one_mutated_body_in_a_block(at, edits):
    line = _BLOCK[at]
    body = _mutated(_body(line), edits)
    block = _BLOCK[:at] + [_with_body(line, body)] + _BLOCK[at + 1 :]
    parsed = ingest._from_canonical_block(block)
    assert (parsed is not None) == _ref_body_is_canonical(body, _n_pairs(line))
    outcome = _assert_same_outcome("\n".join(block))
    if parsed is not None:
        _assert_same_records(parsed, outcome[1])


def test_component_table_reads_exactly_the_canonical_component_texts():
    # Every text of 1-4 bytes over '-' and the digits, then each with a NUL
    # byte, a sign, a space or a dot after it.  A text's code holds the
    # bytes after it up to four, here '7's, which its size masks off: read
    # whole, '-12' would be '-127'.
    texts = ["".join(t) for n in range(1, 5) for t in itertools.product("-0123456789", repeat=n)]
    assert len(texts) == 16104
    texts += [text + tail for tail in "\x00+ ." for text in texts]
    code = np.frombuffer(b"".join((t + "777")[:4].encode() for t in texts), dtype="<u4").copy()
    found, values = ingest._components(code, np.array(list(map(len, texts))))
    expected = [re.fullmatch(_REF_COMPONENT, t) is not None and -128 <= int(t) <= 127 for t in texts]
    assert found.tolist() == expected and sum(expected) == 257
    assert values[found].tolist() == [int(t) for t, ok in zip(texts, expected) if ok]
    # A size of 0 or less matches no text.
    found, _ = ingest._components(np.array([0, 0x37373737], np.uint32), np.array([0, -1]))
    assert not found.any()


# --- block edges -------------------------------------------------------------

def _long_trace():
    """Lines of a mixed-layout trace of two blocks and a part, the last one empty."""
    rng = np.random.default_rng(23)
    records = [random_record(rng) for _ in range(2 * ingest._TEXT_BLOCK_LINES + 7)]
    return write_text_trace(records).split("\n")


_EDGES = {
    "first line": lambda n, block: 0,
    "end of block 1": lambda n, block: block - 1,
    "start of block 2": lambda n, block: block,
    "last line": lambda n, block: n - 2,
}


@pytest.mark.parametrize("bad", [
    _replaced('"csi":[[12,-3]', '"csi":[[012,-3]'),
    _replaced('[-128,127]', '[-129,127]'),
    _replaced('"n_rx":2', '"n_rx":4'),
    _replaced('"rssi":[40,41,0]', '"rssi":[40,41,7]'),
])
@pytest.mark.parametrize("edge", list(_EDGES))
def test_rejected_line_at_a_block_edge_matches_reference(edge, bad):
    lines = _long_trace()
    at = _EDGES[edge](len(lines), ingest._TEXT_BLOCK_LINES)
    lines[at] = bad
    assert _assert_same_outcome("\n".join(lines))[:2] == (SchemaError, at + 1)


def test_first_of_two_rejected_lines_in_two_blocks_is_reported():
    lines = _long_trace()
    block = ingest._TEXT_BLOCK_LINES
    lines[block + 3] = _replaced('"agc":28', '"agc":028')
    lines[2 * block + 1] = _LINE[:-1]
    assert _assert_same_outcome("\n".join(lines))[:2] == (SchemaError, block + 4)
    lines[block - 2] = _replaced('"noise":-92', '"noise":-129')
    assert _assert_same_outcome("\n".join(lines))[:2] == (SchemaError, block - 1)


def test_blank_and_non_canonical_lines_mid_block_match_reference():
    lines = _long_trace()
    block = ingest._TEXT_BLOCK_LINES
    lines[10] = " \t "
    lines[block + 5] = json.dumps(json.loads(lines[block + 5]))
    status, records = _assert_same_outcome("\n".join(lines))
    assert status == "ok" and len(records) == len(lines) - 2
    lines[block + 20] = _replaced('"csi":[[12,-3]', '"csi":[[12,-3,]')
    assert _assert_same_outcome("\n".join(lines))[:2] == (SchemaError, block + 21)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
@pytest.mark.parametrize("edge", list(_EDGES))
def test_crlf_and_cr_traces_match_reference_at_block_edges(edge, newline):
    lines = _long_trace()
    status, records = _assert_same_outcome(newline.join(lines))
    assert status == "ok" and records == parse_text_trace("\n".join(lines))
    at = _EDGES[edge](len(lines), ingest._TEXT_BLOCK_LINES)
    lines[at] = _replaced('"agc":28', '"agc":028')
    assert _assert_same_outcome(newline.join(lines))[:2] == (SchemaError, at + 1)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_traces_parse_without_a_copy_of_the_trace(newline):
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=2000, seed=4)
    text = write_text_trace(simulate_capture(config, REALISTIC_DISTORTION))
    expected = parse_text_trace(text)
    text = text.replace("\n", newline)
    tracemalloc.start()
    try:
        parsed = parse_text_trace(text)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == expected
    # A copy of the whole text with its line breaks made \n is 2.6 MiB.
    assert peak - result < 0.5 * 2**20


# --- one-pass validation in the writers --------------------------------------

def _faulty_records(n, csi_at, header_at):
    rng = np.random.default_rng(12)
    if n < 10:
        records = [random_record(rng) for _ in range(n)]
    else:  # one layout, in one part
        records = [make_record(csi=rng.integers(-128, 128, (N_SUBCARRIERS, 3, 1)))
                   for _ in range(n)]
    records[csi_at].csi[0, 0, 0] = 200
    if header_at is not None:
        records[header_at].agc = 300
    return records


@pytest.mark.parametrize("n, csi_at, header_at, message", [
    (7, 3, 5, "csi components must lie in [-128, 127]"),
    (7, 5, 3, "agc out of u8 range"),
    (600, 500, 550, "csi components must lie in [-128, 127]"),
    (600, 550, 500, "agc out of u8 range"),
    (600, 500, None, "csi components must lie in [-128, 127]"),
])
@pytest.mark.parametrize("writer, ref", [
    (write_text_trace, _ref_write_text_trace),
    (encode_binary_trace, _ref_encode_binary_trace),
])
def test_writers_raise_the_first_faulty_records_error(n, csi_at, header_at, message,
                                                      writer, ref):
    records = _faulty_records(n, csi_at, header_at)
    with pytest.raises(InvariantViolation) as new:
        writer(records)
    with pytest.raises(InvariantViolation) as old:
        ref(records)
    assert str(new.value) == str(old.value) == message
