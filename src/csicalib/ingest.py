"""Trace ingestion: bit-packed binary beamforming reports and JSON-lines text.

The binary layout follows the public Intel 5300 trace-tool convention:
each frame is a 2-byte big-endian length (covering the code byte and the
record body), a 1-byte code, and the body.  Code 0xBB carries a CSI record;
all other codes are skipped.  The text format is one JSON object per line
and is the canonical interchange for the rest of the toolkit (see
docs/FORMATS.md).
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadPermutation,
    ConfigError,
    InvariantViolation,
    LengthMismatch,
    MixedLayout,
    SchemaError,
    TruncatedRecord,
)

N_SUBCARRIERS = 30
CSI_RECORD_CODE = 0xBB
_HEADER_BYTES = 20


def csi_payload_len(n_rx: int, n_tx: int) -> int:
    """Byte length of the bit-packed CSI block for a given antenna layout."""
    return (N_SUBCARRIERS * (n_rx * n_tx * 16 + 3) + 7) // 8


@dataclass(frozen=True)
class CalibrationConstants:
    """Chip constants used to strip amplification from nominal readouts.

    c_fixed is the fixed amplifier/loss aggregate of the receive chain;
    agc_min/agc_max are the adaptive gain clamp bounds of the chip.
    """

    c_fixed: float = 44.0
    agc_min: int = 26
    agc_max: int = 63

    def __post_init__(self):
        if not self.agc_min < self.agc_max:
            raise ConfigError("agc_min must be < agc_max")
        # A present port's power, RSSI 1..255 minus AGC 0..255 minus c_fixed,
        # and the sum over three ports must be positive and finite in mW.
        try:
            low = 10.0 ** ((1 - 255 - self.c_fixed) / 10.0)
            high = 3 * 10.0 ** ((255 - self.c_fixed) / 10.0)
        except OverflowError:
            low = high = math.inf
        if not 0.0 < low <= high < math.inf:
            raise ConfigError(f"c_fixed={self.c_fixed} dB puts calibrated port powers "
                              "beyond the float range")


#: Header fields held as Python ints; rssi and antenna_perm hold ints too.
_INT_FIELDS = ("timestamp_low", "bfee_count", "n_rx", "n_tx", "noise", "agc", "rate_flags")


@dataclass(eq=False)
class RawCsiRecord:
    """One received packet's nominal readouts plus the digitized CSI matrix.

    csi has shape (30, n_rx, n_tx) with integer-valued real/imag components
    in [-128, 127].  rssi entries of 0 mark an absent port, never 0 dB.
    The header fields and the rssi and antenna_perm entries are Python
    ints (not bool, not numpy integers); validate() enforces all of this.
    """

    timestamp_low: int
    bfee_count: int
    n_rx: int
    n_tx: int
    rssi: tuple[int, int, int]
    noise: int
    agc: int
    antenna_perm: tuple[int, int, int]
    rate_flags: int
    csi: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawCsiRecord):
            return NotImplemented
        return (
            self.timestamp_low == other.timestamp_low
            and self.bfee_count == other.bfee_count
            and self.n_rx == other.n_rx
            and self.n_tx == other.n_tx
            and tuple(self.rssi) == tuple(other.rssi)
            and self.noise == other.noise
            and self.agc == other.agc
            and tuple(self.antenna_perm) == tuple(other.antenna_perm)
            and self.rate_flags == other.rate_flags
            and np.array_equal(self.csi, other.csi)
        )

    def present_ports(self) -> list[int]:
        """Ports with a non-zero RSSI readout (0 marks an absent port)."""
        return [p for p in range(self.n_rx) if self.rssi[p] != 0]

    def validate(self) -> None:
        self._validate_header()
        _validate_csi(self.csi)

    def _validate_header(self) -> None:
        """Every check of validate() but those on the CSI values."""
        # Python ints only, as the text parser reads them: a float or a
        # numpy integer would fail later, in struct or json.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                raise InvariantViolation(f"{name} must be an int, got {type(value).__name__}")
        for name in ("rssi", "antenna_perm"):
            for value in getattr(self, name):
                if type(value) is not int:
                    raise InvariantViolation(
                        f"{name} entries must be ints, got {type(value).__name__}")
        if self.csi.shape != (N_SUBCARRIERS, self.n_rx, self.n_tx):
            raise InvariantViolation(f"csi shape {self.csi.shape} does not match "
                                     f"(30, {self.n_rx}, {self.n_tx})")
        if not (1 <= self.n_rx <= 3 and 1 <= self.n_tx <= 3):
            raise InvariantViolation("n_rx and n_tx must be in 1..3")
        if not (0 <= self.timestamp_low < 2 ** 32):
            raise InvariantViolation("timestamp_low out of u32 range")
        if not (0 <= self.bfee_count < 2 ** 16):
            raise InvariantViolation("bfee_count out of u16 range")
        if not (0 <= self.rate_flags < 2 ** 16):
            raise InvariantViolation("rate_flags out of u16 range")
        if len(self.rssi) != 3 or not (0 <= min(self.rssi) and max(self.rssi) <= 255):
            raise InvariantViolation("rssi must be three values in 0..255")
        if any(self.rssi[self.n_rx:]):
            raise InvariantViolation("rssi of absent ports must be exactly 0")
        if not (-128 <= self.noise <= 127):
            raise InvariantViolation("noise out of i8 range")
        if not (0 <= self.agc <= 255):
            raise InvariantViolation("agc out of u8 range")
        if len(self.antenna_perm) != 3 or not (
            0 <= min(self.antenna_perm) and max(self.antenna_perm) <= 3
        ):
            raise InvariantViolation("antenna_perm must be three 2-bit values")
        if sorted(self.antenna_perm[: self.n_rx]) != list(range(self.n_rx)):
            raise InvariantViolation("antenna_perm prefix is not a permutation")


def _validate_csi(csi: np.ndarray) -> None:
    """The CSI checks of RawCsiRecord.validate, on one csi or a stack of them."""
    # Rounding a complex array rounds both parts; NaN never compares equal.
    if not (csi == np.round(csi)).all():
        raise InvariantViolation("csi components must be integer-valued")
    real, imag = csi.real, csi.imag
    if min(real.min(), imag.min()) < -128 or max(real.max(), imag.max()) > 127:
        raise InvariantViolation("csi components must lie in [-128, 127]")


#: Records stacked at a time by _validated_groups; bounds the copy it holds.
_STACK_RECORDS = 256


def _validated_groups(records: list[RawCsiRecord], layout):
    """Validate every record in one pass; yield its groups with their csi stacked.

    layout(record) is the group key, which must fix the csi shape.  Yields
    (key, record indices, csi stacked along a new first axis) for at most
    _STACK_RECORDS records of one group at a time, so only one such stack
    is held.  The header checks run on every record before the first
    yield; the CSI checks run once per stack.  On any fault every record
    is validated in order, so the first faulty record raises the error its
    validate() raises, even if stacks were already yielded.
    """
    try:
        groups: dict[tuple, list[int]] = {}
        for i, record in enumerate(records):
            record._validate_header()
            groups.setdefault(layout(record), []).append(i)
        for key, index in groups.items():
            for start in range(0, len(index), _STACK_RECORDS):
                part = index[start : start + _STACK_RECORDS]
                csi = np.stack([records[i].csi for i in part])
                _validate_csi(csi)
                yield key, part, csi
    except Exception:  # whatever failed, validate() names the first faulty record
        for record in records:
            record.validate()
        raise


def common_n_rx(records: list[RawCsiRecord]) -> int:
    """The n_rx of a non-empty capture whose records all carry the same ports.

    Raises MixedLayout naming the first record whose n_rx differs from
    record 0's.
    """
    n_rx = records[0].n_rx
    for t, r in enumerate(records):
        if r.n_rx != n_rx:
            raise MixedLayout(f"record {t} has n_rx={r.n_rx}, record 0 has n_rx={n_rx}")
    return n_rx


# --- binary format -----------------------------------------------------------

# The 20-byte record header: little-endian, two reserved bytes at 6..7.
_RECORD_HEADER = struct.Struct("<IHxxBBBBBbBBHH")
# The same, after the frame length's two bytes (big-endian) and the code byte.
_FRAME_AND_HEADER = struct.Struct("<BBBIHxxBBBBBbBBHH")


def _decode_perm(antenna_sel: int) -> tuple[int, int, int]:
    return (antenna_sel & 0x3, (antenna_sel >> 2) & 0x3, (antenna_sel >> 4) & 0x3)


#: (n_rx, antenna_sel) -> antenna_perm, for every selection byte whose first
#: n_rx entries are a permutation of 0..n_rx-1.
_VALID_PERMS = {
    (n_rx, sel): _decode_perm(sel)
    for n_rx in (1, 2, 3)
    for sel in range(256)
    if sorted(_decode_perm(sel)[:n_rx]) == list(range(n_rx))
}


@functools.lru_cache(maxsize=None)
def _component_table(n_rx: int, n_tx: int, perm: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where each 8-bit CSI component lies in the payload of one layout.

    perm is the first n_rx entries of antenna_perm.  Components are taken
    in the order of a (30, n_rx, n_tx, 2) array: csi[k, port, t], real
    before imaginary.  Returns (lo, shift): a component is bits
    shift..shift+7 of the little-endian byte pair payload[lo],
    payload[lo + 1].  The last component starts at bit 2 of its byte, so
    lo + 1 never reaches past the payload.
    """
    per_sc = 2 * n_rx * n_tx
    k = np.arange(N_SUBCARRIERS).reshape(-1, 1, 1, 1)
    j = np.arange(per_sc).reshape(n_rx, n_tx, 2)
    # In the payload each subcarrier skips 3 bits, then runs over streams.
    stream_bits = 3 * (k + 1) + 8 * (per_sc * k + j)
    bitpos = np.empty_like(stream_bits)
    bitpos[:, list(perm)] = stream_bits  # stream s landed on port perm[s]
    bitpos = bitpos.reshape(-1)
    lo, shift = bitpos // 8, (bitpos % 8).astype(np.uint16)
    # Shared by every caller through the cache (at most 27 entries).
    lo.flags.writeable = shift.flags.writeable = False
    return lo, shift


def _unpack_group(view: np.ndarray, offsets: list[int], n_rx: int, n_tx: int,
                  perm: tuple[int, ...]) -> np.ndarray:
    """CSI components of payloads at ``offsets``, int8 (G, 30, n_rx, n_tx, 2)."""
    lo, shift = _component_table(n_rx, n_tx, perm)
    span = np.arange(csi_payload_len(n_rx, n_tx))
    payload = view[np.asarray(offsets)[:, None] + span].astype(np.uint16)
    word = payload[:, lo + 1]
    word <<= 8
    word |= payload[:, lo]
    word >>= shift
    return word.astype(np.uint8).view(np.int8).reshape(-1, N_SUBCARRIERS, n_rx, n_tx, 2)


def _pack_group(components: np.ndarray, n_rx: int, n_tx: int,
                perm: tuple[int, ...]) -> np.ndarray:
    """Inverse of _unpack_group: uint8 payloads (G, payload_len)."""
    lo, shift = _component_table(n_rx, n_tx, perm)
    word = components.reshape(len(components), -1).view(np.uint8).astype(np.uint16)
    word <<= shift
    payload = np.zeros((len(components), csi_payload_len(n_rx, n_tx)), dtype=np.uint8)
    # Components start at least 8 bits apart, so no two share a low byte
    # (or a high byte) and neither indexed write below repeats an index.
    # Skip and padding bits stay zero.
    payload[:, lo] = word.astype(np.uint8)
    word >>= 8
    payload[:, lo + 1] |= word.astype(np.uint8)
    return payload


def parse_binary_trace(data: bytes) -> list[RawCsiRecord]:
    """Decode a framed binary trace into records, skipping non-CSI frames.

    Raises TruncatedRecord when a frame claims more bytes than remain,
    LengthMismatch when the declared CSI length disagrees with the layout,
    and BadPermutation for an invalid antenna selection byte.  All frames
    are checked in one pass before any payload is decoded; the payloads of
    each (n_rx, n_tx) layout and permutation are then decoded together.
    """
    headers: list[tuple] = []
    # (n_rx, n_tx, antenna_perm[:n_rx]) -> (record indices, payload offsets)
    groups: dict[tuple, tuple[list[int], list[int]]] = {}
    off = 0
    total = len(data)
    while off < total:
        if total - off < 3:
            raise TruncatedRecord(f"dangling {total - off} byte(s) at offset {off}")
        frame_len = (data[off] << 8) | data[off + 1]
        end = off + 2 + frame_len
        if frame_len < 1 or end > total:
            raise TruncatedRecord(f"frame at offset {off} exceeds input")
        code = data[off + 2]
        body = off + 3
        off = end
        if code != CSI_RECORD_CODE:
            continue
        if end - body < _HEADER_BYTES:
            raise TruncatedRecord("record body shorter than fixed header")
        (timestamp_low, bfee_count, n_rx, n_tx, rssi1, rssi2, rssi3, noise, agc,
         antenna_sel, declared_len, rate_flags) = _RECORD_HEADER.unpack_from(data, body)
        if not (1 <= n_rx <= 3 and 1 <= n_tx <= 3):
            raise InvariantViolation(f"n_rx={n_rx}, n_tx={n_tx} out of range")
        expected = csi_payload_len(n_rx, n_tx)
        if declared_len != expected:
            raise LengthMismatch(f"declared {declared_len}, computed {expected}")
        if end - body < _HEADER_BYTES + declared_len:
            raise TruncatedRecord("CSI payload cut short")
        perm = _VALID_PERMS.get((n_rx, antenna_sel))
        if perm is None:
            raise BadPermutation(f"antenna_sel 0x{antenna_sel:02x} for n_rx={n_rx}")
        index, offsets = groups.setdefault((n_rx, n_tx, perm[:n_rx]), ([], []))
        index.append(len(headers))
        offsets.append(body + _HEADER_BYTES)
        headers.append((timestamp_low, bfee_count, n_rx, n_tx, (rssi1, rssi2, rssi3),
                        noise, agc, perm, rate_flags))

    view = np.frombuffer(data, dtype=np.uint8)
    csi: list[np.ndarray | None] = [None] * len(headers)
    for layout, (index, offsets) in groups.items():
        for i, components in zip(index, _unpack_group(view, offsets, *layout)):
            c = np.empty(components.shape[:-1], dtype=np.complex128)
            c.view(np.float64)[...] = components.reshape(c.shape[:-1] + (-1,))
            csi[i] = c
    return [RawCsiRecord(*header, csi=c) for header, c in zip(headers, csi)]


def encode_binary_trace(records: list[RawCsiRecord]) -> bytes:
    """Exact inverse of parse_binary_trace at the record level."""
    payloads: list[np.ndarray] = [None] * len(records)
    groups = _validated_groups(
        records, lambda r: (r.n_rx, r.n_tx, tuple(r.antenna_perm[: r.n_rx])))
    for layout, index, csi in groups:
        components = np.empty(csi.shape + (2,), dtype=np.int8)
        components[..., 0] = csi.real
        components[..., 1] = csi.imag
        for i, payload in zip(index, _pack_group(components, *layout)):
            payloads[i] = payload

    out = np.zeros(sum(3 + _HEADER_BYTES + p.size for p in payloads), dtype=np.uint8)
    start = 0
    for record, payload in zip(records, payloads):
        perm = record.antenna_perm
        frame_len = 1 + _HEADER_BYTES + payload.size
        _FRAME_AND_HEADER.pack_into(
            out, start, frame_len >> 8, frame_len & 0xFF, CSI_RECORD_CODE,
            record.timestamp_low, record.bfee_count, record.n_rx, record.n_tx,
            *record.rssi, record.noise, record.agc,
            perm[0] | (perm[1] << 2) | (perm[2] << 4),
            payload.size, record.rate_flags,
        )
        start += 3 + _HEADER_BYTES
        out[start : start + payload.size] = payload
        start += payload.size
    return out.tobytes()


# --- text format -------------------------------------------------------------

_TEXT_FIELDS = (
    "timestamp_low", "bfee_count", "n_rx", "n_tx", "rssi", "noise",
    "agc", "antenna_perm", "rate_flags", "csi",
)


def _json_int(value, name: str, lineno: int) -> int:
    # bool is a subclass of int, so only the exact type will do.
    if type(value) is not int:
        raise SchemaError(lineno, f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


@functools.lru_cache(maxsize=None)
def _line_template(n_rx: int, n_tx: int) -> str:
    """The canonical line of one layout as a %-template.

    It takes the header values in _TEXT_FIELDS order (rssi and antenna_perm
    as three values each), then the real and imaginary part of each CSI
    entry.  Filled with Python ints, it gives the bytes of json.dumps with
    separators=(",", ":") of the record's object, keys in that order.
    """
    pairs = ",".join(["[%d,%d]"] * (N_SUBCARRIERS * n_rx * n_tx))
    return ('{"timestamp_low":%d,"bfee_count":%d,"n_rx":%d,"n_tx":%d,"rssi":[%d,%d,%d],'
            '"noise":%d,"agc":%d,"antenna_perm":[%d,%d,%d],"rate_flags":%d,'
            '"csi":[' + pairs + ']}\n')


def write_text_trace(records: list[RawCsiRecord]) -> str:
    """Serialize records to the canonical JSON-lines text format."""
    lines: list[str] = [""] * len(records)
    for layout, index, csi in _validated_groups(records, lambda r: (r.n_rx, r.n_tx)):
        template = _line_template(*layout)
        # csi[k, port, t] as (re, im) pairs, subcarrier-major: one row per record.
        rows = np.asarray(csi, dtype=np.complex128).view(np.float64)
        for i, row in zip(index, rows.reshape(len(index), -1).astype(np.int64).tolist()):
            r = records[i]
            lines[i] = template % (r.timestamp_low, r.bfee_count, r.n_rx, r.n_tx, *r.rssi,
                                   r.noise, r.agc, *r.antenna_perm, r.rate_flags, *row)
    return "".join(lines)


@functools.lru_cache(maxsize=None)
def _canonical_matchers():
    """Matchers of the line write_text_trace writes: (head.match, pairs.fullmatch).

    The head holds the header values as groups and ends at '"csi":[['; the
    pairs are the text between that and the closing ']]}'.
    Integers follow JSON's grammar.  A header integer has at most 10
    digits (a u32 has 10) and a CSI component at most 3, so int() and
    np.fromstring only ever see short, well-formed numbers.  Compiled on
    first use, to keep them out of the import time.
    """
    value = r"(-?(?:[1-9][0-9]{0,9}|0))"
    component = r"-?(?:[1-9][0-9]{0,2}|0)"
    pair = component + "," + component
    head = re.compile(
        r'\{"timestamp_low":' + value + ',"bfee_count":' + value
        + r',"n_rx":([1-3]),"n_tx":([1-3]),"rssi":\[' + value + "," + value + "," + value
        + r'\],"noise":' + value + ',"agc":' + value
        + r',"antenna_perm":\[' + value + "," + value + "," + value
        + r'\],"rate_flags":' + value + r',"csi":\[\['
    )
    return head.match, re.compile(pair + r"(?:\],\[" + pair + ")*").fullmatch


def _from_canonical(line: str, head, pairs) -> RawCsiRecord | None:
    """The record of a canonical line; None for any other line, or if a check fails.

    head and pairs are the matchers of _canonical_matchers().
    """
    match = head(line)
    if match is None or not line.endswith("]]}") or not pairs(line, match.end(), len(line) - 3):
        return None
    (timestamp_low, bfee_count, n_rx, n_tx, rssi1, rssi2, rssi3, noise, agc,
     perm1, perm2, perm3, rate_flags) = map(int, match.groups())
    # The patterns admit only "c,c],[c,c..." here, "c,c,c,c..." without the
    # brackets, so numpy's lenient number reader never sees a malformed or
    # trailing item.
    components = np.fromstring(line[match.end():-3].encode().translate(None, b"[]"),
                               dtype=np.int64, sep=",")
    if (components.size != 2 * N_SUBCARRIERS * n_rx * n_tx
            or components.min() < -128 or components.max() > 127):
        return None
    csi = components.astype(np.float64).view(np.complex128)
    record = RawCsiRecord(timestamp_low, bfee_count, n_rx, n_tx, (rssi1, rssi2, rssi3),
                          noise, agc, (perm1, perm2, perm3), rate_flags,
                          csi=csi.reshape(N_SUBCARRIERS, n_rx, n_tx))
    try:
        record._validate_header()
    except InvariantViolation:
        return None
    return record


def _from_json_line(line: str, lineno: int) -> RawCsiRecord | None:
    """The record of any JSON object line, None for a blank line.

    Raises SchemaError, with the line number, for every other line.
    """
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(lineno, "JSON nested too deeply") from exc
    except ValueError as exc:  # an integer longer than int() converts
        raise SchemaError(lineno, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(lineno, "record must be a JSON object")
    missing = [f for f in _TEXT_FIELDS if f not in obj]
    if missing:
        raise SchemaError(lineno, f"missing fields: {', '.join(missing)}")
    try:
        ints = {name: _json_int(obj[name], name, lineno) for name in _INT_FIELDS}
        n_rx, n_tx = ints["n_rx"], ints["n_tx"]
        pairs = obj["csi"]
        if len(pairs) != N_SUBCARRIERS * n_rx * n_tx:
            raise SchemaError(
                lineno,
                f"csi has {len(pairs)} entries, expected "
                f"{N_SUBCARRIERS * n_rx * n_tx}",
            )
        if not all(type(real) is int and type(imag) is int for real, imag in pairs):
            raise SchemaError(lineno, "csi components must be JSON integers")
        flat = np.array([complex(real, imag) for real, imag in pairs], dtype=np.complex128)
        record = RawCsiRecord(
            **ints,
            rssi=tuple(_json_int(r, "rssi", lineno) for r in obj["rssi"]),
            antenna_perm=tuple(
                _json_int(p, "antenna_perm", lineno) for p in obj["antenna_perm"]
            ),
            csi=flat.reshape(N_SUBCARRIERS, n_rx, n_tx),
        )
        record.validate()
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError, InvariantViolation) as exc:
        raise SchemaError(lineno, str(exc)) from exc
    return record


def split_lines(text: str) -> list[str]:
    """The lines of a text trace, broken only at \\n, \\r\\n and \\r.

    Unlike str.splitlines, which also breaks at \\f, \\x85, U+2028 and more.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_text_trace(text: str) -> list[RawCsiRecord]:
    """Parse the text format; SchemaError carries the line number.

    A line in write_text_trace's canonical form is read through two regular
    expressions and one numpy call.  Any other line, or a canonical one that
    fails a check, is read with json.loads, which raises every error.
    """
    head, pairs = _canonical_matchers()
    records = []
    for lineno, line in enumerate(split_lines(text), start=1):
        record = _from_canonical(line, head, pairs)
        if record is None:
            record = _from_json_line(line, lineno)
            if record is None:
                continue
        records.append(record)
    return records
