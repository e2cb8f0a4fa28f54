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
import itertools
import json
import math
import re
import struct
from dataclasses import dataclass, field, fields, replace

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
    agc_min/agc_max are the adaptive gain clamp bounds of the chip, within
    the u8 range of the AGC readout.
    """

    c_fixed: float = 44.0
    agc_min: int = 26
    agc_max: int = 63

    def __post_init__(self):
        if not 0 <= self.agc_min < self.agc_max <= 255:
            raise ConfigError("need 0 <= agc_min < agc_max <= 255, "
                              "the range of the AGC readout")
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


@dataclass(frozen=True, eq=False)
class Capture:
    """A capture of one (n_rx, n_tx) layout held as columns, one row per record.

    csi is (T, 30, n_rx, n_tx), rssi and antenna_perm are (T, 3) and every
    other header field is (T,).  A Capture is a sequence of RawCsiRecord
    row views: capture[t] holds Python-number header values and a view of
    csi[t], capture[a:b] is a Capture of column views, and list(capture)
    gives a mutable list of records.  rssi is float only where the records'
    readouts are (the simulator with quantize off); the row view reads the
    ports past n_rx as the int 0 they must be.
    """

    timestamp_low: np.ndarray
    bfee_count: np.ndarray
    rssi: np.ndarray
    noise: np.ndarray
    agc: np.ndarray
    antenna_perm: np.ndarray
    rate_flags: np.ndarray
    csi: np.ndarray

    def __len__(self) -> int:
        return len(self.csi)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return replace(self, **{f.name: getattr(self, f.name)[t] for f in fields(self)})
        t = range(len(self))[t]  # raises IndexError past either end
        return next(iter(self[t : t + 1]))

    def __iter__(self):
        _, _, n_rx, n_tx = self.csi.shape
        header = [getattr(self, f.name).tolist() for f in fields(self)[:-1]]
        for stamp, count, rssi, noise, agc, perm, flags, csi in zip(*header, self.csi):
            yield RawCsiRecord(stamp, count, n_rx, n_tx, (*rssi[:n_rx], *map(int, rssi[n_rx:])),
                               noise, agc, tuple(perm), flags, csi=csi)


#: Records stacked at a time by _validated_groups (so by both writers) and
#: by capture_blocks (so by powercalib.calibrate and check_ratio_consistency,
#: phase.differential_series and quality.variation_stats) when a capture is
#: a list of records; bounds the copy each holds.  parse_text_trace reads
#: _TEXT_BLOCK_LINES lines at a time instead.
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


def common_n_rx(records: Capture | list[RawCsiRecord]) -> int:
    """The n_rx of a non-empty capture whose records all carry the same ports.

    Raises MixedLayout naming the first record whose n_rx differs from
    record 0's.
    """
    n_rx = records[0].n_rx
    for run in layout_runs(records)[1:]:  # a record of another n_rx starts a run
        if records[run.start].n_rx != n_rx:
            raise MixedLayout(f"record {run.start} has n_rx={records[run.start].n_rx}, "
                              f"record 0 has n_rx={n_rx}")
    return n_rx


def layout_runs(records: Capture | list[RawCsiRecord]) -> list[slice]:
    """A slice for each run of consecutive records of one (n_rx, n_tx).

    The records of one run have csi of one shape, so they stack.  A
    non-empty Capture is one run.
    """
    if isinstance(records, Capture):
        return [slice(0, len(records))] if len(records) else []
    starts = [t for t, r in enumerate(records) if t == 0 or r.csi.shape != records[t - 1].csi.shape]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(records)])]


def capture_blocks(records: Capture | list[RawCsiRecord], *names: str):
    """Yield (part, *columns): a slice of the capture and those Capture columns of it.

    The one way the analysis reads a capture: names are Capture fields, and
    each block's records share one layout.  A Capture is its own one block,
    and its columns are given as they are, with no copy.  A list of records
    gives each layout run stacked at most _STACK_RECORDS records at a time,
    so only one such stack is held.
    """
    for run in layout_runs(records):
        if isinstance(records, Capture):  # one run, the whole capture
            yield run, *(getattr(records, name) for name in names)
            continue
        for start in range(run.start, run.stop, _STACK_RECORDS):
            part = slice(start, min(start + _STACK_RECORDS, run.stop))
            yield part, *(np.array([getattr(r, name) for r in records[part]]) for name in names)


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
    BadPermutation for an invalid antenna selection byte, and
    InvariantViolation for an n_rx or n_tx out of range or a non-zero RSSI
    past n_rx (docs/FORMATS.md).  All frames are checked in one pass before
    any payload is decoded; the payloads of each (n_rx, n_tx) layout and
    permutation are then decoded together.
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
        rssi = (rssi1, rssi2, rssi3)
        if any(rssi[n_rx:]):
            raise InvariantViolation("rssi of absent ports must be exactly 0")
        index, offsets = groups.setdefault((n_rx, n_tx, perm[:n_rx]), ([], []))
        index.append(len(headers))
        offsets.append(body + _HEADER_BYTES)
        headers.append((timestamp_low, bfee_count, n_rx, n_tx, rssi,
                        noise, agc, perm, rate_flags))

    view = np.frombuffer(data, dtype=np.uint8)
    csi: list[np.ndarray | None] = [None] * len(headers)
    for layout, (index, offsets) in groups.items():
        for i, components in zip(index, _unpack_group(view, offsets, *layout)):
            c = np.empty(components.shape[:-1], dtype=np.complex128)
            c.view(np.float64)[...] = components.reshape(c.shape[:-1] + (-1,))
            csi[i] = c
    return [RawCsiRecord(*header, csi=c) for header, c in zip(headers, csi)]


def encode_binary_trace(records: Capture | list[RawCsiRecord]) -> bytes:
    """Exact inverse of parse_binary_trace at the record level."""
    records = list(records)  # a Capture's row views, built once
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


def write_text_trace(records: Capture | list[RawCsiRecord]) -> str:
    """Serialize records to the canonical JSON-lines text format."""
    records = list(records)  # a Capture's row views, built once
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


#: Lines read at a time by parse_text_trace.  Its own bound, not
#: _STACK_RECORDS: a block's CSI text is held several times over, as
#: bytes and as byte masks, while it is checked.  Reading a 2000-line trace
#: 256 lines at a time raised the parse's traced peak memory by 0.4-0.7
#: MiB over reading one line at a time; 64 lines at a time, as fast, by
#: about 0.1 MiB.
_TEXT_BLOCK_LINES = 64


@functools.lru_cache(maxsize=None)
def _canonical_head():
    """Matcher of the line write_text_trace writes, up to '"csi":[['.

    Its groups are the header values; the CSI body is the text between its
    end and the closing ']]}'.  Integers follow JSON's grammar, and a
    header integer has at most 10 digits (a u32 has 10), so int() only
    ever sees short, well-formed numbers.  Compiled on first use, to keep
    it out of the import time.
    """
    value = r"(-?(?:[1-9][0-9]{0,9}|0))"
    head = re.compile(
        r'\{"timestamp_low":' + value + ',"bfee_count":' + value
        + r',"n_rx":([1-3]),"n_tx":([1-3]),"rssi":\[' + value + "," + value + "," + value
        + r'\],"noise":' + value + ',"agc":' + value
        + r',"antenna_perm":\[' + value + "," + value + "," + value
        + r'\],"rate_flags":' + value + r',"csi":\[\['
    )
    return head.match


@functools.lru_cache(maxsize=None)
def _csi_separators(n_pairs: int) -> bytes:
    """A canonical CSI body of n_pairs pairs without its digits and '-'."""
    return b"," + b"],[," * (n_pairs - 1)


def _csi_numbers_valid(numbers: bytes) -> bool:
    """Whether numbers is ',' + integers joined by ',' + ',', each -?(?:[1-9][0-9]{0,2}|0).

    One pass of byte masks over the whole text: only digits, '-' and ','
    occur, and the local rules below hold.  Both ends being ',', each rule
    also holds at the first and the last integer.
    """
    b = np.frombuffer(numbers, dtype=np.uint8)
    digit = (b - np.uint8(ord("0"))) < 10
    comma = b == ord(",")
    minus = b == ord("-")
    if not (digit | comma | minus).all():
        return False
    lead_zero = (b[1:-1] == ord("0")) & digit[2:]
    two_digits = digit[:-1] & digit[1:]
    return not (
        (comma[:-1] & comma[1:]).any()        # no empty number
        or (minus[1:] > comma[:-1]).any()     # '-' only after ','
        or (minus[:-1] > digit[1:]).any()     # and before a digit
        or (lead_zero > digit[:-2]).any()     # no leading '0'
        or (two_digits[:-2] & two_digits[2:]).any()  # at most 3 digits
    )


def _headers_valid(h: np.ndarray) -> bool:
    """Whether (B, 13) header values pass every check of _validate_header.

    Columns in _TEXT_FIELDS order, rssi and antenna_perm as three each.
    """
    low = (0, 0, 1, 1, 0, 0, 0, -128, 0, 0, 0, 0, 0)
    high = (2**32 - 1, 2**16 - 1, 3, 3, 255, 255, 255, 127, 255, 3, 3, 3, 2**16 - 1)
    if not ((low <= h) & (h <= high)).all():
        return False
    n_rx = h[:, 2:3]
    past = np.arange(3) >= n_rx
    if h[:, 4:7][past].any():  # rssi of absent ports
        return False
    # antenna_perm's first n_rx entries are a permutation of 0..n_rx-1
    # exactly when they cover those n_rx values.
    bits = np.where(past, 0, 1 << h[:, 9:12])
    return bool((np.bitwise_or.reduce(bits, axis=1) == (1 << n_rx[:, 0]) - 1).all())


def _from_canonical_block(lines: list[str]) -> list[RawCsiRecord] | None:
    """The records of lines in write_text_trace's form, skipping empty lines.

    None if any other line is not in that form, or if any check fails.
    Per line, the head regular expression reads the header values and one
    bytes.translate checks where the brackets and commas of the CSI body
    lie.  Once for all lines, an array of the header values passes every
    check of validate(), a byte check passes each CSI number, one
    np.fromstring call reads them all, and one check bounds their range.
    """
    head = _canonical_head()
    headers, bodies = [], []
    for line in lines:
        if not line:
            continue
        match = head(line)
        # A canonical line is ASCII, which also makes encode() safe: a lone
        # surrogate would raise there.
        if match is None or not line.isascii() or not line.endswith("]]}"):
            return None
        header = tuple(map(int, match.groups()))
        body = line[match.end():-3].encode()
        if body.translate(None, b"0123456789-") != _csi_separators(
                N_SUBCARRIERS * header[2] * header[3]):
            return None
        headers.append(header)
        bodies.append(body)
    if not headers:
        return []
    # Each body is now numbers, if any, between ',' and '],[' in the canonical
    # order.  With every '],[' made ',' and a ',' at each end, the bodies
    # are well-formed exactly when the result is ',' + numbers joined by
    # ',' + ',': a bracket left over, or a body that starts or ends without
    # a number, breaks that.
    numbers = b",".join([b"", *bodies, b""]).replace(b"],[", b",")
    del bodies
    if not (_headers_valid(np.array(headers, dtype=np.int64))
            and _csi_numbers_valid(numbers)):
        return None
    # Only short integers joined by ',' are left, so numpy's lenient number
    # reader never sees a malformed or trailing item.
    values = np.fromstring(numbers[1:-1], dtype=np.int64, sep=",")
    del numbers
    if values.min() < -128 or values.max() > 127:
        return None
    csi = values.astype(np.float64).view(np.complex128)
    del values
    records = []
    start = 0
    for (timestamp_low, bfee_count, n_rx, n_tx, rssi1, rssi2, rssi3, noise, agc,
         perm1, perm2, perm3, rate_flags) in headers:
        end = start + N_SUBCARRIERS * n_rx * n_tx
        records.append(RawCsiRecord(timestamp_low, bfee_count, n_rx, n_tx,
                                    (rssi1, rssi2, rssi3), noise, agc, (perm1, perm2, perm3),
                                    rate_flags,
                                    csi=csi[start:end].reshape(N_SUBCARRIERS, n_rx, n_tx)))
        start = end
    return records


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


def _line_blocks(text: str):
    """Yield (number of its first line, lines) for each _TEXT_BLOCK_LINES lines.

    The lines are those of split_lines, cut from text one block at a time,
    so no second copy of a whole trace is held.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    for lineno in itertools.count(1, _TEXT_BLOCK_LINES):
        end = start
        for _ in range(_TEXT_BLOCK_LINES):
            end = text.find("\n", end) + 1
            if not end:  # the last block
                yield lineno, text[start:].split("\n")
                return
        yield lineno, text[start : end - 1].split("\n")
        start = end


def split_lines(text: str) -> list[str]:
    """The lines of a text trace, broken only at \\n, \\r\\n and \\r.

    Unlike str.splitlines, which also breaks at \\f, \\x85, U+2028 and more.
    """
    return [line for _, lines in _line_blocks(text) for line in lines]


def parse_text_trace(text: str) -> list[RawCsiRecord]:
    """Parse the text format; SchemaError carries the line number.

    Lines are read _TEXT_BLOCK_LINES at a time.  A block of lines in
    write_text_trace's canonical form is read by _from_canonical_block: a
    regular expression and a bytes.translate per line, then array checks
    and one np.fromstring call for the whole block.  If any line of a block
    is not canonical or fails a check, each of its lines is read alone,
    through _from_canonical_block and, if that fails, with json.loads,
    which raises every error.  So the first faulty line raises, with the
    error it would raise if every line were read with json.loads.
    """
    records = []
    for first, block in _line_blocks(text):
        parsed = _from_canonical_block(block)
        if parsed is None:
            parsed = []
            for lineno, line in enumerate(block, start=first):
                one = _from_canonical_block([line])
                if one is None:
                    record = _from_json_line(line, lineno)
                    one = [] if record is None else [record]
                parsed += one
        records += parsed
    return records
