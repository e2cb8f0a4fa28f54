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
from dataclasses import dataclass, field, replace

import numpy as np

from . import _dectext
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
        return (all(getattr(self, name) == getattr(other, name) for name in _INT_FIELDS)
                and tuple(self.rssi) == tuple(other.rssi)
                and tuple(self.antenna_perm) == tuple(other.antenna_perm)
                and np.array_equal(self.csi, other.csi))

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


#: The header columns of a Capture, in field order.
_COLUMNS = ("timestamp_low", "bfee_count", "rssi", "noise", "agc", "antenna_perm", "rate_flags")


@dataclass(frozen=True, eq=False)
class Capture:
    """A capture of any sequence of records, held as columns.

    Each header column spans all T records: rssi and antenna_perm are
    (T, 3), every other header field (T,).  The csi is held in parts, each
    a run of consecutive records of one (n_rx, n_tx) layout: part i is
    (B_i, 30, n_rx, n_tx), the B_i add up to T, and consecutive parts may
    share a layout.  The parsers and the simulator return a Capture, and
    as_capture turns a list of records into one.

    A Capture is a sequence of RawCsiRecord row views: capture[t] holds
    Python-number header values and a view of its csi, capture[a:b:c] is a
    Capture of views, list(capture) gives a mutable list of records, and a
    Capture equals a list of equal records, either way round.  rssi is
    float only where the records' readouts are (the simulator with quantize
    off); the row view reads the ports past n_rx as the int 0 they must be.
    """

    timestamp_low: np.ndarray
    bfee_count: np.ndarray
    rssi: np.ndarray
    noise: np.ndarray
    agc: np.ndarray
    antenna_perm: np.ndarray
    rate_flags: np.ndarray
    parts: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.agc)

    def __getitem__(self, t):
        if not isinstance(t, slice):
            t = range(len(self))[t]  # raises IndexError past either end
            return next(iter(self[t : t + 1]))
        rows = np.arange(len(self))[t]
        bounds = np.cumsum([0, *map(len, self.parts)])
        part = np.searchsorted(bounds, rows, side="right") - 1  # the part of each row
        parts = tuple(self.parts[part[a]][rows[a] - bounds[part[a]] :: t.step or 1][: b - a]
                      for a, b in _runs(part[:, None]))
        return replace(self, parts=parts, **{name: getattr(self, name)[t] for name in _COLUMNS})

    def __iter__(self):
        header = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        for part in self.parts:
            _, _, n_rx, n_tx = part.shape
            for csi, (stamp, count, rssi, noise, agc, perm, flags) in zip(part, header):
                yield RawCsiRecord(stamp, count, n_rx, n_tx,
                                   (*rssi[:n_rx], *map(int, rssi[n_rx:])),
                                   noise, agc, tuple(perm), flags, csi=csi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Capture, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def blocks(self):
        """Yield (rows, csi) for each part: a slice of the records and their csi."""
        start = 0
        for csi in self.parts:
            yield slice(start, start + len(csi)), csi
            start += len(csi)

    def runs(self):
        """Yield (rows, capture) for each run of consecutive records of one layout.

        rows is the run's slice of the records and capture their Capture:
        column slices and the run's parts.  The parts are walked once for
        all runs, where capture[rows] looks through every part for each
        run; the rows are those of layout_runs.
        """
        start = 0
        for _, run in itertools.groupby(self.parts, key=lambda csi: csi.shape[2:]):
            parts = tuple(run)
            rows = slice(start, start + sum(map(len, parts)))
            yield rows, replace(self, parts=parts,
                                **{name: getattr(self, name)[rows] for name in _COLUMNS})
            start = rows.stop

    def layout(self) -> np.ndarray:
        """Each record's (n_rx, n_tx), read from the parts: (T, 2)."""
        layouts = np.array([csi.shape[2:] for csi in self.parts]).reshape(-1, 2)
        return np.repeat(layouts, [len(csi) for csi in self.parts], axis=0)


def _runs(layout: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal consecutive rows of a (T, k) array."""
    starts = [0, *(np.flatnonzero((layout[1:] != layout[:-1]).any(axis=1)) + 1).tolist()]
    return list(zip(starts, starts[1:] + [len(layout)]))[: len(layout)]  # none if T is 0


def _capture_of(h: np.ndarray, csi: np.ndarray) -> Capture:
    """The Capture of (T, 13) header values h and of their records' csi, flat.

    The header has one column per value of a text line, in _TEXT_FIELDS
    order (rssi and antenna_perm three each).  Each run of its records of
    one layout is a part, a view of csi.
    """
    layout = h[:, 2:4].tolist()
    end = np.cumsum(N_SUBCARRIERS * h[:, 2] * h[:, 3]).tolist()
    parts = tuple(csi[end[a - 1] if a else 0 : end[b - 1]].reshape(b - a, N_SUBCARRIERS, *layout[a])
                  for a, b in _runs(h[:, 2:4]))
    return Capture(h[:, 0], h[:, 1], h[:, 4:7], h[:, 7], h[:, 8], h[:, 9:12], h[:, 12], parts)


def as_capture(records: Capture | list[RawCsiRecord]) -> Capture:
    """records as a Capture: a Capture as it is, a list of records in columns.

    The one place where a list of records, as users build one, becomes a
    Capture.  Its header values are stacked into columns, and each record
    is a part of its own, a view of its csi: no csi is copied, and the
    analysis reads such a capture a record at a time.  Nothing is checked
    here; the writers check what they write.
    """
    if isinstance(records, Capture):
        return records
    return Capture(*(np.array([getattr(r, name) for r in records]) for name in _COLUMNS),
                   tuple(r.csi[None] for r in records))


def common_n_rx(records: Capture | list[RawCsiRecord]) -> int:
    """The n_rx of a non-empty capture whose records all carry the same ports.

    Raises MixedLayout naming the first record whose n_rx differs from
    record 0's.
    """
    n_rx = as_capture(records).layout()[:, 0]
    t = np.argmax(n_rx != n_rx[0])  # the first record of another n_rx, if any
    if n_rx[t] != n_rx[0]:
        raise MixedLayout(f"record {t} has n_rx={n_rx[t]}, record 0 has n_rx={n_rx[0]}")
    return int(n_rx[0])


def layout_runs(records: Capture | list[RawCsiRecord]) -> list[slice]:
    """A slice for each run of consecutive records of one (n_rx, n_tx).

    The records of one run have csi of one shape, so they stack.
    """
    return [slice(a, b) for a, b in _runs(as_capture(records).layout())]


def _checked(records: Capture | list[RawCsiRecord]):
    """Yield the (T, 13) header of a capture of valid records, then its layouts.

    The header has one column per value of a text line, in _TEXT_FIELDS
    order (rssi and antenna_perm three each).  Then (n_rx, n_tx, rows, csi)
    is yielded for each layout: the indices of its records, and their csi
    stacked.  The records of a list pass _validate_header before they are
    stacked, since their columns no longer show a value's Python type.  The
    columns then pass the checks of validate() as arrays: every header at
    once, the CSI one layout at a time.  On any fault every record is
    validated in order, so the first faulty record raises the error its
    validate() raises, even if layouts were already yielded.
    """
    try:
        if not isinstance(records, Capture):
            for record in records:
                record._validate_header()
        capture = as_capture(records)
        layout = capture.layout()
        header = np.column_stack([capture.timestamp_low, capture.bfee_count, layout, capture.rssi,
                                  capture.noise, capture.agc, capture.antenna_perm,
                                  capture.rate_flags]) if len(capture) else np.empty((0, 13), int)
        if not (header.dtype.kind == "i" and _headers_valid(header)
                and all(csi.shape[1] == N_SUBCARRIERS for csi in capture.parts)):
            raise InvariantViolation("a record fails validate()")
        yield header
        parts: dict[tuple, list[np.ndarray]] = {}
        for csi in capture.parts:
            parts.setdefault(csi.shape[2:], []).append(csi)
        for (n_rx, n_tx), same in parts.items():
            csi = np.concatenate(same) if len(same) > 1 else same[0]
            _validate_csi(csi)
            yield n_rx, n_tx, np.flatnonzero((layout == (n_rx, n_tx)).all(axis=1)), csi
    except Exception:  # whatever failed, validate() names the first faulty record
        for record in records:
            record.validate()
        raise


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
    """CSI components of payloads at ``offsets``, int8 (G, 30 * n_rx * n_tx * 2).

    Each row in the order of a (30, n_rx, n_tx, 2) array, as _component_table's.
    """
    lo, shift = _component_table(n_rx, n_tx, perm)
    span = np.arange(csi_payload_len(n_rx, n_tx))
    payload = view[np.asarray(offsets)[:, None] + span].astype(np.uint16)
    word = payload[:, lo + 1]
    word <<= 8
    word |= payload[:, lo]
    word >>= shift
    return word.astype(np.uint8).view(np.int8)


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


def parse_binary_trace(data: bytes) -> Capture:
    """Decode a framed binary trace into a Capture, skipping non-CSI frames.

    Raises TruncatedRecord when a frame claims more bytes than remain,
    LengthMismatch when the declared CSI length disagrees with the layout,
    BadPermutation for an invalid antenna selection byte, and
    InvariantViolation for an n_rx or n_tx out of range or a non-zero RSSI
    past n_rx (docs/FORMATS.md).  All frames are checked in one pass before
    any payload is decoded; the payloads of each (n_rx, n_tx) layout and
    permutation are then decoded together, into one array of every
    record's csi of which each run of records of one layout is a part.
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
        if any((rssi1, rssi2, rssi3)[n_rx:]):
            raise InvariantViolation("rssi of absent ports must be exactly 0")
        index, offsets = groups.setdefault((n_rx, n_tx, perm[:n_rx]), ([], []))
        index.append(len(headers))
        offsets.append(body + _HEADER_BYTES)
        headers.append((timestamp_low, bfee_count, n_rx, n_tx, rssi1, rssi2, rssi3,
                        noise, agc, *perm, rate_flags))

    header = np.array(headers, dtype=np.int64).reshape(-1, 13)
    # Each record's CSI components, in record order, at start in values.
    size = 2 * N_SUBCARRIERS * header[:, 2] * header[:, 3]
    start = np.cumsum(size) - size
    values = np.empty(int(size.sum()))
    for layout, (index, offsets) in groups.items():
        components = _unpack_group(np.frombuffer(data, np.uint8), offsets, *layout)
        values[start[index, None] + np.arange(components.shape[1])] = components
    return _capture_of(header, values.view(np.complex128))


def encode_binary_trace(records: Capture | list[RawCsiRecord]) -> bytes:
    """Exact inverse of parse_binary_trace at the record level.

    The payloads of each (n_rx, n_tx) layout and permutation are packed
    together, then placed in the frames of their records.
    """
    checked = _checked(records)
    header = next(checked)
    size = csi_payload_len(header[:, 2], header[:, 3])
    start = np.cumsum(3 + _HEADER_BYTES + size) - size  # of each payload
    out = np.zeros(int((3 + _HEADER_BYTES + size).sum()), dtype=np.uint8)
    for at, payload_len, h in zip(start.tolist(), size.tolist(), header.tolist()):
        frame_len = 1 + _HEADER_BYTES + payload_len
        _FRAME_AND_HEADER.pack_into(
            out, at - 3 - _HEADER_BYTES, frame_len >> 8, frame_len & 0xFF, CSI_RECORD_CODE,
            *h[:9], h[9] | (h[10] << 2) | (h[11] << 4), payload_len, h[12])
    for n_rx, n_tx, rows, csi in checked:
        components = np.stack([csi.real, csi.imag], axis=-1).astype(np.int8)
        # antenna_sel of the first n_rx entries of antenna_perm: the key of one packing.
        sel = header[rows, 9] | header[rows, 10] << 2 | header[rows, 11] << 4
        prefix = sel & ((1 << 2 * n_rx) - 1)
        for code in set(prefix.tolist()):
            group = prefix == code
            payload = _pack_group(components[group], n_rx, n_tx, _decode_perm(code)[:n_rx])
            out[start[rows[group], None] + np.arange(payload.shape[1])] = payload
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


#: A canonical line up to its CSI body, as a %-template of the header values
#: in _TEXT_FIELDS order (rssi and antenna_perm as three values each) and the
#: body.  Filled with Python ints and the body that _csi_words gives, it is
#: json.dumps with separators=(",", ":") of the record's object, keys in
#: that order.
_LINE_TEMPLATE = ('{"timestamp_low":%d,"bfee_count":%d,"n_rx":%d,"n_tx":%d,"rssi":[%d,%d,%d],'
                  '"noise":%d,"agc":%d,"antenna_perm":[%d,%d,%d],"rate_flags":%d,"csi":[%s\n')


@functools.lru_cache(maxsize=None)
def _csi_words() -> np.ndarray:
    """The text of a CSI component as a uint64 word, NUL-padded.

    Entry v + 128 is ',[' and the real part v, then ','; entry 384 + v the
    imaginary part v, then ']'.  The CSI body of a line is the words of
    its pairs in order, without the first byte, then the word of ']}\\n'.
    Built from the int8 text of _dectext.integers on first use.
    """
    words = np.zeros((2, 256, 8), dtype=np.uint8)
    text = _dectext.integers(np.arange(-128, 128))
    words[0, :, :2] = np.frombuffer(b",[", dtype=np.uint8)
    words[0, :, 2:6] = text
    words[0, :, 6] = ord(",")
    words[1, :, :4] = text
    words[1, :, 4] = ord("]")
    table = words.view(np.uint64).ravel()
    table.flags.writeable = False  # shared by every caller through the cache
    return table


#: Where _csi_words() holds a real and an imaginary part of value 0.
_CSI_WORD_OFFSETS = np.array([128.0, 384.0])
#: The end of a CSI body, after its last pair, as a word.
_CSI_END = np.frombuffer(b"]}\n\0\0\0\0\0", dtype=np.uint64)[0]


#: Lines read at a time by parse_text_trace, and written at a time by
#: write_text_trace.  A block's CSI text is held several times over while
#: it is read, as bytes and as byte masks, and as text words while it is
#: written.  Reading a 2000-line trace 256 lines at a time
#: raised the parse's traced peak memory by 0.4-0.7 MiB over reading one
#: line at a time; 64 lines at a time, as fast, by about 0.1 MiB.
_TEXT_BLOCK_LINES = 64


def write_text_trace(records: Capture | list[RawCsiRecord]) -> str:
    """Serialize a capture to the canonical JSON-lines text format.

    Each layout's lines are formatted _TEXT_BLOCK_LINES at a time from the
    capture's columns: the CSI bodies of a block as one array of text
    words, whose NUL bytes one bytes.translate drops, and each line's
    header values through _LINE_TEMPLATE.
    """
    checked = _checked(records)
    header = next(checked)
    lines = [""] * len(header)
    words = _csi_words()
    for _, _, rows, csi in checked:
        for a in range(0, len(rows), _TEXT_BLOCK_LINES):
            block = rows[a : a + _TEXT_BLOCK_LINES]
            # csi[k, port, t] as (re, im) pairs, subcarrier-major: one row per record.
            values = np.ascontiguousarray(csi[a : a + len(block)], dtype=np.complex128)
            values = values.view(np.float64).reshape(len(block), -1, 2)
            body = np.empty((len(block), 2 * values.shape[1] + 1), dtype=np.uint64)
            body[:, :-1] = words.take((values + _CSI_WORD_OFFSETS).astype(np.intp)).reshape(
                len(block), -1)
            body[:, -1] = _CSI_END
            body.view(np.uint8)[:, 0] = 0  # the ',' before the first pair
            text = body.tobytes().translate(None, b"\0").decode("ascii").split("\n")
            for i, h, csi_text in zip(block.tolist(), header[block].tolist(), text):
                lines[i] = _LINE_TEMPLATE % (*h, csi_text)
    return "".join(lines)


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


def _from_canonical_block(lines: list[str]) -> Capture | None:
    """The Capture of lines in write_text_trace's form.

    Empty lines are skipped.  None if any other line is not in that form,
    or if any check fails.
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
        return _capture_of(np.empty((0, 13), dtype=np.int64), np.empty(0, np.complex128))
    # Each body is now numbers, if any, between ',' and '],[' in the canonical
    # order.  With every '],[' made ',' and a ',' at each end, the bodies
    # are well-formed exactly when the result is ',' + numbers joined by
    # ',' + ',': a bracket left over, or a body that starts or ends without
    # a number, breaks that.
    numbers = b",".join([b"", *bodies, b""]).replace(b"],[", b",")
    del bodies
    header = np.array(headers, dtype=np.int64)
    if not (_headers_valid(header) and _csi_numbers_valid(numbers)):
        return None
    # Only short integers joined by ',' are left, so numpy's lenient number
    # reader never sees a malformed or trailing item.
    values = np.fromstring(numbers[1:-1], dtype=np.int64, sep=",")
    del numbers
    if values.min() < -128 or values.max() > 127:
        return None
    return _capture_of(header, values.astype(np.float64).view(np.complex128))


def _from_json_line(line: str, lineno: int) -> Capture:
    """The Capture of any JSON object line, of no record for a blank line.

    Raises SchemaError, with the line number, for every other line.
    """
    if not line.strip():
        return _from_canonical_block([])
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
            raise SchemaError(lineno, f"csi has {len(pairs)} entries, "
                                      f"expected {N_SUBCARRIERS * n_rx * n_tx}")
        if not all(type(real) is int and type(imag) is int for real, imag in pairs):
            raise SchemaError(lineno, "csi components must be JSON integers")
        flat = np.array([complex(real, imag) for real, imag in pairs], dtype=np.complex128)
        record = RawCsiRecord(
            **ints, rssi=tuple(_json_int(r, "rssi", lineno) for r in obj["rssi"]),
            antenna_perm=tuple(_json_int(p, "antenna_perm", lineno) for p in obj["antenna_perm"]),
            csi=flat.reshape(N_SUBCARRIERS, n_rx, n_tx))
        record.validate()
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError, InvariantViolation) as exc:
        raise SchemaError(lineno, str(exc)) from exc
    return as_capture([record])


def _line_blocks(text: str):
    """Yield (number of its first line, lines) for each _TEXT_BLOCK_LINES lines.

    The lines are those of split_lines, cut from text one block at a time,
    so no second copy of a whole trace is held.  A block ends at its
    _TEXT_BLOCK_LINES-th \\n, or \\r in a text with no \\n; only then are
    its \\r\\n and \\r made \\n, so a block may hold more lines.
    """
    cut = "\n" if "\n" in text else "\r"
    start, lineno = 0, 1
    while True:
        end = start
        for _ in range(_TEXT_BLOCK_LINES):
            end = text.find(cut, end) + 1
            if not end:  # the last block
                break
        lines = text[start : end or None].replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not end:
            yield lineno, lines
            return
        yield lineno, lines[:-1]  # the empty text after the block's last break
        start, lineno = end, lineno + len(lines) - 1


def split_lines(text: str) -> list[str]:
    """The lines of a text trace, broken only at \\n, \\r\\n and \\r.

    Unlike str.splitlines, which also breaks at \\f, \\x85, U+2028 and more.
    """
    return [line for _, lines in _line_blocks(text) for line in lines]


def parse_text_trace(text: str) -> Capture:
    """Parse the text format into a Capture; SchemaError carries the line number.

    Lines are read _TEXT_BLOCK_LINES at a time.  A block of lines in
    write_text_trace's canonical form is read by _from_canonical_block: a
    regular expression and a bytes.translate per line, then array checks
    and one np.fromstring call for the whole block.  If any line of a block
    is not canonical or fails a check, each of its lines is read alone,
    through _from_canonical_block and, if that fails, with json.loads,
    which raises every error.  So the first faulty line raises, with the
    error it would raise if every line were read with json.loads.  Each
    block's header values and csi become columns as they are read: each
    run of its records of one layout is a part of the Capture, a view of
    the block's csi.
    """
    blocks = []
    for first, lines in _line_blocks(text):
        block = _from_canonical_block(lines)
        if block is not None:
            blocks.append(block)
            continue
        for lineno, line in enumerate(lines, start=first):
            block = _from_canonical_block([line])
            blocks.append(_from_json_line(line, lineno) if block is None else block)
    return Capture(*(np.concatenate([getattr(b, name) for b in blocks]) for name in _COLUMNS),
                   tuple(csi for b in blocks for csi in b.parts))
