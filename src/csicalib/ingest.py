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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _dectext
from .errors import (
    ConfigError,
    InsufficientData,
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
        """Raise InvariantViolation with the message of the record's first fault.

        The checks, in docs/FORMATS.md's "Record checks and their order",
        are those the writers run on every record they write.
        """
        for _ in _checked([self]):
            pass


#: The keys of a text line, in order: RawCsiRecord's fields.
_TEXT_FIELDS = tuple(f.name for f in fields(RawCsiRecord))
#: Header fields held as Python ints; rssi and antenna_perm hold ints too.
_INT_FIELDS = tuple(f.name for f in fields(RawCsiRecord) if f.type == "int")


def _record_fault(record: RawCsiRecord) -> str | None:
    """The message of the first check that only a record, not an array, can fail.

    The header values and the rssi and antenna_perm entries must be Python
    ints, as the text parser reads them: the binary encoder would truncate
    a float, and json fails on a numpy integer.  rssi and antenna_perm must
    hold three values, which a value whose len() raises (an int, a 0-d
    numpy array) does not, and the csi must have the shape of n_rx and
    n_tx.  None if the record passes.
    """
    for name in _INT_FIELDS:
        value = getattr(record, name)
        if type(value) is not int:
            return f"{name} must be an int, got {type(value).__name__}"
    for name, rule in (("rssi", 4), ("antenna_perm", 8)):
        # Not three values breaks the rule on their range.
        try:
            three = len(values := getattr(record, name)) == 3
        except TypeError:  # no len(), or one that raises, as a 0-d numpy array's
            three = False
        if not three:
            return _HEADER_RULES[rule][0]
        for value in values:
            if type(value) is not int:
                return f"{name} entries must be ints, got {type(value).__name__}"
    if record.csi.shape != (N_SUBCARRIERS, record.n_rx, record.n_tx):
        return (f"csi shape {record.csi.shape} does not match "
                f"(30, {record.n_rx}, {record.n_tx})")


# --- record rules --------------------------------------------------------------
#
# A (T, 13) header holds one row of values per record, in _TEXT_FIELDS order
# with rssi and antenna_perm as three columns each.

#: The range of each header column.
_LOW = np.array((0, 0, 1, 1, 0, 0, 0, -128, 0, 0, 0, 0, 0))
_HIGH = np.array((2**32 - 1, 2**16 - 1, 3, 3, 255, 255, 255, 127, 255, 3, 3, 3, 2**16 - 1))

#: The header rules of a record, in the order they are checked: each
#: message, and the columns of _header_faults' fault matrix that break it.
#: Columns 0..12 hold a header column out of its range, 13 a non-zero rssi
#: past n_rx and 14 a first n_rx antenna_perm entries that are not a
#: permutation of 0..n_rx-1.  The last two read n_rx and antenna_perm,
#: which are valid only in rows that pass the rules on their ranges, so
#: those come first.
_HEADER_RULES = (
    ("n_rx and n_tx must be in 1..3", [2, 3]),
    ("timestamp_low out of u32 range", [0]),
    ("bfee_count out of u16 range", [1]),
    ("rate_flags out of u16 range", [12]),
    ("rssi must be three values in 0..255", [4, 5, 6]),
    ("rssi of absent ports must be exactly 0", [13]),
    ("noise out of i8 range", [7]),
    ("agc out of u8 range", [8]),
    ("antenna_perm must be three 2-bit values", [9, 10, 11]),
    ("antenna_perm prefix is not a permutation", [14]),
)

#: The CSI rules of a record, checked after its header rules: each message,
#: and its column of _csi_faults' fault matrix.
_CSI_RULES = (("csi components must be integer-valued", [0]),
              ("csi components must lie in [-128, 127]", [1]))


def _first_fault(broken: np.ndarray, rules) -> tuple[int, str] | None:
    """(row, message) of the first row of a (T, k) fault matrix with a fault.

    The message is that of the first of rules whose columns hold a fault
    in that row; None if no row has one.
    """
    if not broken.any():
        return None
    row = int(broken.any(axis=1).argmax())
    return row, next(message for message, cols in rules if broken[row, cols].any())


def _header_faults(h: np.ndarray) -> tuple[int, str] | None:
    """(row, message) of the first row of a (T, 13) header that breaks a header rule."""
    past = np.arange(3) >= h[:, 2:3]  # the ports past n_rx
    # The first n_rx entries of antenna_perm are a permutation of 0..n_rx-1
    # exactly when they cover those n_rx values.
    covered = np.bitwise_or.reduce(np.where(past, 0, 1 << h[:, 9:12]), axis=1)
    return _first_fault(np.column_stack([(h < _LOW) | (h > _HIGH),
                                         (past & (h[:, 4:7] != 0)).any(axis=1),
                                         covered != (1 << h[:, 2]) - 1]), _HEADER_RULES)


def _csi_faults(csi: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first record of a (B, 30, n_rx, n_tx) stack that breaks a CSI rule."""
    # Each record's real and imaginary parts in a row; NaN never compares equal.
    parts = np.ascontiguousarray(csi, dtype=complex).view(float).reshape(len(csi), -1)
    broken = (parts != np.rint(parts), (parts < -128) | (parts > 127))
    return _first_fault(np.column_stack([b.any(axis=1) for b in broken]), _CSI_RULES)


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
        run.
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


#: The header columns of a Capture, in field order.
_COLUMNS = tuple(f.name for f in fields(Capture) if f.name != "parts")


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
    Capture.  Its header values are stacked into columns, and each run of
    consecutive records of one csi shape is a part: the run's csi stacked,
    a copy, or for a run of one record a view of its csi.  The analysis
    then reads the list a run at a time, as it reads a parsed Capture.
    Nothing is checked here; the writers check what they write.
    """
    if isinstance(records, Capture):
        return records
    runs = [list(run) for _, run in itertools.groupby(records, key=lambda r: r.csi.shape)]
    return Capture(*(np.array([getattr(r, name) for r in records]) for name in _COLUMNS),
                   tuple(np.stack([r.csi for r in run]) if len(run) > 1 else run[0].csi[None]
                         for run in runs))


def common_n_rx(records: Capture | list[RawCsiRecord]) -> int:
    """The n_rx of a non-empty capture whose records all carry the same ports.

    Raises InsufficientData for a capture of no record, and MixedLayout
    naming the first record whose n_rx differs from record 0's.
    """
    if not len(records):
        raise InsufficientData("need at least one record")
    n_rx = as_capture(records).layout()[:, 0]
    t = np.argmax(n_rx != n_rx[0])  # the first record of another n_rx, if any
    if n_rx[t] != n_rx[0]:
        raise MixedLayout(f"record {t} has n_rx={n_rx[t]}, record 0 has n_rx={n_rx[0]}")
    return int(n_rx[0])


def _part_shapes(capture: Capture) -> np.ndarray:
    """The shape of each part of a capture: (P, 4)."""
    return np.fromiter(itertools.chain.from_iterable(csi.shape for csi in capture.parts),
                       dtype=np.intp).reshape(-1, 4)


def _checked(records: Capture | list[RawCsiRecord]):
    """Yield the (T, 13) header of a capture of valid records, then its layouts.

    The header has one column per value of a text line, in _TEXT_FIELDS
    order (rssi and antenna_perm three each).  Then (n_rx, n_tx, rows, csi)
    is yielded for each layout: the indices of its records, and their csi
    stacked.  Each check runs once over the capture and keeps the first
    fault it finds: _record_fault up to the first record that fails it,
    then the header rules over the header of the records before that one,
    then the CSI rules one layout at a time.  Once a fault is found nothing
    more is yielded, and after the last layout the fault of the first
    faulty record raises InvariantViolation: the error its validate()
    raises.
    """
    suspects = range(len(records))
    if isinstance(records, Capture):
        # A column's dtype is the type of each row's value, and a part's
        # shape each row's csi shape.
        shapes = _part_shapes(records)
        suspects = [] if {getattr(records, name).dtype.kind for name in _COLUMNS} <= {"i", "u"} else [0]
        suspects += (np.cumsum(shapes[:, 0]) - shapes[:, 0])[shapes[:, 1] != N_SUBCARRIERS].tolist()
    fault = next(((t, m) for t in suspects if (m := _record_fault(records[t]))), None)
    capture = as_capture(records[: fault[0]] if fault else records)
    # A list's records are stacked here, and a capture cut at a fault.
    shapes = shapes if capture is records else _part_shapes(capture)
    # Python ints past int64 leave a list's columns of another dtype.  Bounded
    # to -129..2**32, which holds every rule's range, a value breaks the rules
    # it broke.  Columns of no record stack to (0, 9).
    columns = [capture.timestamp_low, capture.bfee_count, np.repeat(shapes[:, 2:], shapes[:, 0], 0),
               capture.rssi, capture.noise, capture.agc, capture.antenna_perm, capture.rate_flags]
    header = np.column_stack(columns).reshape(-1, 13).clip(-129, 2**32).astype(np.int64, copy=False)
    fault = _header_faults(header) or fault
    if fault is None:
        yield header
    # Each part's layout as one number, and the group of its layout; the
    # layouts are taken in the order they first appear.
    key = shapes[:, 2] * (shapes[:, 3].max(initial=0) + 1) + shapes[:, 3]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    row_group = np.repeat(group, shapes[:, 0])
    for g in np.argsort(first).tolist():
        same = [capture.parts[p] for p in np.flatnonzero(group == g).tolist()]
        csi = np.concatenate(same) if len(same) > 1 else same[0]
        _, _, n_rx, n_tx = csi.shape
        rows = np.flatnonzero(row_group == g)
        if (csi_fault := _csi_faults(csi)) and (fault is None or rows[csi_fault[0]] < fault[0]):
            fault = int(rows[csi_fault[0]]), csi_fault[1]
        if fault is None:
            yield n_rx, n_tx, rows, csi
    if fault:
        raise InvariantViolation(fault[1])


# --- binary format -----------------------------------------------------------

#: A frame's first bytes: the frame length (big-endian) and the code, then
#: the 20-byte record header, little-endian, with two reserved bytes.
_FRAME = np.dtype([("frame_len", ">u2"), ("code", "u1"), ("timestamp_low", "<u4"),
                   ("bfee_count", "<u2"), ("reserved", "V2"), ("n_rx", "u1"), ("n_tx", "u1"),
                   ("rssi", "u1", 3), ("noise", "i1"), ("agc", "u1"), ("antenna_sel", "u1"),
                   ("payload_len", "<u2"), ("rate_flags", "<u2")])
#: The columns of a (T, 13) header that each field of a frame holds; the
#: two-bit antenna_perm entries, columns 9..11, are packed in antenna_sel.
_FRAME_COLUMNS = {"timestamp_low": 0, "bfee_count": 1, "n_rx": 2, "n_tx": 3,
                  "rssi": slice(4, 7), "noise": 7, "agc": 8, "rate_flags": 12}
_PERM_SHIFTS = np.array([0, 2, 4])


@functools.lru_cache(maxsize=None)
def _component_table(n_rx: int, n_tx: int, sel: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each 8-bit CSI component lies in the payload of one layout.

    sel is the antenna_sel of the first n_rx entries of antenna_perm, its
    low 2 * n_rx bits.  Components are taken in the order of a
    (30, n_rx, n_tx, 2) array: csi[k, port, t], real before imaginary.
    Returns (lo, shift): a component is bits shift..shift+7 of the
    little-endian byte pair payload[lo], payload[lo + 1].  The last
    component starts at bit 2 of its byte, so lo + 1 never reaches past
    the payload.
    """
    per_sc = 2 * n_rx * n_tx
    k = np.arange(N_SUBCARRIERS).reshape(-1, 1, 1, 1)
    j = np.arange(per_sc).reshape(n_rx, n_tx, 2)
    # In the payload each subcarrier skips 3 bits, then runs over streams.
    stream_bits = 3 * (k + 1) + 8 * (per_sc * k + j)
    bitpos = np.empty_like(stream_bits)
    # Stream s landed on port antenna_perm[s].
    bitpos[:, sel >> _PERM_SHIFTS[:n_rx] & 3] = stream_bits
    bitpos = bitpos.reshape(-1)
    lo, shift = bitpos // 8, (bitpos % 8).astype(np.uint16)
    # Shared by every caller through the cache (at most 27 entries).
    lo.flags.writeable = shift.flags.writeable = False
    return lo, shift


def _unpack_group(view: np.ndarray, offsets: np.ndarray, n_rx: int, n_tx: int,
                  sel: int) -> np.ndarray:
    """CSI components of payloads at ``offsets``, int8 (G, 30 * n_rx * n_tx * 2).

    Each row in the order of a (30, n_rx, n_tx, 2) array, as _component_table's.
    """
    lo, shift = _component_table(n_rx, n_tx, sel)
    span = np.arange(csi_payload_len(n_rx, n_tx))
    payload = view[offsets[:, None] + span].astype(np.uint16)
    word = payload[:, lo + 1]
    word <<= 8
    word |= payload[:, lo]
    word >>= shift
    return word.astype(np.uint8).view(np.int8)


def _pack_group(components: np.ndarray, n_rx: int, n_tx: int, sel: int) -> np.ndarray:
    """Inverse of _unpack_group: uint8 payloads (G, payload_len)."""
    lo, shift = _component_table(n_rx, n_tx, sel)
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

    A loop walks the frame offsets, and raises TruncatedRecord for dangling
    bytes or a frame past the input.  The frames' first bytes are then read
    as one array through _FRAME.  Of the CSI frames, the first with a body
    shorter than the header or a payload cut short raises TruncatedRecord,
    and the first whose declared CSI length disagrees with its layout
    LengthMismatch.  Each CSI frame's header row counts as read once its
    body holds the header, and the header rules of the record checks run
    over the rows read up to that first fault: the first faulty row raises
    InvariantViolation with the rule's message, as validate() and the text
    parser do.  So where the frames stop at a fault, a header fault of that
    frame or an earlier one comes first (docs/FORMATS.md).  No payload is
    decoded before every header passes; the payloads of each (n_rx, n_tx)
    layout and permutation are then decoded together, into one array of
    every record's csi of which each run of records of one layout is a part.
    """
    starts, off, total = [], 0, len(data)
    stop = None  # the fault that ends the frames read
    while off < total:
        if total - off < 3:
            stop = TruncatedRecord(f"dangling {total - off} byte(s) at offset {off}")
            break
        end = off + 2 + (data[off] << 8 | data[off + 1])
        if end == off + 2 or end > total:
            stop = TruncatedRecord(f"frame at offset {off} exceeds input")
            break
        starts.append(off)
        off = end
    view = np.frombuffer(data, np.uint8)
    at = np.array(starts, dtype=np.intp)
    at = at[view[at + 2] == CSI_RECORD_CODE]  # the CSI frames
    # Bytes past the input, read as its last byte, lie in no header that is used.
    frames = view[np.minimum(at[:, None] + np.arange(_FRAME.itemsize), total - 1)]
    frames = frames.view(_FRAME)[:, 0]
    frame_len, declared, n_rx, n_tx = (frames[name].astype(np.intp)
                                       for name in ("frame_len", "payload_len", "n_rx", "n_tx"))
    expected = csi_payload_len(n_rx, n_tx)
    short, mismatch = frame_len < 1 + _HEADER_BYTES, declared != expected
    if (faulty := short | mismatch | (frame_len < 1 + _HEADER_BYTES + declared)).any():
        i = int(faulty.argmax())
        stop = (TruncatedRecord("record body shorter than fixed header") if short[i] else
                LengthMismatch(f"declared {declared[i]}, computed {expected[i]}") if mismatch[i]
                else TruncatedRecord("CSI payload cut short"))
        frames = frames[: i + (not short[i])]  # the frames whose header is read
    header = np.empty((len(frames), 13), dtype=np.int64)
    for name, col in _FRAME_COLUMNS.items():
        header[:, col] = frames[name]
    header[:, 9:12] = frames["antenna_sel"][:, None] >> _PERM_SHIFTS & 3
    if fault := _header_faults(header):
        raise InvariantViolation(fault[1])
    if stop:
        raise stop
    # Each record's CSI components, in record order, at start in values.
    size = 2 * N_SUBCARRIERS * n_rx * n_tx
    start = np.cumsum(size) - size
    values = np.empty(int(size.sum()))
    # The key of a packing: n_rx, n_tx and the antenna_sel of the first n_rx
    # entries of antenna_perm.
    key = n_rx << 8 | n_tx << 6 | (frames["antenna_sel"] & (1 << 2 * n_rx) - 1)
    for k in np.unique(key).tolist():
        index = np.flatnonzero(key == k)
        components = _unpack_group(view, at[index] + 3 + _HEADER_BYTES, k >> 8, k >> 6 & 3, k & 63)
        values[start[index, None] + np.arange(components.shape[1])] = components
    return _capture_of(header, values.view(np.complex128))


def encode_binary_trace(records: Capture | list[RawCsiRecord]) -> bytes:
    """Exact inverse of parse_binary_trace at the record level.

    Every frame's first bytes are filled as one _FRAME array and placed in
    one step; the payloads of each (n_rx, n_tx) layout and permutation are
    packed together, then placed in the frames of their records.
    """
    checked = _checked(records)
    header = next(checked)
    size = csi_payload_len(header[:, 2], header[:, 3])
    start = np.cumsum(_FRAME.itemsize + size) - size  # of each payload
    out = np.zeros(int((_FRAME.itemsize + size).sum()), dtype=np.uint8)
    frames = np.zeros(len(header), _FRAME)
    frames["frame_len"] = 1 + _HEADER_BYTES + size
    frames["code"] = CSI_RECORD_CODE
    for name, col in _FRAME_COLUMNS.items():
        frames[name] = header[:, col]
    frames["antenna_sel"] = np.bitwise_or.reduce(header[:, 9:12] << _PERM_SHIFTS, axis=1)
    frames["payload_len"] = size
    out[start[:, None] + np.arange(-_FRAME.itemsize, 0)] = frames[:, None].view(np.uint8)
    for n_rx, n_tx, rows, csi in checked:
        components = np.ascontiguousarray(csi, dtype=np.complex128).view(np.float64).astype(np.int8)
        # antenna_sel of the first n_rx entries of antenna_perm: the key of one packing.
        prefix = frames["antenna_sel"][rows] & ((1 << 2 * n_rx) - 1)
        for code in set(prefix.tolist()):
            group = prefix == code
            payload = _pack_group(components[group], n_rx, n_tx, code)
            out[start[rows[group], None] + np.arange(payload.shape[1])] = payload
    return out.tobytes()


# --- text format -------------------------------------------------------------

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
#: it is read: as bytes, as a byte mask, and as a uint32 at each byte,
#: four bytes a byte, which the take of the numbers' codes copies out; and
#: as text words while it is written.  On a 2000-line 3x1 trace the
#: parse's traced peak lay 0.39 MiB above its result at 64 lines a time,
#: 0.62 MiB at 128 and 1.16 MiB at 256.
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

    Built from _LINE_TEMPLATE: its text around the 13 header values, up to
    the first pair's '['.  Its groups are the header values; the CSI body
    is the text between its end and the closing ']]}'.  Integers follow
    JSON's grammar, and a header integer has at most 10 digits (a u32 has
    10), so numpy only ever reads short, well-formed numbers.  n_rx and
    n_tx are 1..3, so _group_middles only ever builds a short text.
    Compiled on first use, to keep it out of the import time.
    """
    texts = _LINE_TEMPLATE.replace("%s\n", "[").split("%d")
    groups = [r"(-?(?:[1-9][0-9]{0,9}|0))"] * 13
    groups[2:4] = [r"([1-3])"] * 2  # n_rx and n_tx
    return re.compile("".join(re.escape(t) + g for t, g in zip(texts, [*groups, ""]))).match


@functools.lru_cache(maxsize=None)
def _group_middles(n_pairs: int) -> bytes:
    """The byte between ']' and '[' before each pair of a canonical CSI body."""
    return b"\n" + b"," * (n_pairs - 1)


#: The multiplier that takes each CSI component text to a slot of its own
#: among 4096: the top 12 bits of its code times this, as a wrapped uint32.
_SLOT_MULTIPLIER = np.uint32(958393)
#: By the size of a text, 0..4 bytes: the bits of its code that hold it.
_CODE_MASKS = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def _component_slots() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(code, size, value) of each of the 4096 slots of the CSI component texts.

    The texts are the 257 that a canonical line's components may be:
    '-128'..'127', and '-0', which JSON reads as 0.  A text's code is its
    bytes as a little-endian integer, and no two texts share a slot.  An
    empty slot has size 0 and code 0xFFFFFFFF, which a text of size 0, of
    code 0, does not have.  Built on first use, to keep it out of the
    import time.
    """
    texts = [str(v) for v in range(-128, 128)] + ["-0"]
    codes = np.array([int.from_bytes(t.encode(), "little") for t in texts], dtype=np.uint32)
    slots = np.full(4096, 0xFFFFFFFF, np.uint32), np.zeros(4096, np.intp), np.zeros(4096)
    for column, entries in zip(slots, (codes, list(map(len, texts)), list(map(int, texts)))):
        column[codes * _SLOT_MULTIPLIER >> 20] = entries
        column.flags.writeable = False  # shared by every caller through the cache
    return slots


def _from_canonical_block(lines: list[str]) -> Capture | None:
    """The Capture of lines in write_text_trace's form.

    Empty lines are skipped.  None if any other line is not in that form,
    or if any check fails.
    Per line, the head regular expression reads the header values, and the
    CSI body is the text up to the closing ']]}'.  The bodies are then read
    as one text, with array operations over all of it: one pass finds
    where each number starts, gathers check the bytes between the numbers,
    and each number is looked up in the table of the 257 component texts.
    """
    head = _canonical_head()
    headers, bodies = [], []
    for line in lines:
        if not line:
            continue
        match = head(line)
        if match is None or not line.endswith("]]}"):
            return None
        headers.append(match.groups())
        bodies.append(line[match.end():-3])
    header = np.array(headers, dtype=np.int64).reshape(-1, 13)
    del headers
    pairs = (N_SUBCARRIERS * header[:, 2] * header[:, 3]).tolist()
    # Each body after ']\n[', the text between the last pair of one line
    # and the first of the next, and one more after the last body.
    text = "]\n[".join(["", *bodies, ""])
    del bodies
    # A canonical line is ASCII, which also makes encode() safe: a lone
    # surrogate would raise there.
    if _header_faults(header) or not text.isascii():
        return None
    data = text.encode()
    del text
    b = np.frombuffer(data, dtype=np.uint8)
    # The bytes of a number lie in '-'..'9' (so do '.' and '/', which no
    # component text holds), and a part starts at each such byte after one
    # that is not: the first at byte 3, after the first ']\n['.
    sep = b - np.uint8(ord("-"))
    sep = np.greater(sep, ord("9") - ord("-"), out=sep.view(bool))
    start = np.flatnonzero(sep[:-1] > sep[1:])
    del sep
    start += 1
    if len(start) != 2 * sum(pairs) or (start[:1] != 3).any():
        return None
    # Before each pair lie ']', then '\n' at a line's first pair and ','
    # at the others, then '['; between its two parts lies ','.
    real = start[0::2] - 3
    if not ((b.take(real) == ord("]")).all()
            and b.take(real + 1).tobytes() == b"".join(map(_group_middles, pairs))
            and b.take(start - 1).tobytes() == b"[," * sum(pairs)):
        return None
    del real
    # So a real part ends one byte before the next part starts, and an
    # imaginary part three, and the bodies are canonical exactly when each
    # part is a component text.  A part's code is its bytes, and the bytes
    # after them up to four, as a little-endian uint32: the data ends with
    # ']\n[', so no four bytes from a part reach past it.
    code = np.ndarray(len(data) - 3, "<u4", data, strides=(1,)).take(start)
    size = np.diff(start, append=len(data))
    del start
    size[0::2] -= 1
    size[1::2] -= 3
    found, values = _components(code, size)
    return _capture_of(header, values.view(complex)) if found.all() else None


def _components(code: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each text is one of the 257 CSI component texts, and its value if it is.

    A text is given by its size and its code: its bytes, and the bytes
    after them up to four, as a little-endian uint32, which is masked here
    to its size, in place.  A masked code reads a NUL byte at a text's end
    as no byte, so the size must match too.  A size out of 1..4 takes the
    mask of 0 or 4 bytes, and then matches no slot's size.
    """
    code &= _CODE_MASKS.take(size, mode="clip")
    slot = (code * _SLOT_MULTIPLIER >> 20).astype(np.intp)
    codes, sizes, values = _component_slots()
    return (codes.take(slot) == code) & (sizes.take(slot) == size), values.take(slot)


def _from_json_block(lines: list[str], first: int) -> Capture:
    """The Capture of any JSON object lines, numbered from first; blank lines are skipped.

    Each line is read with json.loads into its 13 header values, in
    _TEXT_FIELDS order, and its flat csi.  The line's types and lengths are
    checked as it is read, then its row passes the header and CSI rules, so
    the first faulty line raises SchemaError with its line number.
    """
    headers, flats = [], [np.empty(0, np.complex128)]
    for lineno, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except RecursionError as exc:
            raise SchemaError(lineno, "JSON nested too deeply") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer longer than int() converts
            raise SchemaError(lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        if not isinstance(obj, dict):
            raise SchemaError(lineno, "record must be a JSON object")
        if missing := [f for f in _TEXT_FIELDS if f not in obj]:
            raise SchemaError(lineno, f"missing fields: {', '.join(missing)}")
        try:
            ints = [_json_int(obj[name], name, lineno) for name in _INT_FIELDS]
            pairs, size = obj["csi"], N_SUBCARRIERS * ints[2] * ints[3]
            if len(pairs) != size:
                raise SchemaError(lineno, f"csi has {len(pairs)} entries, expected {size}")
            if not all(type(real) is int and type(imag) is int for real, imag in pairs):
                raise SchemaError(lineno, "csi components must be JSON integers")
            flat = np.array([complex(real, imag) for real, imag in pairs], dtype=np.complex128)
            rssi = [_json_int(r, "rssi", lineno) for r in obj["rssi"]]
            perm = [_json_int(p, "antenna_perm", lineno) for p in obj["antenna_perm"]]
            csi = flat.reshape(N_SUBCARRIERS, *ints[2:4])
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise SchemaError(lineno, str(exc)) from exc
        if len(rssi) != 3 or len(perm) != 3:  # not three values breaks their range rule
            raise SchemaError(lineno, _HEADER_RULES[4 if len(rssi) != 3 else 8][0])
        header = [*ints[:4], *rssi, *ints[4:6], *perm, ints[6]]
        # Bounded to -129..2**32 as _checked bounds them, the values break the
        # rules they broke.
        row = np.array([[min(max(v, -129), 2**32) for v in header]])
        if fault := _header_faults(row) or _csi_faults(csi[None]):
            raise SchemaError(lineno, fault[1])
        headers.append(header)
        flats.append(flat)
    return _capture_of(np.array(headers, dtype=np.int64).reshape(-1, 13), np.concatenate(flats))


def _line_blocks(text: str):
    """Yield (number of its first line, lines) for each _TEXT_BLOCK_LINES lines.

    The lines are those of split_lines, cut from text one block at a time,
    so no second copy of a whole trace is held.  A block ends at its
    _TEXT_BLOCK_LINES-th \\n, or \\r in a text with no \\n; only then are
    its \\r\\n and \\r made \\n, so a block may hold more lines.  A block
    with no \\r is not rewritten: finding none costs less than a replace.
    """
    cut = "\n" if "\n" in text else "\r"
    start, lineno = 0, 1
    while True:
        end = start
        for _ in range(_TEXT_BLOCK_LINES):
            end = text.find(cut, end) + 1
            if not end:  # the last block
                break
        block = text[start : end or None]
        lines = (block.replace("\r\n", "\n").replace("\r", "\n") if "\r" in block else block).split("\n")
        del block  # not held while the lines are read
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
    regular expression per line, then array operations over the block's
    CSI text, which read each number through the table of the 257 CSI
    component texts.  If any line of a block
    is not canonical or fails a check, _from_json_block reads every line of
    the block with json.loads, and raises every error: the first faulty
    line raises, with the error it would raise if every line were read
    with json.loads.  Either way the block's header values and csi become
    columns as they are read: each run of its records of one layout is a
    part of the Capture, a view of the block's csi.
    """
    blocks = []
    for first, lines in _line_blocks(text):
        block = _from_canonical_block(lines)
        blocks.append(_from_json_block(lines, first) if block is None else block)
    return Capture(*(np.concatenate([getattr(b, name) for b in blocks]) for name in _COLUMNS),
                   tuple(csi for b in blocks for csi in b.parts))
