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
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadPermutation,
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
            raise InvariantViolation("agc_min must be < agc_max")


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
        if len(self.rssi) != 3 or any(not (0 <= r <= 255) for r in self.rssi):
            raise InvariantViolation("rssi must be three values in 0..255")
        if any(self.rssi[p] != 0 for p in range(self.n_rx, 3)):
            raise InvariantViolation("rssi of absent ports must be exactly 0")
        if not (-128 <= self.noise <= 127):
            raise InvariantViolation("noise out of i8 range")
        if not (0 <= self.agc <= 255):
            raise InvariantViolation("agc out of u8 range")
        if len(self.antenna_perm) != 3 or any(
            not (0 <= p <= 3) for p in self.antenna_perm
        ):
            raise InvariantViolation("antenna_perm must be three 2-bit values")
        if sorted(self.antenna_perm[: self.n_rx]) != list(range(self.n_rx)):
            raise InvariantViolation("antenna_perm prefix is not a permutation")
        # Rounding a complex array rounds both parts; NaN never compares equal.
        if not (self.csi == np.round(self.csi)).all():
            raise InvariantViolation("csi components must be integer-valued")
        re, im = self.csi.real, self.csi.imag
        if min(re.min(), im.min()) < -128 or max(re.max(), im.max()) > 127:
            raise InvariantViolation("csi components must lie in [-128, 127]")


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
    # (n_rx, n_tx, antenna_perm[:n_rx]) -> record indices
    groups: dict[tuple, list[int]] = {}
    starts = []
    size = 0
    for i, record in enumerate(records):
        record.validate()
        layout = (record.n_rx, record.n_tx, tuple(record.antenna_perm[: record.n_rx]))
        groups.setdefault(layout, []).append(i)
        starts.append(size)
        size += 3 + _HEADER_BYTES + csi_payload_len(record.n_rx, record.n_tx)

    out = np.zeros(size, dtype=np.uint8)
    for record, start in zip(records, starts):
        perm = record.antenna_perm
        payload_len = csi_payload_len(record.n_rx, record.n_tx)
        frame_len = 1 + _HEADER_BYTES + payload_len
        _FRAME_AND_HEADER.pack_into(
            out, start, frame_len >> 8, frame_len & 0xFF, CSI_RECORD_CODE,
            record.timestamp_low, record.bfee_count, record.n_rx, record.n_tx,
            *record.rssi, record.noise, record.agc,
            perm[0] | (perm[1] << 2) | (perm[2] << 4),
            payload_len, record.rate_flags,
        )
    for layout, index in groups.items():
        components = np.empty((len(index), N_SUBCARRIERS, *layout[:2], 2), dtype=np.int8)
        for g, i in enumerate(index):
            components[g, ..., 0] = records[i].csi.real
            components[g, ..., 1] = records[i].csi.imag
        for i, payload in zip(index, _pack_group(components, *layout)):
            start = starts[i] + 3 + _HEADER_BYTES
            out[start : start + payload.size] = payload
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


def _record_to_obj(record: RawCsiRecord) -> dict:
    flat = record.csi.reshape(-1)  # subcarrier-major, rx, tx innermost
    return {
        "timestamp_low": record.timestamp_low,
        "bfee_count": record.bfee_count,
        "n_rx": record.n_rx,
        "n_tx": record.n_tx,
        "rssi": list(record.rssi),
        "noise": record.noise,
        "agc": record.agc,
        "antenna_perm": list(record.antenna_perm),
        "rate_flags": record.rate_flags,
        "csi": np.stack((flat.real, flat.imag), axis=1).astype(np.int64).tolist(),
    }


def write_text_trace(records: list[RawCsiRecord]) -> str:
    """Serialize records to the canonical JSON-lines text format."""
    lines = []
    for record in records:
        record.validate()
        lines.append(json.dumps(_record_to_obj(record), separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def parse_text_trace(text: str) -> list[RawCsiRecord]:
    """Parse the canonical text format; SchemaError carries the line number."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            if not all(type(re) is int and type(im) is int for re, im in pairs):
                raise SchemaError(lineno, "csi components must be JSON integers")
            flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
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
        records.append(record)
    return records
