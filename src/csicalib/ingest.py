"""Trace ingestion: bit-packed binary beamforming reports and JSON-lines text.

The binary layout follows the public Intel 5300 trace-tool convention:
each frame is a 2-byte big-endian length (covering the code byte and the
record body), a 1-byte code, and the body.  Code 0xBB carries a CSI record;
all other codes are skipped.  The text format is one JSON object per line
and is the canonical interchange for the rest of the toolkit (see
docs/FORMATS.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadPermutation,
    InvariantViolation,
    LengthMismatch,
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


@dataclass(eq=False)
class RawCsiRecord:
    """One received packet's nominal readouts plus the digitized CSI matrix.

    csi has shape (30, n_rx, n_tx) with integer-valued real/imag components
    in [-128, 127].  rssi entries of 0 mark an absent port, never 0 dB.
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
        re, im = self.csi.real, self.csi.imag
        if not (np.array_equal(re, np.round(re)) and np.array_equal(im, np.round(im))):
            raise InvariantViolation("csi components must be integer-valued")
        if re.min(initial=0) < -128 or re.max(initial=0) > 127 or \
           im.min(initial=0) < -128 or im.max(initial=0) > 127:
            raise InvariantViolation("csi components must lie in [-128, 127]")


# --- binary format -----------------------------------------------------------

def _read_s8(payload: bytes, bitpos: int) -> int:
    byte, rem = divmod(bitpos, 8)
    v = payload[byte] >> rem
    if rem:
        v |= payload[byte + 1] << (8 - rem)
    v &= 0xFF
    return v - 256 if v > 127 else v


def _write_u8(buf: bytearray, bitpos: int, value: int) -> None:
    v = value & 0xFF
    byte, rem = divmod(bitpos, 8)
    buf[byte] |= (v << rem) & 0xFF
    if rem:
        buf[byte + 1] |= v >> (8 - rem)


def _decode_perm(antenna_sel: int) -> tuple[int, int, int]:
    return (antenna_sel & 0x3, (antenna_sel >> 2) & 0x3, (antenna_sel >> 4) & 0x3)


def parse_binary_trace(data: bytes) -> list[RawCsiRecord]:
    """Decode a framed binary trace into records, skipping non-CSI frames.

    Raises TruncatedRecord when a frame claims more bytes than remain,
    LengthMismatch when the declared CSI length disagrees with the layout,
    and BadPermutation for an invalid antenna selection byte.
    """
    records: list[RawCsiRecord] = []
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
        if code != CSI_RECORD_CODE:
            continue
        records.append(_parse_record_body(body))
    return records


def _parse_record_body(body: bytes) -> RawCsiRecord:
    if len(body) < _HEADER_BYTES:
        raise TruncatedRecord("record body shorter than fixed header")
    timestamp_low = int.from_bytes(body[0:4], "little")
    bfee_count = int.from_bytes(body[4:6], "little")
    n_rx = body[8]
    n_tx = body[9]
    rssi = (body[10], body[11], body[12])
    noise = body[13] - 256 if body[13] > 127 else body[13]
    agc = body[14]
    antenna_sel = body[15]
    declared_len = int.from_bytes(body[16:18], "little")
    rate_flags = int.from_bytes(body[18:20], "little")

    if not (1 <= n_rx <= 3 and 1 <= n_tx <= 3):
        raise InvariantViolation(f"n_rx={n_rx}, n_tx={n_tx} out of range")
    expected = csi_payload_len(n_rx, n_tx)
    if declared_len != expected:
        raise LengthMismatch(f"declared {declared_len}, computed {expected}")
    if len(body) < _HEADER_BYTES + declared_len:
        raise TruncatedRecord("CSI payload cut short")
    perm = _decode_perm(antenna_sel)
    if sorted(perm[:n_rx]) != list(range(n_rx)):
        raise BadPermutation(f"antenna_sel 0x{antenna_sel:02x} for n_rx={n_rx}")

    payload = body[_HEADER_BYTES : _HEADER_BYTES + declared_len]
    csi = np.zeros((N_SUBCARRIERS, n_rx, n_tx), dtype=np.complex128)
    bitpos = 0
    for k in range(N_SUBCARRIERS):
        bitpos += 3
        for stream in range(n_rx):
            row = perm[stream]
            for tx in range(n_tx):
                re = _read_s8(payload, bitpos)
                im = _read_s8(payload, bitpos + 8)
                bitpos += 16
                csi[k, row, tx] = complex(re, im)

    return RawCsiRecord(
        timestamp_low=timestamp_low,
        bfee_count=bfee_count,
        n_rx=n_rx,
        n_tx=n_tx,
        rssi=rssi,
        noise=noise,
        agc=agc,
        antenna_perm=perm,
        rate_flags=rate_flags,
        csi=csi,
    )


def encode_binary_trace(records: list[RawCsiRecord]) -> bytes:
    """Exact inverse of parse_binary_trace at the record level."""
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
                row = perm[stream]
                for tx in range(record.n_tx):
                    entry = record.csi[k, row, tx]
                    _write_u8(payload, bitpos, int(entry.real))
                    _write_u8(payload, bitpos + 8, int(entry.imag))
                    bitpos += 16

        antenna_sel = perm[0] | (perm[1] << 2) | (perm[2] << 4)
        header = bytearray()
        header += record.timestamp_low.to_bytes(4, "little")
        header += record.bfee_count.to_bytes(2, "little")
        header += b"\x00\x00"
        header += bytes(
            [record.n_rx, record.n_tx, *record.rssi, record.noise & 0xFF,
             record.agc, antenna_sel]
        )
        header += payload_len.to_bytes(2, "little")
        header += record.rate_flags.to_bytes(2, "little")

        body = bytes(header) + bytes(payload)
        frame_len = 1 + len(body)
        out += frame_len.to_bytes(2, "big")
        out.append(CSI_RECORD_CODE)
        out += body
    return bytes(out)


# --- text format -------------------------------------------------------------

_TEXT_FIELDS = (
    "timestamp_low", "bfee_count", "n_rx", "n_tx", "rssi", "noise",
    "agc", "antenna_perm", "rate_flags", "csi",
)
_INT_FIELDS = ("timestamp_low", "bfee_count", "n_rx", "n_tx", "noise", "agc", "rate_flags")


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
        "csi": [[int(z.real), int(z.imag)] for z in flat],
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
        except (TypeError, ValueError, KeyError, InvariantViolation) as exc:
            raise SchemaError(lineno, str(exc)) from exc
        records.append(record)
    return records
