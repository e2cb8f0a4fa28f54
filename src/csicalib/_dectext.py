"""Decimal text of number arrays, byte for byte as Python's % formatting.

integers and fixed6 return an (N, W) uint8 array of ASCII text, one value
per row, padded with NUL bytes; W is a multiple of 4, so that a row is
W // 4 uint32 words and every copy moves whole words.  packet_rows places
such columns in the rows of a block of CSV text and drops every NUL byte
of the block at once.  Digits come three at a time from a lookup table,
read with ndarray.take on its uint32 entries: on 180000 values that is
about fifteen times faster than indexing a 2-D table of bytes.  The table
is built on first use, to keep it out of the import time.
"""

from __future__ import annotations

import functools

import numpy as np

#: Entries of _words(): g < 1000 is "\0" and the three digits of g, _LEAD + g
#: the digits of g without leading zeros ("0" for 0), _BLANK no digit, and
#: _MINUS + e entry e with "-" for its NUL; _POINT + g is "." and the three
#: digits of g.
_LEAD = 1000
_BLANK = 2000
_MINUS = _BLANK + 1
_POINT = 2 * _MINUS

#: Packets formatted at a time by packet_rows.
_BLOCK_PACKETS = 256


@functools.lru_cache(maxsize=None)
def _words() -> np.ndarray:
    """The text words above as uint32, each entry's four bytes its text."""
    full = [b"\0%03d" % g for g in range(1000)]
    lead = [b"\0" + (b"%3d" % g).replace(b" ", b"\0") for g in range(1000)]
    unsigned = full + lead + [b"\0" * 4]
    point = [b".%03d" % g for g in range(1000)]
    text = b"".join(unsigned + [b"-" + w[1:] for w in unsigned] + point)
    table = np.frombuffer(text, dtype=np.uint32).copy()
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _digit_groups(largest: float) -> int:
    """The number of 3-digit groups of an integer magnitude, at least one."""
    return -(-len("%d" % largest) // 3)


def _magnitude_words(magnitude: np.ndarray, negative: np.ndarray, groups: int) -> np.ndarray:
    """(N, groups) text words of integer-valued float64 magnitudes below 2**53.

    The digits are right-aligned, with no leading zero but "0" for 0, and
    "-" leads a row where negative is set.  Each group of digits is exact:
    below 2**53, floor(m / 1000) is m's integer quotient.
    """
    table = _words()
    out = np.empty((len(magnitude), groups), dtype=np.uint32)
    # A group is full below a nonzero one, else leading, and blank above
    # that; the lowest group of 0 is "0".  The lowest group is the last word.
    rest = magnitude
    for j in range(groups - 1, -1, -1):
        higher = np.floor(rest / 1000)
        entries = rest - 1000 * higher
        entries += _LEAD * (higher == 0)
        if j < groups - 1:
            entries += _LEAD * (rest == 0)
        if j == 0:
            entries += _MINUS * negative
        out[:, j] = table.take(entries.astype(np.intp))
        rest = higher
    return out


def integers(values) -> np.ndarray:
    """'%d' % v of each integer, |v| < 2**53, as (N, W) NUL-padded uint8."""
    v = np.asarray(values, dtype=np.float64).ravel()
    magnitude = np.abs(v)
    groups = _digit_groups(magnitude.max(initial=0))
    return _magnitude_words(magnitude, v < 0, groups).view(np.uint8)


def fixed6(values) -> np.ndarray:
    """'%.6f' % v of each float, as (N, W) NUL-padded uint8.

    Python writes the exact v * 10**6 rounded half to even, over six
    decimals.  With a = |v| * 1e6 as computed, rint(a) is that integer
    wherever a < 2**52 and a is not itself a half-integer.  Below 2**52
    every half-integer is a float, and rounding to a float never crosses
    one: the exact product lies on the same side of each half-integer as a.
    Where a is a half-integer, the product may lie on either side of it or
    on it; such a value, |v| >= 2**52 / 1e6 and inf are formatted by Python
    one at a time.  So 2.5e-6, a little above 2.5e-6 in binary, gives
    "0.000003" where rint(2.5) is 2.  NaN of either sign is "nan", as Python
    writes it; the sign of every other value is its sign bit, so -0.0 and
    -4e-7 give "-0.000000".
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    # Clipped, so that no product overflows and a is finite or NaN: a
    # clipped value is formatted by Python, as a >= 2**52 is.
    a = np.minimum(np.abs(v), 2.0**53 / 1e6)
    a *= 1e6
    n = np.rint(a)
    fast = np.abs(a - n) < 0.5  # a - n is exact, and at most 0.5 in size
    fast &= a < 2.0**52
    n[~fast] = 0.0  # no NaN or inf reaches a cast
    # Below 2**52, floor(n / 1e6) is n's integer quotient.
    whole = np.floor(n / 1e6)
    part = n - 1e6 * whole
    high = np.floor(part / 1000)
    low = part - 1000 * high

    nan = np.isnan(v)
    slow = np.flatnonzero(~(fast | nan))
    texts = [b"%.6f" % x for x in v[slow].tolist()]
    groups = _digit_groups(whole.max(initial=0))
    words = max([groups + 2, *(-(-len(text) // 4) for text in texts)])
    out = np.zeros((len(v), words), dtype=np.uint32)
    out[:, :groups] = _magnitude_words(whole, np.signbit(v), groups)
    table = _words()
    out[:, groups] = table.take((high + _POINT).astype(np.intp))
    out[:, groups + 1] = table.take(low.astype(np.intp))
    out[nan] = 0
    text = out.view(np.uint8)
    text[nan, :3] = np.frombuffer(b"nan", dtype=np.uint8)
    for t, s in zip(slow.tolist(), texts):
        out[t] = 0
        text[t, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return text


def _padded_words(texts: list[str]) -> np.ndarray:
    """(len(texts), W) uint32 words of ASCII texts, each NUL-padded to 4 * W bytes."""
    width = -(-max(map(len, texts)) // 4) * 4
    padded = np.array([s.encode() for s in texts], dtype=f"S{width}")
    return padded.view(np.uint32).reshape(len(texts), -1)


def packet_rows(first: int, labels: list[str], values: np.ndarray, tails: tuple[str, str]):
    """Yield the CSV rows of a (T, R) value array, a block of packets at a time.

    Row r of packet t is its number, first + t, then labels[r], values[t, r]
    as '%.6f' and tails[0]; a NaN value is empty and ends in tails[1].  Each
    tail has at most four characters.  The rows of _BLOCK_PACKETS packets
    are built as one array of text words, whose NUL bytes one
    bytes.translate drops: about three times faster than a boolean mask.
    """
    label_words = _padded_words(labels)
    tail_words = _padded_words(list(tails))[:, 0]
    for a in range(0, len(values), _BLOCK_PACKETS):
        block = values[a : a + _BLOCK_PACKETS]
        index = integers(np.arange(first + a, first + a + len(block))).view(np.uint32)
        value = fixed6(block).view(np.uint32)
        nan = np.isnan(block).ravel()
        value[nan] = 0
        i, m, v = index.shape[1], label_words.shape[1], value.shape[1]
        rows = np.empty((*block.shape, i + m + v + 1), dtype=np.uint32)
        rows[..., :i] = index[:, None]
        rows[..., i : i + m] = label_words
        rows[..., i + m : -1] = value.reshape(*block.shape, v)
        rows[..., -1] = tail_words.take(nan.reshape(block.shape).view(np.uint8))
        yield rows.tobytes().translate(None, b"\0").decode("ascii")
