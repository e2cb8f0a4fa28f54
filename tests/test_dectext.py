"""The digit kernel of the CSV and text writers against Python's % formatting.

_dectext.fixed6 must give '%.6f' % v and _dectext.integers '%d' % v, byte
for byte, once the NUL padding of each row is dropped: for every binary64
value, the near-ties and the huge values that Python formats itself among
them, and for every integer the writers format.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from csicalib import _dectext


def _texts(rows):
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _assert_fixed6(values):
    rows = _dectext.fixed6(np.array(values, dtype=np.float64))
    assert rows.dtype == np.uint8 and rows.shape[0] == len(values) and rows.shape[1] % 4 == 0
    assert _texts(rows) == ["%.6f" % v for v in values]


_LIMIT = 2.0**52 / 1e6


# Exact ties such as 0.0078125 round half to even; 2.5e-6 and the others of
# its example are a little off a tie in binary, and their product with 1e6
# rounds onto the tie: 2.5e-6 gives 0.000003, where rint(2.5) is 2.
@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
@example([0.0, -0.0])
@example([4e-7, -4e-7, 5e-7, -5e-7])
@example([0.0078125, -0.0078125, 0.0234375, -0.0234375])
@example([2.5e-6, -2.5e-6, 3.5e-6, 4.5e-6, 1.25e-5, 99.9999985, 0.1234565])
@example([math.nextafter(_LIMIT, 0.0), _LIMIT, math.nextafter(_LIMIT, math.inf), -_LIMIT])
@example([179.9999995, -179.9999995, 999.9999995, 1e20, -1e20])
@example([math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1.7976931348623157e308])
def test_fixed6_is_percent_format(values):
    _assert_fixed6(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2**31, 2**31), min_size=1, max_size=30),
       st.integers(-3, 3))
def test_fixed6_of_exact_ties_rounds_half_to_even(numerators, scale):
    # k / 2**7 * 10**scale holds ties of the sixth decimal, such as 0.0078125.
    _assert_fixed6([k / 128 * 10.0**scale for k in numerators])


def test_fixed6_of_every_scale():
    rng = np.random.default_rng(3)
    values = (rng.standard_normal(20000) * 10.0 ** rng.integers(-9, 12, 20000)).tolist()
    _assert_fixed6(values)


def test_fixed6_of_nan_and_inf_raises_no_warning():
    values = np.array([math.nan, math.inf, -math.inf, -math.nan, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _dectext.fixed6(values)
        empty = _dectext.fixed6(np.empty(0))
    assert _texts(rows) == ["nan", "inf", "-inf", "nan", "1.500000"]
    assert empty.shape[0] == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2**53 + 1, 2**53 - 1), min_size=1, max_size=30))
@example(list(range(-128, 128)))
@example([0, 9, 10, 99, 100, 999, 1000, 10**6])
@example([0])
def test_integers_is_percent_format(values):
    rows = _dectext.integers(np.array(values))
    assert rows.dtype == np.uint8 and rows.shape[1] % 4 == 0
    assert _texts(rows) == ["%d" % v for v in values]


def test_import_builds_no_table():
    # The tables are built on first use: importing the CLI builds none.
    code = ("import csicalib.cli\n"
            "from csicalib import _dectext, ingest\n"
            "print(_dectext._words.cache_info().currsize, ingest._csi_words.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]
