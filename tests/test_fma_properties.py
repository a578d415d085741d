"""``Integers._fma`` against the formula s + ab, as a property over
negative and large integers (the finite rings are checked exhaustively
in ``test_divide.py``)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from mclain import Integers  # noqa: E402
from strategies import profile  # noqa: E402

Z = Integers()
BIG = st.integers(-(10**40), 10**40) | st.integers(-5, 5)


@profile(300)
@given(BIG, BIG, BIG)
def test_integer_fma_is_add_of_mul(s, a, b):
    assert Z._fma(s, a, b) == s + a * b
