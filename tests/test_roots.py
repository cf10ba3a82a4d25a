import itertools
import math
import re

import numpy as np
import pytest

from renormlab.errors import NoBracket
from renormlab.roots import brackets, brent, sign_changes


def _recorded(h):
    """h, and the list of the points it is evaluated at."""
    calls = []

    def counted(x):
        calls.append(x)
        return h(x)
    return counted, calls


@pytest.mark.parametrize("h, values", [
    (lambda x: x - 3.0, "-3.0, h(b) = -2.0"),
    (lambda x: x * x + 1.0, "1.0, h(b) = 2.0"),
    (lambda x: math.nan, "nan, h(b) = nan")],
    ids=["both-negative", "both-positive", "nan"])
def test_brent_refuses_a_non_bracket(h, values):
    counted, calls = _recorded(h)
    with pytest.raises(NoBracket,
                       match=re.escape(f"[0.0, 1.0]: h(a) = {values}")):
        brent(counted, 0.0, 1.0)
    # the two ends, once each, and nothing more
    assert calls == [0.0, 1.0]


@pytest.mark.parametrize("lo, hi, root", [(0.3, 0.7, 0.5),
                                         (0.45, 0.46, 0.455)],
                         ids=["wide", "around-the-root"])
def test_brent_refuses_a_nan_inside_the_bracket(lo, hi, root):
    """h brackets its root on [0, 1] but is nan on (lo, hi); without the
    check, brent returned 0.3 (where h = -0.2) and 0.45000000000000007."""
    counted, calls = _recorded(
        lambda x: math.nan if lo < x < hi else x - root)
    with pytest.raises(NoBracket, match="h is nan at") as err:
        brent(counted, 0.0, 1.0)
    # the point named is the last one evaluated, and its value is nan
    assert repr(calls[-1]) in str(err.value)
    assert lo < calls[-1] < hi


@pytest.mark.parametrize("a, b, root", [(1.0, 2.0, 1.0), (0.0, 1.0, 1.0),
                                        (2.0, 1.0, 1.0), (1.0, 0.0, 1.0)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_brent_returns_a_zero_end(a, b, root, sign):
    counted, calls = _recorded(lambda x: sign * (x - 1.0))
    assert brent(counted, a, b) == root
    assert calls == [a, b]


def test_one_bracket_rule_for_floats_and_arrays():
    """brent's scalar test and the grid's sign_changes read the same rule:
    a zero counts, signed zeros and infinities too, nan never does."""
    values = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan]
    for fa, fb in itertools.product(values, repeat=2):
        expect = (fa <= 0.0 <= fb or fb <= 0.0 <= fa)
        assert brackets(fa, fb) == expect
        assert sign_changes(np.array([fa, fb])).tolist() == ([0] if expect
                                                              else [])
    got = sign_changes(np.array([1.0, -1.0, -1.0, 0.0, 2.0, math.nan, -1.0]))
    assert got.tolist() == [0, 2, 3]
