"""Outcome spaces: finite alphabets and the dyadic interval hierarchy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastcast.errors import InputError
from pastcast.quantize import Alphabet, IntervalFieldHierarchy

from _reference import ref_interval, ref_quantize

# ---------------------------------------------------------------------------
# finite alphabets


def test_alphabet_basics():
    a = Alphabet.of_size(3)
    assert a.size == 3
    assert a.atom_count(1) == a.atom_count(7) == 3
    assert a.quantize(2, 5) == 2


def test_alphabet_rejects_degenerate():
    with pytest.raises(InputError):
        Alphabet.of_size(1)


def test_alphabet_quantize_rejects_non_symbols():
    a = Alphabet.of_size(2)
    for bad in (-1, 2, 0.5):
        with pytest.raises(InputError):
            a.quantize(bad, 1)
    with pytest.raises(InputError):
        a.encode([0, 1, 2], 1)
    with pytest.raises(InputError):
        a.encode([0.5], 1)


@pytest.mark.parametrize(
    "xs, ok",
    [
        pytest.param(np.array([1, 2**63 + 1], dtype=np.uint64), False, id="uint64-above-2**63"),
        pytest.param(np.array([1, 2], dtype=np.uint64), True, id="uint64"),
        pytest.param(np.array([0, -1]), False, id="negative-int64"),
        pytest.param(np.array([-3], dtype=np.int8), False, id="negative-int8"),
        pytest.param(np.array([0.5]), False, id="half"),
        pytest.param(np.array([2.0, 1.0]), True, id="whole-floats"),
        pytest.param(np.array([True, False]), True, id="bool"),
        pytest.param(np.array([1, 0], dtype=object), True, id="object"),
    ],
)
def test_alphabet_encode_checks_every_dtype(xs, ok):
    """Integer input gets the range check only; other dtypes also the exact cast."""
    a = Alphabet.of_size(3)
    if not ok:
        with pytest.raises(InputError):
            a.encode(xs, 1)
        return
    codes = a.encode(xs, 1)
    assert codes.dtype == np.int64
    assert codes.tolist() == [a.quantize(x, 1) for x in xs.tolist()]


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.integers(1, 9))
def test_alphabet_encode_matches_scalar(path, k):
    a = Alphabet.of_size(4)
    codes = a.encode(path, k)
    assert codes.tolist() == [a.quantize(x, k) for x in path]


# ---------------------------------------------------------------------------
# interval hierarchy


def test_hierarchy_atom_counts():
    h = IntervalFieldHierarchy()
    assert h.atom_count(1) == 6
    assert h.atom_count(2) == 18
    assert h.atom_count(3) == 50


def test_hierarchy_level_validation():
    h = IntervalFieldHierarchy(max_level=8)
    for bad in (0, 9, 1.5, "2"):
        with pytest.raises(InputError):
            h.quantize(0.0, bad)
    with pytest.raises(InputError):
        IntervalFieldHierarchy(max_level=0)
    with pytest.raises(InputError):
        IntervalFieldHierarchy(max_level=49)


def test_hierarchy_frozen_cells():
    h = IntervalFieldHierarchy()
    # 0.3 at level 2 lands in the cell [0.25, 0.5)
    code = h.quantize(0.3, 2)
    assert ref_interval(2, code) == (0.25, 0.5)
    # tails
    assert h.quantize(-5.0, 2) == 0
    assert h.quantize(5.0, 2) == h.atom_count(2) - 1
    assert h.quantize(2.0, 2) == h.atom_count(2) - 1  # right tail is closed at k
    assert h.quantize(-2.0, 2) == 1  # left edge belongs to the first interior cell
    assert ref_interval(2, 0) == (-math.inf, -2.0)
    assert ref_interval(2, 17) == (2.0, math.inf)


def test_hierarchy_rejects_non_finite():
    h = IntervalFieldHierarchy()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            h.quantize(bad, 3)
    with pytest.raises(InputError):
        h.encode([0.0, math.nan], 3)


# Dyadic grid points make float quantization exact, so the float code and
# the Fraction-based reference must agree bit for bit.
@given(st.integers(-20 * 1024, 20 * 1024 - 1), st.integers(1, 8))
def test_hierarchy_matches_exact_reference(m, k):
    x = m / 1024.0
    h = IntervalFieldHierarchy()
    code = h.quantize(x, k)
    assert code == ref_quantize(x, k)


@given(st.integers(-20 * 1024, 20 * 1024 - 1), st.integers(1, 8))
def test_hierarchy_cell_contains_point(m, k):
    x = m / 1024.0
    h = IntervalFieldHierarchy()
    lo, hi = ref_interval(k, h.quantize(x, k))
    assert lo <= x < hi


@given(st.integers(-20 * 1024, 20 * 1024 - 1), st.integers(1, 7))
def test_hierarchy_levels_nest(m, k):
    """The level-(k+1) cell of a point sits inside its level-k cell."""
    x = m / 1024.0
    h = IntervalFieldHierarchy()
    lo_c, hi_c = ref_interval(k, h.quantize(x, k))
    lo_f, hi_f = ref_interval(k + 1, h.quantize(x, k + 1))
    assert lo_c <= lo_f and hi_f <= hi_c


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50),
    st.integers(1, 10),
)
def test_hierarchy_encode_matches_scalar(xs, k):
    h = IntervalFieldHierarchy()
    codes = h.encode(xs, k)
    assert codes.tolist() == [h.quantize(x, k) for x in xs]


def test_encode_a_block_keeps_order():
    h = IntervalFieldHierarchy()
    assert h.encode([0.3, -0.3], 2).tolist() == [h.quantize(0.3, 2), h.quantize(-0.3, 2)]
    assert Alphabet.of_size(2).encode([1, 0, 1], 2).tolist() == [1, 0, 1]


def test_encode_far_out_values_without_warnings():
    """Values far past the tiles take the tail cells, at every level,
    without an overflow in the scaling or an invalid int64 cast."""
    h = IntervalFieldHierarchy(max_level=48)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(1, 49):
            xs = [1e20, 1e300, 1.7e308, float(k)]
            xs = [v for x in xs for v in (x, -x)]
            xs += [float(np.nextafter(x, d)) for x in (k, -k) for d in (-math.inf, math.inf)]
            assert h.encode(xs, k).tolist() == [h.quantize(x, k) for x in xs]


def test_alphabet_encode_refuses_floats_without_warnings():
    a = Alphabet.of_size(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, 1e20, -1e20, math.inf, 0.5):
            with pytest.raises(InputError):
                a.encode(np.array([0.0, bad]), 1)


def test_hierarchy_interval_ids_partition_the_line():
    h = IntervalFieldHierarchy()
    k = 3
    edges = []
    for code in range(h.atom_count(k)):
        lo, hi = ref_interval(k, code)
        edges.append((lo, hi))
    # consecutive cells share endpoints and jointly cover the line
    for (_, hi), (lo2, _) in zip(edges, edges[1:]):
        assert hi == lo2
    assert edges[0][0] == -math.inf and edges[-1][1] == math.inf
