"""Conditional-law container, schedules, and the pattern estimators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast.errors import ConfigError, InputError, InsufficientDataError
from pastcast.estimators import (
    ConditionalDistribution,
    FiniteAlphabetSchedule,
    RealValuedSchedule,
    estimate_fixed_k,
    estimate_truncated,
    estimate_with_side_info,
    integrate,
    truncated_parameters,
)
from pastcast.quantize import Alphabet, IntervalFieldHierarchy
from pastcast.recurrence import RecurrenceRecord, SamplePath, backward_recurrences

from _reference import ref_backward_taus, ref_estimate, ref_quantize

BIN = Alphabet.of_size(2)


# ---------------------------------------------------------------------------
# the distribution container


def test_distribution_exactly_one_mode():
    with pytest.raises(InputError):
        ConditionalDistribution()
    with pytest.raises(InputError):
        ConditionalDistribution(pmf=np.array([1.0]), samples=np.array([1.0]))


def test_distribution_pmf_validation():
    with pytest.raises(InputError):
        ConditionalDistribution.finite([0.5, 0.6])
    with pytest.raises(InputError):
        ConditionalDistribution.finite([-0.1, 1.1])
    with pytest.raises(InputError):
        ConditionalDistribution.finite([])
    with pytest.raises(InputError):
        ConditionalDistribution.empirical([np.inf])
    d = ConditionalDistribution.finite([0.25, 0.75])
    assert not d.pmf.flags.writeable  # estimates are frozen once built


def test_distribution_constructors_and_queries():
    u = ConditionalDistribution.uniform(4)
    assert u.as_pmf().tolist() == [0.25] * 4
    assert u.mean() == pytest.approx(1.5)
    assert u.mean(symbol_values=[0.0, 0.0, 1.0, 1.0]) == pytest.approx(0.5)
    d = ConditionalDistribution.dirac(2.5)
    assert not d.is_finite and d.mean() == 2.5
    with pytest.raises(InputError):
        d.as_pmf()


def test_integrate_table_and_callable():
    d = ConditionalDistribution.finite([0.5, 0.5])
    assert integrate([3.0, 5.0], d) == pytest.approx(4.0)
    assert integrate(lambda x: x * x, d) == pytest.approx(0.5)
    with pytest.raises(InputError):
        integrate(lambda x: x, d, symbol_values=[1.0])
    e = ConditionalDistribution.empirical([1.0, 2.0, 6.0])
    assert integrate(lambda x: x, e) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# schedules


def test_finite_schedule_frozen_values():
    s = FiniteAlphabetSchedule(alphabet_size=2, epsilon=0.5)
    assert truncated_parameters(s, 100_000) == (8, 8, 256)
    assert truncated_parameters(s, 1_000) == (4, 4, 16)
    assert s.k_of_n(1) == 1 and s.k_of_n(0) == 1
    assert s.j_of_k(1) == 2
    d = s.default()
    assert d.default_used and d.pmf.tolist() == [0.5, 0.5]


def test_finite_schedule_budget_fraction():
    s = FiniteAlphabetSchedule(alphabet_size=2, epsilon=0.5, budget_fraction=0.25)
    assert s.j_of_k(8) == 64
    assert s.j_of_k(1) == 1  # floor clamps at one sample
    full = FiniteAlphabetSchedule(alphabet_size=2, epsilon=0.5)
    assert full.j_of_k(8) == 4 * s.j_of_k(8)


def test_finite_schedule_known_rate_changes_base():
    s = FiniteAlphabetSchedule(alphabet_size=4, epsilon=0.5, known_rate=1.0)
    # base 2**1 instead of 4: contexts grow twice as fast
    plain = FiniteAlphabetSchedule(alphabet_size=4, epsilon=0.5)
    assert s.k_of_n(4**6) == 2 * plain.k_of_n(4**6)


def test_finite_schedule_validation():
    for kwargs in (
        dict(alphabet_size=1),
        dict(alphabet_size=2, epsilon=0.0),
        dict(alphabet_size=2, epsilon=1.0),
        dict(alphabet_size=2, known_rate=0.0),
        dict(alphabet_size=2, budget_fraction=0.0),
        dict(alphabet_size=2, budget_fraction=1.5),
    ):
        with pytest.raises(ConfigError):
            FiniteAlphabetSchedule(**kwargs)


@given(
    st.integers(0, 10**15),
    st.integers(1, 10**6),
    st.floats(1.0, 10.0),
    st.integers(1, 48),
)
def test_real_schedule_level_fits_the_path(n, j0, j_growth, max_level):
    """Why ``RealValuedSchedule.validate`` has nothing to check: the level
    ``k_of_n`` returns is 1 or has a budget within ``n``."""
    s = RealValuedSchedule(IntervalFieldHierarchy(max_level), j0, j_growth)
    k = s.k_of_n(n)
    assert 1 <= k <= max_level
    assert k == 1 or s.budget(k) <= n
    s.validate([n])


def test_real_schedule_frozen_values():
    s = RealValuedSchedule(hierarchy=IntervalFieldHierarchy())
    assert s.k_of_n(1_000) == 1
    assert s.k_of_n(10_000) == 1
    assert s.k_of_n(100_000) == 2
    assert s.j_of_k(1) == 50 and s.j_of_k(2) == 150
    assert s.budget(2) > s.budget(1)
    d = s.default()
    assert d.default_used and not d.is_finite


# ---------------------------------------------------------------------------
# fixed-level estimator against the reference


@given(st.lists(st.integers(0, 1), min_size=2, max_size=60), st.integers(1, 4), st.integers(1, 6))
def test_estimate_fixed_k_matches_reference(chron, ell, j):
    if ell > len(chron):
        ell = len(chron)
    p = SamplePath.from_chronological(chron)
    expect = ref_estimate(chron, ell, j, 2)
    if expect is None:
        with pytest.raises(InsufficientDataError) as err:
            estimate_fixed_k(p, 1, ell, j, BIN)
        rec = err.value.record
        assert rec.truncated
        assert rec.achieved_j == len(ref_backward_taus(chron, ell, j_max=j))
    else:
        dist, rec = estimate_fixed_k(p, 1, ell, j, BIN)
        assert dist.pmf.tolist() == [float(v) for v in expect]
        assert not dist.default_used
        assert rec.lam == ell + rec.taus[-1]


def test_insufficient_data_error_survives_pickling():
    """A replica worker's error comes back pickled, record and message intact."""
    err = InsufficientDataError(RecurrenceRecord((1, 3), 2, 4))
    back = pickle.loads(pickle.dumps(err))
    assert back.record == err.record and str(back) == str(err)
    assert str(back) == "found 2 of 4 requested pattern recurrences"


def test_estimate_fixed_k_real_mode_keeps_raw_values():
    xs = [0.31, -0.4, 0.33, -0.45, 0.3]
    p = SamplePath.from_chronological(xs)
    h = IntervalFieldHierarchy()
    # level 1 cells are width 1/2: 0.3* and -0.4* collapse onto two codes
    dist, rec = estimate_fixed_k(p, 1, 1, 2, h)
    assert rec.taus == (2, 4)
    assert dist.samples.tolist() == [-0.45, -0.4]  # raw outcomes, not cell ids
    assert not dist.is_finite


def test_estimate_truncated_falls_back():
    s = FiniteAlphabetSchedule(alphabet_size=2, epsilon=0.5)
    # context longer than the whole path: immediate default, no search record
    d, rec = estimate_truncated(SamplePath.from_chronological(np.array([], dtype=np.int64)), s, BIN)
    assert d.default_used and rec is None
    # a path too short for J recurrences: default, with the truncated record
    d, rec = estimate_truncated(SamplePath.from_chronological([0, 1]), s, BIN)
    assert d.default_used
    assert rec.truncated and rec.taus == () and rec.lam is None
    # the current context never occurred before: search truncates, default again
    p = SamplePath.from_chronological([1, 1, 1, 1, 1, 1, 1, 0])
    k, ell, j = truncated_parameters(s, p.n)
    assert ref_estimate(p.values[::-1].tolist(), ell, j, 2) is None
    d, rec = estimate_truncated(p, s, BIN)
    assert d.default_used
    assert rec == backward_recurrences(p, k, ell, j, BIN) and rec.truncated
    # a healthy periodic path estimates cleanly
    ok, rec = estimate_truncated(SamplePath.from_chronological([0, 1] * 40), s, BIN)
    assert not ok.default_used
    assert ok.pmf.tolist() == [1.0, 0.0]
    assert not rec.truncated and rec.lam == 3 + 16


# ---------------------------------------------------------------------------
# side information


def _ref_side_info(xs, ys, y_now, ell, j):
    """Brute-force joint-context matching, written independently."""
    n = len(xs)
    taus = []
    for t in range(1, n - ell + 1):
        ctx_ok = xs[n - ell - t : n - t] == xs[n - ell :] and ys[n - ell - t : n - t] == ys[n - ell :]
        if ctx_ok and ys[n - t] == y_now:
            taus.append(t)
            if len(taus) == j:
                break
    return taus


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=4, max_size=50),
    st.integers(0, 1),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_side_info_matches_brute_force(pairs, y_now, ell, j):
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    xp = SamplePath.from_chronological(xs)
    yp = SamplePath.from_chronological(ys)
    expect = _ref_side_info(xs, ys, y_now, ell, j)
    if len(expect) < j:
        with pytest.raises(InsufficientDataError):
            estimate_with_side_info(xp, yp, y_now, 1, ell, j, BIN, BIN)
    else:
        dist, rec = estimate_with_side_info(xp, yp, y_now, 1, ell, j, BIN, BIN)
        assert list(rec.taus) == expect
        counts = np.bincount([xs[len(xs) - t] for t in expect], minlength=2)
        assert dist.pmf.tolist() == (counts / j).tolist()


@pytest.mark.parametrize("ell, j", [(3, 64), (5, 4), (7, 8)])
def test_side_info_long_path_matches_brute_force(ell, j):
    """Searches that reach past the first window of offsets, or truncate."""
    rng = np.random.default_rng(ell)
    xs = rng.integers(0, 2, size=20_000).tolist()
    ys = rng.integers(0, 2, size=20_000).tolist()
    expect = _ref_side_info(xs, ys, 1, ell, j)
    xp = SamplePath.from_chronological(xs)
    yp = SamplePath.from_chronological(ys)
    if len(expect) < j:
        with pytest.raises(InsufficientDataError) as err:
            estimate_with_side_info(xp, yp, 1, 1, ell, j, BIN, BIN)
        assert list(err.value.record.taus) == expect
    else:
        _, rec = estimate_with_side_info(xp, yp, 1, 1, ell, j, BIN, BIN)
        assert list(rec.taus) == expect
        assert expect[-1] > 1024


@pytest.mark.parametrize(
    "x_space, k",
    [(BIN, 1), (IntervalFieldHierarchy(), 5)],
    ids=["binary-main", "real-main"],
)
@pytest.mark.parametrize("ell, j", [(1, 32), (3, 8)])
def test_side_info_with_ternary_side_channel_matches_brute_force(x_space, k, ell, j):
    """A 3-symbol side channel, beside 1-byte and (real main) 2-byte main codes."""
    tri = Alphabet.of_size(3)
    rng = np.random.default_rng(10 * ell + k)
    if x_space is BIN:
        xs = rng.integers(0, 2, size=6000).tolist()
        x_codes = xs
    else:
        xs = (rng.integers(0, 2, size=6000) * 1.5 - 0.75).tolist()
        x_codes = [ref_quantize(x, k) for x in xs]
    ys = rng.integers(0, 3, size=6000).tolist()
    expect = _ref_side_info(x_codes, ys, 2, ell, j)
    xp = SamplePath.from_chronological(xs)
    yp = SamplePath.from_chronological(ys)
    try:
        _, rec = estimate_with_side_info(xp, yp, 2, k, ell, j, x_space, tri)
    except InsufficientDataError as err:
        rec = err.record
    assert list(rec.taus) == expect


def test_side_info_validation():
    xp = SamplePath.from_chronological([0, 1, 0])
    yp = SamplePath.from_chronological([0, 1])
    with pytest.raises(InputError):
        estimate_with_side_info(xp, yp, 0, 1, 1, 1, BIN, BIN)
    yp3 = SamplePath.from_chronological([0, 1, 0])
    with pytest.raises(InputError):
        estimate_with_side_info(xp, yp3, 0, 1, 9, 1, BIN, BIN)
