"""Recurrence searches: the search core against the reference, records, index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast.errors import InputError
from pastcast.quantize import Alphabet, IntervalFieldHierarchy
from pastcast.recurrence import (
    IncrementalPatternIndex,
    RecurrenceRecord,
    SamplePath,
    avg_inter_recurrence,
    backward_recurrences,
    default_growth_entries,
    forward_recurrences,
    growth_rate_diagnostic,
    kac_diagnostic,
)
from pastcast import sources
from pastcast.sources import IIDSource, MarkovSource, PeriodicSource, build_source

from _reference import (
    ref_backward_taus,
    ref_forward_taus,
    ref_kac,
    ref_next_after,
    ref_quantize,
)

BIN = Alphabet.of_size(2)
TRI = Alphabet.of_size(3)

paths_bin = st.lists(st.integers(0, 1), min_size=2, max_size=60)
paths_tri = st.lists(st.integers(0, 2), min_size=2, max_size=60)


# ---------------------------------------------------------------------------
# storage convention


def test_sample_path_round_trip():
    p = SamplePath.from_chronological([3, 1, 4, 1, 5])
    assert p.n == 5
    assert p.values[::-1].tolist() == [3, 1, 4, 1, 5]
    assert p.values[0] == 5  # most recent first
    assert p.values[-1] == 3  # oldest last


def test_record_invariants():
    with pytest.raises(InputError):
        RecurrenceRecord((0, 2), 1, 2)
    with pytest.raises(InputError):
        RecurrenceRecord((2, 2), 1, 2)
    with pytest.raises(InputError):
        RecurrenceRecord((1, 3, 5), 1, 2)  # more than J offsets
    rec = RecurrenceRecord((1, 3), 1, 2)
    assert rec.achieved_j == 2
    assert not rec.truncated and rec.lam == 4
    trunc = RecurrenceRecord((2,), 2, 3)
    assert trunc.achieved_j == 1
    assert trunc.truncated and trunc.lam is None
    assert RecurrenceRecord((), 1, 1).truncated


def test_query_validation():
    p = SamplePath.from_chronological([0, 1, 0, 1])
    for ell, j in ((0, 1), (1, 0), (5, 1)):
        with pytest.raises(InputError):
            backward_recurrences(p, 1, ell, j, BIN)
    with pytest.raises(InputError):
        backward_recurrences(p, 1, 1.5, 1, BIN)


# ---------------------------------------------------------------------------
# the search core against the reference


@given(paths_tri, st.integers(1, 5), st.integers(1, 8))
def test_backward_matches_reference(chron, ell, j):
    if ell > len(chron):
        ell = len(chron)
    p = SamplePath.from_chronological(chron)
    expect = ref_backward_taus(chron, ell, j_max=j)
    rec = backward_recurrences(p, 1, ell, j, TRI)
    assert list(rec.taus) == expect
    assert rec.truncated == (len(expect) < j)
    if not rec.truncated:
        assert rec.lam == ell + expect[-1]
        samples = p.values[np.asarray(rec.taus) - 1]
        assert samples.tolist() == ref_next_after(chron, expect)
    else:
        assert rec.lam is None


@given(paths_tri, st.integers(1, 5), st.integers(1, 8))
def test_forward_matches_reference(chron, ell, j):
    if ell > len(chron):
        ell = len(chron)
    p = SamplePath.from_chronological(chron)
    expect = ref_forward_taus(chron, ell, j_max=j)
    rec = forward_recurrences(p, 1, ell, j, TRI)
    assert list(rec.taus) == expect


def _symbols(n, m, seed):
    return np.random.default_rng(seed).integers(0, m, size=n).tolist()


def _echo_oldest(chron, ell):
    """Copy the newest ``ell``-block over the oldest, so the pattern recurs
    at the last admissible offset ``n - ell`` in both directions."""
    return chron[-ell:] + chron[ell:]


def _zero_band(chron, ell, start, length):
    """Zero the newest ``ell``-block and the outcomes a backward search
    reads at offsets ``start .. start + length - 1``, so the pattern recurs
    at each of those offsets."""
    n = len(chron)
    out = list(chron)
    out[n - ell :] = [0] * ell
    out[n - ell - start - length + 1 : n - start] = [0] * (length + ell - 1)
    return out


def _grid_values(n, seed):
    """Reals on a 1/512 grid, so ``ref_quantize`` sees them exactly."""
    return (np.random.default_rng(seed).integers(-1200, 1200, size=n) / 512.0).tolist()


# Paths of 2e4-5e4 outcomes whose searches run far past the first window,
# up to the whole path.  Each case: (chronological path, space, k, ell, j).
MULTI_WINDOW_CASES = {
    "binary_ell8": (_symbols(40_000, 2, 1), BIN, 1, 8, 64),
    "binary_ell12": (_symbols(40_000, 2, 2), BIN, 1, 12, 4),
    "ternary_j1024": (_symbols(50_000, 3, 3), TRI, 1, 3, 1024),
    "binary_ell16_truncated": (_symbols(30_000, 2, 4), BIN, 1, 16, 8),
    "binary_ell16_last_offset": (_echo_oldest(_symbols(20_000, 2, 5), 16), BIN, 1, 16, 2),
    "ternary_ell10_last_offset": (_echo_oldest(_symbols(30_000, 3, 6), 10), TRI, 1, 10, 1024),
    # dense runs of matches straddling the window boundaries at offsets
    # 1025 and 5121 (windows of 1024, then 4096 offsets for j = 64)
    "band_first_boundary": (_zero_band(_symbols(30_000, 3, 10), 12, 1000, 200), TRI, 1, 12, 64),
    "band_second_boundary": (_zero_band(_symbols(30_000, 3, 11), 12, 5100, 200), TRI, 1, 12, 64),
    "real_k1": (_grid_values(40_000, 7), IntervalFieldHierarchy(), 1, 4, 32),
    "real_k2": (_grid_values(30_000, 8), IntervalFieldHierarchy(), 2, 2, 16),
}


@pytest.mark.parametrize("case", sorted(MULTI_WINDOW_CASES))
def test_multi_window_search_matches_reference(case):
    chron, space, k, ell, j = MULTI_WINDOW_CASES[case]
    n = len(chron)
    real = isinstance(space, IntervalFieldHierarchy)
    codes = [ref_quantize(x, k) for x in chron] if real else chron
    p = SamplePath.from_chronological(chron)
    for search, ref in (
        (backward_recurrences, ref_backward_taus),
        (forward_recurrences, ref_forward_taus),
    ):
        expect = ref(codes, ell, j_max=j)
        rec = search(p, k, ell, j, space)
        assert list(rec.taus) == expect
        assert rec.truncated == (len(expect) < j)
        assert rec.lam == (None if rec.truncated else ell + expect[-1])
        # every case reaches past the first window of offsets
        assert (expect[-1] if not rec.truncated else n) > max(1024, 16 * j)
        if case.endswith("last_offset"):
            assert expect[-1] == n - ell


@pytest.mark.parametrize("k, width", [(5, 2), (12, 4), (28, 8)])
def test_wide_code_search_matches_reference(k, width):
    """Levels whose cell ids need 2, 4 and 8 bytes per code."""
    space = IntervalFieldHierarchy()
    # Both tails, cells either side of 0, and neighbours on the 1/512 grid.
    grid = [-40.0, -1.5, -3 / 512, 0.0, 1 / 512, 2.25, 40.0]
    chron = np.random.default_rng(k).choice(grid, size=4000).tolist()
    codes = [ref_quantize(x, k) for x in chron]
    p = SamplePath.from_chronological(chron)
    assert p.code_bytes(space, k)[1] == width
    for search, ref in (
        (backward_recurrences, ref_backward_taus),
        (forward_recurrences, ref_forward_taus),
    ):
        for ell, j in ((1, 64), (3, 16), (5, 4)):
            assert list(search(p, k, ell, j, space).taus) == ref(codes, ell, j_max=j)


def test_search_skips_hits_off_code_boundaries():
    """Two-byte codes whose bytes spell the pattern at odd byte offsets."""
    space = Alphabet.of_size(65536)
    pattern = bytes([7, 9, 11, 13])  # two codes
    decoy = bytes([5]) + pattern + bytes([5])  # three codes, pattern at byte 1
    half = pattern + (decoy * 3 + pattern) * 20
    # Stored bytes, most recent code first; a byte palindrome, so the forward
    # search (over the reversed bytes) meets the same decoys.
    stored = half + half[::-1]
    assert stored.find(pattern, 2) % 2 == 1
    p = SamplePath(np.frombuffer(stored, dtype=np.uint16))
    assert p.code_bytes(space, 1) == (stored, 2)
    chron = p.values[::-1].tolist()
    for search, ref in (
        (backward_recurrences, ref_backward_taus),
        (forward_recurrences, ref_forward_taus),
    ):
        for ell, j in ((1, 30), (2, 30), (3, 5)):
            expect = ref(chron, ell, j_max=j)
            assert list(search(p, 1, ell, j, space).taus) == expect
            if ell == 2:  # the aligned copies of the pattern, every 11 codes
                assert expect[:20] == list(range(11, 221, 11))


def test_avg_inter_recurrence():
    p = SamplePath.from_chronological([0, 1, 0, 1, 0, 1])
    rec = backward_recurrences(p, 1, 1, 2, BIN)
    # pattern "1": matches at offsets 2 and 4
    assert rec.taus == (2, 4)
    assert avg_inter_recurrence(rec) == 2.0
    trunc = backward_recurrences(p, 1, 1, 50, BIN)
    with pytest.raises(InputError):
        avg_inter_recurrence(trunc)


# ---------------------------------------------------------------------------
# incremental index == from-scratch search, at every step


# Both alphabets, the ternary one with grams over more than two symbols.
over_alphabets = pytest.mark.parametrize(
    "space, paths", [(BIN, paths_bin), (TRI, paths_tri)], ids=["BIN", "TRI"]
)


@over_alphabets
@settings(max_examples=30)
@given(data=st.data(), ell=st.integers(1, 3), j=st.integers(1, 5))
def test_incremental_index_tracks_search(space, paths, data, ell, j):
    chron = data.draw(paths)
    idx = IncrementalPatternIndex(space, k=1, ell=ell)
    for t, x in enumerate(chron, start=1):
        idx.append(x)
        got = idx.query(j)
        if t < ell:
            assert got is None
            continue
        p = SamplePath.from_chronological(chron[:t])
        rec = backward_recurrences(p, 1, ell, j, space)
        taus, samples, truncated = got
        assert list(taus) == list(rec.taus)
        assert truncated == rec.truncated
        assert list(samples) == [chron[t - tau] for tau in rec.taus]


@over_alphabets
@settings(max_examples=20)
@given(data=st.data(), ell_a=st.integers(1, 3), ell_b=st.integers(1, 3), j=st.integers(1, 4))
def test_incremental_index_reconfigure(space, paths, data, ell_a, ell_b, j):
    """Re-keying mid-stream must agree with a fresh search at the new shape."""
    chron = data.draw(paths)
    idx = IncrementalPatternIndex(space, k=1, ell=ell_a)
    half = len(chron) // 2
    for x in chron[:half]:
        idx.append(x)
    idx.reconfigure(1, ell_b)
    for x in chron[half:]:
        idx.append(x)
    got = idx.query(j)
    if len(chron) < ell_b:
        assert got is None
        return
    rec = backward_recurrences(SamplePath.from_chronological(chron), 1, ell_b, j, space)
    taus, samples, truncated = got
    assert list(taus) == list(rec.taus)
    assert truncated == rec.truncated


def test_incremental_index_validation():
    with pytest.raises(InputError):
        IncrementalPatternIndex(BIN, k=1, ell=0)
    idx = IncrementalPatternIndex(BIN, k=1, ell=2)
    with pytest.raises(InputError):
        idx.reconfigure(1, 0)


# ---------------------------------------------------------------------------
# diagnostics


def test_growth_entries_budget_shape():
    entries = default_growth_entries(10**6, Alphabet(2), ks=(8, 12, 16))
    assert [e[0] for e in entries] == [8, 12, 16]
    assert all(k == ell for k, ell, _ in entries)
    # j shrinks as the pattern space grows, but never below the floor
    js = [j for _, _, j in entries]
    assert js[0] >= js[1] >= js[2] >= 4


def test_growth_rate_diagnostic_values():
    chron = [0, 1] * 32
    points = growth_rate_diagnostic(
        SamplePath.from_chronological(chron), [(2, 2, 4), (2, 2, 1000)], BIN
    )
    good, trunc = points
    # alternating path: the 2-gram recurs every 2 steps
    assert good.tau_j == 8 and good.lam == 10
    assert good.avg_gap == 2.0
    assert good.rate == pytest.approx(0.5 * np.log2(8 / 4))
    assert not good.truncated
    assert trunc.truncated and trunc.tau_j is None and trunc.rate is None


def test_growth_sweep_encodes_each_path_once(monkeypatch):
    calls = []
    encode = Alphabet.encode

    def counting(self, xs, k):
        calls.append(k)
        return encode(self, xs, k)

    monkeypatch.setattr(Alphabet, "encode", counting)
    p = SamplePath.from_chronological(_symbols(20_000, 2, 9))
    entries = default_growth_entries(p.n, Alphabet(2), ks=range(4, 11))
    assert len(entries) == 7
    points = growth_rate_diagnostic(p, entries, BIN)
    assert len(calls) == 1
    assert [pt.tau_j for pt in points] == [
        ref_backward_taus(p.values[::-1].tolist(), ell, j_max=j)[-1] for _, ell, j in entries
    ]
    # encoding still covers the whole path: a bad symbol far beyond every
    # search depth is reported, not skipped
    bad = SamplePath.from_chronological([2] + _symbols(20_000, 2, 9))
    with pytest.raises(InputError):
        growth_rate_diagnostic(bad, entries, BIN)


def test_kac_diagnostic_deterministic_and_sane():
    src = build_source("iid_fair")
    rows = kac_diagnostic(src, k=2, n_trials=4000, path_length=128, seed=11)
    rows2 = kac_diagnostic(src, k=2, n_trials=4000, path_length=128, seed=11)
    assert rows == rows2
    assert {r.pattern for r in rows} == {(a, b) for a in (0, 1) for b in (0, 1)}
    for r in rows:
        assert r.oracle_mean == pytest.approx(4.0)
        assert r.hits + r.unresolved > 0
        # crude check only; the tight bound lives in the acceptance suite
        assert r.rel_deviation < 0.25


def test_kac_diagnostic_leaves_the_seed_sequence_unchanged():
    src = build_source("iid_fair")
    ss = np.random.SeedSequence(3)
    first = kac_diagnostic(src, 2, 2000, 64, ss)
    assert kac_diagnostic(src, 2, 2000, 64, ss) == first
    assert kac_diagnostic(src, 2, 2000, 64, np.random.SeedSequence(3)) == first
    assert kac_diagnostic(src, 2, 2000, 64, 3) == first


def test_kac_diagnostic_chunking_invariant(monkeypatch):
    """Blocks of 1024, 1024 and 952 trials give the per-trial scan's numbers.

    The paths of 400 outcomes take the windowed scan past its first two
    windows (offsets 1-64 and 65-320), and some trials stay unresolved.
    Every case runs twice: i.i.d. paths this short are first drawn whole,
    then, with ``_TAIL_READ_MIN`` at 1, read by their trials' tails alone;
    the paths of ``64 + k - 1``, ``64 + k`` and ``64 + k + 1`` outcomes end
    just inside, at and just past the first window.  The last two cases
    have more patterns (2**64, 3**40) than int64 ids.  Rows come sorted by
    pattern.
    """
    tri, four = IIDSource((0.5, 0.3, 0.2)), IIDSource((0.4, 0.0, 0.3, 0.3))
    cases = [
        (build_source("markov_stay90"), 1, 64),
        (build_source("iid_fair"), 6, 400),
        (tri, 3, 66),
        (tri, 3, 67),
        (tri, 3, 68),
        (four, 5, 300),
        (MarkovSource([[0.7, 0.2, 0.1], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7]]), 2, 90),
        (build_source("periodic01"), 64, 70),
        (PeriodicSource((0, 1, 2, 2, 1)), 40, 60),
    ]
    want = {(src, k, n): ref_kac(src, k, 3000, n, seed=5) for src, k, n in cases}
    for tail_read_min in (sources._TAIL_READ_MIN, 1):
        monkeypatch.setattr(sources, "_TAIL_READ_MIN", tail_read_min)
        unresolved = {}
        for src, k, length in cases:
            rows = kac_diagnostic(src, k=k, n_trials=3000, path_length=length, seed=5)
            case = want[src, k, length]
            assert {r.pattern: (r.hits, r.unresolved, r.empirical_mean) for r in rows} == case
            assert [r.pattern for r in rows] == sorted(case)
            assert sum(r.hits + r.unresolved for r in rows) == 3000
            unresolved[src, k, length] = sum(r.unresolved for r in rows)
        assert unresolved[four, 5, 300] > 0  # rows read to their full length


def test_kac_diagnostic_groups_patterns_past_int64_ids():
    """1024 symbols: patterns of 7 and 9 symbols have more ids than int64,
    so the row ids are renumbered while they are built."""
    src = PeriodicSource((0, 1023, 3, 1023, 3, 0, 511))
    assert src.alphabet_size == 1024
    for k in (7, 9):
        rows = kac_diagnostic(src, k=k, n_trials=3000, path_length=40, seed=7)
        want = ref_kac(src, k, 3000, 40, seed=7)
        assert {r.pattern: (r.hits, r.unresolved, r.empirical_mean) for r in rows} == want
        assert [r.pattern for r in rows] == sorted(want)
