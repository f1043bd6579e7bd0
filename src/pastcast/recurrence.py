"""Backward and forward recurrence searches over quantized sample paths.

A path stores the observed past with the most recent outcome first:
storage position ``t - 1`` holds the outcome ``t`` steps back.  The
backward search quantizes the path at a level ``k``, takes the most
recent ``ell`` cells as the pattern, and walks into the past collecting
the offsets at which the pattern recurs.  The forward search is the
mirror image: the pattern is the oldest ``ell`` cells and the walk moves
toward the recent end.  Offsets count whole-window shifts, so an offset
``t`` means the window ``ell + t, ..., 1 + t`` steps back matched.

One search core serves both directions.  A path's cell ids are packed
into one byte string of fixed-width codes, the narrowest of 1, 2, 4 or 8
bytes that holds every cell id of the level, and ``bytes.find`` walks it
from one hit to the next.  A hit that does not start on a code boundary
is skipped.  The search stops at the requested count, so its work grows
with the search depth, not with the path length.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedQueryError
from .quantize import Alphabet, OutcomeSpace
from .sources import _spawn

__all__ = [
    "SamplePath",
    "RecurrenceRecord",
    "backward_recurrences",
    "forward_recurrences",
    "avg_inter_recurrence",
    "growth_rate_diagnostic",
    "GrowthPoint",
    "default_growth_entries",
    "kac_diagnostic",
    "KacRow",
    "IncrementalPatternIndex",
]


@dataclass(frozen=True)
class SamplePath:
    """A finite stretch of past outcomes, most recent first.

    ``values[0]`` is the latest outcome (one step back), ``values[t-1]``
    the outcome ``t`` steps back.  Use :meth:`from_chronological` when
    the data arrives oldest-first.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise InputError("a sample path must be one-dimensional")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_encoded", None)

    def _encoding(self, space: OutcomeSpace, k: int) -> tuple:
        """``(space, level, codes, code bytes, code width)`` at level ``k``.

        The last encoding is kept, keyed by what determines it: the space
        object, plus the level on the interval hierarchy (alphabet codes do
        not depend on ``k``).  Encoding always covers the whole path, so an
        invalid value anywhere raises :class:`InputError`.
        """
        level = None if isinstance(space, Alphabet) else k
        memo = self._encoded
        if memo is None or memo[0] is not space or memo[1] != level:
            codes = space.encode(self.values, k)
            codes.setflags(write=False)
            width = _code_width(space.atom_count(k))
            memo = (space, level, codes, codes.astype(f"u{width}").tobytes(), width)
            object.__setattr__(self, "_encoded", memo)
        return memo

    def codes(self, space: OutcomeSpace, k: int) -> np.ndarray:
        """The path's cell ids at level ``k``, most recent first."""
        return self._encoding(space, k)[2]

    def code_bytes(self, space: OutcomeSpace, k: int) -> tuple[bytes, int]:
        """:meth:`codes` packed into one byte string, and the bytes per code."""
        return self._encoding(space, k)[3:]

    @classmethod
    def from_chronological(cls, seq) -> "SamplePath":
        return cls(np.asarray(seq)[::-1])

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RecurrenceRecord:
    """Result of one recurrence search for ``requested_j`` offsets.

    ``taus`` are the match offsets found, in increasing order.  The rest
    follows from them: the search is ``truncated`` when it found fewer
    than ``requested_j``, and otherwise ``lam`` is its total depth
    ``ell + taus[-1]``.
    """

    taus: tuple[int, ...]
    ell: int
    requested_j: int

    def __post_init__(self):
        if any(t <= 0 for t in self.taus):
            raise InputError("recurrence offsets must be positive")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise InputError("recurrence offsets must be strictly increasing")
        if len(self.taus) > self.requested_j:
            raise InputError("a record holds at most J offsets")

    @property
    def achieved_j(self) -> int:
        return len(self.taus)

    @property
    def truncated(self) -> bool:
        return len(self.taus) < self.requested_j

    @property
    def lam(self) -> int | None:
        return None if self.truncated else self.ell + self.taus[-1]


def _validate_query(n: int, ell: int, j: int) -> None:
    if not (isinstance(ell, (int, np.integer)) and ell >= 1):
        raise InputError(f"context length must be a positive int, got {ell!r}")
    if not (isinstance(j, (int, np.integer)) and j >= 1):
        raise InputError(f"recurrence count must be a positive int, got {j!r}")
    if ell > n:
        raise InputError(f"context length {ell} exceeds path length {n}")


def _code_width(cells: int) -> int:
    """Bytes per code: the narrowest of 1, 2, 4 or 8 that holds ``cells`` ids."""
    return next(w for w in (1, 2, 4, 8) if cells <= 256**w)


def _paired_code_bytes(
    x_path: SamplePath, y_path: SamplePath, x_space: OutcomeSpace, y_space: OutcomeSpace, k: int
) -> tuple[bytes, int]:
    """Both paths' codes as one byte string of (main, side) pair codes, and
    the bytes per pair.

    A pair code is the main code's bytes followed by the side code's: the
    product ``x * m_y + y`` would not fit in 64 bits for two interval
    hierarchies from level 27 on.
    """
    wx, wy = (_code_width(s.atom_count(k)) for s in (x_space, y_space))
    pairs = np.empty(x_path.n, dtype=[("x", f"u{wx}"), ("y", f"u{wy}")])
    pairs["x"], pairs["y"] = x_path.codes(x_space, k), y_path.codes(y_space, k)
    return pairs.tobytes(), wx + wy


def _search(buf: bytes, width: int, ell: int, j: int, gate=None) -> tuple[int, ...]:
    """First ``j`` offsets ``t`` in ``[1, n - ell]`` where the block of
    ``ell`` codes at ``t`` equals the block at 0 (and ``gate[t - 1]``
    holds, if given).

    ``buf`` holds ``n`` codes of ``width`` bytes each.  ``bytes.find``
    jumps from one hit to the next, so the work grows with the depth
    reached, not with ``n``.  A hit off a code boundary straddles two
    codes and is skipped.
    """
    find = buf.find
    pattern = buf[: ell * width]
    taus: list[int] = []
    pos = find(pattern, width)
    while pos >= 0:
        skew = pos % width
        if skew:
            pos = find(pattern, pos - skew + width)
            continue
        t = pos // width
        if gate is None or gate[t - 1]:
            taus.append(t)
            if len(taus) == j:
                break
        pos = find(pattern, pos + width)
    return tuple(taus)


def backward_recurrences(
    path: SamplePath,
    k: int,
    ell: int,
    j: int,
    space: OutcomeSpace,
) -> RecurrenceRecord:
    """Offsets of the first ``j`` past recurrences of the current pattern.

    The pattern is the quantized block of the ``ell`` most recent
    outcomes.  An offset ``t`` reports that the block ``ell + t .. 1 + t``
    steps back quantizes to the same cells.  The search never reads
    beyond the stored path; if fewer than ``j`` matches fit, the record
    comes back truncated.
    """
    _validate_query(path.n, ell, j)
    return RecurrenceRecord(_search(*path.code_bytes(space, k), ell, j), int(ell), int(j))


def forward_recurrences(
    path: SamplePath,
    k: int,
    ell: int,
    j: int,
    space: OutcomeSpace,
) -> RecurrenceRecord:
    """Mirror image of :func:`backward_recurrences`.

    Here the pattern is the oldest ``ell`` quantized outcomes of the path
    and the scan moves toward increasing time; an offset ``t`` means the
    window shifted ``t`` steps toward the present matched the pattern.
    """
    _validate_query(path.n, ell, j)
    buf, width = path.code_bytes(space, k)
    # Reversing the bytes reverses each code's bytes too, alike for every code.
    return RecurrenceRecord(_search(buf[::-1], width, ell, j), int(ell), int(j))


def avg_inter_recurrence(record: RecurrenceRecord) -> float:
    """Average spacing ``taus[-1] / J`` of a complete record."""
    if record.truncated:
        raise InputError("average spacing is undefined for a truncated record")
    return record.taus[-1] / record.requested_j


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class GrowthPoint:
    """One point of the recurrence growth curve at pattern length ``k``."""

    k: int
    ell: int
    j: int
    tau_j: int | None
    lam: int | None
    avg_gap: float | None
    rate: float | None  # (1/k) * log2(tau_j / j), bits per symbol
    truncated: bool


# A default growth sweep asks for at most this many recurrences per level,
# and keeps its typical search within this fraction of the path.
GROWTH_J_CAP = 1024
GROWTH_BUDGET = 0.05


def default_growth_entries(n: int, space: OutcomeSpace, ks) -> list[tuple[int, int, int]]:
    """Pick ``(k, ell, j)`` rows for a growth sweep on a length-``n`` path.

    Averaged over realized patterns, the expected depth of a
    ``j``-recurrence search is ``j`` times the number of patterns with
    positive mass, so ``j`` shrinks with the worst-case pattern count
    ``space.atom_count(k)**k`` to keep the typical search inside a
    ``GROWTH_BUDGET`` fraction of the path.
    """
    entries = []
    for k in ks:
        k = int(k)
        j = int(GROWTH_BUDGET * n / space.atom_count(k) ** k)
        entries.append((k, k, max(4, min(GROWTH_J_CAP, j))))
    return entries


def growth_rate_diagnostic(
    path: SamplePath,
    entries,
    space: OutcomeSpace,
) -> list[GrowthPoint]:
    """Growth curve of recurrence depth across pattern lengths.

    For each ``(k, ell, j)`` entry the normalized rate
    ``(1/k) * log2(taus[-1] / j)`` estimates the information content per
    symbol of the current pattern.  Truncated entries keep their place in
    the output with the numeric fields set to ``None`` — they are flagged,
    never fabricated.
    """
    points = []
    for k, ell, j in entries:
        rec = backward_recurrences(path, k, ell, j, space)
        if rec.truncated:
            points.append(GrowthPoint(k, ell, j, None, None, None, None, True))
            continue
        gap = avg_inter_recurrence(rec)
        points.append(
            GrowthPoint(
                k, ell, j, rec.taus[-1], rec.lam, gap, math.log2(gap) / k, False
            )
        )
    return points


@dataclass(frozen=True)
class KacRow:
    """Empirical vs. oracle mean first-recurrence time for one pattern."""

    pattern: tuple[int, ...]  # chronological order, oldest first
    oracle_prob: float
    oracle_mean: float
    hits: int
    unresolved: int
    empirical_mean: float
    rel_deviation: float


def _first_recurrence_taus(read, n_rows: int, path_length: int, k: int):
    """First backward recurrence offset per row (0 marks none found), and
    each row's newest ``k`` outcomes, newest first.

    ``read(rows, width)`` gives the newest ``width`` outcomes of the given
    rows, newest first (a source's ``batch_reader``).  All rows are
    compared at once, over windows of offsets that grow four times wider
    each round; only rows still without a match are read again, wider, for
    the next window, so a block's work follows its slowest rows, not the
    path length.
    """
    last = path_length - k
    tau = np.zeros(n_rows, dtype=np.int64)
    active = np.arange(n_rows)
    head = None
    lo, width = 1, 64
    while active.size and lo <= last:
        hi = min(last, lo + width - 1)
        rows = read(active, hi + k)
        if head is None:  # the first round reads every row
            head = rows[:, :k]
        hit = np.ones((active.size, hi + 1 - lo), dtype=bool)
        for i in range(k):
            hit &= rows[:, lo + i : hi + i + 1] == rows[:, i : i + 1]
        found = hit.any(axis=1)
        tau[active[found]] = lo + hit[found].argmax(axis=1)
        active = active[~found]
        lo, width = hi + 1, 4 * width
    return tau, head


def _row_ids(rows: np.ndarray, base: int) -> np.ndarray:
    """One id per row of non-negative digits below ``base``, equal exactly
    for equal rows.

    Rows are read as base-``base`` numbers, a column at a time; whenever
    the next digit could overflow int64, the ids are first renumbered
    densely, which keeps them below the number of rows.
    """
    ids = np.zeros(len(rows), dtype=np.int64)
    span = 1  # ids lie in [0, span)
    for digit in rows.T:
        if span * base > 2**62:
            ids = np.unique(ids, return_inverse=True)[1].reshape(-1)
            span = len(rows)
        ids *= base
        ids += digit
        span *= base
    return ids


# Trials per RNG block: the seeds, and so the results, depend on it.
_KAC_TRIAL_BLOCK = 1024


def kac_diagnostic(
    source,
    k: int,
    n_trials: int,
    path_length: int,
    seed: int,
) -> list[KacRow]:
    """Check that mean first-recurrence times match reciprocal pattern mass.

    Draws ``n_trials`` independent stationary paths from ``source``,
    measures the first backward recurrence of the realized length-``k``
    pattern in each, and groups trials by pattern.  For every pattern the
    empirical mean is compared against ``1 / P(pattern)`` computed from
    the source's exact block probabilities.

    Trials come in blocks of ``_KAC_TRIAL_BLOCK``, each the batch
    ``source.generate_batch(block, path_length, child)`` of its own spawned
    seed, so the result depends only on ``(seed, n_trials, path_length)``.
    A block is read through ``source.batch_reader``, newest outcomes first,
    and only as far back as the scan goes: an i.i.d. source with paths of
    at least 640 outcomes draws just those tails of its trials (the same
    integers, from the same stream); shorter i.i.d. paths and every other
    source draw the whole block, so they hold at most
    ``_KAC_TRIAL_BLOCK * path_length`` outcomes at once.

    Trials whose recurrence does not occur within ``path_length`` are
    counted as unresolved and left out of the mean.  A realized pattern
    whose exact probability is 0 raises :class:`UnsupportedQueryError`.
    """
    if path_length <= k:
        raise InputError("path_length must exceed the pattern length")
    n_trials, path_length = int(n_trials), int(path_length)
    n_blocks = -(-n_trials // _KAC_TRIAL_BLOCK)

    # pattern (chronological) -> [sum of taus, resolved count, unresolved count]
    stats: dict[tuple[int, ...], list[int]] = {}
    for b, child in enumerate(_spawn(seed, n_blocks)):
        size = min(_KAC_TRIAL_BLOCK, n_trials - b * _KAC_TRIAL_BLOCK)
        read = source.batch_reader(size, path_length, child)
        tau, head = _first_recurrence_taus(read, size, path_length, k)
        chron = head[:, ::-1]  # patterns get their order from the sort at the end
        ids = _row_ids(chron, source.alphabet_size)
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        tau_sums = np.zeros(first.size, dtype=np.int64)
        np.add.at(tau_sums, inverse, tau)  # unresolved trials add 0
        hits = np.bincount(inverse[tau > 0], minlength=first.size)
        trials = np.bincount(inverse, minlength=first.size)
        for pat, tau_sum, hit, total in zip(
            chron[first].tolist(), tau_sums.tolist(), hits.tolist(), trials.tolist()
        ):
            agg = stats.setdefault(tuple(pat), [0, 0, 0])
            agg[0] += tau_sum
            agg[1] += hit
            agg[2] += total - hit

    rows = []
    for pat_t in sorted(stats):
        tau_sum, hits, unresolved = stats[pat_t]
        if hits == 0:  # every trial unresolved: no mean to compare
            continue
        prob = float(source.block_probability(pat_t))
        if prob <= 0.0:
            raise UnsupportedQueryError(f"pattern {pat_t} has zero probability")
        emp = tau_sum / hits
        oracle = 1.0 / prob
        rows.append(
            KacRow(
                pattern=pat_t,
                oracle_prob=prob,
                oracle_mean=oracle,
                hits=hits,
                unresolved=unresolved,
                empirical_mean=emp,
                rel_deviation=abs(emp - oracle) / oracle,
            )
        )
    return rows


class IncrementalPatternIndex:
    """Occurrence index over a growing chronological stream.

    Maintains, per quantized ``ell``-gram, the start positions of its
    occurrences, oldest first; the outcome that followed an occurrence at
    ``p`` is read back from the stream at ``p + ell``.  Appending an
    outcome is O(ell), and :meth:`query` returns the ``j`` most recent
    occurrences in O(j), with exactly the offsets a from-scratch backward
    search would find.
    """

    def __init__(self, space: OutcomeSpace, k: int, ell: int):
        if ell < 1:
            raise InputError("context length must be >= 1")
        self.space = space
        self.k = int(k)
        self.ell = int(ell)
        self._values: list = []
        self._codes: list[int] = []
        # gram -> start positions, as C ints: a stream of 2**31 outcomes would
        # not fit in memory as the list of values kept here anyway.
        self._table: dict[tuple, array] = {}

    def __len__(self) -> int:
        return len(self._values)

    def _add(self, start: int) -> None:
        """Record the occurrence of the gram starting at ``start``."""
        key = tuple(self._codes[start : start + self.ell])
        positions = self._table.get(key)
        if positions is None:
            positions = self._table[key] = array("i")
        positions.append(start)

    def append(self, x) -> None:
        self._codes.append(int(self.space.quantize(x, self.k)))
        self._values.append(x)
        if len(self._codes) > self.ell:
            self._add(len(self._codes) - 1 - self.ell)

    def reconfigure(self, k: int, ell: int) -> None:
        """Re-key the index for a new level or context length."""
        if k == self.k and ell == self.ell:
            return
        if ell < 1:
            raise InputError("context length must be >= 1")
        self.k, self.ell = int(k), int(ell)
        if self._values:
            self._codes = [int(c) for c in self.space.encode(np.asarray(self._values), self.k)]
        self._table = {}
        for start in range(len(self._codes) - self.ell):
            self._add(start)

    def query(self, j: int):
        """Offsets and following outcomes of the last ``j`` occurrences.

        Returns ``(taus, samples, truncated)`` where offsets follow the
        backward-search convention relative to the current stream end; or
        ``None`` when the stream is still shorter than the context.
        """
        end = len(self._codes) - self.ell
        if end < 0:
            return None
        sel = self._table.get(tuple(self._codes[end:]), ())[-j:]
        taus = tuple(end - p for p in reversed(sel))
        samples = tuple(self._values[p + self.ell] for p in reversed(sel))
        return taus, samples, len(sel) < j
