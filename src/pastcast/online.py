"""Online plug-in prediction driven by pattern-recurrence estimates.

The loop at each step is: form the schedule-driven estimate of the next
outcome's law from the past observed so far, turn it into an action by
minimizing expected loss under that estimate, then reveal the outcome,
record the realized loss, and absorb the outcome into the index.  The
estimate never sees the outcome it is scored against.

Estimators here are incremental wrappers over
:class:`~pastcast.recurrence.IncrementalPatternIndex`; they produce, at
every step, exactly the law the offline truncated estimator would
produce on the past-so-far, from the outcomes that followed the last
``J`` occurrences the index returns.

:func:`run_online` computes a whole run from arrays when it is handed a
fresh estimator over an :class:`~pastcast.quantize.Alphabet`: one stable
sort of the context codes per stretch of constant ``(k, ell, J)`` gives
every step's counts at once, and ``decide`` and ``loss`` are called once
per distinct law of each regime and once per distinct (law, outcome)
pair.  The results equal the step-by-step loop's for any deterministic
``decide`` and ``loss``.  Real-valued spaces, side-info runs and
estimators that have already seen data take the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .estimators import (
    ConditionalDistribution,
    Schedule,
    _distribution_from_samples,
    truncated_parameters,
)
from .quantize import Alphabet, OutcomeSpace
from .recurrence import IncrementalPatternIndex, _row_ids

__all__ = [
    "hamming_loss",
    "squared_loss",
    "plug_in_action",
    "predict_class",
    "predict_regression",
    "OnlinePatternEstimator",
    "OnlineSideInfoEstimator",
    "LossLedger",
    "run_online",
    "run_online_side_info",
]


def hamming_loss(outcome, action) -> float:
    return 0.0 if outcome == action else 1.0


def squared_loss(outcome, action) -> float:
    return float(outcome - action) ** 2


def plug_in_action(estimate: ConditionalDistribution, loss_table) -> int:
    """Action minimizing expected loss under the estimated law.

    ``loss_table[x, a]`` prices action ``a`` against outcome ``x``; the
    table must cover every symbol of the estimate's pmf with finite
    entries.  Ties go to the lowest action index.
    """
    table = np.asarray(loss_table, dtype=float)
    if table.ndim != 2:
        raise InputError("loss_table must be 2-d: outcomes by actions")
    pmf = estimate.as_pmf()
    if table.shape[0] != pmf.size:
        raise InputError("loss_table rows must cover every outcome symbol")
    if not np.isfinite(table).all():
        raise InputError("loss_table entries must be finite")
    costs = pmf @ table
    return int(np.argmin(costs))


def predict_class(estimate: ConditionalDistribution) -> int:
    """Most probable symbol; ties go to the lowest index.

    This is the plug-in action for symbol-mismatch loss.
    """
    return int(np.argmax(estimate.as_pmf()))


def predict_regression(estimate: ConditionalDistribution, symbol_values=None) -> float:
    """Mean of the estimated law, the plug-in action for squared loss."""
    return estimate.mean(symbol_values)


# ---------------------------------------------------------------------------
# Incremental estimators


class OnlinePatternEstimator:
    """Schedule-driven recurrence estimator over a growing stream.

    Call :meth:`update` with each outcome as it arrives and
    :meth:`current_estimate` for the law of the next one.  The schedule's
    ``(k, ell, J)`` triple is re-read whenever the stream grows, and the
    occurrence index is re-keyed on the (rare) steps where it changes.
    The estimate matches :func:`~pastcast.estimators.estimate_truncated`
    on the same past exactly, including when it falls back to the
    schedule's default law.
    """

    def __init__(self, space: OutcomeSpace, schedule: Schedule):
        self.space = space
        self.schedule = schedule
        k, ell, j = truncated_parameters(schedule, 0)
        self._params = (k, ell, j)
        self._index = IncrementalPatternIndex(space, k, ell)

    @property
    def n(self) -> int:
        return len(self._index)

    @property
    def params(self) -> tuple[int, int, int]:
        """Current ``(k, ell, J)`` as dictated by the schedule."""
        return self._params

    def update(self, x) -> None:
        self._index.append(x)
        k, ell, j = truncated_parameters(self.schedule, len(self._index))
        if (k, ell) != self._params[:2]:
            self._index.reconfigure(k, ell)
        self._params = (k, ell, j)

    def current_estimate(self) -> ConditionalDistribution:
        j = self._params[2]
        found = self._index.query(j)
        if found is None or found[2]:
            return self.schedule.default()
        return _distribution_from_samples(np.asarray(found[1]), j, self.space)


class OnlineSideInfoEstimator:
    """Fixed-parameter joint-recurrence estimator with a side channel.

    Tracks two synchronized symbol streams.  An occurrence matches the
    present when the main-channel ``ell``-gram and the side-channel
    ``ell``-gram both recur; the estimate for side symbol ``y_now``
    averages main-channel outcomes over the last ``j`` matches whose
    following side symbol is ``y_now``.  Matches the offline
    :func:`~pastcast.estimators.estimate_with_side_info` exactly.
    """

    def __init__(self, x_space: Alphabet, y_space: Alphabet, ell: int, j: int):
        if ell < 1 or j < 1:
            raise InputError("context length and sample count must be positive")
        self.x_space = x_space
        self.y_space = y_space
        self.ell = int(ell)
        self.j = int(j)
        self._x_codes: list[int] = []
        self._y_codes: list[int] = []
        # (main gram, side gram, side symbol at the following position) ->
        # main outcomes at that position, oldest first
        self._table: dict[tuple, list] = {}

    def update(self, x, y) -> None:
        x_code = self.x_space.quantize(x, 1)
        y_code = self.y_space.quantize(y, 1)
        self._x_codes.append(x_code)
        self._y_codes.append(y_code)
        start = len(self._x_codes) - 1 - self.ell
        if start >= 0:
            self._table.setdefault(self._key(start, y_code), []).append(x)

    def _key(self, start: int, y_cell: int) -> tuple:
        stop = start + self.ell
        return (tuple(self._x_codes[start:stop]), tuple(self._y_codes[start:stop]), y_cell)

    def current_estimate(self, y_now) -> ConditionalDistribution:
        t = len(self._x_codes)
        if t < self.ell:
            return self._default()
        y_cell = self.y_space.quantize(y_now, 1)
        matched = self._table.get(self._key(t - self.ell, y_cell), ())
        if len(matched) < self.j:
            return self._default()
        samples = np.asarray(matched[-self.j :])
        return _distribution_from_samples(samples, self.j, self.x_space)

    def _default(self) -> ConditionalDistribution:
        return ConditionalDistribution.uniform(self.x_space.size, default_used=True)


# ---------------------------------------------------------------------------
# Driving loops


@dataclass(frozen=True)
class LossLedger:
    """Step-by-step record of an online prediction run."""

    predictions: np.ndarray
    outcomes: np.ndarray
    losses: np.ndarray
    defaults_used: int

    def __post_init__(self):
        for name in ("predictions", "outcomes", "losses"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.predictions.size == self.outcomes.size == self.losses.size):
            raise InputError("ledger columns must have equal length")

    @property
    def n_steps(self) -> int:
        return int(self.losses.size)

    @property
    def running_average(self) -> np.ndarray:
        return np.cumsum(self.losses) / np.arange(1, self.n_steps + 1)

    @property
    def final_average(self) -> float:
        return float(self.losses.mean()) if self.n_steps else 0.0

    def tail_average(self, fraction: float = 0.5) -> float:
        """Average loss over the trailing ``fraction`` of the run."""
        if not 0.0 < fraction <= 1.0:
            raise InputError("fraction must lie in (0, 1]")
        start = self.n_steps - max(1, int(self.n_steps * fraction))
        return float(self.losses[start:].mean()) if self.n_steps else 0.0

    def summary(self) -> dict:
        return {
            "steps": self.n_steps,
            "final_avg_loss": self.final_average,
            "tail_avg_loss": self.tail_average(),
            "defaults_used": self.defaults_used,
        }


def run_online(outcomes, estimator: OnlinePatternEstimator, decide, loss) -> LossLedger:
    """Predict-then-reveal loop over a chronological outcome sequence.

    ``decide`` maps an estimated law to an action; ``loss`` prices an
    action against the revealed outcome.  The estimate at step ``t`` is
    computed strictly from outcomes ``0 .. t-1``.

    A fresh estimator (``n == 0``) over an
    :class:`~pastcast.quantize.Alphabet` takes the array route: the run is
    computed from the encoded outcomes in one pass per schedule regime,
    ``decide`` is called once per distinct law of each regime and ``loss``
    once per distinct (law, outcome symbol) pair, so both must be
    deterministic.
    ``loss`` gets the first outcome seen with each symbol.  That route
    leaves the estimator as it was handed over.  Every other estimator is
    advanced step by step through the run.
    """
    if estimator.n == 0 and isinstance(estimator.space, Alphabet):
        return _sweep_online(outcomes, estimator.space, estimator.schedule, decide, loss)
    return _step_loop(zip(outcomes), estimator, decide, loss)


def _step_loop(steps, estimator, decide, loss) -> LossLedger:
    """The step-by-step run: each step ``(x, *shown)`` shows ``shown`` to
    the estimator before it acts, then reveals ``x`` and absorbs it."""
    preds: list[float] = []
    seen: list = []
    losses: list[float] = []
    defaults = 0
    for x, *shown in steps:
        est = estimator.current_estimate(*shown)
        defaults += est.default_used
        a = decide(est)
        preds.append(a)
        seen.append(x)
        losses.append(loss(x, a))
        estimator.update(x, *shown)
    return LossLedger(np.asarray(preds), np.asarray(seen, dtype=float), np.asarray(losses), defaults)


def _sweep_online(outcomes, alphabet: Alphabet, schedule: Schedule, decide, loss) -> LossLedger:
    """:func:`run_online` from arrays, for a fresh estimator on an alphabet.

    While ``(k, ell, J)`` holds, the law at step ``t`` comes from the
    symbols that followed the last ``J`` earlier occurrences of the
    ``ell``-gram ending at ``t - 1``.  A stable sort of the gram codes
    lines up each gram's occurrences oldest first, so an occurrence's
    rank is its count of earlier ones, and running symbol counts over the
    sorted order give the counts of any ``J`` consecutive occurrences as
    the difference of two rows.
    """
    seen = outcomes if isinstance(outcomes, np.ndarray) else list(outcomes)
    codes = alphabet.encode(seen, 1)
    if codes.ndim != 1:
        raise InputError("online outcomes must form a one-dimensional sequence")
    n, m = codes.size, alphabet.size
    # Law index of every step; -1 marks the schedule's default law.
    law = np.full(n, -1, dtype=np.int64)
    actions: list = []
    for start, stop, (_, ell, j) in _regimes(schedule, n):
        # Step t's context is the gram starting at t - ell, and its law needs
        # J earlier occurrences.  The grams starting before stop - ell all
        # have their following symbol inside the run.
        if stop - ell <= max(start - ell, j):
            continue
        # Arrays are dropped (del) as soon as they are spent; left alive,
        # they would set the run's peak memory.
        grams = _row_ids(sliding_window_view(codes[: stop - 1], ell), m)
        order = np.argsort(grams, kind="stable")
        grams = grams[order]
        rank = np.arange(order.size)
        rank -= np.maximum.accumulate(np.where(np.r_[True, grams[1:] != grams[:-1]], rank, 0))
        del grams
        at = np.flatnonzero((rank >= j) & (order >= start - ell))
        del rank
        follow = codes[order + ell]
        steps = order[at] + ell
        del order
        counts = np.empty((at.size, m), dtype=np.int64)
        for sym in range(m):
            running = np.r_[0, np.cumsum(follow == sym)]
            counts[:, sym] = running[at] - running[at - j]
        del follow, running
        # A row sums to its J, so within the regime it fixes the law.
        _, first, inverse = np.unique(_row_ids(counts, j + 1), return_index=True, return_inverse=True)
        law[steps] = len(actions) + inverse.ravel()
        actions.extend(decide(ConditionalDistribution.finite(row / j)) for row in counts[first])
    defaults = law < 0
    defaults_used = int(np.count_nonzero(defaults))
    if defaults_used:
        law[defaults] = len(actions)
        actions.append(decide(schedule.default()))
    del defaults
    # One loss per (law, outcome symbol) pair that occurs, priced against
    # the first outcome seen with that symbol.
    syms, first = np.unique(codes, return_index=True)
    first_seen = dict(zip(syms.tolist(), first.tolist()))
    pairs = law * m + codes
    priced = np.zeros(len(actions) * m)
    for pair in np.flatnonzero(np.bincount(pairs, minlength=priced.size)).tolist():
        priced[pair] = loss(seen[first_seen[pair % m]], actions[pair // m])
    return LossLedger(
        np.asarray(actions)[law], np.asarray(seen, dtype=float), priced[pairs], defaults_used
    )


def _regimes(schedule: Schedule, n: int):
    """``(start, stop, (k, ell, J))`` for the stretches of steps ``0 .. n-1``
    whose past lengths share one schedule triple.

    The level ``k(n)`` never falls as ``n`` grows, so each change point is
    found by bisection.
    """
    start = 0
    while start < n:
        params = truncated_parameters(schedule, start)
        lo, hi = start, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if truncated_parameters(schedule, mid) == params:
                lo = mid
            else:
                hi = mid
        yield start, hi, params
        start = hi


def run_online_side_info(
    x_outcomes,
    y_outcomes,
    estimator: OnlineSideInfoEstimator,
    decide,
    loss,
) -> LossLedger:
    """Predict-then-reveal loop where the current side value is shown first.

    At step ``t`` the estimator sees both full pasts and the side value
    ``y_t`` before acting; the main outcome ``x_t`` stays hidden until
    the loss is recorded.
    """
    if len(x_outcomes) != len(y_outcomes):
        raise InputError("main and side sequences must have equal length")
    return _step_loop(zip(x_outcomes, y_outcomes), estimator, decide, loss)
