"""Online plug-in prediction driven by pattern-recurrence estimates.

The loop at each step is: form the schedule-driven estimate of the next
outcome's law from the past observed so far, turn it into an action by
minimizing expected loss under that estimate, then reveal the outcome,
record the realized loss, and absorb the outcome into the index.  The
estimate never sees the outcome it is scored against.

Estimators here are incremental wrappers over
:class:`~pastcast.recurrence.IncrementalPatternIndex`; they produce, at
every step, exactly the law the offline truncated estimator would
produce on the past-so-far.  On a finite alphabet the law is read from
the index's symbol counts of the last ``J`` occurrences, O(m) per step
for ``m`` symbols; on the interval hierarchy it is the ``J`` sample atoms
the index returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import (
    ConditionalDistribution,
    Schedule,
    _distribution_from_samples,
    estimate_truncated,
    estimate_with_side_info,
    integrate,
    truncated_parameters,
)
from .quantize import Alphabet, OutcomeSpace
from .recurrence import IncrementalPatternIndex, SamplePath

__all__ = [
    "hamming_loss",
    "squared_loss",
    "plug_in_action",
    "predict_class",
    "predict_regression",
    "classify_next",
    "regress_next",
    "classify_next_with_side_info",
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
# One-shot helpers for a single prediction from a chronological past


def classify_next(past, schedule: Schedule, space: OutcomeSpace) -> int:
    path = SamplePath.from_chronological(past)
    return predict_class(estimate_truncated(path, schedule, space))


def regress_next(
    past,
    schedule: Schedule,
    space: OutcomeSpace,
    symbol_values=None,
) -> float:
    path = SamplePath.from_chronological(past)
    est = estimate_truncated(path, schedule, space)
    return predict_regression(est, symbol_values)


def classify_next_with_side_info(
    x_past,
    y_past,
    y_now,
    k: int,
    ell: int,
    j: int,
    x_space: OutcomeSpace,
    y_space: OutcomeSpace,
) -> int:
    est, _ = estimate_with_side_info(
        SamplePath.from_chronological(x_past),
        SamplePath.from_chronological(y_past),
        y_now,
        k,
        ell,
        j,
        x_space,
        y_space,
    )
    return predict_class(est)


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
        self._n = 0
        k, ell, j = truncated_parameters(schedule, 0)
        self._params = (k, ell, j)
        self._index = IncrementalPatternIndex(space, k, ell)

    @property
    def n(self) -> int:
        return self._n

    @property
    def params(self) -> tuple[int, int, int]:
        """Current ``(k, ell, J)`` as dictated by the schedule."""
        return self._params

    def update(self, x) -> None:
        self._index.append(x)
        self._n += 1
        k, ell, j = truncated_parameters(self.schedule, self._n)
        if (k, ell) != self._params[:2]:
            self._index.reconfigure(k, ell)
        self._params = (k, ell, j)

    def current_estimate(self) -> ConditionalDistribution:
        k, ell, j = self._params
        if ell > self._n:
            return self.schedule.default()
        if isinstance(self.space, Alphabet):
            counts = self._index.counts(j)
            if counts is None:
                return self.schedule.default()
            return ConditionalDistribution.finite(np.array(counts) / j)
        found = self._index.query(j)
        if found is None or found[2]:
            return self.schedule.default()
        return ConditionalDistribution.empirical(found[1])


class OnlineSideInfoEstimator:
    """Fixed-parameter joint-recurrence estimator with a side channel.

    Tracks two synchronized streams.  An occurrence matches the present
    when the main-channel ``ell``-gram and the side-channel ``ell``-gram
    both recur at level ``k``; the estimate for side value ``y_now``
    averages main-channel outcomes over the last ``j`` matches whose
    following side value fell in the same cell as ``y_now``.  Matches the
    offline :func:`~pastcast.estimators.estimate_with_side_info` exactly.
    """

    def __init__(
        self,
        x_space: OutcomeSpace,
        y_space: OutcomeSpace,
        k: int,
        ell: int,
        j: int,
        default_measure: ConditionalDistribution | None = None,
    ):
        if ell < 1 or j < 1:
            raise InputError("context length and sample count must be positive")
        self.x_space = x_space
        self.y_space = y_space
        self.k = int(k)
        self.ell = int(ell)
        self.j = int(j)
        if default_measure is None:
            if isinstance(x_space, Alphabet):
                default_measure = ConditionalDistribution.uniform(x_space.size)
            else:
                default_measure = ConditionalDistribution.dirac(0.0)
        self.default_measure = default_measure
        self._x_codes: list[int] = []
        self._y_codes: list[int] = []
        # (main gram, side gram, side cell at the following position) ->
        # main outcomes at that position, oldest first
        self._table: dict[tuple, list] = {}

    def __len__(self) -> int:
        return len(self._x_codes)

    def update(self, x, y) -> None:
        x_code = int(self.x_space.quantize(x, self.k))
        y_code = int(self.y_space.quantize(y, self.k))
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
        y_cell = int(self.y_space.quantize(y_now, self.k))
        matched = self._table.get(self._key(t - self.ell, y_cell), ())
        if len(matched) < self.j:
            return self._default()
        samples = np.asarray(matched[-self.j :])
        return _distribution_from_samples(samples, self.j, self.x_space)

    def _default(self) -> ConditionalDistribution:
        d = self.default_measure
        return ConditionalDistribution(pmf=d.pmf, samples=d.samples, default_used=True)


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
    """
    preds: list[float] = []
    seen: list = []
    losses: list[float] = []
    defaults = 0
    for x in outcomes:
        est = estimator.current_estimate()
        defaults += est.default_used
        a = decide(est)
        preds.append(a)
        seen.append(x)
        losses.append(loss(x, a))
        estimator.update(x)
    return LossLedger(np.asarray(preds), np.asarray(seen, dtype=float), np.asarray(losses), defaults)


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
    preds: list[float] = []
    losses: list[float] = []
    defaults = 0
    for x, y in zip(x_outcomes, y_outcomes):
        est = estimator.current_estimate(y)
        defaults += est.default_used
        a = decide(est)
        preds.append(a)
        losses.append(loss(x, a))
        estimator.update(x, y)
    return LossLedger(np.asarray(preds), np.asarray(x_outcomes, dtype=float), np.asarray(losses), defaults)
