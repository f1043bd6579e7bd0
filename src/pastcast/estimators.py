"""Pattern-recurrence estimators of the next-outcome conditional law.

The fixed-resolution estimator quantizes the path at level ``k``, finds
the ``J`` most recent past occurrences of the current length-``ell``
context, and returns the empirical law of the outcome that immediately
followed each occurrence: a pmf over symbols for finite alphabets, an
equal-weight empirical measure on raw values otherwise.

The truncated estimator drives the same search with data-size schedules
``k(n)`` and ``J(k)``, and context length ``ell = k``, chosen so the
needed search depth fits inside the path with high probability; when it
does not, a configured default measure is returned and flagged.  All
estimates are represented by :class:`ConditionalDistribution`, the common
return type of every estimator in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, InsufficientDataError
from .quantize import Alphabet, IntervalFieldHierarchy, OutcomeSpace
from .recurrence import (
    RecurrenceRecord,
    SamplePath,
    _paired_code_bytes,
    _search,
    _validate_query,
    backward_recurrences,
)

__all__ = [
    "ConditionalDistribution",
    "integrate",
    "FiniteAlphabetSchedule",
    "RealValuedSchedule",
    "estimate_fixed_k",
    "estimate_truncated",
    "estimate_with_side_info",
    "truncated_parameters",
]


@dataclass(frozen=True)
class ConditionalDistribution:
    """A next-outcome law: either a pmf over symbols or sample atoms.

    Exactly one of ``pmf`` (finite mode) and ``samples`` (empirical mode,
    equal weight per atom) is set.  ``default_used`` marks laws that came
    from a schedule's fallback rather than from data.
    """

    pmf: np.ndarray | None = None
    samples: np.ndarray | None = None
    default_used: bool = False

    def __post_init__(self):
        if (self.pmf is None) == (self.samples is None):
            raise InputError("set exactly one of pmf and samples")
        if self.pmf is not None:
            p = np.asarray(self.pmf, dtype=float).copy()
            if p.ndim != 1 or p.size == 0:
                raise InputError("pmf must be a non-empty vector")
            if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
                raise InputError("pmf must be nonnegative and sum to 1")
            p.setflags(write=False)
            object.__setattr__(self, "pmf", p)
        else:
            s = np.asarray(self.samples, dtype=float).copy()
            if s.ndim != 1 or s.size == 0:
                raise InputError("samples must be a non-empty vector")
            if not np.isfinite(s).all():
                raise InputError("samples must be finite")
            s.setflags(write=False)
            object.__setattr__(self, "samples", s)

    # -- constructors -------------------------------------------------

    @classmethod
    def finite(cls, pmf, default_used: bool = False) -> "ConditionalDistribution":
        return cls(pmf=pmf, default_used=default_used)

    @classmethod
    def empirical(cls, samples, default_used: bool = False) -> "ConditionalDistribution":
        return cls(samples=samples, default_used=default_used)

    @classmethod
    def uniform(cls, m: int, default_used: bool = False) -> "ConditionalDistribution":
        return cls.finite(np.full(int(m), 1.0 / int(m)), default_used=default_used)

    @classmethod
    def dirac(cls, x: float, default_used: bool = False) -> "ConditionalDistribution":
        return cls.empirical([float(x)], default_used=default_used)

    # -- queries ------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.pmf is not None

    def mean(self, symbol_values=None) -> float:
        return integrate(lambda x: x, self, symbol_values)

    def as_pmf(self) -> np.ndarray:
        if self.pmf is None:
            raise InputError("empirical law has no symbol pmf")
        return self.pmf


def integrate(h, dist: ConditionalDistribution, symbol_values=None) -> float:
    """Expectation of ``h`` under an estimated law.

    Finite mode sums ``h`` over symbols weighted by the pmf; empirical
    mode averages ``h`` over the sample atoms.  ``h`` may be a callable
    or an indexable table.  In finite mode, ``symbol_values`` optionally
    substitutes a numeric value per symbol index before applying ``h``.
    """
    fn = h if callable(h) else (lambda x: h[x])
    if dist.is_finite:
        if symbol_values is None:
            points = range(dist.pmf.size)
        else:
            points = np.asarray(symbol_values, dtype=float)
            if len(points) != dist.pmf.size:
                raise InputError("symbol_values must align with the pmf")
        return float(sum(p * fn(x) for p, x in zip(dist.pmf, points)))
    return float(np.mean([fn(x) for x in dist.samples]))


# ---------------------------------------------------------------------------
# Schedules


def _floor_pos(x: float) -> int:
    """Round down with a tiny slack so exact powers survive float error."""
    return max(1, int(math.floor(x + 1e-9)))


@dataclass(frozen=True)
class FiniteAlphabetSchedule:
    """Data-size schedule for finite alphabets.

    With alphabet size ``m`` and exponent split ``epsilon``, the context
    level is ``k(n) = floor((1 - epsilon) * log_m n)`` and the sample
    count at level ``k`` is ``J(k) = floor(budget_fraction * m ** (k *
    epsilon / (1 - epsilon)))``, which keeps the worst-case search depth
    ``J(k(n)) * m**k(n)`` within ``budget_fraction * n``.  When an upper
    bound ``known_rate`` on the source's entropy rate is supplied, the
    log base switches to ``2**known_rate`` so the context can grow faster
    while typical patterns stay findable.

    At ``budget_fraction = 1`` the depth budget is exactly saturated the
    moment a new level is entered, so contexts only slightly rarer than
    average fail their search there and fall back to the default law.
    Online runs, which integrate over every entry point, benefit from a
    fraction below 1; the asymptotics are unaffected.
    """

    alphabet_size: int
    epsilon: float = 0.5
    known_rate: float | None = None
    budget_fraction: float = 1.0

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ConfigError("alphabet_size", "must be at least 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon", "must lie strictly between 0 and 1")
        if self.known_rate is not None and self.known_rate <= 0.0:
            raise ConfigError("known_rate", "must be positive when given")
        if self.known_rate is not None and 2.0 ** min(self.known_rate, 1.0) == 1.0:
            raise ConfigError("known_rate", "is so small that 2**known_rate rounds to 1")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ConfigError("budget_fraction", "must lie in (0, 1]")

    @property
    def _base(self) -> float:
        return self.alphabet_size if self.known_rate is None else 2.0**self.known_rate

    def k_of_n(self, n: int) -> int:
        if n < 2:
            return 1
        return _floor_pos((1.0 - self.epsilon) * math.log(n, self._base))

    def j_of_k(self, k: int) -> int:
        raw = self._base ** (k * self.epsilon / (1.0 - self.epsilon))
        return _floor_pos(self.budget_fraction * raw)

    def default(self) -> ConditionalDistribution:
        return ConditionalDistribution.uniform(self.alphabet_size, default_used=True)

    def validate(self, n_grid) -> None:
        """Check the search-depth budget ``J(k(n)) * base**k(n) <= n``.

        The budget is asymptotic; it is enforced here for every grid
        point large enough that the level formula clears 1.  Below that
        point the level is 1 and ``J(1) * base`` is the threshold itself,
        so a threshold past float range is refused.
        """
        try:
            threshold = self._base ** (1.0 / (1.0 - self.epsilon))
        except OverflowError:
            raise ConfigError(
                "schedule", "epsilon and known_rate put the level-1 sample count past float range"
            ) from None
        for n in n_grid:
            if n < 2 or n < threshold:
                continue
            k = self.k_of_n(n)
            if self.j_of_k(k) * self._base**k > n * (1.0 + 1e-9):
                raise ConfigError(
                    "schedule", f"search budget exceeds the path at n={n} (k={k})"
                )


@dataclass(frozen=True)
class RealValuedSchedule:
    """Data-size schedule for real-valued paths over the interval cells.

    The level ``k(n)`` is the deepest level whose worst-case search
    budget ``k + J(k) * cells(k)**k / eps_k`` fits within ``n``, for
    contexts of length ``k``, slack ``eps_k = 1/k`` and sample counts
    growing geometrically as ``J(k) = floor(j0 * j_growth**(k-1))``.
    """

    hierarchy: IntervalFieldHierarchy = field(default_factory=IntervalFieldHierarchy)
    j0: int = 50
    j_growth: float = 3.0

    def __post_init__(self):
        if self.j0 < 1:
            raise ConfigError("j0", "must be at least 1")
        if self.j_growth < 1.0:
            raise ConfigError("j_growth", "must be at least 1 so J never shrinks")

    def j_of_k(self, k: int) -> int:
        return _floor_pos(self.j0 * self.j_growth ** (k - 1))

    def budget(self, k: int) -> float:
        cells = self.hierarchy.atom_count(k)
        return k + self.j_of_k(k) * float(cells) ** k / (1.0 / k)

    def k_of_n(self, n: int) -> int:
        k = 1
        while k < self.hierarchy.max_level and self.budget(k + 1) <= n:
            k += 1
        return k

    def default(self) -> ConditionalDistribution:
        return ConditionalDistribution.dirac(0.0, default_used=True)

    def validate(self, n_grid) -> None:
        """Nothing to check: ``k_of_n`` steps up only to levels whose budget fits ``n``."""


Schedule = FiniteAlphabetSchedule | RealValuedSchedule


def truncated_parameters(schedule: Schedule, n: int) -> tuple[int, int, int]:
    """The ``(k, ell, J)`` triple, ``ell = k``, a schedule assigns to a length-``n`` past."""
    k = schedule.k_of_n(n)
    return k, k, schedule.j_of_k(k)


# ---------------------------------------------------------------------------
# Estimators


def _distribution_from_samples(
    samples: np.ndarray, j: int, space: OutcomeSpace
) -> ConditionalDistribution:
    if isinstance(space, Alphabet):
        counts = np.bincount(samples.astype(np.int64), minlength=space.size)
        return ConditionalDistribution.finite(counts / j)
    return ConditionalDistribution.empirical(samples)


def estimate_fixed_k(
    path: SamplePath,
    k: int,
    ell: int,
    j: int,
    space: OutcomeSpace,
) -> tuple[ConditionalDistribution, RecurrenceRecord]:
    """Next-outcome law from the ``j`` most recent context recurrences.

    Searches backward for occurrences of the quantized length-``ell``
    context and averages point masses at the outcome one step after each
    occurrence.  Raises :class:`InsufficientDataError` when the path ends
    before ``j`` recurrences are found; the exception carries the record
    so callers can see how far the search got.
    """
    record = backward_recurrences(path, k, ell, j, space)
    if record.truncated:
        raise InsufficientDataError(record)
    samples = path.values[np.asarray(record.taus, dtype=np.int64) - 1]
    return _distribution_from_samples(samples, j, space), record


def estimate_truncated(
    path: SamplePath,
    schedule: Schedule,
    space: OutcomeSpace,
) -> tuple[ConditionalDistribution, RecurrenceRecord | None]:
    """Schedule-driven estimate that falls back to the default measure.

    Looks up ``(k, ell, J)`` for the path length, runs the fixed-level
    estimator, and returns the law with its search record.  When the
    context does not fit the path, the law is the schedule's default
    (flagged via ``default_used``) and the record is ``None``; when the
    search truncates, the law is the default and the record the truncated
    one.
    """
    k, ell, j = truncated_parameters(schedule, path.n)
    if ell > path.n:
        return schedule.default(), None
    try:
        return estimate_fixed_k(path, k, ell, j, space)
    except InsufficientDataError as err:
        return schedule.default(), err.record


def estimate_with_side_info(
    x_path: SamplePath,
    y_path: SamplePath,
    y_now,
    k: int,
    ell: int,
    j: int,
    x_space: OutcomeSpace,
    y_space: OutcomeSpace,
) -> tuple[ConditionalDistribution, RecurrenceRecord]:
    """Pattern estimate conditioned on a jointly matched side channel.

    A past offset matches when three things hold at level ``k``: the
    length-``ell`` main-channel context recurs, the side-channel context
    recurs, and the side value observed at the sampled position falls in
    the same cell as the current side value ``y_now``.  The estimate then
    averages the main-channel outcomes at the matched offsets.
    """
    if x_path.n != y_path.n:
        raise InputError("main and side paths must have equal length")
    _validate_query(x_path.n, ell, j)
    gate = y_path.codes(y_space, k) == y_space.quantize(y_now, k)
    buf, width = _paired_code_bytes(x_path, y_path, x_space, y_space, k)
    record = RecurrenceRecord(_search(buf, width, ell, j, gate), int(ell), int(j))
    if record.truncated:
        raise InsufficientDataError(record)
    samples = x_path.values[np.asarray(record.taus, dtype=np.int64) - 1]
    return _distribution_from_samples(samples, j, x_space), record
