"""Information-divergence metrics and divergence-consistent estimation.

Divergences are measured in bits and may be infinite; an infinite value
is a first-class result, not an error.  The comparison helpers check the
standard quadratic lower bound relating divergence to total variation
and the square-root bracketing of the absolute log-ratio moment.

The Cesàro estimator turns any sequential model into an estimate of the
next-outcome law: it averages the model's predictions over all suffix
windows of the observed past.  Averaging in expectation dominates the
model's per-symbol redundancy, which is how universal models yield
divergence-consistent conditional estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InputError, UnsupportedQueryError
from .estimators import ConditionalDistribution
from .models import _running_sums
from .recurrence import SamplePath
from .sources import replica_rng

__all__ = [
    "kl_divergence",
    "variational_distance",
    "DivergenceReport",
    "pinsker_check",
    "cesaro_estimate",
    "expected_divergence_curve",
    "length_cap",
    "model_from_code_lengths",
    "PINSKER_GAMMA",
]

LOG2_E = math.log2(math.e)
PINSKER_GAMMA = math.sqrt(2.0)  # bracketing constant, natural-log units


def _pmf_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1 or p.size != q.size or p.size == 0:
        raise InputError("distributions must be 1-d vectors over the same alphabet")
    for v in (p, q):
        if (v < -1e-12).any() or abs(v.sum() - 1.0) > 1e-9:
            raise InputError("inputs must be probability vectors summing to 1")
    return np.clip(p, 0.0, None), np.clip(q, 0.0, None)


def kl_divergence(p, q) -> float:
    """Information divergence of ``p`` from ``q`` in bits; may be ``inf``."""
    p, q = _pmf_pair(p, q)
    mask = p > 0.0
    if (q[mask] == 0.0).any():
        return math.inf
    return float((p[mask] * np.log2(p[mask] / q[mask])).sum())


def variational_distance(p, q) -> float:
    """Total absolute difference ``sum |p - q|`` (twice total variation)."""
    p, q = _pmf_pair(p, q)
    return float(np.abs(p - q).sum())


@dataclass(frozen=True)
class DivergenceReport:
    """Divergence, variational distance, and inequality check outcomes."""

    kl_bits: float
    variational: float
    pinsker_ok: bool

    def __post_init__(self):
        if self.pinsker_ok and math.isfinite(self.kl_bits):
            if self.kl_bits < 0.5 * LOG2_E * self.variational**2 - 1e-9:
                raise InputError("report marked ok but the quadratic bound fails")


def pinsker_check(p, q, tol: float = 1e-9) -> DivergenceReport:
    """Verify the quadratic lower bound and the log-ratio bracketing.

    Checks, within ``tol``: divergence (bits) is at least
    ``(log2 e)/2 * V**2`` where ``V`` is the variational distance; and,
    when the divergence ``I`` is finite (in natural-log units), the
    absolute log-ratio moment lies in ``[I, I + sqrt(2) * sqrt(I)]``.
    Infinite divergence short-circuits the bracketing.
    """
    p, q = _pmf_pair(p, q)
    kl_bits = kl_divergence(p, q)
    v = variational_distance(p, q)
    ok = kl_bits >= 0.5 * LOG2_E * v**2 - tol
    if math.isfinite(kl_bits):
        i_nats = kl_bits / LOG2_E
        mask = p > 0.0
        moment = float((p[mask] * np.abs(np.log(p[mask] / q[mask]))).sum())
        ok = ok and (i_nats - tol <= moment <= i_nats + PINSKER_GAMMA * math.sqrt(i_nats) + tol)
    return DivergenceReport(kl_bits, v, bool(ok))


# ---------------------------------------------------------------------------
# Cesàro estimation


def cesaro_estimate(model, path: SamplePath) -> ConditionalDistribution:
    """Average of the model's predictions over all suffix windows.

    For a path of length ``n`` the estimate is the mean of the model's
    next-symbol prediction after consuming, chronologically, the ``t``
    most recent outcomes, for every ``t < n``, as the model's
    ``window_sweep`` gives them.

    An empty path returns the model's prior prediction flagged as a
    default.  The supplied model must be blank (nothing consumed yet).
    """
    if getattr(model, "consumed", 0) != 0:
        raise InputError("cesaro_estimate needs a blank model instance")
    if path.n == 0:
        return ConditionalDistribution.finite(model.predict(), default_used=True)
    acc = np.zeros(model.alphabet_size)
    for _, preds, _ in model.window_sweep(path.values):
        acc = _running_sums(preds, acc)[-1]
    return ConditionalDistribution.finite(acc / path.n)


def expected_divergence_curve(
    source,
    model_factory,
    n_grid,
    replicas: int,
    seed: int,
    track_convexity: bool = False,
) -> list[dict]:
    """Monte-Carlo divergence of Cesàro estimates against the oracle law.

    For each replica a stationary path of length ``max(n_grid)`` is
    drawn, the oracle conditional law at its recent end is computed
    exactly, and one ``window_sweep`` of a fresh model gives the Cesàro
    estimate at every grid size ``n`` (which conditions on windows up to
    ``n - 1``) as running sums of the window predictions.  Rows report
    divergence in bits, variational distance, and the model's realized
    per-symbol redundancy over the consumed window (models whose sweep
    gives component log-likelihoods only).  With ``track_convexity`` each
    row also carries the running average of per-window divergences, an
    upper bound for the divergence of the averaged estimate.

    Replicas whose oracle query cannot be answered (e.g. a renewal source
    with no reset letter in the window) are skipped.
    """
    grid = sorted(set(int(n) for n in n_grid))
    if not grid or grid[0] < 1:
        raise InputError("n_grid must contain positive sizes")
    n_max = grid[-1]
    rows: list[dict] = []
    for r in range(int(replicas)):
        chron = source.generate(n_max, replica_rng(seed, r))
        try:
            oracle = np.asarray(source.conditional(chron), dtype=float)
        except UnsupportedQueryError:
            continue
        model = model_factory()
        acc = np.zeros(model.alphabet_size)
        running_kl = 0.0
        support = oracle > 0.0
        targets = iter(grid)
        n = next(targets)
        for t0, preds, component_ll in model.window_sweep(chron[::-1]):
            sums = _running_sums(preds, acc)
            acc = sums[-1]
            if track_convexity:
                p = oracle[support]
                window_kl = (p * np.log2(p / preds[:, support])).sum(axis=1)
                kl_sums = running_kl + np.cumsum(window_kl)
                running_kl = kl_sums[-1]
            while n is not None and n <= t0 + len(preds):
                i = n - 1 - t0  # the window of length n - 1
                est = sums[i] / n
                if n > 1 and component_ll is not None:
                    window = chron[n_max - (n - 1) :]
                    redundancy = (
                        source.block_log2_probability(window)
                        - model.log2_marginal(component_ll[i])
                    ) / (n - 1)
                else:
                    redundancy = None
                row = {
                    "n": n,
                    "replica": r,
                    "kl_bits": kl_divergence(oracle, est),
                    "variational": variational_distance(oracle, est),
                    "model_redundancy_bits_per_symbol": redundancy,
                }
                if track_convexity:
                    row["window_kl_average_bits"] = float(kl_sums[i]) / n
                rows.append(row)
                n = next(targets, None)
    return rows


# ---------------------------------------------------------------------------
# Code lengths as models


def length_cap(n: int, alphabet_size: int) -> int:
    """Exact ``ceil(n * log2(alphabet_size))`` via integer arithmetic."""
    total = alphabet_size**n
    e = total.bit_length() - 1
    return e if total == 1 << e else e + 1


def model_from_code_lengths(lengths: dict, n: int, alphabet_size: int) -> dict:
    """Normalize a code-length table into an exact pmf over length-``n`` words.

    Each listed word of length ``l`` gets mass proportional to
    ``2**-(1 + min(l, cap))`` where ``cap = ceil(n log2 A)``; unlisted
    words are priced at the cap plus the same one-bit preamble, so every
    word ends up with positive mass and the per-word cost never exceeds
    ``n log2 A + 2`` bits.  Arithmetic is exact (:class:`~fractions.Fraction`);
    a Kraft-inequality violation in the input is an error.
    """
    if n < 1 or alphabet_size < 2:
        raise InputError("need n >= 1 and an alphabet of at least 2 symbols")
    if alphabet_size**n > 1 << 22:
        raise InputError("alphabet_size**n too large to tabulate")
    clean: dict[tuple[int, ...], int] = {}
    for word, l in lengths.items():
        word = tuple(int(s) for s in word)
        if len(word) != n or any(not 0 <= s < alphabet_size for s in word):
            raise InputError(f"word {word} is not a length-{n} sequence over the alphabet")
        if not (isinstance(l, (int, np.integer)) and l >= 1):
            raise InputError(f"code length for {word} must be a positive integer")
        clean[word] = int(l)
    if sum(Fraction(1, 2**l) for l in clean.values()) > 1:
        raise InputError("code lengths violate the Kraft inequality")
    cap = length_cap(n, alphabet_size)
    q: dict[tuple[int, ...], Fraction] = {}
    for word in product(range(alphabet_size), repeat=n):
        l = clean.get(word)
        lp = 1 + (cap if l is None else min(l, cap))
        q[word] = Fraction(1, 2**lp)
    total = sum(q.values())
    return {word: mass / total for word, mass in q.items()}
