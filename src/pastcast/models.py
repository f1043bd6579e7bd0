"""Sequential probability models over finite alphabets.

A sequential model assigns a strictly positive pmf to the next symbol
given everything consumed so far; chaining the per-step predictions
yields a probability law on whole sequences.

Two concrete model families live here:

* :class:`KTMixtureModel` — a Bayes mixture of add-1/2 Markov predictors
  of orders ``0..max_order`` with prior weights proportional to
  ``2**-order``.  Besides the usual chronological ``update``, it supports
  ``prepend`` (extending the consumed window at the *old* end in
  O(max_order) bookkeeping) and :meth:`~KTMixtureModel.window_sweep`, which
  yields its predictions after every suffix window of a path from array
  operations, in blocks.
* :class:`LZ78Model` — an incremental-parsing tree whose node statistics
  drive smoothed next-symbol predictions.

Another model plugs in by subclassing :class:`SequentialModel` with its
``_predict``, ``_advance`` and ``fresh``.  The averaging estimator reads
every model through :meth:`SequentialModel.window_sweep`, which by default
re-runs a fresh model over each window.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice

import numpy as np

from .errors import InputError

__all__ = [
    "SequentialModel",
    "KTMixtureModel",
    "LZ78Model",
]

_LN2 = math.log(2.0)

# Windows per block of a window_sweep.  The KT mixture's working arrays hold
# O(SWEEP_BLOCK * (max_order + alphabet_size)) numbers, whatever the path.
SWEEP_BLOCK = 1024


def _earlier_counts(codes: np.ndarray, table: dict) -> np.ndarray:
    """How often each code occurred before it, in ``table`` or in ``codes``.

    ``table`` maps codes to their counts so far; it is brought up to date.
    """
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    first = np.empty(codes.size, dtype=bool)
    first[0] = True
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    sizes = np.empty_like(starts)
    sizes[:-1] = starts[1:] - starts[:-1]
    sizes[-1] = codes.size - starts[-1]
    keys = ranked[starts].tolist()
    base = [table.get(k, 0) for k in keys]
    for k, b, c in zip(keys, base, sizes.tolist()):
        table[k] = b + c
    # An entry's count is its table count plus its rank among equal codes.
    out = np.empty(codes.size, dtype=np.int64)
    out[order] = np.arange(codes.size) - np.repeat(starts - base, sizes)
    return out


def _running_sums(rows: np.ndarray, carry) -> np.ndarray:
    """``carry + rows[0]``, ``carry + rows[0] + rows[1]``, ... added in order.

    The same floats as repeated ``+=`` from ``carry``: ``np.cumsum``
    adds left to right.
    """
    return np.cumsum(np.vstack([carry, rows]), axis=0)[1:]


class SequentialModel:
    """Predict-then-consume interface: ``predict`` the next pmf, ``update`` with the symbol."""

    def __init__(self, alphabet_size: int):
        if alphabet_size < 2:
            raise InputError("alphabet_size must be at least 2")
        self.alphabet_size = int(alphabet_size)
        self._consumed = 0

    # -- subclass hooks -------------------------------------------------

    def _predict(self) -> np.ndarray:
        raise NotImplementedError

    def _advance(self, x: int) -> None:
        raise NotImplementedError

    def fresh(self) -> "SequentialModel":
        raise NotImplementedError

    # -- public surface -------------------------------------------------

    @property
    def consumed(self) -> int:
        return self._consumed

    def predict(self) -> np.ndarray:
        """The next-symbol pmf, computed afresh on each call."""
        p = np.asarray(self._predict(), dtype=float)
        if p.shape != (self.alphabet_size,) or (p <= 0).any():
            raise InputError("model prediction must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            p = p / p.sum()
        return p

    def update(self, x) -> None:
        x = int(x)
        if not 0 <= x < self.alphabet_size:
            raise InputError(f"symbol {x} outside alphabet of size {self.alphabet_size}")
        self._advance(x)
        self._consumed += 1

    def process(self, seq) -> None:
        for x in seq:
            self.update(x)

    def window_sweep(self, backward):
        """Predictions after each suffix window shorter than ``backward``.

        ``backward`` holds a path of ``n`` outcomes, most recent first;
        window ``t`` is its ``t`` most recent outcomes, for ``t < n``.
        Yields ``(t0, preds, None)`` for blocks of at most ``SWEEP_BLOCK``
        windows ``t0, t0 + 1, ...``: row ``i`` of ``preds`` is what
        :meth:`predict` returns once a ``fresh()`` model has consumed
        window ``t0 + i`` oldest first.  That costs ``n * (n - 1) / 2``
        model steps; a model with a cheaper route overrides this.
        """
        if self._consumed:
            raise InputError("the window sweep needs a blank model")
        n_windows = len(backward)
        for t0 in range(0, n_windows, SWEEP_BLOCK):
            preds = np.empty((min(SWEEP_BLOCK, n_windows - t0), self.alphabet_size))
            for i in range(len(preds)):
                run = self.fresh()
                run.process(backward[: t0 + i][::-1])  # the window, oldest first
                preds[i] = run.predict()
            yield t0, preds, None


class KTMixtureModel(SequentialModel):
    """Mixture of add-1/2 Markov predictors of orders ``0..max_order``.

    Each order-``m`` component predicts uniformly until ``m`` symbols are
    available and from then on applies the add-1/2 rule within the
    length-``m`` context.  The mixture predicts with posterior weights
    proportional to ``2**-m`` times each component's likelihood of the
    window consumed so far.
    """

    def __init__(self, alphabet_size: int, max_order: int = 0):
        super().__init__(alphabet_size)
        if max_order < 0:
            raise InputError("max_order must be nonnegative")
        self.max_order = int(max_order)
        self._window: deque[int] = deque()
        self._counts: list[dict[tuple, np.ndarray]] = [
            {} for _ in range(self.max_order + 1)
        ]
        # Natural-log likelihood of the window under each component,
        # split off from the derivable uniform-phase part.
        self._ll_counts = np.zeros(self.max_order + 1)
        prior = 2.0 ** -np.arange(self.max_order + 1)
        self._log_prior = np.log(prior / prior.sum())

    def fresh(self) -> "KTMixtureModel":
        return KTMixtureModel(self.alphabet_size, self.max_order)

    # -- count bookkeeping ----------------------------------------------

    def _add_observation(self, order: int, ctx: tuple, sym: int) -> None:
        table = self._counts[order]
        arr = table.get(ctx)
        if arr is None:
            arr = np.zeros(self.alphabet_size, dtype=np.int64)
            table[ctx] = arr
        c, tot = arr[sym], arr.sum()
        self._ll_counts[order] += math.log(
            (c + 0.5) / (tot + self.alphabet_size / 2.0)
        )
        arr[sym] += 1

    def _advance(self, x: int) -> None:
        t = len(self._window)
        back = list(islice(reversed(self._window), min(self.max_order, t)))[::-1]
        for m in range(self.max_order + 1):
            if t >= m:
                ctx = tuple(back[len(back) - m :]) if m else ()
                self._add_observation(m, ctx, x)
        self._window.append(x)

    def prepend(self, x) -> None:
        """Grow the consumed window at its old end.

        After ``prepend(a)`` the model's state is exactly what consuming
        ``a`` followed by the previous window chronologically would have
        produced: per component only one context observation appears (the
        first symbol old enough to gain a full-length context), so the
        step costs O(max_order) dictionary updates.  The averaging
        estimator does not use it: :meth:`window_sweep` gives the same
        predictions for every window length at once.
        """
        x = int(x)
        if not 0 <= x < self.alphabet_size:
            raise InputError(f"symbol {x} outside alphabet of size {self.alphabet_size}")
        t = len(self._window)
        front = list(islice(self._window, min(self.max_order, t)))
        self._add_observation(0, (), x)
        for m in range(1, self.max_order + 1):
            if t >= m:
                ctx = (x, *front[: m - 1])
                self._add_observation(m, ctx, front[m - 1])
        self._window.appendleft(x)
        self._consumed += 1

    def window_sweep(self, backward):
        """Predictions after each suffix window shorter than ``backward``.

        ``backward`` holds a path of ``n`` outcomes, most recent first;
        window ``t`` is its ``t`` most recent outcomes, for ``t < n``.
        Yields ``(t0, preds, component_ll)``
        for blocks of at most ``SWEEP_BLOCK`` windows ``t0, t0 + 1, ...``:
        row ``i`` of ``preds`` is exactly what :meth:`predict` returns once
        a blank model has consumed window ``t0 + i``, and row ``i`` of
        ``component_ll`` holds that window's component log-likelihoods
        (nats), as :meth:`log2_marginal` takes them.

        Two facts make every quantity a running sum over the window axis.
        The prediction context is the newest ``m`` outcomes whatever the
        window length.  Growing the window by one outcome adds, per
        component, one term ``log((c + 1/2) / (tot + A/2))``, where ``c``
        and ``tot`` count the earlier occurrences of the new (m+1)-gram and
        of its context.  Each term is taken with ``math.log`` on the same
        float ratio and each sum with ``np.cumsum``, which adds left to
        right, so the floats equal those of the step-by-step route.  Only
        the last running sums and the count tables carry from one block to
        the next, so the working arrays do not grow with the path.
        """
        if self._consumed:
            raise InputError("the window sweep needs a blank model")
        a, top, n_windows = self.alphabet_size, self.max_order, len(backward)
        # The oldest outcome of the path never enters a window.
        syms = np.asarray(backward)[: max(n_windows - 1, 0)].astype(np.int64)
        bad = syms[(syms < 0) | (syms >= a)]
        if bad.size:
            raise InputError(f"symbol {bad[0]} outside alphabet of size {a}")
        # Gram codes in base a, most recent symbol lowest; Python ints once
        # a code could pass int64.
        wide = syms if a ** (top + 1) < 2**63 else syms.astype(object)
        target = [  # code of the prediction context, per order
            sum(int(syms[i]) * a**i for i in range(m)) if m <= syms.size else -1
            for m in range(top + 1)
        ]
        grams: list[dict] = [{} for _ in range(top + 1)]
        contexts: list[dict] = [{} for _ in range(top + 1)]
        ll = np.zeros(top + 1)
        seen = np.zeros((top + 1, a), dtype=np.int64)  # counts after the context
        orders = np.arange(top + 1)
        log_a, half_a = math.log(a), a / 2.0
        for t0 in range(0, n_windows, SWEEP_BLOCK):
            t1 = min(t0 + SWEEP_BLOCK, n_windows)
            terms = np.zeros((t1 - t0, top + 1))
            counts = np.zeros((top + 1, t1 - t0, a), dtype=np.int64)
            for m in range(top + 1):
                # Window t gains the order-m gram starting t - m - 1 back.
                lo, hi = max(t0 - m - 1, 0), max(t1 - m - 1, 0)
                if lo < hi:
                    code = sum(wide[lo + i : hi + i] * a**i for i in range(m + 1))
                    ctx = code // a
                    c = _earlier_counts(code, grams[m])
                    tot = _earlier_counts(ctx, contexts[m]) if m else np.arange(lo, hi)
                    rows = np.arange(lo, hi) + (m + 1 - t0)
                    ratio = (c + 0.5) / (tot + half_a)
                    terms[rows, m] = np.fromiter(map(math.log, ratio.tolist()), float, ratio.size)
                    hit = np.asarray(ctx == target[m], dtype=bool)
                    counts[m, rows[hit], syms[lo:hi][hit]] = 1
                counts[m] = np.cumsum(counts[m], axis=0) + seen[m]
                seen[m] = counts[m, -1]
            ll_rows = _running_sums(terms, ll)
            ll = ll_rows[-1].copy()
            component_ll = ll_rows - np.minimum(orders, np.arange(t0, t1)[:, None]) * log_a
            preds = self._mix(component_ll, counts)
            off = np.abs(preds.sum(axis=1) - 1.0) > 1e-12
            if off.any():
                preds[off] /= preds[off].sum(axis=1, keepdims=True)
            yield t0, preds, component_ll

    # -- prediction -------------------------------------------------------

    def _component_log_likelihoods(self) -> np.ndarray:
        t = len(self._window)
        uniform_steps = np.minimum(np.arange(self.max_order + 1), t)
        return self._ll_counts - uniform_steps * math.log(self.alphabet_size)

    def log2_marginal(self, component_ll) -> float:
        """log2 of the mixture's probability of a window whose components
        give it the natural-log likelihoods ``component_ll``."""
        ll = self._log_prior + component_ll
        top = ll.max()
        return (top + math.log(np.exp(ll - top).sum())) / _LN2

    def _mix(self, component_ll: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Mixture pmfs, one row per window.

        ``component_ll`` is windows x orders; ``counts[m]`` holds, per
        window, the symbol counts after the order-``m`` prediction context
        (all zero gives the uniform law).  Row sums are numpy's own, so one
        row gives the same floats as many.
        """
        ll = self._log_prior + component_ll
        ll -= ll.max(axis=1, keepdims=True)
        weights = np.exp(ll)
        weights /= weights.sum(axis=1, keepdims=True)
        half_a = self.alphabet_size / 2.0
        p = np.zeros(counts.shape[1:])
        for m in range(self.max_order + 1):
            comp = (counts[m] + 0.5) / (counts[m].sum(axis=1, keepdims=True) + half_a)
            p += weights[:, m, None] * comp
        return p

    def _predict(self) -> np.ndarray:
        t = len(self._window)
        back = list(islice(reversed(self._window), min(self.max_order, t)))[::-1]
        counts = np.zeros((self.max_order + 1, 1, self.alphabet_size), dtype=np.int64)
        for m in range(min(self.max_order, t) + 1):  # longer contexts are unseen
            arr = self._counts[m].get(tuple(back[len(back) - m :]))
            if arr is not None:
                counts[m, 0] = arr
        return self._mix(self._component_log_likelihoods()[None, :], counts)[0]


class _Node:
    __slots__ = ("count", "children")

    def __init__(self):
        self.count = 1
        self.children: dict[int, "_Node"] = {}


class LZ78Model(SequentialModel):
    """Incremental-parsing tree model with add-1/2 child smoothing.

    The stream is parsed into phrases, each the shortest prefix not yet
    in the tree.  While a phrase walks the tree, the next symbol is
    predicted from the current node's child statistics:
    ``(child count + 1/2) / (children total + alphabet/2)``.  When a
    phrase ends, every node on its walk is credited and the walk restarts
    at the root, so each node's count stays one more than its children's
    total (the one being the phrase that ended there).
    """

    def __init__(self, alphabet_size: int):
        super().__init__(alphabet_size)
        self._root = _Node()
        self._node = self._root
        self._walk = [self._root]

    def fresh(self) -> "LZ78Model":
        return LZ78Model(self.alphabet_size)

    def _predict(self) -> np.ndarray:
        half_a = self.alphabet_size / 2.0
        counts = np.zeros(self.alphabet_size)
        for sym, child in self._node.children.items():
            counts[sym] = child.count
        return (counts + 0.5) / (counts.sum() + half_a)

    def _advance(self, x: int) -> None:
        child = self._node.children.get(x)
        if child is not None:
            self._node = child
            self._walk.append(child)
            return
        self._node.children[x] = _Node()
        for node in self._walk:
            node.count += 1
        self._node = self._root
        self._walk = [self._root]
