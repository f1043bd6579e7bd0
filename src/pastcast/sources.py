"""Synthetic stationary sources with exact oracles.

Every source draws stationary paths from a seed and gives the exact law
of the next outcome given a (sufficient) past and the stationary mass
of a block.  The block and conditional oracles of a source read one
recursion: the periodic phase match, the HMM forward filter, the renewal
walk per residue; a Markov past shorter than the order is a ratio of
block masses.  A past that this recursion finds to have mass 0 has no
conditional law and is refused.
I.i.d., Markov, periodic and renewal sources also give a predictive-state
law (each state's stationary weight and next-symbol pmf), from which
:class:`_SourceBase` derives the entropy rate, the best error rate of a
symbol predictor and the innovation variance.  An HMM has a Monte-Carlo
entropy rate and the exact error rate of a predictor that sees its
hidden state.  ``values`` attaches one finite number to
each symbol index (e.g. -1.0 and +1.0 for a two-state chain).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedQueryError
from .quantize import Alphabet

__all__ = [
    "EntropyRateResult",
    "IIDSource",
    "MarkovSource",
    "PeriodicSource",
    "HMMSource",
    "RyabcoSource",
    "PRESETS",
    "get_preset",
    "build_source",
    "replica_rng",
]


@dataclass(frozen=True)
class EntropyRateResult:
    """Entropy rate in bits per symbol; ``stderr`` is set when estimated."""

    bits: float
    exact: bool
    stderr: float | None = None


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def replica_rng(seed: int, r: int) -> np.random.Generator:
    """Replica ``r``'s generator: spawn key ``(r,)`` of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(r),)))


def _spawn(seed, count: int) -> list[np.random.SeedSequence]:
    """The first ``count`` children of ``seed`` (an int or a ``SeedSequence``).

    They equal what ``SeedSequence.spawn`` gives on a fresh object, but
    ``seed`` is left as it was: ``spawn`` advances its child counter, so
    a second call with the same object would draw other children.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)
        for i in range(count)
    ]


def _entropy_bits(pmf: np.ndarray) -> float:
    p = np.asarray(pmf, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _cut_points(P: np.ndarray) -> np.ndarray:
    """Running sums of each row of ``P`` but the last: inverse-CDF cut points.

    A uniform draws the number of cut points it passes.  The last running
    sum is 1 only within rounding, and a uniform above a sum just short of
    1 would draw the out-of-range symbol ``m``; leaving it out keeps every
    draw in range and changes no other.
    """
    return np.cumsum(P, axis=1)[:, :-1]


def _numbers(value, what: str) -> np.ndarray:
    """``value`` as a float array; strings, bools and ragged lists are refused."""
    try:
        arr = np.asarray(value)
        # A bool among numbers becomes 1.0 in ``arr``, but stays a bool here.
        items = np.asarray(value, dtype=object).flat
        if arr.dtype.kind in "iuf" and not any(isinstance(x, bool) for x in items):
            return arr.astype(float)
    except ValueError:  # ragged nesting
        pass
    raise InputError(f"{what} must hold numbers only, in (nested) lists")


def _validate_pmf(pmf, m: int | None = None) -> np.ndarray:
    p = np.asarray(pmf, dtype=float)
    if p.ndim != 1 or (m is not None and p.size != m):
        raise InputError("probability vector has the wrong shape")
    if not np.isfinite(p).all() or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise InputError("probability vector must be nonnegative and sum to 1")
    return p


# Bound on a periodic cycle's symbol indices, so that one large index
# cannot build a huge alphabet; and the largest value magnitude, so that
# squares stay finite.
_MAX_SYMBOLS = 1024
_VALUE_BOUND = 1e150

# Why a conditional law is refused when its past has mass 0.
_IMPOSSIBLE_PAST = "past has zero probability under this model"


def _law_sum(w, terms) -> float:
    """``sum(w[i] * terms[i])`` over the predictive states, added in order."""
    return float(sum(wi * t for wi, t in zip(w, terms)))


def _bayes_error(w, rows) -> float:
    """Error rate of the best guess per state: ``sum(w[i] * (1 - max rows[i]))``."""
    return _law_sum(w, (1.0 - row.max() for row in rows))


class _SourceBase:
    """Shared conveniences, and the oracles read off the predictive-state law."""

    kind: str = ""
    alphabet_size: int = 0
    values: tuple | None = None

    def _set_alphabet(self, m: int, values) -> None:
        """Fix the alphabet at ``m`` symbols and attach ``values``, one number each."""
        if m < 2:
            raise InputError(f"a source needs at least 2 symbols, got {m}")
        self.alphabet_size = int(m)
        v = None if values is None else _numbers(values, "values")
        if v is not None and (v.shape != (m,) or not (np.abs(v) <= _VALUE_BOUND).all()):
            raise InputError(f"values must be {m} numbers within +-{_VALUE_BOUND:g}")
        self.values = None if v is None else tuple(v.tolist())

    def alphabet(self) -> Alphabet:
        return Alphabet.of_size(self.alphabet_size)

    def numeric_values(self) -> np.ndarray:
        if self.values is None:
            raise InputError(f"{self.kind} source has no numeric values attached")
        return np.asarray(self.values, dtype=float)

    def numeric_path(self, path: np.ndarray) -> np.ndarray:
        return self.numeric_values()[np.asarray(path, dtype=np.int64)]

    def generate(self, n: int, seed) -> np.ndarray:
        return self.generate_batch(1, n, seed)[0]

    def generate_batch(self, trials: int, n: int, seed) -> np.ndarray:
        return np.stack([self.generate(n, np.random.default_rng(s)) for s in _spawn(seed, trials)])

    def batch_reader(self, trials: int, n: int, seed):
        """``read(rows, width)``: the newest ``width`` outcomes, newest first, of
        the increasing ``rows`` of ``generate_batch(trials, n, seed)``.

        Drawn here as the whole batch, once; a source whose rows can be
        drawn from their tails alone overrides this.
        """
        newest_first = np.asarray(self.generate_batch(trials, n, seed))[:, ::-1]
        return lambda rows, width: newest_first[rows, :width]

    def block_log2_probability(self, block) -> float:
        """log2 of the stationary block mass; -inf for impossible blocks.

        Overridden where long blocks would underflow a plain product.
        """
        p = self.block_probability(block)
        return math.log2(p) if p > 0.0 else -math.inf

    def _predictive_law(self) -> tuple:
        """``(w, rows)``: each predictive state's stationary weight and next-symbol pmf."""
        raise UnsupportedQueryError(f"no exact predictive-state law for {self.kind}")

    def entropy_rate(self) -> EntropyRateResult:
        w, rows = self._predictive_law()
        return EntropyRateResult(_law_sum(w, map(_entropy_bits, rows)), exact=True)

    def bayes_error_rate(self) -> float:
        return _bayes_error(*self._predictive_law())

    def innovation_variance(self) -> float:
        """Mean variance of the next value given the past."""
        w, rows = self._predictive_law()
        v = self.numeric_values()
        return _law_sum(w, (row @ (v - row @ v) ** 2 for row in rows))


# Uniforms per i.i.d. draw chunk: 512 KiB of doubles stays in cache.
_DRAW_CHUNK = 65536
# Rows shorter than this are drawn whole for batch_reader: a stream advance
# to each tail costs about as much as drawing a row of this many outcomes.
_TAIL_READ_MIN = 640


class IIDSource(_SourceBase):
    """Independent draws from a fixed pmf.

    Draws are numpy's own ``Generator.choice(m, size, p=pmf)`` sequence,
    computed without its ``searchsorted``: one uniform per outcome, and
    the outcome is the number of cut points of the normalized cdf at or
    below it.  Same stream, same integers.
    """

    kind = "iid"

    def __init__(self, pmf, values=None):
        self.pmf = _validate_pmf(_numbers(pmf, "pmf"))
        self._set_alphabet(self.pmf.size, values)
        # Generator.choice's cdf; u < 1 never reaches its last entry.
        cdf = self.pmf.cumsum()
        cdf /= cdf[-1]
        self._cuts = cdf[:-1]

    def generate_batch(self, trials: int, n: int, seed) -> np.ndarray:
        return self._draw(_rng(seed), (int(trials), int(n)))

    def batch_reader(self, trials: int, n: int, seed):
        # Row r of a batch is uniforms r*n .. r*n + n - 1 of one PCG64 stream,
        # one 64-bit draw each, so a row's tail is drawn alone by advancing
        # the stream to it.  The seed is an int or a SeedSequence.
        n = int(n)
        if n < _TAIL_READ_MIN:
            return super().batch_reader(trials, n, seed)

        def read(rows, width):
            rng = np.random.Generator(np.random.PCG64(seed))
            u = np.empty((len(rows), width))
            drawn = 0
            for i, r in enumerate(np.asarray(rows).tolist()):
                first = r * n + n - width  # the tail's first uniform
                rng.bit_generator.advance(first - drawn)
                rng.random(out=u[i])
                drawn = first + width
            return self._count_cuts(u[:, ::-1], np.empty(u.shape, dtype=np.int64))

        return read

    def _draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        # The uniforms come a cache-sized chunk at a time; each double takes
        # one 64-bit draw, so the stream is the same as one whole-shape call.
        out = np.empty(shape, dtype=np.int64)
        flat = out.reshape(-1)
        buf = np.empty(max(1, min(flat.size, _DRAW_CHUNK)))
        for lo in range(0, flat.size, buf.size):
            dst = flat[lo : lo + buf.size]
            self._count_cuts(rng.random(out=buf[: dst.size]), dst)
        return out

    def _count_cuts(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        # choice's cdf.searchsorted(u, side="right"), as sums of u >= c.
        np.greater_equal(u, self._cuts[0], out=out)
        for c in self._cuts[1:]:
            out += u >= c
        return out

    def conditional(self, past) -> np.ndarray:
        return self.pmf.copy()

    def block_probability(self, block) -> float:
        return float(np.prod(self.pmf[np.asarray(block, dtype=np.int64)]))

    def block_log2_probability(self, block) -> float:
        probs = self.pmf[np.asarray(block, dtype=np.int64)]
        if (probs <= 0.0).any():
            return -math.inf
        return float(np.log2(probs).sum())

    def _predictive_law(self) -> tuple:
        return (1.0,), (self.pmf,)


def _stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix via the unit eigenvector."""
    w, vecs = np.linalg.eig(transition.T)
    i = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(vecs[:, i])
    pi = np.abs(pi)
    return pi / pi.sum()


class MarkovSource(_SourceBase):
    """Finite Markov chain of a given order, started from its stationary law.

    ``transition`` has one row per length-``order`` context (contexts are
    enumerated big-endian, oldest symbol most significant) and one column
    per next symbol.
    """

    kind = "markov"

    def __init__(self, transition, order: int = 1, values=None):
        T = _numbers(transition, "transition")
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
            raise InputError(f"order must be a nonnegative integer, got {order!r}")
        if T.ndim != 2:
            raise InputError("transition must be a matrix")
        m = T.shape[1]
        # m**order > order for m >= 2: no giant power for a giant order.
        if m < 2 or order > T.shape[0] or T.shape[0] != m**order:
            raise InputError(f"transition must have {m}**order rows for alphabet size {m}")
        for row in T:
            _validate_pmf(row, m)
        self.transition = T
        self.order = int(order)
        self._set_alphabet(m, values)
        self._ctx_pi = _stationary_distribution(self._lifted_chain())
        self._cuts = _cut_points(T)
        # math.log2 of every transition, -inf where it is impossible.
        self._log2_T = np.array([[math.log2(p) if p > 0.0 else -math.inf for p in row] for row in T])

    def _lifted_chain(self) -> np.ndarray:
        m, K = self.alphabet_size, self.order
        S = m**K
        lift = np.zeros((S, S))
        for ctx in range(S):
            for s in range(m):
                lift[ctx, (ctx * m + s) % S] += self.transition[ctx, s]
        return lift

    def _ctx_index(self, symbols) -> int:
        idx = 0
        for s in symbols:
            idx = idx * self.alphabet_size + int(s)
        return idx

    def _decode_ctx(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.order):
            out.append(idx % self.alphabet_size)
            idx //= self.alphabet_size
        return tuple(reversed(out))

    @property
    def _symmetric_binary(self) -> bool:
        T = self.transition
        return (
            self.order == 1
            and self.alphabet_size == 2
            and abs(T[0, 0] - T[1, 1]) < 1e-15
        )

    def generate_batch(self, trials: int, n: int, seed) -> np.ndarray:
        rng = _rng(seed)
        trials, n = int(trials), int(n)
        m, K = self.alphabet_size, self.order
        out = np.empty((trials, n), dtype=np.int64)
        ctx = rng.choice(m**K, size=trials, p=self._ctx_pi)
        first = np.array([self._decode_ctx(c) for c in range(m**K)], dtype=np.int64)
        head = first[ctx][:, : min(K, n)]
        out[:, : min(K, n)] = head
        if n <= K:
            return out
        if self._symmetric_binary:
            flips = rng.random((trials, n - 1)) < self.transition[0, 1]
            # Symbol t is the first symbol xor the parity of the flips up to t.
            np.bitwise_xor(np.bitwise_xor.accumulate(flips, axis=1), out[:, :1], out=out[:, 1:])
            return out
        # Row t - K holds step t's uniforms, as drawn one step at a time.
        out[:, K:] = self._walk(ctx, rng.random((n - K, trials))).T
        return out

    def _walk(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Symbols of chains started at contexts ``ctx``, one row of ``u`` per step.

        Each symbol is the number of its context's cut points at or below
        its uniform, so a symbol of mass 0 is never drawn.  Returns one row
        per step and one column per chain.
        """
        m, S = self.alphabet_size, self.alphabet_size**self.order
        if u.shape[1] == 1:
            # One chain: Python floats beat numpy calls on length-1 arrays.
            # bisect_right counts the sorted cut points at or below x.
            cuts = self._cuts.tolist()
            c = int(ctx[0])
            syms = []
            for x in u[:, 0].tolist():
                s = bisect_right(cuts[c], x)
                syms.append(s)
                c = (c * m + s) % S
            return np.array(syms, dtype=np.int64)[:, None]
        out = np.empty(u.shape, dtype=np.int64)
        for t, x in enumerate(u):
            sym = (x[:, None] >= self._cuts[ctx]).sum(axis=1)
            out[t] = sym
            ctx = (ctx * m + sym) % S
        return out

    def conditional(self, past) -> np.ndarray:
        past = np.asarray(past, dtype=np.int64)
        K = self.order
        if past.size >= K:
            # The last K symbols set the law, but the whole past must be possible,
            # as it is when every transition (and so every context) has mass.
            if np.isneginf(self._log2_T).any() and self.block_log2_probability(past) == -math.inf:
                raise UnsupportedQueryError(_IMPOSSIBLE_PAST)
            return self.transition[self._ctx_index(past[past.size - K :])].copy()
        # A shorter past: the ratio of stationary block masses.
        past = past.tolist()
        den = self.block_probability(past)
        if den <= 0.0:
            raise UnsupportedQueryError(_IMPOSSIBLE_PAST)
        joint = [self.block_probability(past + [x]) for x in range(self.alphabet_size)]
        return np.array(joint) / den

    def block_probability(self, block) -> float:
        block = tuple(int(s) for s in block)
        K, m = self.order, self.alphabet_size
        if len(block) >= K:
            ctx = self._ctx_index(block[:K])
            p = self._ctx_pi[ctx]
            for s in block[K:]:
                p *= self.transition[ctx, s]
                ctx = (ctx * m + s) % (m**K)
            return float(p)
        j = len(block)
        total = 0.0
        for ctx in range(m**K):
            if self._decode_ctx(ctx)[:j] == block:
                total += self._ctx_pi[ctx]
        return float(total)

    def block_log2_probability(self, block) -> float:
        block = np.asarray(block, dtype=np.int64)
        K, m = self.order, self.alphabet_size
        if block.size < K:
            return super().block_log2_probability(block)
        start = self._ctx_pi[self._ctx_index(block[:K])]
        if start <= 0.0:
            return -math.inf
        # Flat table index of every later symbol: the K symbols before it,
        # then the symbol itself, read as one base-m number.
        idx = np.zeros(block.size - K, dtype=np.int64)
        for i in range(K + 1):
            idx *= m
            idx += block[i : i + idx.size]
        terms = np.empty(idx.size + 1)
        terms[0] = math.log2(start)
        np.take(self._log2_T, idx, out=terms[1:])
        # cumsum adds left to right, in the order of the chain rule.
        return float(np.cumsum(terms, out=terms)[-1])

    def _predictive_law(self) -> tuple:
        return self._ctx_pi, self.transition


class PeriodicSource(_SourceBase):
    """Deterministic cycle observed at a uniformly random phase."""

    kind = "periodic"

    def __init__(self, cycle, values=None):
        c = _numbers(cycle, "cycle")
        symbols = (0 <= c) & (c < _MAX_SYMBOLS) & (c == c.round())
        if c.ndim != 1 or not c.size or not symbols.all():
            raise InputError(f"cycle must list symbol indices below {_MAX_SYMBOLS}")
        self.cycle = tuple(int(s) for s in c)
        self._set_alphabet(max(max(self.cycle) + 1, 2), values)
        self._arr = np.asarray(self.cycle, dtype=np.int64)

    def generate_batch(self, trials: int, n: int, seed) -> np.ndarray:
        phases = _rng(seed).integers(len(self.cycle), size=int(trials))
        idx = (phases[:, None] + np.arange(int(n))[None, :]) % len(self.cycle)
        return self._arr[idx]

    def _phases(self, block) -> np.ndarray:
        """The start phases at which the cycle emits ``block``."""
        block = [int(s) for s in block]
        L = len(self.cycle)
        hits = [
            phi
            for phi in range(L)
            if all(self.cycle[(phi + i) % L] == s for i, s in enumerate(block))
        ]
        return np.array(hits, dtype=np.int64)

    def conditional(self, past) -> np.ndarray:
        # The last L symbols fix the phase as far as any longer past does.
        # Phases that emit the same L symbols emit the same cycle, so the
        # first of them tells whether the whole past is one stretch of it.
        past = np.asarray(past, dtype=np.int64)
        L = len(self.cycle)
        depth = min(past.size, L)
        phases = self._phases(past[past.size - depth :])
        if not phases.size or (
            self._arr[(phases[0] + depth - past.size + np.arange(past.size)) % L] != past
        ).any():
            raise UnsupportedQueryError(_IMPOSSIBLE_PAST)
        following = self._arr[(phases + depth) % L]
        return np.bincount(following, minlength=self.alphabet_size) / phases.size

    def block_probability(self, block) -> float:
        return self._phases(block).size / len(self.cycle)

    def _predictive_law(self) -> tuple:
        # The phase is the state: phase phi emits cycle[phi] for sure.
        L = len(self.cycle)
        return [1.0 / L] * L, np.eye(self.alphabet_size)[self._arr]


class HMMSource(_SourceBase):
    """Hidden Markov chain with per-state emission rows.

    ``conditional``, the block oracles and the Monte-Carlo entropy rate all
    read one normalized forward filter, :meth:`_forward`.
    """

    kind = "hmm"

    def __init__(self, state_transition, emission, values=None):
        A = _numbers(state_transition, "state_transition")
        E = _numbers(emission, "emission")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("state_transition must be square")
        if E.ndim != 2 or E.shape[0] != A.shape[0]:
            raise InputError("emission needs one row per hidden state")
        for row in (*A, *E):
            _validate_pmf(row)
        self.A, self.E = A, E
        self.n_states = A.shape[0]
        self._set_alphabet(E.shape[1], values)
        self.state_pi = _stationary_distribution(A)
        self._cutsA = _cut_points(A)
        self._cutsE = _cut_points(E)

    def generate_with_states(self, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        rng = _rng(seed)
        s = int(rng.choice(self.n_states, p=self.state_pi))
        # Step t's emission and transition uniforms, as drawn one at a time.
        return self._walk(s, rng.random(2 * int(n)))

    def _walk(self, state: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Emissions and states from ``state``: ``u[2t]`` emits, ``u[2t + 1]`` moves.

        Each draw is the number of the row's cut points at or below its
        uniform, as ``searchsorted`` with ``side="right"`` counts them.
        """
        cutsA, cutsE = self._cutsA.tolist(), self._cutsE.tolist()
        states, xs = [], []
        s = state
        for ue, ua in zip(u[0::2].tolist(), u[1::2].tolist()):
            states.append(s)
            xs.append(bisect_right(cutsE[s], ue))
            s = bisect_right(cutsA[s], ua)
        return np.array(xs, dtype=np.int64), np.array(states, dtype=np.int64)

    def generate(self, n: int, seed) -> np.ndarray:
        return self.generate_with_states(n, seed)[0]

    def _forward(self, symbols) -> tuple[list[float], np.ndarray | None]:
        """The normalized forward filter over ``symbols``.

        Returns each symbol's predictive mass given the symbols before it,
        and the hidden-state law after the last symbol, or ``None`` once a
        mass is 0 (the masses then end with that 0).
        """
        alpha = self.state_pi.copy()
        masses = []
        for x in np.asarray(symbols, dtype=np.int64):
            alpha = alpha * self.E[:, x]
            total = alpha.sum()
            masses.append(total)
            if total <= 0:
                return masses, None
            alpha = (alpha / total) @ self.A
        return masses, alpha

    def conditional(self, past) -> np.ndarray:
        """Next-symbol law given exactly the supplied past (forward filter)."""
        alpha = self._forward(past)[1]
        if alpha is None:
            raise UnsupportedQueryError(_IMPOSSIBLE_PAST)
        return alpha @ self.E

    def block_probability(self, block) -> float:
        return float(math.prod(self._forward(block)[0]))

    def block_log2_probability(self, block) -> float:
        masses, alpha = self._forward(block)
        return -math.inf if alpha is None else sum(map(math.log2, masses), 0.0)

    def entropy_rate(self, n: int = 200_000, seed: int = 7) -> EntropyRateResult:
        """Monte-Carlo estimate via filtered per-symbol code lengths."""
        bits = -np.log2(self._forward(self.generate(n, seed))[0])
        chunk = np.array([c.mean() for c in np.array_split(bits, 50)])
        return EntropyRateResult(
            float(bits.mean()), exact=False, stderr=float(chunk.std(ddof=1) / math.sqrt(50))
        )

    def side_info_bayes_error_rate(self) -> float:
        """Best error rate of a symbol predictor that sees the hidden state."""
        return _bayes_error(self.state_pi, self.E)


class RyabcoSource(_SourceBase):
    """Three-letter renewal chain whose memory resets on the letter ``a``.

    From hidden state ``i`` the next letter is ``a`` with probability 1/2
    (resetting the state to 0); otherwise the state advances to ``i + 1``
    and the letter is ``b`` with probability ``delta_i / 2`` or ``c`` with
    the remaining ``(1 - delta_i) / 2``.  The mixing values ``delta_i``
    cycle through ``delta_cycle``.  Stationary state law: 2**-(i+1).

    The conditional law given a past is exact once the past reaches back
    to the latest ``a``; a past with no ``a`` at all is refused.
    """

    kind = "ryabco"
    A, B, C = 0, 1, 2

    def __init__(self, delta_cycle=(1.0 / 3.0, 2.0 / 3.0), values=None):
        d = _numbers(delta_cycle, "delta_cycle")
        if d.ndim != 1 or not d.size or not ((d >= 0.0) & (d <= 1.0)).all():
            raise InputError("delta_cycle must be a non-empty list of numbers in [0, 1]")
        self.delta_cycle = tuple(d.tolist())
        self._set_alphabet(3, values)

    def delta(self, i: int) -> float:
        return self.delta_cycle[i % len(self.delta_cycle)]

    def state_pmf(self, i: int) -> np.ndarray:
        d = self.delta(i)
        return np.array([0.5, 0.5 * d, 0.5 * (1.0 - d)])

    def generate_with_states(self, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        rng = _rng(seed)
        n = int(n)
        i = int(rng.geometric(0.5) - 1)  # the stationary initial state
        u = rng.random(n)
        reset = u < 0.5
        t = np.arange(n, dtype=np.int64)
        # The state counts the steps since the latest reset before step t;
        # the initial state counts as a reset i steps before step 0.
        states = t - np.maximum.accumulate(np.r_[-i, np.where(reset, t + 1, -i)])[:n]
        threshold = 0.5 + 0.5 * np.asarray(self.delta_cycle)[states % len(self.delta_cycle)]
        xs = np.where(reset, self.A, np.where(u < threshold, self.B, self.C))
        return xs, states

    def generate(self, n: int, seed) -> np.ndarray:
        return self.generate_with_states(n, seed)[0]

    def state_from_past(self, past) -> int:
        past = np.asarray(past, dtype=np.int64)
        hits = np.flatnonzero(past == self.A)
        if hits.size == 0:
            raise UnsupportedQueryError(
                "conditional law needs the past to reach back to the last 'a'"
            )
        return int(past.size - 1 - hits[-1])

    def conditional(self, past) -> np.ndarray:
        return self.state_pmf(self.state_from_past(past))

    def _steps(self, block) -> list[list[float]]:
        """Per residue ``rho``: the step probabilities of ``block`` from state ``rho``."""
        block = [int(s) for s in block]
        walks = []
        for rho in range(len(self.delta_cycle)):
            steps, i = [], rho
            for s in block:
                steps.append(float(self.state_pmf(i)[s]))
                i = 0 if s == self.A else i + 1
            walks.append(steps)
        return walks

    def block_probability(self, block) -> float:
        weights = self._predictive_law()[0]
        return sum((w * math.prod(steps) for w, steps in zip(weights, self._steps(block))), 0.0)

    def block_log2_probability(self, block) -> float:
        p = len(self.delta_cycle)
        terms = [
            -(rho + 1) - math.log2(1.0 - 2.0**-p) + sum(map(math.log2, steps), 0.0)
            for rho, steps in enumerate(self._steps(block))
            if min(steps, default=1.0) > 0.0
        ]
        if not terms:
            return -math.inf
        top = max(terms)
        return top + math.log2(sum(2.0 ** (t - top) for t in terms))

    def _predictive_law(self) -> tuple:
        # The state only matters modulo the cycle length, so the geometric
        # state law 2**-(i+1) collapses to one weight per residue.
        p = len(self.delta_cycle)
        w = [2.0 ** -(rho + 1) / (1.0 - 2.0**-p) for rho in range(p)]
        return w, [self.state_pmf(rho) for rho in range(p)]


PRESETS = {
    "iid_fair": lambda: IIDSource((0.5, 0.5)),
    "iid_p25": lambda: IIDSource((0.75, 0.25)),
    "markov_stay90": lambda: MarkovSource([[0.9, 0.1], [0.1, 0.9]]),
    "periodic01": lambda: PeriodicSource((0, 1)),
    "ryabco_alt": lambda: RyabcoSource((1.0 / 3.0, 2.0 / 3.0)),
}


def get_preset(preset: str, values=None):
    if not isinstance(preset, str) or preset not in PRESETS:
        raise InputError(f"unknown source preset {preset!r}; available: {sorted(PRESETS)}")
    source = PRESETS[preset]()
    if values is not None:
        source._set_alphabet(source.alphabet_size, values)
    return source


# Spec kind -> (builder, fields it needs, fields it may have besides
# ``values``), named as the builder's arguments.  A preset spec has no kind.
_SPECS = {
    "preset": (get_preset, ("preset",), ()),
    "iid": (IIDSource, ("pmf",), ()),
    "markov": (MarkovSource, ("transition",), ("order",)),
    "periodic": (PeriodicSource, ("cycle",), ()),
    "hmm": (HMMSource, ("state_transition", "emission"), ()),
    "ryabco": (RyabcoSource, (), ("delta_cycle",)),
}


def build_source(spec):
    """Build a source from a preset name or an inline description dict.

    A dict holds ``preset``, or ``kind`` and that kind's fields, and may
    add ``values``.  Any other field is refused: a misspelt one would
    otherwise leave its default in place unnoticed.
    """
    if isinstance(spec, str):
        return get_preset(spec)
    if not isinstance(spec, dict):
        raise InputError("source spec must be a preset name or a dict")
    fields = dict(spec)
    kind = "preset" if "preset" in fields else fields.pop("kind", None)
    if not isinstance(kind, str) or kind not in _SPECS:
        raise InputError(f"unknown source kind {kind!r}")
    make, needed, optional = _SPECS[kind]
    takes = needed + optional + ("values",)
    for name in fields:
        if name not in takes:
            raise InputError(f"unknown source spec field {name!r}; {kind} specs take {takes}")
    for name in needed:
        if name not in fields:
            raise InputError(f"source spec is missing field {name!r}")
    return make(**fields)
