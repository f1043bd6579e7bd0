"""Independent reference implementations used as oracles in tests.

Everything here is written directly from the defining formulas using plain
Python lists and :class:`fractions.Fraction`, deliberately sharing no code
with the package under test.  Tests compare package output against these
on small inputs, exactly where possible.  The only numpy here is the
random generator that the draw references replay, one call at a time as
the sources once drew it; ``ref_kac`` takes its trials from the source
under test and scans them independently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

# ---------------------------------------------------------------------------
# Recurrence offsets on a chronological sequence of codes


def ref_backward_taus(chron, ell, j_max=None):
    """Offsets t at which the final ell-block recurs, oldest-to-newest scan.

    Offset ``t`` means the block ending ``t`` steps before the end equals
    the final ``ell`` entries.  Scanning order is increasing ``t`` (most
    recent match first), capped at ``j_max`` offsets when given.
    """
    seq = list(chron)
    n = len(seq)
    pattern = seq[n - ell :]
    taus = []
    for t in range(1, n - ell + 1):
        if seq[n - ell - t : n - t] == pattern:
            taus.append(t)
            if j_max is not None and len(taus) == j_max:
                break
    return taus


def ref_forward_taus(chron, ell, j_max=None):
    """Offsets t at which the initial ell-block reappears t steps later."""
    seq = list(chron)
    n = len(seq)
    pattern = seq[:ell]
    taus = []
    for t in range(1, n - ell + 1):
        if seq[t : t + ell] == pattern:
            taus.append(t)
            if j_max is not None and len(taus) == j_max:
                break
    return taus


def ref_next_after(chron, taus):
    """The outcome one step after each backward match at offset t."""
    seq = list(chron)
    n = len(seq)
    return [seq[n - t] for t in taus]


def ref_estimate(chron, ell, j, alphabet_size):
    """Empirical next-symbol law from the first j backward recurrences.

    Returns a list of Fractions summing to one, or ``None`` when fewer
    than ``j`` recurrences exist (the truncation case).
    """
    taus = ref_backward_taus(chron, ell, j_max=j)
    if len(taus) < j:
        return None
    counts = [0] * alphabet_size
    for x in ref_next_after(chron, taus):
        counts[int(x)] += 1
    return [Fraction(c, j) for c in counts]


def ref_search_depth(taus, ell):
    """Total depth inspected: context length plus the last offset."""
    return ell + taus[-1]


# ---------------------------------------------------------------------------
# Krichevsky-Trofimov mixture and its Cesàro average, in exact arithmetic


def _kt_step(seq, t, order, alphabet_size):
    """Predictive law after ``t`` symbols of ``seq`` under one KT component.

    The order-``order`` component predicts uniformly until it has seen
    ``order`` symbols; afterwards it keeps per-context add-half counts.
    """
    a = alphabet_size
    if t < order:
        return [Fraction(1, a)] * a
    ctx = tuple(seq[t - order : t])
    counts = [0] * a
    for u in range(order, t):
        if tuple(seq[u - order : u]) == ctx:
            counts[seq[u]] += 1
    total = sum(counts)
    return [Fraction(2 * c + 1, 2 * total + a) for c in counts]


def ref_kt_component_marginal(seq, order, alphabet_size):
    """Probability the order-``order`` KT component assigns to ``seq``."""
    p = Fraction(1)
    for t in range(len(seq)):
        p *= _kt_step(seq, t, order, alphabet_size)[seq[t]]
    return p


def ref_kt_mixture_predictive(seq, max_order, alphabet_size):
    """Mixture predictive with prior weight 2**-m on the order-m component."""
    seq = [int(s) for s in seq]
    a = alphabet_size
    num = [Fraction(0)] * a
    den = Fraction(0)
    for m in range(max_order + 1):
        w = Fraction(1, 2**m) * ref_kt_component_marginal(seq, m, a)
        den += w
        step = _kt_step(seq, len(seq), m, a)
        for x in range(a):
            num[x] += w * step[x]
    return [v / den for v in num]


def ref_kt_mixture_marginal(seq, max_order, alphabet_size):
    """Mixture probability of ``seq`` with prior weights 2**-m, normalized."""
    seq = [int(s) for s in seq]
    total = Fraction(0)
    weight = Fraction(0)
    for m in range(max_order + 1):
        w = Fraction(1, 2**m)
        weight += w
        total += w * ref_kt_component_marginal(seq, m, alphabet_size)
    return total / weight


def ref_cesaro(chron, max_order, alphabet_size):
    """Average of fresh-model predictives over suffix lengths 0..n-1."""
    seq = [int(s) for s in chron]
    n = len(seq)
    acc = [Fraction(0)] * alphabet_size
    for t in range(n):
        suffix = seq[n - t :] if t else []
        step = ref_kt_mixture_predictive(suffix, max_order, alphabet_size)
        for x in range(alphabet_size):
            acc[x] += step[x]
    return [v / n for v in acc]


# ---------------------------------------------------------------------------
# Incremental-parsing model, dict-over-tuples implementation


def ref_lz78_step_probs(chron, alphabet_size):
    """Per-step predictive probabilities of the phrase-tree model.

    The tree is a dict mapping phrase tuples to counts; a node's children
    are the stored tuples one symbol longer.  Prediction smooths child
    counts by one half; a completed phrase credits every node on its walk.
    """
    a = alphabet_size
    counts = {(): 1}
    prefix = ()
    probs = []
    for x in chron:
        x = int(x)
        child_counts = [counts.get(prefix + (s,), 0) for s in range(a)]
        total = sum(child_counts)
        probs.append(Fraction(2 * child_counts[x] + 1, 2 * total + a))
        nxt = prefix + (x,)
        if nxt in counts:
            prefix = nxt
        else:
            counts[nxt] = 1
            for i in range(len(prefix) + 1):
                counts[prefix[:i]] += 1
            prefix = ()
    return probs


# ---------------------------------------------------------------------------
# Dyadic interval cells, exact arithmetic


def ref_quantize(x, k):
    """Cell id of ``x`` at level ``k`` computed with Fractions."""
    fx = Fraction(x)
    interior = 2 * k * 2**k
    if fx < -k:
        return 0
    if fx >= k:
        return interior + 1
    idx = (fx + k) * 2**k
    return 1 + idx.numerator // idx.denominator


def ref_interval(k, code):
    """Bounds of a level-``k`` cell as Fractions (tails use +-inf floats)."""
    interior = 2 * k * 2**k
    if code == 0:
        return (-math.inf, Fraction(-k))
    if code == interior + 1:
        return (Fraction(k), math.inf)
    width = Fraction(1, 2**k)
    lo = Fraction(-k) + (code - 1) * width
    return (lo, lo + width)


# ---------------------------------------------------------------------------
# Small-source block probabilities by exhaustive enumeration


def ref_markov_block_prob(transition, stationary, symbols):
    """Chain rule on an order-1 chain started from its stationary law."""
    symbols = [int(s) for s in symbols]
    p = stationary[symbols[0]]
    for prev, cur in zip(symbols, symbols[1:]):
        p *= transition[prev][cur]
    return p


def ref_markov_bayes_error(transition, context_law):
    """``1 - sum_c pi_c max_s T[c, s]``: the closed form as one dot product."""
    return float(1.0 - np.asarray(context_law) @ np.asarray(transition).max(axis=1))


def ref_markov_innovation_variance(transition, context_law, values):
    """``E[X**2] - E[E[X | context]**2]`` for a chain with numeric values."""
    T, pi, v = (np.asarray(a, dtype=float) for a in (transition, context_law, values))
    return float(pi @ (T @ v**2) - pi @ (T @ v) ** 2)


def ref_markov_block_log2(transition, context_law, order, symbols):
    """log2 block mass of an order-``order`` chain, one symbol at a time.

    ``context_law[c]`` is the stationary mass of the length-``order``
    context with big-endian code ``c`` (oldest symbol most significant).
    Impossible blocks give -inf; a block shorter than the order sums the
    mass of the contexts it begins.
    """
    symbols = [int(s) for s in symbols]
    m = len(transition[0])
    n_ctx = m**order
    if len(symbols) < order:
        total = 0.0
        for ctx in range(n_ctx):
            digits = [(ctx // m ** (order - 1 - i)) % m for i in range(order)]
            if digits[: len(symbols)] == symbols:
                total += context_law[ctx]
        return math.log2(total) if total > 0.0 else -math.inf
    ctx = 0
    for s in symbols[:order]:
        ctx = ctx * m + s
    if context_law[ctx] <= 0.0:
        return -math.inf
    total = math.log2(context_law[ctx])
    for s in symbols[order:]:
        step = transition[ctx][s]
        if step <= 0.0:
            return -math.inf
        total += math.log2(step)
        ctx = (ctx * m + s) % n_ctx
    return total


def ref_hmm_block_prob(state_transition, emission, state_pi, symbols):
    """Sum over every hidden state path (exponential; keep blocks short)."""
    n_states = len(state_pi)
    symbols = [int(s) for s in symbols]
    total = 0.0
    paths = [(pi_s, s) for s, pi_s in enumerate(state_pi)]
    for t, sym in enumerate(symbols):
        new_paths = []
        for weight, state in paths:
            w = weight * emission[state][sym]
            if t + 1 < len(symbols):
                for nxt in range(n_states):
                    new_paths.append((w * state_transition[state][nxt], nxt))
            else:
                total += w
        paths = new_paths
    return total


# ---------------------------------------------------------------------------
# Source draws, one call of the generator at a time


def _cut_points(row):
    """The first m - 1 running sums of a pmf row; the last is taken as 1."""
    return list(accumulate(row))[:-1]


def ref_markov_draws(transition, context_law, order, trials, n, rng):
    """Draws of an order-``order`` chain: the step-by-step loop.

    The first contexts come from ``rng.choice`` over ``context_law``.  A
    symmetric binary chain of order 1 then draws a (trials, n - 1) array of
    flips at once; any other chain draws one uniform per trial and step,
    and the symbol is the number of cut points at or below it.
    """
    m = len(transition[0])
    n_ctx = m**order
    head = min(order, n)
    ctxs = rng.choice(n_ctx, size=trials, p=context_law).tolist()
    out = [[(c // m ** (order - 1 - i)) % m for i in range(head)] for c in ctxs]
    if n <= order:
        return out
    if order == 1 and m == 2 and abs(transition[0][0] - transition[1][1]) < 1e-15:
        flips = rng.random((trials, n - 1)).tolist()
        for row, us in zip(out, flips):
            count = 0
            for u in us:
                count += u < transition[0][1]
                row.append((row[0] + count) % 2)
        return out
    cuts = [_cut_points(row) for row in transition]
    for _ in range(order, n):
        us = rng.random(trials).tolist()
        for i, u in enumerate(us):
            s = sum(c <= u for c in cuts[ctxs[i]])
            out[i].append(s)
            ctxs[i] = (ctxs[i] * m + s) % n_ctx
    return out


def ref_hmm_draws(state_transition, emission, state_pi, n, rng):
    """Symbols and hidden states of an HMM: the step-by-step loop.

    The first state comes from ``rng.choice`` over ``state_pi``; each step
    then draws one uniform for its emission and one for its move, and each
    draw is the number of cut points at or below its uniform.
    """
    cuts_a = [_cut_points(row) for row in state_transition]
    cuts_e = [_cut_points(row) for row in emission]
    s = int(rng.choice(len(state_pi), p=state_pi))
    xs, states = [], []
    for _ in range(n):
        states.append(s)
        u = rng.random()
        xs.append(sum(c <= u for c in cuts_e[s]))
        u = rng.random()
        s = sum(c <= u for c in cuts_a[s])
    return xs, states


def ref_ryabco_draws(delta_cycle, n, rng):
    """Symbols and hidden states of the renewal source: the step-by-step loop.

    The first state is ``rng.geometric(0.5) - 1``, and the ``n`` uniforms
    are drawn at once.  A uniform below 1/2 emits ``a`` (0) and resets the
    state to 0; any other emits ``b`` (1) below ``0.5 + 0.5 * delta`` of
    the state and ``c`` (2) at or above it, and the state moves up by one.
    """
    i = int(rng.geometric(0.5) - 1)
    xs, states = [], []
    for u in rng.random(n).tolist():
        states.append(i)
        if u < 0.5:
            xs.append(0)
            i = 0
        else:
            xs.append(1 if u < 0.5 + 0.5 * delta_cycle[i % len(delta_cycle)] else 2)
            i += 1
    return xs, states


# ---------------------------------------------------------------------------
# Kac first-recurrence statistics


def ref_kac(source, k, n_trials, path_length, seed, block=1024):
    """Per-pattern ``(hits, unresolved, mean first recurrence)``, one trial at a time.

    Trials come in blocks of ``block`` from ``source.generate_batch``, one
    spawned child of ``SeedSequence(seed)`` per block.  Each trial's first
    backward recurrence of its final ``k`` outcomes is found by a plain scan;
    patterns that never recur are left out.
    """
    children = np.random.SeedSequence(seed).spawn(-(-n_trials // block))
    stats = {}
    for b, child in enumerate(children):
        size = min(block, n_trials - b * block)
        for chron in source.generate_batch(size, path_length, child).tolist():
            taus = ref_backward_taus(chron, k, j_max=1)
            agg = stats.setdefault(tuple(chron[path_length - k :]), [0, 0, 0])
            if taus:
                agg[0] += 1
                agg[2] += taus[0]
            else:
                agg[1] += 1
    return {
        pat: (hits, unresolved, total / hits)
        for pat, (hits, unresolved, total) in stats.items()
        if hits
    }


def ref_kl_bits(p, q):
    """Direct-sum Kullback-Leibler divergence in bits."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0:
            continue
        if qi == 0:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


def ref_variational(p, q):
    """L1 distance sum |p - q| (twice the total-variation norm)."""
    return sum(abs(pi - qi) for pi, qi in zip(p, q))
