"""Sequential models: KT mixture, incremental-parsing tree, the shared interface."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast import models
from pastcast.errors import InputError
from pastcast.models import KTMixtureModel, LZ78Model, SequentialModel

from _reference import (
    ref_kt_component_marginal,
    ref_kt_mixture_marginal,
    ref_kt_mixture_predictive,
    ref_lz78_step_probs,
)

paths_bin = st.lists(st.integers(0, 1), min_size=1, max_size=14)
paths_tri = st.lists(st.integers(0, 2), min_size=1, max_size=10)


def log_loss_bits(model, seq):
    """Feed ``seq`` through predict-then-update; total code length in bits."""
    bits = 0.0
    for x in seq:
        bits += -math.log2(model.predict()[x])
        model.update(x)
    return bits


def window_log2_marginal(m):
    """log2 of a KT mixture's probability of the window it has consumed."""
    return m.log2_marginal(m._component_log_likelihoods())


def lz78_counts_hold(m):
    """Every node's count is 1 + its children's total (between phrases)."""
    stack = [m._root]
    while stack:
        node = stack.pop()
        if node.count != 1 + sum(c.count for c in node.children.values()):
            return False
        stack.extend(node.children.values())
    return True


def at_phrase_boundary(m):
    return m._node is m._root and len(m._walk) == 1


# ---------------------------------------------------------------------------
# base interface


def test_predict_update_contract():
    m = KTMixtureModel(2, max_order=1)
    p = m.predict()
    assert p.sum() == pytest.approx(1.0)
    assert np.array_equal(p, m.predict())
    m.update(1)
    assert m.consumed == 1
    with pytest.raises(InputError):
        m.update(2)
    with pytest.raises(InputError):
        m.update(-1)


def test_process_accumulates_bits():
    m = KTMixtureModel(2, max_order=2)
    seq = [0, 1, 1, 0, 1]
    m.process(seq)
    assert m.consumed == len(seq)
    # The mixture's window mass is the product of its step predictions.
    manual = log_loss_bits(KTMixtureModel(2, max_order=2), seq)
    assert -window_log2_marginal(m) == pytest.approx(manual)


# ---------------------------------------------------------------------------
# KT mixture against exact arithmetic


@given(paths_bin)
def test_kt_order0_closed_form(seq):
    m = KTMixtureModel(2, max_order=0)
    bits = log_loss_bits(m, seq)
    expect = ref_kt_component_marginal(seq, 0, 2)
    assert 2.0 ** (-bits) == pytest.approx(float(expect), rel=1e-12)
    assert window_log2_marginal(m) == pytest.approx(math.log2(expect), rel=1e-12)


@settings(max_examples=40)
@given(paths_tri, st.integers(0, 3))
def test_kt_mixture_predictive_matches_reference(seq, max_order):
    m = KTMixtureModel(3, max_order=max_order)
    m.process(seq)
    expect = ref_kt_mixture_predictive(seq, max_order, 3)
    assert m.predict().tolist() == pytest.approx([float(v) for v in expect], rel=1e-11)


@settings(max_examples=40)
@given(paths_tri, st.integers(0, 3))
def test_kt_window_marginal_matches_reference(seq, max_order):
    m = KTMixtureModel(3, max_order=max_order)
    m.process(seq)
    expect = ref_kt_mixture_marginal(seq, max_order, 3)
    assert window_log2_marginal(m) == pytest.approx(math.log2(expect), rel=1e-11)


def test_kt_marginal_equals_accumulated_loss_for_order0():
    """For a single component the chain rule and the marginal coincide."""
    m = KTMixtureModel(4, max_order=0)
    seq = [0, 3, 3, 1, 2, 3, 0, 0]
    bits = log_loss_bits(m, seq)
    assert window_log2_marginal(m) == pytest.approx(-bits, rel=1e-12)


@settings(max_examples=40)
@given(paths_bin, st.integers(0, 3))
def test_kt_prepend_equals_append(seq, max_order):
    """Feeding the window backward via prepend must match a forward run."""
    fwd = KTMixtureModel(2, max_order=max_order)
    fwd.process(seq)
    back = KTMixtureModel(2, max_order=max_order)
    for x in reversed(seq):
        back.prepend(x)
    assert back.consumed == fwd.consumed
    assert window_log2_marginal(back) == pytest.approx(window_log2_marginal(fwd), abs=1e-12)
    assert back.predict().tolist() == pytest.approx(fwd.predict().tolist(), abs=1e-12)


def test_kt_prepend_interleaves_with_update():
    """a-then-window via prepend == chronological consumption, any mix."""
    chron = [1, 0, 0, 1, 1, 0, 1]
    ref = KTMixtureModel(2, max_order=2)
    ref.process(chron)
    mixed = KTMixtureModel(2, max_order=2)
    mixed.process(chron[3:])  # consume the recent half forward
    for x in reversed(chron[:3]):  # then grow the past backward
        mixed.prepend(x)
    assert window_log2_marginal(mixed) == pytest.approx(window_log2_marginal(ref), abs=1e-12)
    assert mixed.predict().tolist() == pytest.approx(ref.predict().tolist(), abs=1e-12)


def test_kt_validation():
    with pytest.raises(InputError):
        KTMixtureModel(1, max_order=0)
    with pytest.raises(InputError):
        KTMixtureModel(2, max_order=-1)
    m = KTMixtureModel(2, max_order=1)
    with pytest.raises(InputError):
        m.prepend(5)


# ---------------------------------------------------------------------------
# KT window sweep against one prepend at a time


def mixed_backward_path(alphabet, n, seed):
    """Random, then periodic, then sticky stretches: many repeated grams."""
    rng = np.random.default_rng(seed)
    third = n // 3 + 1
    periodic = np.tile(rng.integers(0, alphabet, 5), third // 5 + 1)[:third]
    sticky = np.repeat(rng.integers(0, alphabet, third // 7 + 1), 7)[:third]
    return np.concatenate([rng.integers(0, alphabet, third), periodic, sticky])[:n]


def prepend_route(alphabet, order, backward, n):
    """Predictions and component log-likelihoods after windows 0..n-1."""
    m = KTMixtureModel(alphabet, max_order=order)
    preds, lls = [], []
    for t in range(n):
        if t:
            m.prepend(int(backward[t - 1]))
        preds.append(m.predict().tolist())
        lls.append(m._component_log_likelihoods().tolist())
    return preds, lls


def swept(alphabet, order, backward, n):
    blocks = list(KTMixtureModel(alphabet, max_order=order).window_sweep(backward[:n]))
    assert [t0 for t0, _, _ in blocks] == list(range(0, n, models.SWEEP_BLOCK))
    preds = [row for _, p, _ in blocks for row in p.tolist()]
    lls = [row for _, _, ll in blocks for row in ll.tolist()]
    return preds, lls


@pytest.mark.parametrize(
    "alphabet, order", [(a, m) for a in (2, 3, 4) for m in range(6)] + [(2, 8), (3, 12)]
)
def test_kt_window_sweep_equals_prepend(monkeypatch, alphabet, order):
    """Bit for bit, with blocks small enough to cross several boundaries.

    From order 7 on the mixture has eight or more weights, which numpy
    sums pairwise rather than left to right.
    """
    monkeypatch.setattr(models, "SWEEP_BLOCK", 16)
    back = mixed_backward_path(alphabet, 3 * 16 + 5, seed=10 * alphabet + order)
    preds, lls = prepend_route(alphabet, order, back, back.size)
    for n in (0, 1, 15, 16, 17, back.size):
        assert swept(alphabet, order, back, n) == (preds[:n], lls[:n])


@pytest.mark.parametrize("alphabet, order", [(2, 3), (4, 5)])
def test_kt_window_sweep_equals_prepend_at_block_size(alphabet, order):
    block = models.SWEEP_BLOCK
    back = mixed_backward_path(alphabet, 2 * block + 5, seed=alphabet + order)
    preds, lls = prepend_route(alphabet, order, back, back.size)
    for n in (block - 1, block, block + 1, back.size):
        assert swept(alphabet, order, back, n) == (preds[:n], lls[:n])


def test_kt_window_sweep_wide_gram_codes():
    """4**34 passes int64, so gram codes are Python ints; same floats."""
    back = mixed_backward_path(4, 120, seed=3)
    assert swept(4, 33, back, back.size) == prepend_route(4, 33, back, back.size)


def test_kt_window_sweep_validation():
    m = KTMixtureModel(2, max_order=1)
    with pytest.raises(InputError):
        next(m.window_sweep([0, 2, 1]))
    # the oldest outcome never enters a window, as with prepend
    assert len(next(m.window_sweep([0, 1, 5]))[1]) == 3
    m.update(1)
    with pytest.raises(InputError):
        next(m.window_sweep([0, 1]))


# ---------------------------------------------------------------------------
# incremental-parsing tree


@given(paths_tri)
def test_lz78_step_probs_match_reference(seq):
    m = LZ78Model(3)
    expect = ref_lz78_step_probs(seq, 3)
    for x, want in zip(seq, expect):
        p = m.predict()
        assert p[x] == pytest.approx(float(want), rel=1e-12)
        m.update(x)
        assert lz78_counts_hold(m)  # count bookkeeping holds after every step


@given(paths_bin)
def test_lz78_loss_is_sum_of_steps(seq):
    expect = ref_lz78_step_probs(seq, 2)
    manual = -sum(math.log2(w) for w in map(float, expect))
    assert log_loss_bits(LZ78Model(2), seq) == pytest.approx(manual, rel=1e-10)


def test_lz78_parses_phrases():
    # 0|1|01|00|011 over the classic example stream
    m = LZ78Model(2)
    for x in [0, 1, 0, 1, 0, 0, 0, 1, 1]:
        m.update(x)
    assert lz78_counts_hold(m)
    assert at_phrase_boundary(m)  # the stream ends exactly at a phrase end


# ---------------------------------------------------------------------------
# compound: a model induced by a family of conditional estimators


class _CompoundModel(SequentialModel):
    """Predicts ``fn(history)``, the history a tuple of the symbols so far."""

    def __init__(self, fn, alphabet_size):
        super().__init__(alphabet_size)
        self._fn = fn
        self._history = []

    def fresh(self):
        return _CompoundModel(self._fn, self.alphabet_size)

    def _predict(self):
        return self._fn(tuple(self._history))

    def _advance(self, x):
        self._history.append(x)


def test_compound_model_wraps_function():
    m = _CompoundModel(lambda hist: [0.25, 0.75] if len(hist) % 2 == 0 else [0.75, 0.25], 2)
    assert m.predict().tolist() == [0.25, 0.75]
    m.update(1)
    assert m.predict().tolist() == [0.75, 0.25]
    f = m.fresh()
    assert f.consumed == 0 and f.predict().tolist() == [0.25, 0.75]


def test_compound_model_rejects_bad_pmf():
    m = _CompoundModel(lambda hist: [0.0, 1.0], 2)
    with pytest.raises(InputError):
        m.predict()  # zero mass breaks the positivity contract
