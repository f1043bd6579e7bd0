"""Plug-in decisions and the online predict-then-reveal loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast.errors import InputError, InsufficientDataError
from pastcast.estimators import (
    ConditionalDistribution,
    FiniteAlphabetSchedule,
    RealValuedSchedule,
    estimate_truncated,
    estimate_with_side_info,
    truncated_parameters,
)
from pastcast.online import (
    LossLedger,
    OnlinePatternEstimator,
    OnlineSideInfoEstimator,
    hamming_loss,
    plug_in_action,
    predict_class,
    predict_regression,
    run_online,
    run_online_side_info,
    squared_loss,
)
from pastcast.quantize import Alphabet
from pastcast.recurrence import SamplePath
from pastcast.sources import HMMSource, MarkovSource, PeriodicSource, get_preset

BIN = Alphabet.of_size(2)
TRI = Alphabet.of_size(3)


# ---------------------------------------------------------------------------
# decisions


def test_plug_in_action_frozen():
    est = ConditionalDistribution.finite([0.5, 0.5])
    # expected costs: action 0 costs 5, action 1 costs 0.5
    assert plug_in_action(est, [[0.0, 1.0], [10.0, 0.0]]) == 1
    # symmetric table: tie broken toward the lower index
    assert plug_in_action(est, [[0.0, 1.0], [1.0, 0.0]]) == 0


def test_plug_in_action_validation():
    est = ConditionalDistribution.finite([0.5, 0.5])
    with pytest.raises(InputError):
        plug_in_action(est, [0.0, 1.0])
    with pytest.raises(InputError):
        plug_in_action(est, [[0.0, 1.0]])
    with pytest.raises(InputError):
        plug_in_action(est, [[0.0, np.inf], [1.0, 0.0]])
    with pytest.raises(InputError):
        plug_in_action(ConditionalDistribution.dirac(1.0), [[0.0], [1.0]])


@given(st.lists(st.integers(1, 100), min_size=2, max_size=6))
def test_predict_class_is_hamming_plug_in(weights):
    pmf = np.array(weights, dtype=float) / sum(weights)
    est = ConditionalDistribution.finite(pmf)
    m = len(weights)
    mismatch = 1.0 - np.eye(m)
    # With exactly tied pmf entries the float row sums of the cost table
    # can break the tie differently from argmax, so the strong claim is
    # near-optimality; index equality needs a unique maximizer.
    costs = pmf @ mismatch
    for action in (
        predict_class(est),
        plug_in_action(est, mismatch),
        plug_in_action(est, 7.5 * mismatch),  # argmax is scale-free
    ):
        assert costs[action] <= costs.min() + 1e-12
    if np.sum(pmf == pmf.max()) == 1:
        assert predict_class(est) == plug_in_action(est, mismatch)
        assert plug_in_action(est, 7.5 * mismatch) == predict_class(est)


def test_predict_regression_uses_values():
    est = ConditionalDistribution.finite([0.25, 0.75])
    assert predict_regression(est) == pytest.approx(0.75)
    assert predict_regression(est, [-1.0, 1.0]) == pytest.approx(0.5)
    emp = ConditionalDistribution.empirical([0.0, 1.0, 2.0])
    assert predict_regression(emp) == pytest.approx(1.0)


def test_losses():
    assert hamming_loss(1, 1) == 0.0 and hamming_loss(1, 0) == 1.0
    assert squared_loss(2.0, 0.5) == pytest.approx(2.25)


# ---------------------------------------------------------------------------
# online pattern estimator == batch estimator, step by step


@settings(max_examples=25)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=70))
def test_online_estimator_tracks_batch_estimates(chron):
    sched = FiniteAlphabetSchedule(2, epsilon=0.5)
    online = OnlinePatternEstimator(BIN, sched)
    for t, x in enumerate(chron):
        got = online.current_estimate()
        want, _ = estimate_truncated(SamplePath.from_chronological(chron[:t]), sched, BIN)
        assert got.default_used == want.default_used
        assert got.pmf.tolist() == want.pmf.tolist()
        online.update(x)


def test_online_estimator_tracks_batch_on_long_ternary_path():
    """Count-based laws equal the batch estimate on a long three-symbol path.

    Compared at sampled steps and at the first steps after each change of
    the schedule's ``(k, ell)``, where the index is re-keyed.
    """
    src = MarkovSource([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    chron = src.generate(20_000, seed=5).tolist()
    sched = FiniteAlphabetSchedule(3, epsilon=0.5)
    online = OnlinePatternEstimator(TRI, sched)
    rekeyed_at, compared, fitted = [], 0, 0
    for t, x in enumerate(chron):
        if t % 97 == 0 or (rekeyed_at and t - rekeyed_at[-1] < 3):
            got = online.current_estimate()
            want, _ = estimate_truncated(SamplePath.from_chronological(chron[:t]), sched, TRI)
            assert got.default_used == want.default_used
            assert got.pmf.tolist() == want.pmf.tolist()
            compared += 1
            fitted += not got.default_used
        shape = online.params[:2]
        online.update(x)
        if online.params[:2] != shape:
            rekeyed_at.append(t + 1)
    assert rekeyed_at == [81, 729, 6561]
    assert compared == 207 + 9 and fitted > 0.9 * compared


def test_online_estimator_tracks_batch_on_real_values():
    """Real-valued laws come from the index's sample atoms, through one re-key."""
    rng = np.random.default_rng(12)
    chron = np.round(rng.normal(0.0, 0.7, 1_500), 3).tolist()
    sched = RealValuedSchedule(j0=2, j_growth=1.0)
    space = sched.hierarchy
    online = OnlinePatternEstimator(space, sched)
    fitted = 0
    for t, x in enumerate(chron):
        got = online.current_estimate()
        want, _ = estimate_truncated(SamplePath.from_chronological(chron[:t]), sched, space)
        assert got.default_used == want.default_used
        assert got.samples.tolist() == want.samples.tolist()
        fitted += not got.default_used
        online.update(x)
    assert online.params == (2, 2, 2)  # level 2 is entered at n = 1298
    assert fitted > 0.8 * len(chron)


def test_online_loop_is_causal():
    """Changing the future must not change earlier predictions."""
    src = get_preset("markov_stay90")
    chron = src.generate(400, seed=8).tolist()
    mutated = list(chron)
    mutated[-100:] = [1 - x for x in mutated[-100:]]

    def run(seq):
        sched = FiniteAlphabetSchedule(2, epsilon=0.5)
        est = OnlinePatternEstimator(BIN, sched)
        return run_online(seq, est, predict_class, hamming_loss)

    a, b = run(chron), run(mutated)
    assert a.predictions[:300].tolist() == b.predictions[:300].tolist()


def test_online_accepts_generators():
    """The loop must consume lazily produced outcomes exactly once."""
    chron = [0, 1, 0, 0, 1, 1, 0, 1]
    sched = FiniteAlphabetSchedule(2, epsilon=0.5)
    as_list = run_online(chron, OnlinePatternEstimator(BIN, sched), predict_class, hamming_loss)
    as_gen = run_online(
        (x for x in chron), OnlinePatternEstimator(BIN, sched), predict_class, hamming_loss
    )
    assert as_list.outcomes.tolist() == as_gen.outcomes.tolist()
    assert as_list.losses.tolist() == as_gen.losses.tolist()


# ---------------------------------------------------------------------------
# the array route of run_online == the step-by-step loop


def _stepwise(chron, alphabet, schedule, decide, loss):
    """Predictions, losses and default count of the per-step loop.

    Driven here, estimate by estimate, so the array route cannot stand in
    for it.
    """
    est = OnlinePatternEstimator(alphabet, schedule)
    preds, losses, defaults = [], [], 0
    for x in chron:
        law = est.current_estimate()
        defaults += law.default_used
        a = decide(law)
        preds.append(a)
        losses.append(loss(x, a))
        est.update(x)
    return np.asarray(preds, dtype=float).tolist(), np.asarray(losses, dtype=float).tolist(), defaults


def _assert_sweep_equals_loop(chron, alphabet, schedule, decide=predict_class, loss=hamming_loss):
    """The array route equals the loop, on the sequence and on a generator."""
    preds, losses, defaults = _stepwise(chron, alphabet, schedule, decide, loss)
    for outcomes in (chron, (x for x in chron)):
        est = OnlinePatternEstimator(alphabet, schedule)
        ledger = run_online(outcomes, est, decide, loss)
        assert ledger.predictions.tolist() == preds
        assert ledger.losses.tolist() == losses
        assert ledger.defaults_used == defaults
        assert ledger.outcomes.tolist() == [float(x) for x in chron]
        assert est.n == 0  # the array route leaves the estimator untouched
    return ledger


def _sticky_chain(m, stay, seed):
    """An order-1 chain on ``m`` symbols that repeats its last symbol with
    probability ``stay`` and otherwise moves by a random row."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m), size=m) * (1.0 - stay) + stay * np.eye(m)
    return MarkovSource(rows / rows.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("budget", [0.25, 1.0])
@pytest.mark.parametrize("epsilon", [0.5, 0.75])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_online_sweep_equals_loop(m, epsilon, budget):
    chron = _sticky_chain(m, 0.6, seed=m).generate(3_000, seed=17).tolist()
    sched = FiniteAlphabetSchedule(m, epsilon=epsilon, budget_fraction=budget)
    ledger = _assert_sweep_equals_loop(chron, Alphabet.of_size(m), sched)
    assert ledger.defaults_used < len(chron)


@pytest.mark.parametrize("n", [1_024, 1_025])
def test_online_sweep_equals_loop_at_rekey(n):
    """Paths that end on the last step before a re-key and on the first after."""
    sched = FiniteAlphabetSchedule(2, epsilon=0.5)
    assert truncated_parameters(sched, 1_023) != truncated_parameters(sched, 1_024)
    chron = get_preset("markov_stay90").generate(n, seed=4).tolist()
    _assert_sweep_equals_loop(chron, BIN, sched)


@pytest.mark.parametrize(
    "source, m, rate",
    [
        (get_preset("periodic01"), 2, 0.05),
        (_sticky_chain(2, 0.98, seed=1), 2, 0.05),
        (PeriodicSource((0, 1, 2)), 3, 0.1),
        (_sticky_chain(3, 0.98, seed=2), 3, 0.1),
    ],
)
def test_online_sweep_equals_loop_on_wide_grams(source, m, rate):
    """A low ``known_rate`` drives the context past 64 bits of gram code."""
    n = 1_500
    sched = FiniteAlphabetSchedule(m, epsilon=0.5, known_rate=rate)
    ell = truncated_parameters(sched, n - 1)[1]
    assert m**ell > 2**63
    chron = source.generate(n, seed=9).tolist()
    ledger = _assert_sweep_equals_loop(chron, Alphabet.of_size(m), sched)
    assert ledger.defaults_used < n - 200  # laws were read at wide contexts


@pytest.mark.parametrize("epsilon", [0.5, 0.75])
def test_online_sweep_equals_loop_on_periodic_source(epsilon):
    chron = get_preset("periodic01").generate(2_000, seed=3).tolist()
    sched = FiniteAlphabetSchedule(2, epsilon=epsilon, budget_fraction=0.25)
    ledger = _assert_sweep_equals_loop(chron, BIN, sched)
    assert ledger.tail_average(0.5) == 0.0


def test_online_sweep_equals_loop_on_regression_lambdas():
    """The decision and loss of criterion 10, step for step."""
    src = get_preset("markov_stay90", values=[-1.0, 1.0])
    values = src.numeric_values()
    chron = src.generate(5_000, seed=6)
    sched = FiniteAlphabetSchedule(2, epsilon=0.75, budget_fraction=0.25)
    _assert_sweep_equals_loop(
        chron,
        src.alphabet(),
        sched,
        lambda e: predict_regression(e, values),
        lambda x, a: (float(values[int(x)]) - a) ** 2,
    )


@pytest.mark.parametrize("bad", [[0, 1, 2], [0, -1], [0, 0.5], ["a", 0], [None, 1]])
def test_online_sweep_rejects_non_symbols(bad):
    sched = FiniteAlphabetSchedule(2, epsilon=0.5)
    with pytest.raises(InputError):
        run_online(bad, OnlinePatternEstimator(BIN, sched), predict_class, hamming_loss)
    with pytest.raises(InputError):
        run_online(iter(bad), OnlinePatternEstimator(BIN, sched), predict_class, hamming_loss)
    advanced = OnlinePatternEstimator(BIN, sched)
    advanced.update(0)
    with pytest.raises(InputError):  # the step-by-step loop rejects them too
        run_online(bad, advanced, predict_class, hamming_loss)


def test_run_online_continues_an_advanced_estimator_step_by_step():
    """An estimator that has seen data keeps the loop and picks up where it
    stopped, matching the array route over the whole path."""
    chron = get_preset("markov_stay90").generate(600, seed=12).tolist()
    sched = FiniteAlphabetSchedule(2, epsilon=0.5)
    whole = run_online(chron, OnlinePatternEstimator(BIN, sched), predict_class, hamming_loss)
    est = OnlinePatternEstimator(BIN, sched)
    for x in chron[:100]:
        est.update(x)
    rest = run_online(chron[100:], est, predict_class, hamming_loss)
    assert est.n == len(chron)
    assert rest.predictions.tolist() == whole.predictions[100:].tolist()
    assert rest.losses.tolist() == whole.losses[100:].tolist()


# ---------------------------------------------------------------------------
# ledger arithmetic


def test_ledger_running_average_telescopes():
    led = LossLedger(
        predictions=[0, 1, 1, 0],
        outcomes=[0, 0, 1, 1],
        losses=[0.0, 1.0, 0.0, 1.0],
        defaults_used=2,
    )
    assert led.n_steps == 4
    assert led.running_average.tolist() == [0.0, 0.5, 1.0 / 3.0, 0.5]
    assert led.final_average == 0.5
    assert led.tail_average(0.5) == 0.5
    assert led.tail_average(1.0) == 0.5
    assert led.summary() == {
        "steps": 4,
        "final_avg_loss": 0.5,
        "tail_avg_loss": 0.5,
        "defaults_used": 2,
    }
    with pytest.raises(InputError):
        led.tail_average(0.0)
    with pytest.raises(ValueError):
        led.losses[0] = 9.0  # ledgers are immutable once written


def test_ledger_shape_validation():
    with pytest.raises(InputError):
        LossLedger(predictions=[1], outcomes=[1, 0], losses=[0.0], defaults_used=0)


def test_run_online_losses_match_inputs():
    chron = [1, 1, 0, 1]
    sched = FiniteAlphabetSchedule(2, epsilon=0.5)
    led = run_online(chron, OnlinePatternEstimator(BIN, sched), predict_class, hamming_loss)
    assert led.outcomes.tolist() == [float(x) for x in chron]
    recomputed = [hamming_loss(x, a) for x, a in zip(chron, led.predictions)]
    assert led.losses.tolist() == recomputed


# ---------------------------------------------------------------------------
# side information


def tiny_hmm():
    return HMMSource([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_side_info_online_tracks_batch(seed):
    src = tiny_hmm()
    obs, states = src.generate_with_states(60, seed=seed)
    online = OnlineSideInfoEstimator(BIN, BIN, ell=1, j=3)
    for t in range(60):
        got = online.current_estimate(int(states[t]))
        xp = SamplePath.from_chronological(obs[:t])
        yp = SamplePath.from_chronological(states[:t])
        if t >= 1:
            try:
                want, _ = estimate_with_side_info(
                    xp, yp, int(states[t]), 1, 1, 3, BIN, BIN
                )
                assert not got.default_used
                assert got.pmf.tolist() == want.pmf.tolist()
            except InsufficientDataError:
                assert got.default_used
        else:
            assert got.default_used
        online.update(int(obs[t]), int(states[t]))


def test_side_info_online_tracks_batch_on_long_path():
    src = tiny_hmm()
    obs, states = src.generate_with_states(4_000, seed=21)
    online = OnlineSideInfoEstimator(BIN, BIN, ell=2, j=8)
    fitted = 0
    for t in range(obs.size):
        if t % 13 == 0 and t >= 2:
            got = online.current_estimate(int(states[t]))
            try:
                want, _ = estimate_with_side_info(
                    SamplePath.from_chronological(obs[:t]),
                    SamplePath.from_chronological(states[:t]),
                    int(states[t]), 1, 2, 8, BIN, BIN,
                )
            except InsufficientDataError:
                assert got.default_used
            else:
                assert not got.default_used
                assert got.pmf.tolist() == want.pmf.tolist()
                fitted += 1
        online.update(int(obs[t]), int(states[t]))
    assert fitted > 0.9 * (obs.size // 13)


def test_run_online_side_info_end_to_end():
    src = tiny_hmm()
    obs, states = src.generate_with_states(800, seed=3)
    est = OnlineSideInfoEstimator(BIN, BIN, ell=1, j=8)
    led = run_online_side_info(obs, states, est, predict_class, hamming_loss)
    assert led.n_steps == 800
    # knowing the hidden state must beat blind majority voting comfortably
    assert led.final_average < 0.35
    with pytest.raises(InputError):
        run_online_side_info(obs[:5], states[:4], est, predict_class, hamming_loss)
