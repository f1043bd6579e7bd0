"""Divergence measures, Cesàro estimation, code-length models."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast import models
from pastcast.divergence import (
    cesaro_estimate,
    expected_divergence_curve,
    kl_divergence,
    length_cap,
    model_from_code_lengths,
    pinsker_check,
    variational_distance,
)
from pastcast.errors import InputError
from pastcast.models import KTMixtureModel, LZ78Model, SequentialModel
from pastcast.recurrence import SamplePath
from pastcast.sources import IIDSource, get_preset

from _reference import ref_cesaro, ref_kl_bits, ref_variational

pmfs = st.integers(2, 5).flatmap(
    lambda m: st.lists(st.integers(1, 50), min_size=m, max_size=m)
)


def normalize(weights):
    total = sum(weights)
    return [w / total for w in weights]


# ---------------------------------------------------------------------------
# divergence and distance


def test_frozen_divergence_values():
    p, q = [0.5, 0.5], [0.25, 0.75]
    assert kl_divergence(p, q) == pytest.approx(0.20751874963942185, abs=1e-15)
    # the distance here is the full L1 sum, not the halved total variation
    assert variational_distance(p, q) == pytest.approx(0.5)
    assert kl_divergence(p, p) == 0.0
    assert variational_distance([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_divergence_support_violation_is_infinite():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf
    # the other direction stays finite: 0 log 0 = 0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)


def test_pmf_pair_validation():
    with pytest.raises(InputError):
        kl_divergence([0.5, 0.5], [0.5, 0.25, 0.25])
    with pytest.raises(InputError):
        kl_divergence([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(InputError):
        kl_divergence([[0.5, 0.5]], [[0.5, 0.5]])


@given(pmfs, pmfs)
def test_divergence_matches_reference(wp, wq):
    if len(wp) != len(wq):
        wq = (wq * len(wp))[: len(wp)]
    p, q = normalize(wp), normalize(wq)
    assert kl_divergence(p, q) == pytest.approx(ref_kl_bits(p, q), abs=1e-12)
    assert variational_distance(p, q) == pytest.approx(ref_variational(p, q), abs=1e-15)


@given(pmfs, pmfs)
def test_pinsker_inequalities_hold(wp, wq):
    if len(wp) != len(wq):
        wq = (wq * len(wp))[: len(wp)]
    report = pinsker_check(normalize(wp), normalize(wq))
    assert report.pinsker_ok


def test_pinsker_handles_infinite_divergence():
    report = pinsker_check([0.5, 0.5], [1.0, 0.0])
    assert report.kl_bits == math.inf
    assert report.pinsker_ok  # the quadratic bound is trivially satisfied


def test_report_rejects_inconsistent_flag():
    with pytest.raises(InputError):
        # claims ok but divergence is far below the quadratic bound
        from pastcast.divergence import DivergenceReport

        DivergenceReport(kl_bits=0.0, variational=1.0, pinsker_ok=True)


# ---------------------------------------------------------------------------
# Cesàro estimation


def test_cesaro_frozen_value():
    # two symbols [1, 1] under the order-0 add-1/2 rule:
    # average of 1/2 (empty window) and 3/4 (one observed 1)
    est = cesaro_estimate(KTMixtureModel(2, max_order=0), SamplePath.from_chronological([1, 1]))
    assert est.pmf.tolist() == [0.375, 0.625]
    assert not est.default_used


def test_cesaro_empty_path_is_default():
    est = cesaro_estimate(KTMixtureModel(2, max_order=0), SamplePath.from_chronological([]))
    assert est.default_used
    assert est.pmf.tolist() == [0.5, 0.5]


def test_cesaro_requires_blank_model():
    m = KTMixtureModel(2, max_order=0)
    m.update(1)
    with pytest.raises(InputError):
        cesaro_estimate(m, SamplePath.from_chronological([0, 1]))


@settings(max_examples=30)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.integers(0, 3))
def test_cesaro_matches_exact_reference(chron, max_order):
    est = cesaro_estimate(
        KTMixtureModel(2, max_order=max_order), SamplePath.from_chronological(chron)
    )
    expect = ref_cesaro(chron, max_order, 2)
    assert est.pmf.tolist() == pytest.approx([float(v) for v in expect], rel=1e-11)


@settings(max_examples=15)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_cesaro_generic_route_agrees_with_prepend_route(chron):
    """A model without its own sweep is re-run over every window; same average."""
    p = SamplePath.from_chronological(chron)
    fast = cesaro_estimate(KTMixtureModel(2, max_order=1), p)

    class WrappedKT(SequentialModel):
        def __init__(self):
            super().__init__(2)
            self._m = KTMixtureModel(2, max_order=1)

        def fresh(self):
            return WrappedKT()

        def _predict(self):
            return self._m.predict()

        def _advance(self, x):
            self._m.update(x)

    slow = cesaro_estimate(WrappedKT(), p)
    assert slow.pmf.tolist() == pytest.approx(fast.pmf.tolist(), abs=1e-12)


def prepend_cesaro(alphabet, order, backward, n):
    """Cesàro mean over windows 0..n-1, one prepend and predict per window."""
    m = KTMixtureModel(alphabet, max_order=order)
    acc = m.predict().copy()
    for t in range(1, n):
        m.prepend(int(backward[t - 1]))
        acc += m.predict()
    return acc / n


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("alphabet", [2, 3, 4])
def test_cesaro_sweep_equals_prepend_loop(monkeypatch, alphabet, order):
    monkeypatch.setattr(models, "SWEEP_BLOCK", 16)
    rng = np.random.default_rng(7 * alphabet + order)
    back = np.concatenate([rng.integers(0, alphabet, 30), np.repeat(rng.integers(0, alphabet, 4), 6)])
    for n in (1, 2, 15, 16, 17, back.size):
        est = cesaro_estimate(KTMixtureModel(alphabet, max_order=order), SamplePath(back[:n]))
        assert est.pmf.tolist() == prepend_cesaro(alphabet, order, back, n).tolist()


def test_cesaro_sweep_equals_prepend_loop_at_block_size():
    block = models.SWEEP_BLOCK
    chron = get_preset("markov_stay90").generate(2 * block + 5, np.random.default_rng(2))
    back = chron[::-1]
    for n in (block - 1, block, block + 1, back.size):
        est = cesaro_estimate(KTMixtureModel(2, max_order=3), SamplePath(back[:n]))
        assert est.pmf.tolist() == prepend_cesaro(2, 3, back, n).tolist()


def test_cesaro_handles_lz78():
    est = cesaro_estimate(LZ78Model(2), SamplePath.from_chronological([0, 1, 0, 1, 0]))
    assert est.pmf.sum() == pytest.approx(1.0)
    assert (est.pmf > 0).all()


# ---------------------------------------------------------------------------
# expected divergence curve


def test_curve_rows_match_direct_cesaro():
    src = get_preset("markov_stay90")
    grid = [3, 8, 20]
    rows = expected_divergence_curve(
        src, lambda: KTMixtureModel(2, max_order=2), grid, replicas=2, seed=123
    )
    assert [r["n"] for r in rows] == grid * 2
    for r_index in (0, 1):
        chron = src.generate(20, np.random.default_rng(np.random.SeedSequence(123, spawn_key=(r_index,))))
        oracle = src.conditional(chron)
        for row in rows:
            if row["replica"] != r_index:
                continue
            n = row["n"]
            est = cesaro_estimate(
                KTMixtureModel(2, max_order=2),
                SamplePath.from_chronological(chron[20 - n :]),
            )
            assert row["kl_bits"] == pytest.approx(kl_divergence(oracle, est.pmf), abs=1e-12)
            assert row["variational"] == pytest.approx(
                variational_distance(oracle, est.pmf), abs=1e-12
            )


def replica_path(src, n, seed, r):
    return src.generate(n, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,))))


def test_curve_rows_equal_prepend_route(monkeypatch):
    monkeypatch.setattr(models, "SWEEP_BLOCK", 16)
    src, grid, n_max = get_preset("markov_stay90"), [1, 15, 16, 17, 40], 40
    rows = expected_divergence_curve(
        src, lambda: KTMixtureModel(2, max_order=2), grid, replicas=2, seed=9
    )
    assert [(r["replica"], r["n"]) for r in rows] == [(r, n) for r in (0, 1) for n in grid]
    for row in rows:
        chron = replica_path(src, n_max, 9, row["replica"])
        oracle = src.conditional(chron)
        n, back = row["n"], chron[::-1]
        est = prepend_cesaro(2, 2, back, n)
        assert row["kl_bits"] == kl_divergence(oracle, est)
        assert row["variational"] == variational_distance(oracle, est)
        if n == 1:
            assert row["model_redundancy_bits_per_symbol"] is None
            continue
        m = KTMixtureModel(2, max_order=2)
        for x in back[: n - 1]:
            m.prepend(int(x))
        window_bits = src.block_log2_probability(chron[n_max - (n - 1) :])
        expect = (window_bits - m.log2_marginal(m._component_log_likelihoods())) / (n - 1)
        assert row["model_redundancy_bits_per_symbol"] == expect


@pytest.mark.parametrize("preset", ["markov_stay90", "periodic01"])
def test_curve_window_kl_average_matches_per_window_sum(monkeypatch, preset):
    """The periodic oracle puts no mass on one symbol, which the sum skips."""
    monkeypatch.setattr(models, "SWEEP_BLOCK", 16)
    src, grid, n_max = get_preset(preset), [1, 16, 17, 50], 50
    rows = expected_divergence_curve(
        src, lambda: KTMixtureModel(2, max_order=3), grid, 2, seed=4, track_convexity=True
    )
    for row in rows:
        chron = replica_path(src, n_max, 4, row["replica"])
        oracle = src.conditional(chron)
        m = KTMixtureModel(2, max_order=3)
        total = kl_divergence(oracle, m.predict())
        for x in chron[::-1][: row["n"] - 1]:
            m.prepend(int(x))
            total += kl_divergence(oracle, m.predict())
        assert row["window_kl_average_bits"] == pytest.approx(total / row["n"], abs=1e-12)


def test_curve_redundancy_and_convexity_fields():
    src = IIDSource((0.3, 0.7))
    rows = expected_divergence_curve(
        src,
        lambda: KTMixtureModel(2, max_order=1),
        [1, 16, 256],
        replicas=5,
        seed=5,
        track_convexity=True,
    )
    tail = []
    for row in rows:
        if row["n"] == 1:
            assert row["model_redundancy_bits_per_symbol"] is None
        else:
            # redundancy can dip negative on a lucky path, but stays finite
            assert math.isfinite(row["model_redundancy_bits_per_symbol"])
            if row["n"] == 256:
                tail.append(row["model_redundancy_bits_per_symbol"])
        # averaging can only help: divergence of the mean is at most the
        # mean of divergences (deterministic per path)
        assert row["kl_bits"] <= row["window_kl_average_bits"] + 1e-9
    # in expectation the model pays a positive (vanishing) parameter cost
    assert np.mean(tail) > 0.0


def test_curve_validates_grid():
    src = IIDSource((0.5, 0.5))
    with pytest.raises(InputError):
        expected_divergence_curve(src, lambda: KTMixtureModel(2), [0, 4], 1, 0)
    with pytest.raises(InputError):
        expected_divergence_curve(src, lambda: KTMixtureModel(2), [], 1, 0)


# ---------------------------------------------------------------------------
# code-length models


def test_length_cap_exact():
    assert length_cap(4, 2) == 4
    assert length_cap(3, 3) == 5  # ceil(3 * log2 3) = ceil(4.754...)
    assert length_cap(1, 2) == 1
    for n in range(1, 8):
        for a in (2, 3, 4):
            assert length_cap(n, a) == math.ceil(n * math.log2(a) - 1e-12)


def test_code_length_round_trip_exact_bounds():
    n, a = 3, 2
    lengths = {(0, 0, 0): 1, (1, 1, 1): 2, (0, 1, 0): 5}
    q = model_from_code_lengths(lengths, n, a)
    assert sum(q.values()) == Fraction(1)
    cap = length_cap(n, a)
    floor_mass = Fraction(1, 2 ** (1 + cap))
    assert min(q.values()) >= floor_mass  # normalization only scales mass up
    # listed short words keep their advantage
    assert q[(0, 0, 0)] > q[(1, 1, 1)] > q[(0, 1, 0)] >= floor_mass
    # per-word cost is at most n log2 a + 2 bits, exactly
    for mass in q.values():
        assert Fraction(1, 1) / mass <= 4 * a**n


@settings(max_examples=30)
@given(st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(1, 10), max_size=4))
def test_code_length_models_normalize(lengths):
    kraft = sum(Fraction(1, 2**l) for l in lengths.values())
    if kraft > 1:
        with pytest.raises(InputError):
            model_from_code_lengths(lengths, 2, 2)
        return
    q = model_from_code_lengths(lengths, 2, 2)
    assert set(q) == {(x, y) for x in (0, 1) for y in (0, 1)}
    assert sum(q.values()) == Fraction(1)
    assert all(mass > 0 for mass in q.values())
    for word, mass in q.items():
        assert Fraction(1, 1) / mass <= 4 * 2**2


def test_code_length_validation():
    with pytest.raises(InputError):
        model_from_code_lengths({(0,): 1}, 2, 2)  # wrong word length
    with pytest.raises(InputError):
        model_from_code_lengths({(0, 2): 1}, 2, 2)  # symbol outside alphabet
    with pytest.raises(InputError):
        model_from_code_lengths({(0, 0): 0}, 2, 2)  # nonpositive length
    with pytest.raises(InputError):
        model_from_code_lengths({}, 0, 2)
    with pytest.raises(InputError):
        model_from_code_lengths({(0, 0): 1, (0, 1): 1, (1, 0): 1}, 2, 2)  # Kraft sum > 1
