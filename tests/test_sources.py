"""Synthetic sources and their exact oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast import sources
from pastcast.errors import InputError, UnsupportedQueryError
from pastcast.sources import (
    HMMSource,
    IIDSource,
    MarkovSource,
    PeriodicSource,
    RyabcoSource,
    build_source,
    get_preset,
)

from _reference import (
    ref_hmm_block_prob,
    ref_hmm_draws,
    ref_markov_block_log2,
    ref_markov_bayes_error,
    ref_markov_block_prob,
    ref_markov_draws,
    ref_markov_innovation_variance,
    ref_ryabco_draws,
)


def h2(p):
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def all_blocks(m, length):
    blocks = [()]
    for _ in range(length):
        blocks = [b + (s,) for b in blocks for s in range(m)]
    return blocks


# ---------------------------------------------------------------------------
# iid


def test_iid_oracles():
    src = IIDSource((0.25, 0.75))
    assert src.conditional([1, 0, 1]).tolist() == [0.25, 0.75]
    assert src.block_probability([0, 1, 1]) == pytest.approx(0.25 * 0.75 * 0.75)
    assert src.entropy_rate().bits == pytest.approx(h2(0.25))
    assert src.entropy_rate().exact
    assert src.bayes_error_rate() == pytest.approx(0.25)
    with pytest.raises(InputError):
        src.innovation_variance()  # no numeric values attached
    vals = IIDSource((0.25, 0.75), values=(0.0, 1.0))
    # E X = 0.75, Var X = independent of the past
    assert vals.innovation_variance() == pytest.approx(0.25 * 0.75)


def test_iid_validation():
    with pytest.raises(InputError):
        IIDSource((0.5, 0.6))
    with pytest.raises(InputError):
        IIDSource((1.0,))
    with pytest.raises(InputError):
        IIDSource((0.5, 0.5), values=(1.0,))



IID_DRAW_PMFS = [
    pytest.param((0.75, 0.25), id="two"),
    pytest.param((0.5, 0.0, 0.5), id="zero-mass"),
    pytest.param((0.1, 0.2, 0.3, 0.4), id="four"),
    pytest.param((0.0, 1.0), id="point-mass"),
    pytest.param((0.5, 0.4999999995), id="short-by-5e-10"),
    pytest.param((0.7, 0.2, 0.1), id="short-by-ulp"),
]


@pytest.mark.parametrize("pmf", IID_DRAW_PMFS)
@pytest.mark.parametrize(
    "make_seed",
    [
        pytest.param(lambda: 17, id="int"),
        pytest.param(lambda: np.random.SeedSequence(17, spawn_key=(2,)), id="seedsequence"),
        pytest.param(lambda: np.random.default_rng(17), id="generator"),
    ],
)
def test_iid_draws_equal_generator_choice(pmf, make_seed):
    """Draws are numpy's own choice sequence, 1-D and 2-D, bit for bit."""
    src = IIDSource(pmf)
    m = len(pmf)

    def choice(size):
        seed = make_seed()
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return rng.choice(m, size=size, p=pmf)

    path = src.generate(100_000, make_seed())
    assert path.dtype == np.int64 and path.shape == (100_000,)
    assert np.array_equal(path, choice(100_000))
    batch = src.generate_batch(300, 700, make_seed())
    assert batch.dtype == np.int64 and batch.shape == (300, 700)
    assert np.array_equal(batch, choice((300, 700)))
    assert src.generate(0, make_seed()).shape == (0,)
    # each drawn symbol has mass, and all of them are drawn
    assert set(np.unique(batch).tolist()) == {s for s in range(m) if pmf[s] > 0}


@pytest.mark.parametrize(
    "shape",
    [65535, 65536, 65537, (3, 50_000)],
    ids=["chunk-1", "chunk", "chunk+1", "rows-straddle-chunks"],
)
def test_iid_draws_across_chunk_boundaries(shape):
    """Uniforms come in chunks of 65536; the draws still equal one choice call."""
    pmf = (0.1, 0.2, 0.3, 0.4)
    got = IIDSource(pmf)._draw(np.random.default_rng(5), shape)
    assert np.array_equal(got, np.random.default_rng(5).choice(4, size=shape, p=pmf))


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, *, out):
        out[:] = self.u[self.used : self.used + out.size]
        self.used += out.size
        return out


@pytest.mark.parametrize("pmf", IID_DRAW_PMFS)
def test_iid_draws_at_the_cut_points(pmf):
    """Uniforms on and beside each cut point draw as choice's recipe says.

    ``Generator.choice`` normalizes the cdf by its last entry and searches
    it with ``side="right"``; random seeds almost never land on a cut
    point, so the uniforms are given here.
    """
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    u = [0.0, np.nextafter(1.0, 0.0)]
    for c in cdf[:-1]:
        u += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    u = np.array(u)
    want = cdf.searchsorted(u, side="right")
    got = IIDSource(pmf)._draw(_FixedUniforms(u), u.shape)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert got.max() < len(pmf)


@pytest.mark.parametrize("pmf", IID_DRAW_PMFS[:3])
@pytest.mark.parametrize(
    "make_seed",
    [
        pytest.param(lambda: 23, id="int"),
        pytest.param(lambda: np.random.SeedSequence(23, spawn_key=(4, 1)), id="seedsequence"),
    ],
)
@pytest.mark.parametrize("trials", [1, 1500])
@pytest.mark.parametrize("tail_read_min", [1, sources._TAIL_READ_MIN], ids=["tails", "default"])
def test_iid_batch_reader_reads_the_batch_tails(pmf, make_seed, trials, tail_read_min, monkeypatch):
    """``read(rows, width)`` is the newest-first tail of ``generate_batch``'s rows.

    Rows of at least ``_TAIL_READ_MIN`` outcomes are read by advancing the
    stream to each tail and shorter ones from the whole batch, so at the
    default n = 37 takes the one route and n = 700 the other; a threshold
    of 1 sends every row down the tail route.
    """
    monkeypatch.setattr(sources, "_TAIL_READ_MIN", tail_read_min)
    src, pick = IIDSource(pmf), np.random.default_rng(1)
    for n, widths in ((37, range(1, 38)), (700, (1, 67, 699, 700))):
        newest_first = src.generate_batch(trials, n, make_seed())[:, ::-1]
        read = src.batch_reader(trials, n, make_seed())
        for width in widths:
            for rows in (np.arange(trials), np.flatnonzero(pick.random(trials) < 0.05), [trials - 1]):
                got = read(rows, width)
                assert got.dtype == np.int64 and got.shape == (len(rows), width)
                assert (got == newest_first[rows, :width]).all()


def test_batch_reader_of_a_stepwise_source_slices_its_batch():
    src = MarkovSource([[0.7, 0.2, 0.1], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7]])
    newest_first = src.generate_batch(300, 50, 9)[:, ::-1]
    read = src.batch_reader(300, 50, 9)
    rows = np.arange(0, 300, 7)
    assert (read(rows, 50) == newest_first[rows]).all()
    assert (read(rows[1:], 3) == newest_first[rows[1:], :3]).all()

# ---------------------------------------------------------------------------
# markov


def test_markov_stay90_oracles():
    src = get_preset("markov_stay90")
    assert src.conditional([0]).tolist() == pytest.approx([0.9, 0.1])
    assert src.conditional([1, 1, 0, 1]).tolist() == pytest.approx([0.1, 0.9])
    assert src.entropy_rate().bits == pytest.approx(h2(0.9))
    assert src.bayes_error_rate() == pytest.approx(0.1)
    pm1 = MarkovSource([[0.9, 0.1], [0.1, 0.9]], values=(-1.0, 1.0))
    # E{X | past} = 0.8 * sign(last), so the innovation variance is 1 - 0.64
    assert pm1.innovation_variance() == pytest.approx(0.36)


def test_markov_oracles_match_the_closed_forms():
    """Per-state sums of the predictive law agree with the one-line forms."""
    rng = np.random.default_rng(20)
    for _ in range(300):
        order, m = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        T = rng.dirichlet(np.full(m, rng.choice([0.3, 1.0, 5.0])), size=m**order)
        values = rng.uniform(-1.0, 1.0, size=m)
        src = MarkovSource(T, order=order, values=values)
        law = src._ctx_pi
        assert abs(src.bayes_error_rate() - ref_markov_bayes_error(T, law)) <= 1e-15
        want = ref_markov_innovation_variance(T, law, values)
        assert abs(src.innovation_variance() - want) <= 1e-15


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
def test_markov_block_probability_matches_chain_rule(block):
    src = get_preset("markov_stay90")
    expect = ref_markov_block_prob([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], block)
    assert src.block_probability(block) == pytest.approx(expect, rel=1e-12)
    assert src.block_log2_probability(block) == pytest.approx(math.log2(expect), rel=1e-12)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=7))
def test_markov_asymmetric_generic_path(block):
    """An asymmetric chain exercises the generic (non-fast-path) code."""
    T = [[0.8, 0.2], [0.4, 0.6]]
    src = MarkovSource(T)
    # detailed balance of flips: pi0 * 0.2 = pi1 * 0.4, so pi = (2/3, 1/3)
    expect = ref_markov_block_prob(T, [2.0 / 3.0, 1.0 / 3.0], block)
    assert src.block_probability(block) == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_markov_blocks_sum_to_one(length):
    src = get_preset("markov_stay90")
    total = sum(src.block_probability(b) for b in all_blocks(2, length))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_markov_order2():
    # stay if the last two agreed, flip otherwise
    T = [[0.95, 0.05], [0.5, 0.5], [0.5, 0.5], [0.05, 0.95]]
    src = MarkovSource(T, order=2)
    assert src.conditional([0, 0]).tolist() == pytest.approx([0.95, 0.05])
    assert src.conditional([1, 0, 1]).tolist() == pytest.approx([0.5, 0.5])
    total = sum(src.block_probability(b) for b in all_blocks(2, 4))
    assert total == pytest.approx(1.0, abs=1e-12)
    # past shorter than the order: exact marginalization over the missing slot
    short = src.conditional([0])
    for x in (0, 1):
        ratio = src.block_probability([0, x]) / src.block_probability([0])
        assert short[x] == pytest.approx(ratio, rel=1e-12)


def test_markov_order0_conditional_ignores_the_past():
    src = MarkovSource([[0.5, 0.3, 0.2]], order=0)
    for past in ([], [2], [1, 2, 0]):
        assert src.conditional(past).tolist() == [0.5, 0.3, 0.2]


def test_an_impossible_past_has_no_conditional_law():
    """A past of mass 0 raises, as an HMM's does, rather than give a NaN law."""
    sources = [
        (MarkovSource([[1.0, 0.0]] * 4, order=2), [1]),
        (PeriodicSource((0, 1)), [1, 1]),
        # pasts longer than the memory, whose last symbols alone are possible
        (MarkovSource([[1.0, 0.0]] * 4, order=2), [1, 1]),
        (MarkovSource([[1.0, 0.0], [0.5, 0.5]]), [1, 0, 1, 1, 0]),
        (PeriodicSource((0, 1)), [1, 1, 0, 1]),
        (PeriodicSource((0, 1, 2, 2)), [1, 2, 0, 1, 2, 2]),
        (tiny_hmm_with_a_silent_symbol(), [2]),
    ]
    for src, past in sources:
        assert src.block_probability(past) == 0.0
        with pytest.raises(UnsupportedQueryError):
            src.conditional(past)


MARKOV_LOG2_CHAINS = [
    pytest.param([[0.5, 0.3, 0.2]], 0, id="order0"),
    pytest.param([[0.9, 0.1], [0.1, 0.9]], 1, id="stay90"),
    pytest.param([[0.7, 0.2, 0.1], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7]], 1, id="zero-steps"),
    pytest.param([[1.0, 0.0], [0.5, 0.5]], 1, id="zero-start"),
    # context 11 never occurs: 01 is always followed by 0
    pytest.param([[0.2, 0.8], [1.0, 0.0], [0.6, 0.4], [0.3, 0.7]], 2, id="order2-zero-start"),
    pytest.param(
        np.random.default_rng(3).dirichlet(np.ones(3), size=9).tolist(), 2, id="order2-ternary"
    ),
]


@pytest.mark.parametrize("transition, order", MARKOV_LOG2_CHAINS)
def test_markov_block_log2_equals_symbol_loop(transition, order):
    """The table-and-cumsum block mass equals the chain rule, bit for bit."""
    src = MarkovSource(transition, order=order)
    m = src.alphabet_size
    # stationary mass of each length-order context, by big-endian code
    law = [
        src.block_probability([(c // m ** (order - 1 - i)) % m for i in range(order)])
        for c in range(m**order)
    ]
    rng = np.random.default_rng(order + m)
    blocks = [b for length in range(order + 3) for b in all_blocks(m, length)]
    blocks += [rng.integers(0, m, size=size).tolist() for size in (5, 40, 40, 300)]
    blocks += [src.generate(size, seed=size).tolist() for size in (3, 100, 10_000)]
    impossible = 0
    for block in blocks:
        want = ref_markov_block_log2(transition, law, order, block)
        assert src.block_log2_probability(block) == want
        assert src.block_log2_probability(np.asarray(block, dtype=np.int64)) == want
        impossible += want == -math.inf
    if 0.0 in law or 0.0 in np.asarray(transition):
        assert impossible  # the -inf cases were reached



MARKOV_DRAW_CHAINS = MARKOV_LOG2_CHAINS + [
    pytest.param([[0.8, 0.2], [0.3, 0.7]], 1, id="asymmetric"),
    pytest.param([[0.5, 0.4999999995], [0.3, 0.7]], 1, id="short-row"),
    pytest.param([[0.95, 0.05], [0.5, 0.5], [0.5, 0.5], [0.05, 0.95]], 2, id="order2"),
]


@pytest.mark.parametrize("transition, order", MARKOV_DRAW_CHAINS)
def test_markov_draws_equal_step_loop(transition, order):
    """Uniforms drawn up front give the step-by-step loop's paths, bit for bit."""
    src = MarkovSource(transition, order=order)
    law = src._ctx_pi.tolist()
    for trials, n in ((1, 20_000), (1, order + 1), (7, 300), (5, order), (3, order + 1)):
        for seed in (0, 5):
            want = ref_markov_draws(transition, law, order, trials, n, np.random.default_rng(seed))
            assert src.generate_batch(trials, n, seed).tolist() == want
            if trials == 1:
                assert src.generate(n, seed).tolist() == want[0]


def test_markov_draws_stay_in_range_at_the_top_uniform():
    """A row summing to just under 1 never yields the symbol m."""
    src = MarkovSource([[0.5, 0.4999999995], [0.4999999995, 0.5]])
    top = np.nextafter(1.0, 0.0)
    for trials in (1, 4):
        walk = src._walk(np.zeros(trials, dtype=np.int64), np.full((50, trials), top))
        assert walk.shape == (50, trials)
        assert (walk == 1).all()
        # a uniform on a cut point passes it
        assert (src._walk(np.zeros(trials, dtype=np.int64), np.full((1, trials), 0.5)) == 1).all()
    ternary = MarkovSource([[0.7, 0.2, 0.1]] * 3)
    for trials in (1, 4):
        walk = ternary._walk(np.arange(trials) % 3, np.full((50, trials), top))
        assert (walk == 2).all()
        # the bottom uniform draws the first symbol with mass
        assert (ternary._walk(np.arange(trials) % 3, np.zeros((50, trials))) == 0).all()


def test_markov_draws_skip_zero_mass_symbols():
    """A draw is the count of cut points at or below its uniform, on both routes.

    Each context here forbids one symbol, so some cut points repeat and the
    bottom uniform and the uniforms exactly on a cut point are the draws
    that could land on a symbol of mass 0.
    """
    T = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    src = MarkovSource(T)
    # (context, uniform) -> symbol; cut points are (0, .5), (.5, .5), (.5, 1)
    want = {(0, 0.0): 1, (0, 0.5): 2, (1, 0.0): 0, (1, 0.5): 2, (2, 0.0): 0, (2, 0.5): 1}
    for (ctx, u), sym in want.items():
        assert T[ctx][sym] > 0.0
        for trials in (1, 4):  # the one-chain route and the array route
            step = src._walk(np.full(trials, ctx, dtype=np.int64), np.full((1, trials), u))
            assert (step == sym).all()
    # from context 0, u = 0 twice: 0 -> 1, then context 1 draws 0
    for trials in (1, 4):
        walk = src._walk(np.zeros(trials, dtype=np.int64), np.zeros((2, trials)))
        assert walk[:, 0].tolist() == [1, 0]

def test_markov_validation():
    with pytest.raises(InputError):
        MarkovSource([[0.9, 0.2], [0.1, 0.9]])
    with pytest.raises(InputError):
        MarkovSource([[1.0]])
    with pytest.raises(InputError):
        MarkovSource(np.ones((3, 2)) / 2.0, order=1)


# ---------------------------------------------------------------------------
# periodic


def test_periodic_oracles():
    src = get_preset("periodic01")
    assert src.entropy_rate().bits == 0.0
    assert src.bayes_error_rate() == 0.0
    assert src.conditional([0]).tolist() == [0.0, 1.0]
    assert src.conditional([0, 1]).tolist() == [1.0, 0.0]
    assert src.block_probability([0, 1, 0]) == pytest.approx(0.5)
    assert src.block_probability([1, 1]) == 0.0
    total = sum(src.block_probability(b) for b in all_blocks(2, 3))
    assert total == pytest.approx(1.0)


def test_deterministic_cycle_oracles_are_exactly_zero():
    src = PeriodicSource((0, 1, 2), values=(-1.0, 0.5, 3.0))
    assert src.entropy_rate().bits == 0.0
    assert src.bayes_error_rate() == 0.0
    assert src.innovation_variance() == 0.0


def test_periodic_longer_cycle():
    src = PeriodicSource((0, 0, 1))
    # after seeing "0" two phases remain; next is 0 or 1 with mass 1/2 each
    assert src.conditional([0]).tolist() == pytest.approx([0.5, 0.5])
    assert src.conditional([0, 0]).tolist() == [0.0, 1.0]
    assert src.block_probability([0]) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("cycle", [(0, 1), (0, 0, 1), (2, 0, 1, 0, 0, 2), (1,)])
def test_periodic_conditional_is_block_ratio(cycle):
    src = PeriodicSource(cycle)
    m, L = src.alphabet_size, len(cycle)
    for length in range(min(L + 3, 8)):
        for past in all_blocks(m, length):
            if src.block_probability(past) == 0.0:
                with pytest.raises(UnsupportedQueryError):
                    src.conditional(past)
                continue
            tail = past[max(0, length - L) :]  # the last L symbols fix the phase
            base = src.block_probability(tail)
            ratio = [src.block_probability(tail + (x,)) / base for x in range(m)]
            assert src.conditional(past).tolist() == pytest.approx(ratio, rel=1e-15)


# ---------------------------------------------------------------------------
# hidden-Markov


def tiny_hmm():
    A = [[0.9, 0.1], [0.2, 0.8]]
    E = [[0.8, 0.2], [0.3, 0.7]]
    return HMMSource(A, E)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
def test_hmm_block_probability_matches_state_sum(block):
    src = tiny_hmm()
    expect = ref_hmm_block_prob(
        [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]], list(src.state_pi), block
    )
    assert src.block_probability(block) == pytest.approx(expect, rel=1e-10)


def tiny_hmm_with_a_silent_symbol():
    """Symbol 2 is never emitted."""
    return HMMSource([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2, 0.0], [0.3, 0.7, 0.0]])


@given(st.lists(st.integers(0, 1), min_size=0, max_size=6))
def test_hmm_block_log2_probability_matches_state_sum(block):
    A, E = [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]]
    src = tiny_hmm()
    expect = math.log2(ref_hmm_block_prob(A, E, list(src.state_pi), block)) if block else 0.0
    assert src.block_log2_probability(block) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_hmm_block_with_a_silent_symbol_is_impossible():
    src = tiny_hmm_with_a_silent_symbol()
    for block in ([2], [0, 1, 2], [2, 0, 0], [1, 2, 1]):
        assert src.block_log2_probability(block) == -math.inf
        assert src.block_probability(block) == 0.0
    assert src.block_log2_probability([0, 1]) > -math.inf


@given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
def test_hmm_conditional_is_block_ratio(block):
    src = tiny_hmm()
    cond = src.conditional(block)
    base = src.block_probability(block)
    for x in (0, 1):
        assert cond[x] == pytest.approx(src.block_probability(list(block) + [x]) / base, rel=1e-9)


def test_hmm_states_and_side_oracle():
    src = tiny_hmm()
    obs, states = src.generate_with_states(500, seed=3)
    assert obs.shape == states.shape == (500,)
    assert set(np.unique(obs)) <= {0, 1} and set(np.unique(states)) <= {0, 1}
    # knowing the state, predict its most likely emission
    pi = src.state_pi
    expect = 1.0 - (pi[0] * 0.8 + pi[1] * 0.7)
    assert src.side_info_bayes_error_rate() == pytest.approx(expect)



HMM_DRAW_MODELS = [
    pytest.param([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]], id="tiny"),
    pytest.param(
        [[0.6, 0.3, 0.1], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]],
        [[0.7, 0.2, 0.1], [0.1, 0.0, 0.9], [0.5, 0.4999999995, 5e-10]],
        id="three-states",
    ),
]


@pytest.mark.parametrize("A, E", HMM_DRAW_MODELS)
def test_hmm_draws_equal_step_loop(A, E):
    """Two uniforms per step drawn up front give the loop's path, bit for bit."""
    src = HMMSource(A, E)
    for n in (0, 1, 2, 5000):
        for seed in (0, 9):
            xs, states = src.generate_with_states(n, seed)
            want_xs, want_states = ref_hmm_draws(A, E, src.state_pi, n, np.random.default_rng(seed))
            assert xs.dtype == states.dtype == np.int64
            assert xs.tolist() == want_xs and states.tolist() == want_states
            assert src.generate(n, seed).tolist() == want_xs


def test_hmm_draws_stay_in_range_at_the_top_uniform():
    """Rows whose running sum ends a hair under 1 never yield an out-of-range draw."""
    # 0.7 + 0.2 + 0.1 sums to 1 - 2**-53
    src = HMMSource([[0.7, 0.2, 0.1]] * 3, [[0.7, 0.2, 0.1]] * 3)
    xs, states = src._walk(0, np.full(100, np.nextafter(1.0, 0.0)))
    assert xs.tolist() == [2] * 50
    assert states.tolist() == [0] + [2] * 49
    # a uniform on a cut point passes it, as searchsorted's side="right"
    xs, states = src._walk(0, np.full(4, 0.7))
    assert xs.tolist() == [1, 1] and states.tolist() == [0, 1]

# ---------------------------------------------------------------------------
# drifting-parameter switching source


def test_ryabco_state_structure():
    src = RyabcoSource((1.0 / 3.0, 2.0 / 3.0))
    assert src.alphabet_size == 3
    assert src.state_pmf(2).tolist() == pytest.approx([0.5, 1.0 / 6.0, 1.0 / 3.0])
    total = sum(src.block_probability(b) for b in all_blocks(3, 2))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "delta_cycle", [(0.0,), (1.0,), (1.0 / 3.0, 2.0 / 3.0), (0.9, 0.1, 0.5), (0.0, 1.0, 0.25, 0.75)]
)
def test_ryabco_draws_match_the_step_loop(delta_cycle):
    """The array draw gives the step loop's symbols and states, integer for integer."""
    src = RyabcoSource(delta_cycle)
    for n in (1, 2, 7, 100, 5000):
        for seed in range(40):
            xs, states = src.generate_with_states(n, seed)
            want_xs, want_states = ref_ryabco_draws(delta_cycle, n, np.random.default_rng(seed))
            assert xs.dtype == states.dtype == np.int64
            assert xs.tolist() == want_xs and states.tolist() == want_states
    assert src.generate(0, 1).size == 0


@pytest.mark.parametrize("delta_cycle", [(1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.5), (1.0,)])
def test_ryabco_block_log2_is_log2_of_block_probability(delta_cycle):
    src = RyabcoSource(delta_cycle)
    for length in range(6):
        for block in all_blocks(3, length):
            p = src.block_probability(block)
            want = math.log2(p) if p > 0.0 else -math.inf
            assert src.block_log2_probability(block) == pytest.approx(want, rel=1e-13)


def test_ryabco_innovation_variance():
    # Residue 0 (weight 2/3, delta 1/3) has variance 29/36 and residue 1
    # (weight 1/3, delta 2/3) has 5/9, so the mean is 13/18.
    src = build_source({"preset": "ryabco_alt", "values": [-1.0, 0.0, 1.0]})
    assert src.innovation_variance() == pytest.approx(13.0 / 18.0, rel=1e-15)


def test_hmm_has_no_exact_predictive_law():
    src = build_source({"kind": "hmm", "state_transition": [[0.9, 0.1], [0.2, 0.8]],
                        "emission": [[0.8, 0.2], [0.3, 0.7]], "values": [0.0, 1.0]})
    for oracle in (src.bayes_error_rate, src.innovation_variance):
        with pytest.raises(UnsupportedQueryError):
            oracle()
    assert not src.entropy_rate(n=2000).exact


def test_ryabco_entropy_matches_path_average():
    """Exact rate should agree with -log2 P(path)/n on a long sample (AEP)."""
    src = get_preset("ryabco_alt")
    er = src.entropy_rate()
    assert er.exact
    path = src.generate(20_000, seed=9)
    emp = -src.block_log2_probability(path) / path.size
    assert emp == pytest.approx(er.bits, abs=0.05)


def test_ryabco_conditional_tracks_state():
    src = get_preset("ryabco_alt")
    path = src.generate(200, seed=4)
    state = src.state_from_past(path)
    assert src.conditional(path).tolist() == pytest.approx(src.state_pmf(state).tolist())


# ---------------------------------------------------------------------------
# common behavior


@pytest.mark.parametrize("preset", ["iid_fair", "iid_p25", "markov_stay90", "periodic01", "ryabco_alt"])
def test_generation_is_seed_deterministic(preset):
    src = get_preset(preset)
    a = src.generate(200, seed=21)
    b = src.generate(200, seed=21)
    c = src.generate(200, seed=22)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < src.alphabet_size


@pytest.mark.parametrize("preset", ["iid_fair", "markov_stay90"])
def test_batch_matches_marginal_stationarity(preset):
    src = get_preset(preset)
    batch = src.generate_batch(4000, 16, seed=13)
    assert batch.shape == (4000, 16)
    again = src.generate_batch(4000, 16, seed=13)
    assert np.array_equal(batch, again)
    # column means near the stationary mean at every time index
    col = batch.mean(axis=0)
    assert np.abs(col - 0.5).max() < 0.05


def test_seed_sequence_accepted_everywhere():
    src = get_preset("markov_stay90")
    ss = np.random.SeedSequence(77, spawn_key=(3,))
    a = src.generate(64, ss)
    b = src.generate(64, np.random.SeedSequence(77, spawn_key=(3,)))
    assert np.array_equal(a, b)
    ba = src.generate_batch(8, 32, np.random.SeedSequence(5))
    bb = src.generate_batch(8, 32, np.random.SeedSequence(5))
    assert np.array_equal(ba, bb)
    # The shared batch route draws trial i from child i, as spawn gives it
    # on a fresh object, and leaves the object passed in as it was.
    ry = get_preset("ryabco_alt")
    ss = np.random.SeedSequence(3)
    first = ry.generate_batch(4, 40, ss)
    assert np.array_equal(ry.generate_batch(4, 40, ss), first)
    children = np.random.SeedSequence(3).spawn(4)
    assert first.tolist() == [ry.generate(40, np.random.default_rng(c)).tolist() for c in children]


def test_numeric_values_plumbing():
    src = get_preset("markov_stay90")
    with pytest.raises(InputError):
        src.numeric_values()
    pm1 = build_source({"preset": "markov_stay90", "values": [-1.0, 1.0]})
    assert pm1.numeric_values().tolist() == [-1.0, 1.0]
    assert pm1.numeric_path(np.array([0, 1, 1])).tolist() == [-1.0, 1.0, 1.0]


def test_build_source_forms():
    assert build_source("iid_fair").kind == "iid"
    inline = build_source({"kind": "iid", "pmf": [0.3, 0.7]})
    assert inline.conditional([]).tolist() == pytest.approx([0.3, 0.7])
    markov = build_source({"kind": "markov", "transition": [[0.9, 0.1], [0.1, 0.9]]})
    assert markov.kind == "markov"
    with pytest.raises(InputError):
        get_preset("nope")
    with pytest.raises(InputError):
        build_source({"kind": "mystery"})
    with pytest.raises(InputError):
        build_source(42)
    with pytest.raises(InputError):
        build_source({"preset": "iid_fair", "values": [1.0]})
