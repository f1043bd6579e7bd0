"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a full estimator pipeline against an exact oracle at
desk scale and registers a single PASS/FAIL line (echoed in the terminal
summary).  Tolerances are stated inline next to each check; seeds are
frozen so every run sees the same paths.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pastcast.divergence import (
    cesaro_estimate,
    expected_divergence_curve,
    kl_divergence,
    length_cap,
    model_from_code_lengths,
    pinsker_check,
)
from pastcast.errors import InsufficientDataError
from pastcast.estimators import (
    FiniteAlphabetSchedule,
    RealValuedSchedule,
    estimate_fixed_k,
    estimate_truncated,
    truncated_parameters,
)
from pastcast.models import KTMixtureModel
from pastcast.online import (
    OnlinePatternEstimator,
    hamming_loss,
    predict_class,
    predict_regression,
    run_online,
)
from pastcast.quantize import Alphabet, IntervalFieldHierarchy
from pastcast.recurrence import (
    SamplePath,
    backward_recurrences,
    default_growth_entries,
    forward_recurrences,
    growth_rate_diagnostic,
    kac_diagnostic,
)
from pastcast.sources import IIDSource, build_source, get_preset

from _reference import ref_backward_taus, ref_cesaro, ref_estimate, ref_forward_taus
from conftest import record_acceptance

BIN = Alphabet.of_size(2)
MASTER = 20260825  # frozen master seed for every Monte-Carlo run below


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def replica_rng(r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(MASTER, spawn_key=(r,)))


# ---------------------------------------------------------------------------
# 1. mean first-recurrence time vs. reciprocal pattern probability


def test_criterion_01_first_recurrence_calibration():
    t0 = time.perf_counter()
    worst = 0.0
    n_patterns = 0
    for preset, k, length in (("iid_fair", 3, 256), ("markov_stay90", 2, 512)):
        rows = kac_diagnostic(build_source(preset), k, n_trials=100_000, path_length=length, seed=MASTER)
        for row in rows:
            if row.hits >= 1000:  # patterns with too few hits carry no signal
                n_patterns += 1
                worst = max(worst, row.rel_deviation)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 60.0
    verdict(
        1,
        "first-recurrence calibration",
        ok,
        f"max rel deviation {worst:.4f} over {n_patterns} patterns (bound 0.05), "
        f"{elapsed:.1f} s (bound 60 s)",
    )


# ---------------------------------------------------------------------------
# 2. recurrence-time growth rate tracks the entropy rate


def test_criterion_02_recurrence_growth_rate():
    n = 1_000_000
    replicas = 60
    ks = (8, 10, 12, 14, 16)
    entries = default_growth_entries(n, BIN, ks)
    failures = []
    details = []
    for preset, rate_bits in (("iid_fair", 1.0), ("iid_p25", None)):
        src = build_source(preset)
        h = src.entropy_rate().bits if rate_bits is None else rate_bits
        rates: dict[int, list[float]] = {k: [] for k in ks}
        truncated = {k: 0 for k in ks}
        for r in range(replicas):
            path = SamplePath.from_chronological(src.generate(n, replica_rng(r)))
            for pt in growth_rate_diagnostic(path, entries, BIN):
                if pt.truncated:
                    truncated[pt.k] += 1
                else:
                    rates[pt.k].append(pt.rate)
        for k in ks:
            coverage = len(rates[k]) / replicas
            mean_rate = float(np.mean(rates[k]))
            lo, hi = h - 0.1, h + 0.1 + 2.0 * math.log2(k) / k
            if not (lo <= mean_rate <= hi and coverage >= 0.8):
                failures.append((preset, k, mean_rate, (lo, hi), coverage))
            details.append(f"{preset} k={k}: {mean_rate:.3f} in [{lo:.3f},{hi:.3f}]")
    verdict(
        2,
        "recurrence growth tracks entropy rate",
        not failures,
        "; ".join(details) if not failures else f"out of range: {failures}",
    )


# ---------------------------------------------------------------------------
# 3 + 4. weak consistency of the truncated estimator, and vanishing fallback


def _consistency_sweep():
    """Shared Monte-Carlo for the two offline-estimator criteria."""
    src = get_preset("markov_stay90")
    sched = FiniteAlphabetSchedule(alphabet_size=2, epsilon=0.5)
    grid = (1_000, 10_000, 100_000)
    replicas = 240
    errs = {n: [] for n in grid}
    defaults = {n: 0 for n in grid}
    for r in range(replicas):
        chron = src.generate(max(grid), replica_rng(r))
        for n in grid:
            recent = chron[len(chron) - n :]
            oracle = src.conditional(recent)
            est, _ = estimate_truncated(SamplePath.from_chronological(recent), sched, BIN)
            defaults[n] += est.default_used
            # mean absolute per-symbol error of the estimated next-outcome law
            errs[n].append(float(np.abs(est.pmf - oracle).mean()))
    mean_err = {n: float(np.mean(errs[n])) for n in grid}
    default_rate = {n: defaults[n] / replicas for n in grid}
    return grid, mean_err, default_rate


@pytest.fixture(scope="module")
def consistency_sweep():
    return _consistency_sweep()


def test_criterion_03_weak_consistency(consistency_sweep):
    grid, mean_err, _ = consistency_sweep
    final = mean_err[grid[-1]]
    trend_ok = all(
        mean_err[b] <= mean_err[a] + 0.01 for a, b in zip(grid, grid[1:])
    )
    ok = final < 0.05 and trend_ok
    verdict(
        3,
        "weak consistency on a sticky binary chain",
        ok,
        "mean |est - oracle| by n: "
        + ", ".join(f"{n}: {mean_err[n]:.4f}" for n in grid)
        + " (final bound 0.05, monotone within 0.01)",
    )


def test_criterion_04_truncation_vanishes(consistency_sweep):
    grid, _, default_rate = consistency_sweep
    final = default_rate[grid[-1]]
    ok = final < 0.05
    verdict(
        4,
        "default fallback is rare at the final size",
        ok,
        "default rate by n: "
        + ", ".join(f"{n}: {default_rate[n]:.3f}" for n in grid)
        + " (final bound 0.05)",
    )


# ---------------------------------------------------------------------------
# 5. the real-valued estimator reproduces the finite-alphabet behavior


def test_criterion_05_real_valued_estimator():
    src = build_source({"preset": "markov_stay90", "values": [-1.0, 1.0]})
    hierarchy = IntervalFieldHierarchy()
    sched = RealValuedSchedule(hierarchy=hierarchy)
    grid = (1_000, 10_000, 100_000)
    replicas = 200
    errs = {n: [] for n in grid}
    mean_errs = {n: [] for n in grid}
    for r in range(replicas):
        sym = src.generate(max(grid), replica_rng(r))
        values = src.numeric_path(sym)
        for n in grid:
            recent_sym = sym[len(sym) - n :]
            recent = values[len(values) - n :]
            oracle = src.conditional(recent_sym)  # pmf over (-1, +1)
            est, _ = estimate_truncated(SamplePath.from_chronological(recent), sched, hierarchy)
            if est.default_used:
                p_plus = 0.5
                est_mean = 0.0
            else:
                p_plus = float(np.mean(est.samples > 0.0))
                est_mean = float(np.mean(est.samples))
            errs[n].append(abs(p_plus - oracle[1]))
            true_mean = oracle[1] - oracle[0]
            mean_errs[n].append(abs(est_mean - true_mean))
    prob_err = {n: float(np.mean(errs[n])) for n in grid}
    integ_err = {n: float(np.mean(mean_errs[n])) for n in grid}
    trend_ok = all(prob_err[b] <= prob_err[a] + 0.01 for a, b in zip(grid, grid[1:]))
    ok = prob_err[grid[-1]] < 0.05 and integ_err[grid[-1]] < 0.05 and trend_ok
    verdict(
        5,
        "interval-hierarchy estimator on a two-valued chain",
        ok,
        "mean |est - oracle| by n: "
        + ", ".join(f"{n}: {prob_err[n]:.4f}" for n in grid)
        + f"; mean |integral dev| at {grid[-1]}: {integ_err[grid[-1]]:.4f} (bounds 0.05)",
    )


# ---------------------------------------------------------------------------
# 6. averaged-model estimates converge in divergence; averaging bound holds


def test_criterion_06_divergence_consistency():
    grid = (300, 1_000, 3_000, 10_000)
    replicas = 30
    details = []
    ok = True
    for src in (IIDSource((0.3, 0.7)), get_preset("markov_stay90")):
        rows = expected_divergence_curve(
            src,
            lambda: KTMixtureModel(2, max_order=3),
            grid,
            replicas=replicas,
            seed=MASTER,
            track_convexity=True,
        )
        # per-path averaging bound, deterministic on every sampled path
        convex_ok = all(r["kl_bits"] <= r["window_kl_average_bits"] + 1e-9 for r in rows)
        by_n = {n: [] for n in grid}
        for r in rows:
            by_n[r["n"]].append(r["kl_bits"])
        mean_kl = {n: float(np.mean(v)) for n, v in by_n.items()}
        final_ok = mean_kl[grid[-1]] < 0.02
        trend_ok = all(mean_kl[b] <= mean_kl[a] + 0.005 for a, b in zip(grid, grid[1:]))
        ok = ok and convex_ok and final_ok and trend_ok
        details.append(
            f"{src.kind}: kl by n "
            + ", ".join(f"{n}: {mean_kl[n]:.5f}" for n in grid)
            + f", averaging bound {'held' if convex_ok else 'VIOLATED'}"
        )
    verdict(
        6,
        "averaged-model divergence vanishes",
        ok,
        "; ".join(details) + " (final bound 0.02 bits)",
    )


# ---------------------------------------------------------------------------
# 7. divergence/distance inequalities over randomized pmf pairs


def test_criterion_07_divergence_inequalities():
    rng = np.random.default_rng(MASTER)
    violations = 0
    trials = 10_000
    for i in range(trials):
        m = int(rng.integers(2, 9))
        p = rng.exponential(size=m)
        q = rng.exponential(size=m)
        if i % 5 == 0:  # partial supports: infinite divergence paths
            q[rng.integers(0, m)] = 0.0
        if i % 7 == 0:
            q = p.copy()  # zero divergence edge
        p /= p.sum()
        q /= q.sum()
        if not pinsker_check(p, q, tol=1e-9).pinsker_ok:
            violations += 1
    # deterministic edges
    for p, q in (([1.0, 0.0], [0.0, 1.0]), ([0.5, 0.5], [0.5, 0.5])):
        violations += not pinsker_check(p, q).pinsker_ok
    verdict(
        7,
        "quadratic lower bound and log-ratio bracketing",
        violations == 0,
        f"{violations} violations over {trials + 2} pmf pairs (tolerance 1e-9, bound 0)",
    )


# ---------------------------------------------------------------------------
# 8. code-length tables become models with an exact per-word cost cap


def test_criterion_08_code_length_conversion():
    rng = np.random.default_rng(MASTER + 8)
    checked = 0
    ok = True
    for _ in range(300):
        n = int(rng.integers(1, 5))
        a = int(rng.integers(2, 4))
        words = [tuple(int(s) for s in rng.integers(0, a, size=n)) for _ in range(rng.integers(0, 5))]
        lengths = {w: int(rng.integers(1, 12)) for w in words}
        if sum(Fraction(1, 2**l) for l in lengths.values()) > 1:
            continue  # Kraft-violating tables are covered by unit tests
        q = model_from_code_lengths(lengths, n, a)
        cap = length_cap(n, a)
        total = sum(q.values())
        bound = Fraction(4) * a**n
        ok = ok and total == 1
        ok = ok and cap == math.ceil(n * math.log2(a) - 1e-12)
        # every word, listed or not, costs at most n*log2(a) + 2 bits
        ok = ok and all(Fraction(1, 1) / mass <= bound for mass in q.values())
        checked += 1
    verdict(
        8,
        "code-length tables round-trip to exact models",
        ok and checked > 200,
        f"{checked} Kraft-valid tables: masses sum to 1 exactly, "
        "per-word cost within the cap + 2 bits (exact arithmetic)",
    )


# ---------------------------------------------------------------------------
# 9. online classification approaches the oracle error floor


def online_schedule():
    # Online runs integrate over every data size, including the lean start
    # of each context-length regime, so they run a reduced search budget;
    # the offline criteria above use the untouched schedule.
    return FiniteAlphabetSchedule(alphabet_size=2, epsilon=0.75, budget_fraction=0.25)


def test_criterion_09_online_classification():
    n = 100_000
    results = {}
    for preset in ("markov_stay90", "periodic01", "iid_fair"):
        src = build_source(preset)
        chron = src.generate(n, np.random.SeedSequence(MASTER, spawn_key=(0,)))
        est = OnlinePatternEstimator(src.alphabet(), online_schedule())
        ledger = run_online(chron, est, predict_class, hamming_loss)
        results[preset] = ledger
    markov = results["markov_stay90"].final_average
    periodic_tail = results["periodic01"].tail_average(0.5)
    iid = results["iid_fair"].final_average
    ok = abs(markov - 0.1) <= 0.02 and periodic_tail == 0.0 and abs(iid - 0.5) <= 0.02
    verdict(
        9,
        "online classification reaches the oracle floor",
        ok,
        f"markov {markov:.4f} (target 0.1 +- 0.02), periodic tail {periodic_tail:.4f} "
        f"(target 0), iid {iid:.4f} (target 0.5 +- 0.02)",
    )


# ---------------------------------------------------------------------------
# 10. online regression approaches the innovation variance


def test_criterion_10_online_regression():
    n = 100_000
    src = build_source({"preset": "markov_stay90", "values": [-1.0, 1.0]})
    target = src.innovation_variance()  # 0.36
    values = src.numeric_values()
    chron = src.generate(n, np.random.SeedSequence(MASTER, spawn_key=(0,)))
    est = OnlinePatternEstimator(src.alphabet(), online_schedule())
    ledger = run_online(
        chron,
        est,
        lambda e: predict_regression(e, values),
        lambda x, a: (float(values[int(x)]) - a) ** 2,
    )
    final = ledger.final_average
    ok = abs(final - target) <= 0.03
    verdict(
        10,
        "online squared loss reaches the innovation variance",
        ok,
        f"running MSE {final:.4f} vs variance floor {target:.2f} (+- 0.03), "
        f"defaults {ledger.defaults_used / n:.3%}",
    )


# ---------------------------------------------------------------------------
# 11. exact agreement with direct-from-definition references


def _paths_up_to(length):
    for n in range(1, length + 1):
        for bits in range(2**n):
            yield [(bits >> i) & 1 for i in range(n)]


def test_criterion_11_reference_equivalence():
    checked = 0
    # exhaustive short paths: every search, estimate, and averaged estimate
    for chron in _paths_up_to(7):
        n = len(chron)
        p = SamplePath.from_chronological(chron)
        for ell in (1, 2, 3):
            if ell > n:
                continue
            for j in (1, 2, 4):
                back = ref_backward_taus(chron, ell, j_max=j)
                fwd = ref_forward_taus(chron, ell, j_max=j)
                assert list(backward_recurrences(p, 1, ell, j, BIN).taus) == back
                assert list(forward_recurrences(p, 1, ell, j, BIN).taus) == fwd
                expect = ref_estimate(chron, ell, j, 2)
                if expect is None:
                    with pytest.raises(InsufficientDataError):
                        estimate_fixed_k(p, 1, ell, j, BIN)
                else:
                    dist, _ = estimate_fixed_k(p, 1, ell, j, BIN)
                    assert dist.pmf.tolist() == [float(v) for v in expect]
                checked += 1
        if n <= 6:
            for order in (0, 1, 2):
                est = cesaro_estimate(KTMixtureModel(2, max_order=order), p)
                expect = ref_cesaro(chron, order, 2)
                assert est.pmf.tolist() == pytest.approx([float(v) for v in expect], rel=1e-11)
                checked += 1
    # heavily sampled longer paths, up to length 30
    rng = np.random.default_rng(MASTER + 11)
    for _ in range(150):
        n = int(rng.integers(8, 31))
        chron = rng.integers(0, 2, size=n).tolist()
        p = SamplePath.from_chronological(chron)
        ell = int(rng.integers(1, 6))
        j = int(rng.integers(1, 8))
        assert list(backward_recurrences(p, 1, ell, j, BIN).taus) == ref_backward_taus(
            chron, ell, j_max=j
        )
        expect = ref_estimate(chron, ell, j, 2)
        if expect is not None:
            dist, _ = estimate_fixed_k(p, 1, ell, j, BIN)
            assert dist.pmf.tolist() == [float(v) for v in expect]
        checked += 1
    for _ in range(8):
        n = int(rng.integers(12, 25))
        chron = rng.integers(0, 2, size=n).tolist()
        est = cesaro_estimate(KTMixtureModel(2, max_order=3), SamplePath.from_chronological(chron))
        expect = ref_cesaro(chron, 3, 2)
        assert est.pmf.tolist() == pytest.approx([float(v) for v in expect], rel=1e-10)
        checked += 1
    verdict(
        11,
        "implementation agrees with direct references",
        True,  # the asserts above gate the outcome
        f"{checked} exact comparisons (exhaustive to length 7, sampled to 30)",
    )


# ---------------------------------------------------------------------------
# 12. pointwise vs. mean behavior on the drifting-parameter source


def test_criterion_12_drifting_source_figure_data(tmp_path):
    src = get_preset("ryabco_alt")
    space = src.alphabet()
    sched = FiniteAlphabetSchedule(alphabet_size=3, epsilon=0.5)
    grid = (1_000, 3_000, 10_000)
    replicas = 12
    rows = []
    for r in range(replicas):
        chron = src.generate(max(grid), replica_rng(r))
        for n in grid:
            recent = chron[len(chron) - n :]
            oracle = src.conditional(recent)
            est, _ = estimate_truncated(SamplePath.from_chronological(recent), sched, space)
            x = int(recent[-1])  # a fixed query point: the symbol just seen
            pointwise = abs(float(est.pmf[x]) - float(oracle[x]))
            l1 = float(np.abs(est.pmf - oracle).sum())
            rows.append((n, r, pointwise, l1, int(est.default_used)))
    out = tmp_path / "drifting_source_curve.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("n,replica,pointwise_error,l1_error,default_used\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    by_n = {n: [r[3] for r in rows if r[0] == n] for n in grid}
    mean_l1 = {n: float(np.mean(v)) for n, v in by_n.items()}
    worst_pointwise = max(r[2] for r in rows if r[0] == grid[-1])
    completed = out.exists() and len(rows) == replicas * len(grid)
    verdict(
        12,
        "drifting-source figure data (qualitative, non-gating)",
        completed,
        f"wrote {out.name} with {len(rows)} rows; mean L1 by n "
        + ", ".join(f"{n}: {mean_l1[n]:.3f}" for n in grid)
        + f"; worst pointwise error at {grid[-1]}: {worst_pointwise:.3f}",
    )
