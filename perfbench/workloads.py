"""The benchmark's workloads: CLI configs, output checks and oracle gaps.

Each workload runs one ``pastcast`` subcommand on a config built from the
workload seed, and mirrors one acceptance criterion of the test suite, so
the traffic is what the package is validated on.  All run with
``workers: 1``: on a two-core machine a two-worker run mostly times the
process scheduler.

A run's output passes when its CSVs have the expected shape, its summary
holds the bounds of the mirrored criterion, and, at ``DEFAULT_SEED``,
every CSV matches the SHA-256 digest recorded in ``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    config: dict
    tiny: dict  # overrides for the harness self-check
    expected_rows: Callable[[dict], dict]  # csv name -> data rows, from the config
    bounds: Callable[[dict, dict], list]  # (summary, config) -> problems
    oracle_gap: Callable[[dict], float]
    gap_unit: str

    def make_config(self, seed: int, tiny: bool = False) -> dict:
        cfg = dict(self.config, seed=int(seed), workers=1)
        if tiny:
            cfg.update(self.tiny)
        return cfg


def _by_n(summary: dict, key: str) -> dict[int, float]:
    return {int(n): v for n, v in summary["metrics"][key].items()}


# -- offline_estimate: criterion 03 (weak consistency) -------------------------


def _offline_bounds(summary, cfg):
    # Criterion 03 scores the mean per-symbol error |est - oracle|, which on
    # the binary alphabet is half the L1 distance the CLI reports.
    err = {n: v / 2 for n, v in _by_n(summary, "mean_l1_by_n").items()}
    grid = sorted(err)
    problems = []
    if not err[grid[-1]] < 0.05:
        problems.append(f"final mean error {err[grid[-1]]:.4f} not below 0.05")
    for a, b in zip(grid, grid[1:]):
        if err[b] > err[a] + 0.01:
            problems.append(f"mean error rose from {err[a]:.4f} (n={a}) to {err[b]:.4f} (n={b})")
    return problems


def _offline_gap(summary):
    l1 = _by_n(summary, "mean_l1_by_n")
    return l1[max(l1)]


# -- online_predict: criterion 09 (online classification) ----------------------


def _online_bounds(summary, cfg):
    loss = summary["metrics"]["mean_final_avg_loss"]
    floor = summary["oracle_targets"]["oracle_bayes_rate"]
    if abs(loss - floor) > 0.02:
        return [f"final average loss {loss:.4f} not within 0.02 of the Bayes rate {floor:.4f}"]
    return []


def _online_gap(summary):
    return abs(
        summary["metrics"]["mean_final_avg_loss"] - summary["oracle_targets"]["oracle_bayes_rate"]
    )


# -- divergence_curve: criterion 06 (divergence consistency) -------------------


def _divergence_bounds(summary, cfg):
    kl = _by_n(summary, "mean_kl_bits_by_n")
    grid = sorted(kl)
    problems = []
    if summary["metrics"]["replicas_used"] != cfg["replicas"]:
        problems.append("a replica was skipped")
    if not kl[grid[-1]] < 0.02:
        problems.append(f"final mean divergence {kl[grid[-1]]:.5f} bits not below 0.02")
    for a, b in zip(grid, grid[1:]):
        if kl[b] > kl[a] + 0.005:
            problems.append(f"mean divergence rose from {kl[a]:.5f} (n={a}) to {kl[b]:.5f} (n={b})")
    return problems


def _divergence_gap(summary):
    kl = _by_n(summary, "mean_kl_bits_by_n")
    return kl[max(kl)]


# -- recurrence_growth: criterion 02 (growth rate tracks the entropy rate) -----

# Criterion 02 bounds the levels 8..16; the workload also sweeps 4 and 6,
# whose rates sit below the entropy rate by the estimator's small-k bias.
GROWTH_CRITERION_MIN_K = 8


def _growth_bounds(summary, cfg):
    h = summary["oracle_targets"]["entropy_rate_bits"]
    rates = summary["metrics"]["growth_mean_rate_by_k"]
    truncated = summary["metrics"]["growth_truncated_by_k"]
    problems = []
    for k in cfg["k_grid"]:
        if k < GROWTH_CRITERION_MIN_K:
            continue
        coverage = 1 - truncated[str(k)] / cfg["replicas"]
        lo, hi = h - 0.1, h + 0.1 + 2.0 * math.log2(k) / k
        rate = rates[str(k)]
        if rate is None or not lo <= rate <= hi or coverage < 0.8:
            problems.append(f"k={k}: mean rate {rate} outside [{lo:.3f}, {hi:.3f}] or coverage {coverage:.2f} < 0.8")
    return problems


def _growth_gap(summary):
    h = summary["oracle_targets"]["entropy_rate_bits"]
    rates = summary["metrics"]["growth_mean_rate_by_k"].values()
    return max(abs(r - h) for r in rates if r is not None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="offline_estimate",
            command="estimate",
            why="paper's headline estimator: batch recurrence search, path generation and encoding (criterion 03)",
            # Criterion 03's own grid and replica count: at 80 replicas its
            # bounds fail on some seeds, as one fallback more moves the mean.
            config={
                "source": "markov_stay90",
                "n_grid": [1_000, 10_000, 100_000],
                "replicas": 240,
                "schedule": {"mode": "finite", "epsilon": 0.5},
            },
            tiny={"n_grid": [1_000, 10_000], "replicas": 3},
            expected_rows=lambda c: {"estimates.csv": c["replicas"] * len(c["n_grid"])},
            bounds=_offline_bounds,
            oracle_gap=_offline_gap,
            gap_unit="L1",
        ),
        Workload(
            name="online_predict",
            command="predict",
            why="writes beside reads: an index append and query per step, no batch search, a 1e5-row CSV (criterion 09)",
            config={
                "source": "markov_stay90",
                "loss": "hamming",
                "n_grid": [100_000],
                "replicas": 1,
                "schedule": {"mode": "finite", "epsilon": 0.75, "budget_fraction": 0.25},
            },
            tiny={"n_grid": [3_000]},
            expected_rows=lambda c: {"online_r0.csv": max(c["n_grid"])},
            bounds=_online_bounds,
            oracle_gap=_online_gap,
            gap_unit="loss",
        ),
        Workload(
            name="divergence_curve",
            command="divergence-curve",
            why="Cesaro-averaged add-1/2 mixture: model and divergence layers only, no recurrence search (criterion 06)",
            config={
                "source": "markov_stay90",
                "model": "kt_mixture",
                "model_order": 3,
                "n_grid": [300, 1_000, 3_000, 10_000],
                "replicas": 8,
            },
            tiny={"n_grid": [300, 1_000], "replicas": 2},
            expected_rows=lambda c: {"divergence.csv": c["replicas"] * len(c["n_grid"])},
            bounds=_divergence_bounds,
            oracle_gap=_divergence_gap,
            gap_unit="bits",
        ),
        Workload(
            name="recurrence_growth",
            command="recurrence-stats",
            why="Kac first-recurrence scans, seven full-path re-encodes per path, few shallow searches (criteria 01/02)",
            # Criterion 02's path length and replica count: at 20 replicas its
            # bounds fail on some seeds.  Levels 4 and 6 keep the Kac paths
            # short (the Kac check runs at the lowest level).
            config={
                "source": "iid_p25",
                "n_grid": [1_000_000],
                "k_grid": [4, 6, 8, 10, 12, 14, 16],
                "replicas": 60,
                "trials": 50_000,
            },
            tiny={"n_grid": [20_000], "k_grid": [4, 6, 8], "replicas": 2, "trials": 2_000},
            expected_rows=lambda c: {"growth.csv": c["replicas"] * len(c["k_grid"])},
            bounds=_growth_bounds,
            oracle_gap=_growth_gap,
            gap_unit="bits/symbol",
        ),
    )
}


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))
    }


def recorded_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(workload: Workload, cfg: dict, out_dir: Path, tiny: bool) -> tuple[list, dict]:
    """Problems with one run's output, and its summary (empty if unreadable)."""
    try:
        with open(out_dir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"summary.json unreadable: {err}"], {}
    problems = []
    for name, rows in workload.expected_rows(cfg).items():
        try:
            with open(out_dir / name, newline="", encoding="utf-8") as fh:
                found = sum(1 for _ in csv.reader(fh)) - 1
        except OSError as err:
            problems.append(f"{name} unreadable: {err}")
            continue
        if found != rows:
            problems.append(f"{name} has {found} data rows, expected {rows}")
    if not tiny:
        problems += workload.bounds(summary, cfg)
        if cfg["seed"] == DEFAULT_SEED:
            expected = recorded_digests()[workload.name]
            if csv_digests(out_dir) != expected:
                problems.append(f"CSV digests differ from {DIGESTS.name} at seed {DEFAULT_SEED}")
    return problems, summary
