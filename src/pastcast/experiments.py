"""Experiment drivers: one function per CLI subcommand.

Each driver takes a validated :class:`~pastcast.config.ExperimentConfig`
and an output directory, writes CSV result files plus a ``summary.json``
(keys ``config``, ``metrics``, ``oracle_targets``, ``runtime_seconds``),
and returns the summary payload.  All randomness flows from the config's
master seed; replica ``r`` always draws from the spawn key ``(r,)`` of
that seed, so replica sets can be extended without disturbing earlier
replicas and reruns produce byte-identical CSVs.

Replica loops fan out over processes when ``workers > 1``; rows are
collected per replica and written in replica order, keeping output
deterministic regardless of scheduling.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_schedule, outcome_space_for
from .divergence import expected_divergence_curve
from .errors import ConfigError, InputError, UnsupportedQueryError
from .estimators import FiniteAlphabetSchedule, estimate_truncated, truncated_parameters
from .models import KTMixtureModel, LZ78Model
from .online import (
    OnlinePatternEstimator,
    OnlineSideInfoEstimator,
    hamming_loss,
    predict_class,
    predict_regression,
    run_online,
    run_online_side_info,
)
from .quantize import Alphabet
from .recurrence import (
    SamplePath,
    default_growth_entries,
    growth_rate_diagnostic,
    kac_diagnostic,
)
from .sources import build_source

__all__ = [
    "run_simulate",
    "run_recurrence_stats",
    "run_estimate",
    "run_divergence_curve",
    "run_predict",
    "run_report",
    "RUNNERS",
]


# Cap on the projected model steps of a divergence curve whose model is
# re-run for every window (lz78): one sweep of n(n-1)/2 steps per replica
# at the largest n.  At the 12-13 us per step measured on a 2-core host,
# the cap is about two minutes of work.
QUADRATIC_CURVE_MAX_STEPS = 10_000_000


def _replica_rng(master_seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=(int(r),)))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # None is written as an empty field


def _write_summary(out_dir, config, metrics, oracle_targets, runtime_seconds) -> dict:
    payload = {
        "config": config.to_dict(),
        "metrics": metrics,
        "oracle_targets": oracle_targets,
        "runtime_seconds": runtime_seconds,
        "version": __version__,
    }
    with open(Path(out_dir) / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return payload


def _oracle_targets(source) -> dict:
    targets: dict = {}
    try:
        er = source.entropy_rate()
        targets["entropy_rate_bits"] = er.bits
        targets["entropy_rate_exact"] = er.exact
    except UnsupportedQueryError:
        pass
    try:
        targets["oracle_bayes_rate"] = source.bayes_error_rate()
    except UnsupportedQueryError:
        pass
    try:
        targets["oracle_innovation_variance"] = source.innovation_variance()
    except (UnsupportedQueryError, InputError):
        pass
    if hasattr(source, "side_info_bayes_error_rate"):
        targets["oracle_side_info_bayes_rate"] = source.side_info_bayes_error_rate()
    return targets


def _map_replicas(fn, args, workers: int):
    """``fn`` over ``args``, yielding each result in order as it is ready."""
    if workers <= 1 or len(args) <= 1:
        yield from map(fn, args)
        return
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, args)


def _mkdir(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate


def run_simulate(config: ExperimentConfig, out_dir) -> dict:
    """Emit stationary sample paths, one block of rows per replica."""
    t0 = time.perf_counter()
    out = _mkdir(out_dir)
    source = build_source(config.source)
    n = max(config.n_grid)
    has_values = source.values is not None
    header = ["replica", "t", "outcome"] + (["value"] if has_values else [])
    rows = []
    for r in range(config.replicas):
        path = source.generate(n, _replica_rng(config.seed, r))
        vals = source.numeric_path(path) if has_values else None
        for t, x in enumerate(path):
            row = [r, t, int(x)]
            if has_values:
                row.append(float(vals[t]))
            rows.append(row)
    _write_csv(out / "paths.csv", header, rows)
    metrics = {
        "replicas": config.replicas,
        "path_length": n,
        "alphabet_size": source.alphabet_size,
    }
    return _write_summary(out, config, metrics, _oracle_targets(source), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# recurrence-stats


def run_recurrence_stats(config: ExperimentConfig, out_dir) -> dict:
    """First-recurrence calibration plus the depth-growth curve.

    Writes ``kac.csv`` (per realized pattern: oracle vs. empirical mean
    first-recurrence time) and ``growth.csv`` with columns ``k, J_k,
    tau_Jk, lambda_k, avg_gap, normalized_log_rate, truncated`` — one
    block of rows per replica, in replica order.
    """
    t0 = time.perf_counter()
    out = _mkdir(out_dir)
    source = build_source(config.source)
    space = outcome_space_for(config, source)
    real_mode = config.schedule.get("mode", "finite") == "real"
    k_grid = config.k_grid or tuple(range(1, 9))
    n = max(config.n_grid)

    kac_k = min(k_grid)
    # Long enough that unresolved trials (excluded from means) are rare
    # for patterns of non-vanishing mass.
    kac_len = int(min(n, max(512, 100 * source.alphabet_size**kac_k)))
    kac_seed = np.random.SeedSequence(config.seed, spawn_key=(2**32,))
    kac_rows = kac_diagnostic(source, kac_k, config.trials, kac_len, kac_seed)
    _write_csv(
        out / "kac.csv",
        [
            "pattern",
            "oracle_prob",
            "oracle_mean",
            "hits",
            "unresolved",
            "empirical_mean",
            "rel_deviation",
        ],
        [
            [
                "-".join(str(s) for s in row.pattern),
                row.oracle_prob,
                row.oracle_mean,
                row.hits,
                row.unresolved,
                row.empirical_mean,
                row.rel_deviation,
            ]
            for row in kac_rows
        ],
    )

    cells = (lambda k: space.atom_count(k)) if real_mode else source.alphabet_size
    entries = default_growth_entries(n, cells, k_grid)
    growth_rows = []
    rate_sums: dict[int, list[float]] = {k: [] for k in k_grid}
    truncated_counts = {k: 0 for k in k_grid}
    for r in range(config.replicas):
        sym = source.generate(n, _replica_rng(config.seed, r))
        path = SamplePath.from_chronological(source.numeric_path(sym) if real_mode else sym)
        for pt in growth_rate_diagnostic(path, entries, space):
            growth_rows.append(
                [pt.k, pt.j, pt.tau_j, pt.lam, pt.avg_gap, pt.rate, int(pt.truncated)]
            )
            if pt.truncated:
                truncated_counts[pt.k] += 1
            else:
                rate_sums[pt.k].append(pt.rate)
    _write_csv(
        out / "growth.csv",
        ["k", "J_k", "tau_Jk", "lambda_k", "avg_gap", "normalized_log_rate", "truncated"],
        growth_rows,
    )

    big = max(100, config.trials // 100)
    solid = [row.rel_deviation for row in kac_rows if row.hits >= big]
    metrics = {
        "kac_patterns": len(kac_rows),
        "kac_trials": config.trials,
        "kac_path_length": kac_len,
        "kac_max_rel_deviation_well_hit": max(solid) if solid else None,
        "growth_mean_rate_by_k": {
            str(k): (float(np.mean(v)) if v else None) for k, v in rate_sums.items()
        },
        "growth_truncated_by_k": {str(k): c for k, c in truncated_counts.items()},
    }
    return _write_summary(out, config, metrics, _oracle_targets(source), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# estimate


def _symbol_pmf_from(dist, values) -> np.ndarray:
    """Project an estimate onto the source's symbol set.

    Empirical estimates put their atoms exactly on path values, so exact
    matching recovers per-symbol masses; atoms elsewhere (e.g. a default
    law) simply leave mass off the symbol set.
    """
    if dist.is_finite:
        return np.asarray(dist.pmf, dtype=float)
    return np.array([float(np.mean(dist.samples == v)) for v in values])


def _estimate_one(args) -> list[list]:
    cfg_dict, r = args
    config = ExperimentConfig.from_dict(cfg_dict)
    source = build_source(config.source)
    schedule = build_schedule(config, source)
    space = outcome_space_for(config, source)
    real_mode = config.schedule.get("mode", "finite") == "real"
    values = source.numeric_values() if real_mode else None
    n_max = max(config.n_grid)
    sym = source.generate(n_max, _replica_rng(config.seed, r))
    chron = source.numeric_path(sym) if real_mode else sym
    rows = []
    for n in config.n_grid:
        past_sym = sym[n_max - n :]
        try:
            oracle = np.asarray(source.conditional(past_sym), dtype=float)
        except UnsupportedQueryError:
            continue
        path = SamplePath.from_chronological(chron[n_max - n :])
        k, ell, j = truncated_parameters(schedule, n)
        dist, rec = estimate_truncated(path, schedule, space)
        lam = None if rec is None else rec.lam
        est = _symbol_pmf_from(dist, values)
        off_symbols = max(0.0, 1.0 - float(est.sum()))
        l1 = float(np.abs(est - oracle).sum()) + off_symbols
        rows.append(
            [n, k, ell, j, lam, int(dist.default_used)]
            + [float(v) for v in est]
            + [float(v) for v in oracle]
            + [l1]
        )
    return rows


def run_estimate(config: ExperimentConfig, out_dir) -> dict:
    """Schedule-driven estimates against the oracle law across the n grid.

    ``estimates.csv`` holds one row per (replica, n), replicas in order:
    schedule triple, search depth (blank when the default law was used),
    the estimated and oracle per-symbol masses, and the L1 distance
    between them (mass off the symbol set counts fully).
    """
    t0 = time.perf_counter()
    if config.estimator not in ("pattern",):
        raise ConfigError("estimator", "the estimate subcommand runs the pattern estimator")
    out = _mkdir(out_dir)
    source = build_source(config.source)
    m = source.alphabet_size
    args = [(config.to_dict(), r) for r in range(config.replicas)]
    per_replica = _map_replicas(_estimate_one, args, config.workers)
    rows = [row for rep in per_replica for row in rep]
    header = (
        ["n", "k", "ell", "J", "lambda", "truncated"]
        + [f"est_{i}" for i in range(m)]
        + [f"oracle_{i}" for i in range(m)]
        + ["l1_error"]
    )
    _write_csv(out / "estimates.csv", header, rows)

    l1_col = len(header) - 1
    by_n: dict[int, list] = {n: [] for n in config.n_grid}
    defaults: dict[int, list] = {n: [] for n in config.n_grid}
    for row in rows:
        by_n[row[0]].append(row[l1_col])
        defaults[row[0]].append(row[5])
    metrics = {
        "mean_l1_by_n": {
            str(n): (float(np.mean(v)) if v else None) for n, v in by_n.items()
        },
        "default_rate_by_n": {
            str(n): (float(np.mean(v)) if v else None) for n, v in defaults.items()
        },
        "rows": len(rows),
    }
    return _write_summary(out, config, metrics, _oracle_targets(source), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# divergence-curve


def run_divergence_curve(config: ExperimentConfig, out_dir) -> dict:
    """Cesàro-averaged model estimates scored in divergence against the oracle.

    An ``lz78`` curve re-runs the model for every window, O(n^2) steps at
    the largest grid size, so it is refused up front when its projected
    step count passes ``QUADRATIC_CURVE_MAX_STEPS``.
    """
    t0 = time.perf_counter()
    if config.schedule.get("mode", "finite") == "real":
        raise ConfigError("schedule.mode", "divergence curves are finite-alphabet only")
    if config.model == "lz78":
        n = max(config.n_grid)
        steps = config.replicas * (n * (n - 1) // 2)
        if steps > QUADRATIC_CURVE_MAX_STEPS:
            raise ConfigError(
                "model",
                f"lz78 re-runs the model for every window: {steps:,} projected model "
                f"steps (replicas x n(n-1)/2 at the largest n) exceed the cap of "
                f"{QUADRATIC_CURVE_MAX_STEPS:,}",
            )
    out = _mkdir(out_dir)
    source = build_source(config.source)
    m = source.alphabet_size
    if config.model == "kt_mixture":
        factory = lambda: KTMixtureModel(m, config.model_order)  # noqa: E731
    else:
        factory = lambda: LZ78Model(m)  # noqa: E731
    rows = expected_divergence_curve(
        source, factory, config.n_grid, config.replicas, config.seed
    )
    _write_csv(
        out / "divergence.csv",
        ["n", "replica", "kl_bits", "variational", "model_redundancy_bits_per_symbol"],
        [
            [
                row["n"],
                row["replica"],
                row["kl_bits"],
                row["variational"],
                row["model_redundancy_bits_per_symbol"],
            ]
            for row in rows
        ],
    )
    kl_by_n: dict[int, list] = {n: [] for n in config.n_grid}
    v_by_n: dict[int, list] = {n: [] for n in config.n_grid}
    for row in rows:
        if np.isfinite(row["kl_bits"]):
            kl_by_n[row["n"]].append(row["kl_bits"])
        v_by_n[row["n"]].append(row["variational"])
    metrics = {
        "mean_kl_bits_by_n": {
            str(n): (float(np.mean(v)) if v else None) for n, v in kl_by_n.items()
        },
        "mean_variational_by_n": {
            str(n): (float(np.mean(v)) if v else None) for n, v in v_by_n.items()
        },
        "replicas_used": len({row["replica"] for row in rows}),
        "model": config.model,
    }
    return _write_summary(out, config, metrics, _oracle_targets(source), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# predict


def _check_predict(config: ExperimentConfig, source) -> None:
    """The estimator and loss checks of ``predict``, which need the source."""
    real_mode = config.schedule.get("mode", "finite") == "real"
    if config.estimator == "side_info":
        if real_mode:
            raise ConfigError("estimator", "side_info runs are finite-alphabet only")
        if getattr(source, "n_states", None) is None or not hasattr(source, "generate_with_states"):
            raise ConfigError("estimator", "side_info needs a source revealing a finite state")
    if config.loss == "hamming" and real_mode:
        raise ConfigError("loss", "hamming prediction needs a finite outcome space")
    if config.loss == "squared" and source.values is None:
        raise ConfigError("loss", "squared loss needs a source with numeric values")


def _predict_one(args):
    cfg_dict, r = args
    config = ExperimentConfig.from_dict(cfg_dict)
    source = build_source(config.source)
    schedule = build_schedule(config, source)
    space = outcome_space_for(config, source)
    real_mode = config.schedule.get("mode", "finite") == "real"
    n = max(config.n_grid)
    side = config.estimator == "side_info"
    states = None
    if side:
        sym, states = source.generate_with_states(n, _replica_rng(config.seed, r))
    else:
        sym = source.generate(n, _replica_rng(config.seed, r))

    if config.loss == "hamming":
        outcomes = sym
        shown = sym.tolist()
        decide, loss = predict_class, hamming_loss
    else:
        values = source.numeric_values()
        if real_mode:
            outcomes = source.numeric_path(sym)
            shown = outcomes.tolist()
            decide, loss = predict_regression, lambda x, a: (float(x) - a) ** 2
        else:
            outcomes = sym
            shown = source.numeric_path(sym).tolist()
            decide = lambda est: predict_regression(est, values)  # noqa: E731
            loss = lambda x, a: (float(values[int(x)]) - a) ** 2  # noqa: E731

    if side:
        x_alphabet = source.alphabet()
        y_alphabet = Alphabet.of_size(int(source.n_states))
        # Contexts pair main and side symbols, so the depth budget runs
        # over the product alphabet.
        joint = FiniteAlphabetSchedule(
            alphabet_size=x_alphabet.size * y_alphabet.size,
            epsilon=float(config.schedule.get("epsilon", 0.5)),
            budget_fraction=float(config.schedule.get("budget_fraction", 1.0)),
        )
        ell = joint.k_of_n(n)
        estimator = OnlineSideInfoEstimator(
            x_alphabet, y_alphabet, k=1, ell=ell, j=joint.j_of_k(ell)
        )
        ledger = run_online_side_info(outcomes, states, estimator, decide, loss)
    else:
        ledger = run_online(outcomes, OnlinePatternEstimator(space, schedule), decide, loss)
    rows = list(
        zip(
            range(ledger.n_steps),
            ledger.predictions.tolist(),
            shown,
            ledger.losses.tolist(),
            ledger.running_average.tolist(),
        )
    )
    return rows, ledger.summary()


def run_predict(config: ExperimentConfig, out_dir) -> dict:
    """Online predict-then-reveal runs; one CSV per replica."""
    t0 = time.perf_counter()
    source = build_source(config.source)
    _check_predict(config, source)
    out = _mkdir(out_dir)
    args = [(config.to_dict(), r) for r in range(config.replicas)]
    finals = []
    per_replica = {}
    for rows, summary in _map_replicas(_predict_one, args, config.workers):
        r = len(finals)
        _write_csv(
            out / f"online_r{r}.csv",
            ["t", "prediction", "outcome", "loss", "running_avg"],
            rows,
        )
        # Freed before the next replica runs; enumerate() would hold them.
        del rows
        finals.append(summary["final_avg_loss"])
        per_replica[str(r)] = summary
    metrics = {
        "loss": config.loss,
        "steps": max(config.n_grid),
        "mean_final_avg_loss": float(np.mean(finals)),
        "per_replica": per_replica,
    }
    return _write_summary(out, config, metrics, _oracle_targets(source), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# report


def _flatten(prefix: str, obj, into: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], into)
    elif isinstance(obj, (list, tuple)):
        into[prefix] = json.dumps(obj)
    else:
        into[prefix] = obj


def run_report(root, stream=None) -> list[dict]:
    """Aggregate every ``summary.json`` under ``root`` into one CSV table.

    The table goes to ``stream`` (stdout by default); an empty directory
    yields just the header.  Returns the flattened rows.
    """
    stream = stream or sys.stdout
    root = Path(root)
    flat_rows = []
    for path in sorted(root.rglob("summary.json")):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        flat: dict = {"dir": str(path.parent.relative_to(root)) or "."}
        src = payload.get("config", {}).get("source", "")
        flat["source"] = src if isinstance(src, str) else src.get("kind", "inline")
        flat["runtime_seconds"] = payload.get("runtime_seconds")
        _flatten("metrics", payload.get("metrics", {}), flat)
        _flatten("oracle_targets", payload.get("oracle_targets", {}), flat)
        flat_rows.append(flat)
    columns = ["dir", "source", "runtime_seconds"]
    extra = sorted({key for row in flat_rows for key in row} - set(columns))
    columns += extra
    writer = csv.writer(stream)
    writer.writerow(columns)
    for row in flat_rows:
        writer.writerow(["" if row.get(c) is None else row.get(c, "") for c in columns])
    return flat_rows


RUNNERS = {
    "simulate": run_simulate,
    "recurrence-stats": run_recurrence_stats,
    "estimate": run_estimate,
    "divergence-curve": run_divergence_curve,
    "predict": run_predict,
}
