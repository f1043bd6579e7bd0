"""Experiment drivers: ``RUNNERS`` maps each CLI subcommand to :func:`_run`
with that subcommand's work and check.

:func:`_run` builds the source and runs the subcommand's check before it
creates the output directory, so a refused config leaves nothing behind;
then the subcommand's work writes its CSVs and ``_run`` writes
``summary.json`` (``config``, ``metrics``, ``oracle_targets``,
``runtime_seconds``, ``version``).

All randomness flows from the config's master seed; replica ``r`` always
draws from the spawn key ``(r,)`` of that seed, so reruns produce
byte-identical CSVs.  Every subcommand but ``divergence-curve`` builds
its source and schedule once and maps a replica function bound to them
through :func:`_map_replicas`, over ``workers`` processes, in replica
order, whatever the worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_schedule, outcome_space_for
from .divergence import expected_divergence_curve
from .errors import ConfigError, InputError, UnsupportedQueryError
from .estimators import estimate_truncated, truncated_parameters
from .models import KTMixtureModel, LZ78Model
from .online import (
    OnlinePatternEstimator,
    OnlineSideInfoEstimator,
    hamming_loss,
    predict_class,
    predict_regression,
    run_online,
    run_online_side_info,
    squared_loss,
)
from .quantize import Alphabet
from .recurrence import (
    KacRow,
    SamplePath,
    default_growth_entries,
    growth_rate_diagnostic,
    kac_diagnostic,
)
from .sources import build_source, replica_rng

__all__ = ["run_report", "RUNNERS"]


# Cap on the projected model steps of a divergence curve whose model is
# re-run for every window (lz78): one sweep of n(n-1)/2 steps per replica
# at the largest n.  At the 0.40-0.48 us per step measured on a 2-core host
# (Python 3.11, numpy 2.4), a run at the cap takes about 4-5 s.
QUADRATIC_CURVE_MAX_STEPS = 10_000_000

# recurrence-stats: the growth sweep's levels when the config gives none.
DEFAULT_K_GRID = tuple(range(1, 9))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # None is written as an empty field


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


def _run(config: ExperimentConfig, out_dir, work, check=None) -> dict:
    """Build the source and run ``check(config, source)``, and only then make
    ``out_dir``; ``work(config, source, out)`` writes the CSVs and returns
    the metrics that ``summary.json`` records.  If the work fails before
    writing anything, each directory made here, parents too, is removed."""
    t0 = time.perf_counter()
    source = build_source(config.source)
    if check is not None:
        check(config, source)
    out = Path(out_dir)
    created = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        metrics = work(config, source, out)
    except BaseException:
        for made in created:
            if any(made.iterdir()):
                break
            made.rmdir()
        raise
    payload = {
        "config": config.to_dict(),
        "metrics": metrics,
        "oracle_targets": _oracle_targets(source),
        "runtime_seconds": time.perf_counter() - t0,
        "version": __version__,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return payload


def _map_replicas(fn, config: ExperimentConfig):
    """``fn(r)`` for every replica ``r``, yielded in replica order, each as
    soon as it is ready.  With ``workers > 1`` the pool pickles ``fn``, so
    it must be a module-level function or a ``functools.partial`` of one.
    A replica draws from a temporary ``replica_rng``: holding it costs memory."""
    replicas = range(config.replicas)
    # A forking pool starts all its workers at once, so never more than
    # there are replicas or CPUs; results do not depend on the count.
    size = min(config.workers, len(replicas), os.cpu_count() or 1)
    if size <= 1:
        yield from map(fn, replicas)
        return
    with ProcessPoolExecutor(max_workers=size) as ex:
        yield from ex.map(fn, replicas)


def _means(groups: dict) -> dict:
    """The mean of each group, keyed by ``str(key)``; ``None`` when empty."""
    return {str(key): (float(np.mean(v)) if v else None) for key, v in groups.items()}


# ---------------------------------------------------------------------------
# simulate


def _simulate_one(config: ExperimentConfig, source, r: int) -> list[list]:
    path = source.generate(max(config.n_grid), replica_rng(config.seed, r))
    if source.values is None:
        return [[r, t, int(x)] for t, x in enumerate(path)]
    vals = source.numeric_path(path)
    return [[r, t, int(x), float(v)] for t, (x, v) in enumerate(zip(path, vals))]


def _simulate(config: ExperimentConfig, source, out: Path) -> dict:
    """Emit stationary sample paths, one block of rows per replica."""
    header = ["replica", "t", "outcome"] + (["value"] if source.values is not None else [])
    simulate_one = functools.partial(_simulate_one, config, source)
    rows = [row for rep in _map_replicas(simulate_one, config) for row in rep]
    _write_csv(out / "paths.csv", header, rows)
    return {
        "replicas": config.replicas,
        "path_length": max(config.n_grid),
        "alphabet_size": source.alphabet_size,
    }


# ---------------------------------------------------------------------------
# recurrence-stats


def _recurrence_plan(config: ExperimentConfig, source):
    """Outcome space, growth entries and Kac path length; also the check."""
    k_grid = config.k_grid or DEFAULT_K_GRID
    n = max(config.n_grid)
    if n <= k_grid[0]:
        raise ConfigError("n_grid", f"the largest size, {n}, must exceed level {k_grid[0]}")
    if k_grid[-1] > n:
        raise ConfigError("k_grid", f"level {k_grid[-1]} does not fit a path of length {n}")
    space = outcome_space_for(config, source)
    # Long enough that unresolved trials (excluded from means) are rare
    # for patterns of non-vanishing mass.
    kac_len = int(min(n, max(512, 100 * source.alphabet_size ** k_grid[0])))
    # Refuses, in real mode, a level above the hierarchy's max_level.
    entries = default_growth_entries(n, space, k_grid)
    return space, entries, kac_len


def _growth_one(config: ExperimentConfig, source, space, entries, r: int) -> list:
    sym = source.generate(max(config.n_grid), replica_rng(config.seed, r))
    path = SamplePath.from_chronological(source.numeric_path(sym) if config.real_mode else sym)
    return growth_rate_diagnostic(path, entries, space)


def _recurrence_stats(config: ExperimentConfig, source, out: Path) -> dict:
    """First-recurrence calibration plus the depth-growth curve.

    Writes ``kac.csv`` (per realized pattern: oracle vs. empirical mean
    first-recurrence time) and ``growth.csv`` with columns ``k, J_k,
    tau_Jk, lambda_k, avg_gap, normalized_log_rate, truncated`` — one
    block of rows per replica, in replica order.
    """
    space, entries, kac_len = _recurrence_plan(config, source)
    kac_seed = np.random.SeedSequence(config.seed, spawn_key=(2**32,))
    kac_rows = kac_diagnostic(source, entries[0][0], config.trials, kac_len, kac_seed)
    # One column per KacRow field, the pattern written as "0-1-1".
    _write_csv(
        out / "kac.csv",
        [f.name for f in dataclasses.fields(KacRow)],
        [["-".join(map(str, row.pattern)), *dataclasses.astuple(row)[1:]] for row in kac_rows],
    )

    growth_rows = []
    rate_sums: dict[int, list[float]] = {k: [] for k, _, _ in entries}
    truncated_counts = dict.fromkeys(rate_sums, 0)
    growth_one = functools.partial(_growth_one, config, source, space, entries)
    for points in _map_replicas(growth_one, config):
        for pt in points:
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
    return {
        "kac_patterns": len(kac_rows),
        "kac_trials": config.trials,
        "kac_path_length": kac_len,
        "kac_max_rel_deviation_well_hit": max(solid) if solid else None,
        "growth_mean_rate_by_k": _means(rate_sums),
        "growth_truncated_by_k": {str(k): c for k, c in truncated_counts.items()},
    }


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


def _estimate_one(config: ExperimentConfig, source, schedule, space, r: int) -> list[list]:
    values = source.numeric_values() if config.real_mode else None
    n_max = max(config.n_grid)
    sym = source.generate(n_max, replica_rng(config.seed, r))
    chron = source.numeric_path(sym) if config.real_mode else sym
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


def _check_estimate(config: ExperimentConfig, source) -> None:
    if config.estimator != "pattern":
        raise ConfigError("estimator", "the estimate subcommand runs the pattern estimator")


def _estimate(config: ExperimentConfig, source, out: Path) -> dict:
    """Schedule-driven estimates against the oracle law across the n grid.

    ``estimates.csv`` holds one row per (replica, n), replicas in order:
    schedule triple, search depth (blank when the default law was used),
    the estimated and oracle per-symbol masses, and the L1 distance
    between them (mass off the symbol set counts fully).
    """
    m = source.alphabet_size
    schedule, space = build_schedule(config, source), outcome_space_for(config, source)
    estimate_one = functools.partial(_estimate_one, config, source, schedule, space)
    rows = [row for rep in _map_replicas(estimate_one, config) for row in rep]
    header = (
        ["n", "k", "ell", "J", "lambda", "truncated"]
        + [f"est_{i}" for i in range(m)]
        + [f"oracle_{i}" for i in range(m)]
        + ["l1_error"]
    )
    _write_csv(out / "estimates.csv", header, rows)
    by_n: dict[int, list] = {n: [] for n in config.n_grid}
    defaults: dict[int, list] = {n: [] for n in config.n_grid}
    for row in rows:
        by_n[row[0]].append(row[-1])
        defaults[row[0]].append(row[5])
    return {
        "mean_l1_by_n": _means(by_n),
        "default_rate_by_n": _means(defaults),
        "rows": len(rows),
    }


# ---------------------------------------------------------------------------
# divergence-curve


def _check_divergence(config: ExperimentConfig, source) -> None:
    if config.real_mode:
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


def _divergence_curve(config: ExperimentConfig, source, out: Path) -> dict:
    """Cesàro-averaged model estimates scored in divergence against the oracle.

    An ``lz78`` curve re-runs the model for every window, O(n^2) steps at
    the largest grid size, so :func:`_check_divergence` refuses it up
    front when its projected step count passes
    ``QUADRATIC_CURVE_MAX_STEPS``.
    """
    m = source.alphabet_size
    if config.model == "kt_mixture":
        factory = functools.partial(KTMixtureModel, m, config.model_order)
    else:
        factory = functools.partial(LZ78Model, m)
    rows = expected_divergence_curve(
        source, factory, config.n_grid, config.replicas, config.seed
    )
    columns = ["n", "replica", "kl_bits", "variational", "model_redundancy_bits_per_symbol"]
    _write_csv(out / "divergence.csv", columns, [[row[c] for c in columns] for row in rows])
    kl_by_n: dict[int, list] = {n: [] for n in config.n_grid}
    v_by_n: dict[int, list] = {n: [] for n in config.n_grid}
    for row in rows:
        if np.isfinite(row["kl_bits"]):
            kl_by_n[row["n"]].append(row["kl_bits"])
        v_by_n[row["n"]].append(row["variational"])
    return {
        "mean_kl_bits_by_n": _means(kl_by_n),
        "mean_variational_by_n": _means(v_by_n),
        "replicas_used": len({row["replica"] for row in rows}),
        "model": config.model,
    }


# ---------------------------------------------------------------------------
# predict


def _check_predict(config: ExperimentConfig, source) -> None:
    """The estimator and loss checks of ``predict``, which need the source."""
    if config.estimator == "side_info":
        if config.real_mode:
            raise ConfigError("estimator", "side_info runs are finite-alphabet only")
        if getattr(source, "n_states", None) is None or not hasattr(source, "generate_with_states"):
            raise ConfigError("estimator", "side_info needs a source revealing a finite state")
    if config.loss == "hamming" and config.real_mode:
        raise ConfigError("loss", "hamming prediction needs a finite outcome space")
    if config.loss == "squared" and source.values is None:
        raise ConfigError("loss", "squared loss needs a source with numeric values")


def _predict_one(config: ExperimentConfig, source, schedule, space, r: int):
    n = max(config.n_grid)
    side = config.estimator == "side_info"
    states = None
    if side:
        sym, states = source.generate_with_states(n, replica_rng(config.seed, r))
    else:
        sym = source.generate(n, replica_rng(config.seed, r))

    # Real mode forecasts the values; finite mode, symbols that carry them.
    outcomes = source.numeric_path(sym) if config.real_mode else sym
    if config.loss == "hamming":
        shown = sym.tolist()
        decide, loss = predict_class, hamming_loss
    else:
        values = source.numeric_values()
        shown = source.numeric_path(sym).tolist()
        # Made here, not bound by the caller: a pool cannot pickle lambdas.
        decide = lambda est: predict_regression(est, values)  # noqa: E731
        loss = lambda x, a: squared_loss(x if config.real_mode else values[int(x)], a)  # noqa: E731

    if side:
        y_alphabet = Alphabet.of_size(int(source.n_states))
        # Contexts pair main symbols (side_info is finite mode, so ``space``
        # is their alphabet) with states; the budget runs over the product.
        joint = dataclasses.replace(
            schedule, alphabet_size=space.size * y_alphabet.size, known_rate=None
        )
        ell = joint.k_of_n(n)
        estimator = OnlineSideInfoEstimator(space, y_alphabet, ell, joint.j_of_k(ell))
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


def _predict(config: ExperimentConfig, source, out: Path) -> dict:
    """Online predict-then-reveal runs; one CSV per replica."""
    finals = []
    per_replica = {}
    schedule, space = build_schedule(config, source), outcome_space_for(config, source)
    predict_one = functools.partial(_predict_one, config, source, schedule, space)
    for rows, summary in _map_replicas(predict_one, config):
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
    return {
        "loss": config.loss,
        "steps": max(config.n_grid),
        "mean_final_avg_loss": float(np.mean(finals)),
        "per_replica": per_replica,
    }


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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise InputError(f"{path} is not UTF-8 JSON: {e}") from None
        config = payload.get("config", {}) if isinstance(payload, dict) else None
        src = config.get("source", "") if isinstance(config, dict) else None
        if not isinstance(src, (str, dict)):
            raise InputError(
                f"{path} is not a run summary: it needs an object whose config.source "
                "is a preset name or a spec object"
            )
        flat: dict = {"dir": str(path.parent.relative_to(root)) or "."}
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


# Subcommand -> runner(config, out_dir) -> the summary.json payload.
RUNNERS = {
    "simulate": functools.partial(_run, work=_simulate),
    "recurrence-stats": functools.partial(_run, work=_recurrence_stats, check=_recurrence_plan),
    "estimate": functools.partial(_run, work=_estimate, check=_check_estimate),
    "divergence-curve": functools.partial(_run, work=_divergence_curve, check=_check_divergence),
    "predict": functools.partial(_run, work=_predict, check=_check_predict),
}
