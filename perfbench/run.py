"""Benchmark of the ``pastcast`` CLI: end-to-end timings and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record-digests

One run builds the workload's config from ``--seed`` (the program sees
only that config), times seven set-up-only processes, then repeats the
workload in fresh processes for ``--seconds`` seconds.  A repetition
starts only while one more of its kind would still end inside the
window, and at least one runs.  The first repetition runs ``--seed``
itself and later ones seeds derived from it (see ``rep_seed``).  Every
repetition's output is checked (see ``workloads.py``); one that exits
non-zero or fails the check counts as failed.

With ``--trace 0`` the last line of stdout reports the medians over
repetitions of ``wall_s`` (runner start to every output written),
``setup_s`` (process start to runner start) and ``peak_rss_mb`` (peak
resident memory of the process).  With ``--trace 1`` untraced and traced
repetitions alternate, and it reports the per-layer metrics of
``spans.py``, the oracle gap and the tracing overhead (traced minus
untraced ``wall_s``).
``--all`` does the latter for every workload and prints one table.  Run
outputs live in a temporary directory under ``perfbench/.work`` and are
deleted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

from spans import LAYER_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    DIGESTS,
    WORKLOADS,
    check_output,
    csv_digests,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"

SETUP_PROBES = 7
REP_TIMEOUT_S = 150
# Traced spans must account for the traced wall time to within this.
SELF_SUM_TOLERANCE_S = 1e-6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "oracle_gap": "gap",
}


@dataclass
class Rep:
    """One repetition: a fresh process running the workload once."""

    mode: str
    elapsed: float
    problems: list = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    oracle_gap: float | None = None
    digests: dict = field(default_factory=dict)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    # Set-up is timed with warm byte-code caches, as an installed package
    # starts; they go under the benchmark's own directory, not src/.
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_child(mode: str, cli_args: list, tmp: Path) -> tuple[dict | None, float, str]:
    """Start one measured process; return its result, spawn time and error text."""
    result_path = tmp / f"result-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(CHILD), str(SRC), str(result_path), mode, "--", *cli_args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            cwd=tmp,
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, spawned, f"timed out after {REP_TIMEOUT_S} s"
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    finally:
        result_path.unlink(missing_ok=True)
    error = ""
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no message"]
        error = f"exit {proc.returncode}: {lines[-1]}"
    return result, spawned, error


def run_rep(workload, cfg: dict, cfg_path: Path, tmp: Path, mode: str, tiny: bool) -> Rep:
    out_dir = tmp / f"out-{time.monotonic_ns()}"
    cli_args = [workload.command, "--config", str(cfg_path), "--out", str(out_dir)]
    started = time.monotonic()
    result, spawned, error = run_child(mode, cli_args, tmp)
    rep = Rep(mode=mode, elapsed=0.0)
    try:
        if error or result is None:
            rep.problems.append(error or "no result from the measured process")
            return rep
        rep.setup_s = result["runner_start"] - spawned
        rep.rss_mb = result["maxrss_kb"] / 1024.0
        if mode == "setup":
            return rep
        rep.wall_s = result["runner_end"] - result["runner_start"]
        problems, summary = check_output(workload, cfg, out_dir, tiny)
        rep.problems += problems
        rep.digests = csv_digests(out_dir)
        if summary and not problems:
            rep.oracle_gap = workload.oracle_gap(summary)
        if mode == "trace":
            rep.trace = result["trace"]
            rep.problems += _span_problems(rep.trace["check"])
            rep.wall_s = rep.trace["check"]["wall_s"]
        return rep
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        rep.elapsed = time.monotonic() - started


def _span_problems(check: dict) -> list:
    problems = []
    if not check["nested"]:
        problems.append("a span does not lie inside its parent")
    if check["min_self_s"] < -SELF_SUM_TOLERANCE_S:
        problems.append(f"negative self time {check['min_self_s']:.3g} s")
    if abs(check["self_sum_s"] - check["wall_s"]) > SELF_SUM_TOLERANCE_S:
        problems.append(
            f"self times add up to {check['self_sum_s']:.6f} s, traced wall is {check['wall_s']:.6f} s"
        )
    return problems


def rep_seed(seed: int, cycle: int) -> int:
    """Config seed of one repetition cycle.

    The first cycle runs ``--seed`` itself; later ones draw fresh inputs
    from seeds derived from it, so a run's medians average over several
    paths (peak memory, for one, depends on the path) while the same
    ``--seed`` always gives the same inputs.
    """
    return seed if cycle == 0 else (seed * 1000 + cycle) % 2**64


def measure(workload, seed: int, seconds: float, modes: tuple, tiny: bool = False) -> list:
    """Set-up probes, then repetitions cycling through ``modes`` for ``seconds``.

    The repetitions of one cycle (an untraced and a traced one, with
    ``--trace 1``) share their inputs.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)

        def config_for(cycle: int) -> tuple[dict, Path]:
            cfg = workload.make_config(rep_seed(seed, cycle), tiny)
            cfg_path = tmp / f"config-{cycle}.json"
            if not cfg_path.exists():
                cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
            return cfg, cfg_path

        reps = [run_rep(workload, *config_for(0), tmp, "setup", tiny) for _ in range(SETUP_PROBES)]
        last: dict[str, float] = {}
        window_start = time.monotonic()
        i = 0
        while True:
            cycle, position = divmod(i, len(modes))
            rep = run_rep(workload, *config_for(cycle), tmp, modes[position], tiny)
            reps.append(rep)
            last[rep.mode] = rep.elapsed
            i += 1
            upcoming = modes[i % len(modes)]
            if i >= len(modes) and (
                time.monotonic() - window_start + last[upcoming] > seconds
            ):
                return reps


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(reps: list) -> dict:
    runs = [r for r in reps if r.mode == "run"]
    good = [r for r in runs if r.ok] or runs
    return {
        "wall_s": _median(r.wall_s for r in good),
        "setup_s": _median(r.setup_s for r in reps if r.mode in ("setup", "run")),
        "peak_rss_mb": _median(r.rss_mb for r in good),
    }


def layer_metrics(reps: list) -> dict:
    """Per-layer metrics of the traced repetitions.

    Times are medians over the traced repetitions.  Counts and ratios come
    from the first one, which runs the ``--seed`` inputs, so they repeat
    exactly for a given seed.
    """
    traced = [r for r in reps if r.mode == "trace" and r.trace is not None]
    good = [r for r in traced if r.ok] or traced
    if not good:
        return dict.fromkeys({**LAYER_METRICS, **TRACE_METRICS})
    metrics = {
        name: _median(r.trace["metrics"][name] for r in good)
        if unit in ("s", "us")
        else good[0].trace["metrics"][name]
        for name, unit in LAYER_METRICS.items()
    }
    traced_wall = _median(r.wall_s for r in good)
    untraced_wall = end_to_end_metrics(reps)["wall_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = (
        None if untraced_wall is None else traced_wall - untraced_wall
    )
    metrics["trace.spans"] = good[0].trace["check"]["spans"]
    metrics["oracle_gap"] = next(r.oracle_gap for r in reps if r.mode != "setup")
    return metrics


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _counts(reps: list) -> tuple[int, int]:
    runs = [r for r in reps if r.mode != "setup"]
    return len(runs), sum(not r.ok for r in runs)


def provenance() -> dict:
    """What was measured and on which machine."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _describe(name: str, seed: int, reps: list) -> str:
    runs = [r for r in reps if r.mode == "run" and r.wall_s is not None]
    walls = sorted(r.wall_s for r in runs)
    parts = [f"{name} seed={seed}: {len(runs)} untraced reps"]
    if walls:
        parts.append(f"wall_s min {walls[0]:.4f} median {statistics.median(walls):.4f} max {walls[-1]:.4f}")
    for r in reps:
        if r.problems:
            parts.append(f"FAILED {r.mode}: {'; '.join(r.problems)}")
    return ", ".join(parts)


def _emit(reps: list, values: dict, units: dict) -> int:
    attempted, failed = _counts(reps)
    if attempted == 0 or any(values[name] is None for name in units):
        print("no measurement completed; see the failures above", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": _with_units(values, units),
            }
        )
    )
    return 0


def bench_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    reps = measure(workload, seed, seconds, ("run", "trace") if trace else ("run",))
    print("provenance: " + json.dumps(provenance()))
    print(_describe(name, seed, reps))
    if trace:
        units = {**LAYER_METRICS, **TRACE_METRICS}
        return _emit(reps, layer_metrics(reps), units)
    return _emit(reps, end_to_end_metrics(reps), END_TO_END)


def bench_all(seed: int, seconds: float) -> int:
    print("provenance: " + json.dumps(provenance()))
    all_reps, values, units = [], {}, {}
    for name, workload in WORKLOADS.items():
        reps = measure(workload, seed, seconds, ("run", "trace"))
        all_reps += reps
        e2e, layers = end_to_end_metrics(reps), layer_metrics(reps)
        attempted, failed = _counts(reps)
        row = {
            **e2e,
            "oracle_gap": layers["oracle_gap"],
            "failed_runs": failed / attempted,
            "trace.overhead_s": layers["trace.overhead_s"],
        }
        row_units = {
            **END_TO_END,
            "oracle_gap": workload.gap_unit,
            "failed_runs": "share",
            "trace.overhead_s": "s",
        }
        if not values:
            print("  ".join(f"{h:>18}" for h in ["workload", *row_units]))
        for metric, unit in row_units.items():
            values[f"{name}.{metric}"] = row[metric]
            units[f"{name}.{metric}"] = unit
        cells = [name] + [
            "-" if row[m] is None else f"{row[m]:.5g} {row_units[m]}" for m in row_units
        ]
        print("  ".join(f"{c:>18}" for c in cells))
        for r in reps:
            if r.problems:
                print(f"  FAILED {r.mode}: {'; '.join(r.problems)}")
    return _emit(all_reps, values, units)


def selfcheck() -> int:
    """Harness checks at tiny sizes; prints one PASS/FAIL line per check."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    results = []

    def verdict(ok: bool, what: str) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    e2e_declared = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer_declared = {m["name"]: m["unit"] for m in declared["per_layer"]}
    verdict(e2e_declared == END_TO_END, "end-to-end metrics and units match BENCHMARK.json")
    verdict(
        layer_declared == {**LAYER_METRICS, **TRACE_METRICS},
        "per-layer metrics and units match BENCHMARK.json",
    )
    verdict(
        [w["name"] for w in declared["workloads"]] == list(WORKLOADS),
        "workloads match BENCHMARK.json",
    )
    for name, workload in WORKLOADS.items():
        reps = measure(workload, DEFAULT_SEED, 0, ("run", "trace"), tiny=True)
        again = measure(workload, DEFAULT_SEED, 0, ("run",), tiny=True)
        verdict(all(r.ok for r in reps + again), f"{name}: every tiny run passes its output check")
        first, traced = [r for r in reps if r.mode != "setup"]
        second = again[-1]
        verdict(
            bool(first.digests) and first.digests == second.digests == traced.digests,
            f"{name}: two runs at one seed, and a traced run, give identical CSV digests",
        )
        check = traced.trace["check"] if traced.trace else None
        verdict(
            check is not None and check["nested"] and check["min_self_s"] >= -SELF_SUM_TOLERANCE_S,
            f"{name}: spans nest under their parents, self times non-negative",
        )
        verdict(
            check is not None
            and abs(check["self_sum_s"] - check["wall_s"]) <= SELF_SUM_TOLERANCE_S,
            f"{name}: self times add up to the traced wall time"
            + (f" ({check['self_sum_s']:.6f} s of {check['wall_s']:.6f} s)" if check else ""),
        )
        e2e = _with_units(end_to_end_metrics(reps), END_TO_END)
        layers = _with_units(layer_metrics(reps), {**LAYER_METRICS, **TRACE_METRICS})
        printed = {**e2e, **layers}
        verdict(
            all(isinstance(v["value"], (int, float)) and v["unit"] for v in printed.values()),
            f"{name}: every named metric has a value and a unit",
        )
    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


def record_digests() -> int:
    """Rewrite digests.json from one run of each workload at the default seed."""
    digests = {}
    for name, workload in WORKLOADS.items():
        cfg = workload.make_config(DEFAULT_SEED)
        WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
            tmp = Path(tmp_name)
            cfg_path = tmp / "config.json"
            cfg_path.write_text(json.dumps(cfg) + "\n", encoding="utf-8")
            out_dir = tmp / "out"
            cli_args = [workload.command, "--config", str(cfg_path), "--out", str(out_dir)]
            _, _, error = run_child("run", cli_args, tmp)
            if error:
                print(f"{name}: {error}", file=sys.stderr)
                return 1
            problems = workload.bounds(json.loads((out_dir / "summary.json").read_text()), cfg)
            if problems:
                print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            digests[name] = csv_digests(out_dir)
        print(f"{name}: {digests[name]}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--workload", choices=sorted(WORKLOADS))
    action.add_argument("--all", action="store_true", help="every workload, one table")
    action.add_argument("--selfcheck", action="store_true", help="harness checks at tiny sizes")
    action.add_argument("--record-digests", action="store_true", help=f"rewrite {DIGESTS.name}")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pastcast" / "__init__.py").is_file():
        print(f"pastcast sources not found under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.selfcheck:
        return selfcheck()
    if args.record_digests:
        return record_digests()
    if args.all:
        return bench_all(args.seed, args.seconds)
    return bench_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
