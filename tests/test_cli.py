"""Command-line harness: subcommands, artifacts, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastcast.cli import main
from pastcast.experiments import run_report


def write_config(tmp_path, **overrides):
    cfg = {
        "source": "markov_stay90",
        "estimator": "pattern",
        "n_grid": [200, 500],
        "replicas": 2,
        "seed": 11,
        "trials": 2000,
        "k_grid": [1, 2],
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_missing_config_file_is_runtime_error(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 3


def test_invalid_config_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, source="not_a_preset")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("pastcast: source: unknown source preset ")
    inline = write_config(tmp_path, source={"kind": "nope"})
    assert main(["simulate", "--config", str(inline), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "pastcast: source: unknown source kind 'nope'\n"
    bad_grid = write_config(tmp_path, n_grid=[500, 200])
    assert main(["simulate", "--config", str(bad_grid), "--out", str(tmp_path / "o")]) == 2
    not_json = tmp_path / "syntax.json"
    not_json.write_text("{oops")
    assert main(["simulate", "--config", str(not_json), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 1.5),
        ("trials", "100"),
        ("replicas", "x"),
        ("replicas", 2.0),
        ("replicas", True),
        ("workers", 1.5),
        ("workers", None),
        ("model_order", "4"),
        ("seed", 11.5),
        ("seed", False),
        ("n_grid", "abc"),
        ("n_grid", [200, 500.5]),
        ("n_grid", 500),
        ("k_grid", [1, "2"]),
        ("k_grid", [True, 2]),
        ("schedule", [1, 2]),
        ("schedule.epsilon", "hi"),
        ("schedule.budget_fraction", None),
        ("schedule.max_level", "x"),
        ("schedule.j0", 2.7),
        ("schedule.j_growth", "3"),
    ],
)
def test_non_integer_config_fields_are_validation_errors(tmp_path, capsys, field, value):
    top, _, key = field.partition(".")
    cfg = write_config(tmp_path, **{top: {key: value} if key else value})
    out = tmp_path / "o"
    assert main(["recurrence-stats", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pastcast: {field}: must be ")
    assert err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_simulate_writes_paths(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "paths.csv")
    assert rows[0] == ["replica", "t", "outcome"]
    assert len(rows) - 1 == 2 * 500  # replicas x max(n_grid)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"config", "metrics", "oracle_targets", "runtime_seconds", "version"}
    assert summary["oracle_targets"]["entropy_rate_bits"] == pytest.approx(0.46899559358928117)
    assert summary["oracle_targets"]["oracle_bayes_rate"] == pytest.approx(0.1)


def test_simulate_value_column_in_real_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        source={"preset": "markov_stay90", "values": [-1.0, 1.0]},
        schedule={"mode": "real"},
    )
    out = tmp_path / "simv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "paths.csv")
    assert rows[0] == ["replica", "t", "outcome", "value"]
    assert rows[1][3] in ("-1.0", "1.0")


def test_estimate_csv_schema_and_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out_b)]) == 0
    rows = read_csv(out_a / "estimates.csv")
    assert rows[0] == [
        "n", "k", "ell", "J", "lambda", "truncated",
        "est_0", "est_1", "oracle_0", "oracle_1", "l1_error",
    ]
    assert len(rows) - 1 == 2 * 2  # replicas x grid sizes
    assert (out_a / "estimates.csv").read_bytes() == (out_b / "estimates.csv").read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert set(summary["metrics"]) >= {"mean_l1_by_n", "default_rate_by_n"}


def test_estimate_rejects_other_estimators(tmp_path):
    cfg = write_config(tmp_path, estimator="side_info")
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_predict_rejects_other_estimators(tmp_path, capsys, workers):
    cfg = write_config(tmp_path, estimator="cesaro", n_grid=[200], workers=workers)
    out = tmp_path / "x"
    assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pastcast: estimator: ") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


VALUED = {"preset": "markov_stay90", "values": [-1.0, 1.0]}


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("estimate", {"estimator": "cesaro"}, "estimator: "),
        ("divergence-curve", {"source": VALUED, "schedule": {"mode": "real"}}, "schedule.mode: "),
        ("predict", {"estimator": "cesaro"}, "estimator: "),
        ("predict", {"estimator": "side_info"}, "estimator: "),
        ("predict", {"loss": "hamming", "source": VALUED, "schedule": {"mode": "real"}}, "loss: "),
        ("divergence-curve", {"estimator": "cesaro"}, "estimator: "),
        ("recurrence-stats", {"n_grid": [1], "k_grid": []}, "n_grid: "),
        ("recurrence-stats", {"n_grid": [5], "k_grid": [1, 8]}, "k_grid: "),
        (
            "recurrence-stats",
            {"source": VALUED, "schedule": {"mode": "real"}, "k_grid": [1, 40]},
            "level must be an int in [1, 32], got 40",
        ),
    ],
    ids=[
        "estimate-cesaro",
        "curve-real",
        "predict-cesaro",
        "predict-side-info",
        "predict-hamming-real",
        "curve-cesaro",
        "recurrence-n-below-kac-level",
        "recurrence-level-above-n",
        "recurrence-real-level-above-max-level",
    ],
)
def test_rejected_runs_leave_no_output_directory(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pastcast: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_divergence_curve_refuses_quadratic_lz78(tmp_path, capsys):
    cfg = write_config(tmp_path, model="lz78", n_grid=[1_000, 100_000])
    out = tmp_path / "lz"
    assert main(["divergence-curve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    projected = 2 * (100_000 * 99_999 // 2)
    assert err.startswith("pastcast: model: ") and err.count("\n") == 1
    assert f"{projected:,} projected model steps" in err
    assert not out.exists()


def test_divergence_curve_runs_small_lz78(tmp_path):
    cfg = write_config(tmp_path, model="lz78", n_grid=[20, 60])
    out = tmp_path / "lz"
    assert main(["divergence-curve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "divergence.csv")
    assert [row[:2] for row in rows[1:]] == [["20", "0"], ["60", "0"], ["20", "1"], ["60", "1"]]
    assert all(float(row[2]) >= 0.0 and row[4] == "" for row in rows[1:])


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "s1", tmp_path / "s2"
    assert main(["estimate", "--config", str(cfg), "--out", str(out_a), "--seed", "123"]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out_b), "--seed", "124"]) == 0
    assert (out_a / "estimates.csv").read_bytes() != (out_b / "estimates.csv").read_bytes()


def test_recurrence_stats_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rec"
    assert main(["recurrence-stats", "--config", str(cfg), "--out", str(out)]) == 0
    kac = read_csv(out / "kac.csv")
    assert kac[0] == [
        "pattern", "oracle_prob", "oracle_mean", "hits",
        "unresolved", "empirical_mean", "rel_deviation",
    ]
    assert {row[0] for row in kac[1:]} == {"0", "1"}
    growth = read_csv(out / "growth.csv")
    assert growth[0] == [
        "k", "J_k", "tau_Jk", "lambda_k", "avg_gap", "normalized_log_rate", "truncated",
    ]
    assert len(growth) - 1 == 2 * 2  # replicas x k_grid entries


def test_divergence_curve_artifacts(tmp_path):
    cfg = write_config(tmp_path, model="kt_mixture", model_order=2, n_grid=[50, 150])
    out = tmp_path / "div"
    assert main(["divergence-curve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "divergence.csv")
    assert rows[0] == ["n", "replica", "kl_bits", "variational", "model_redundancy_bits_per_symbol"]
    assert len(rows) - 1 == 2 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert "mean_kl_bits_by_n" in summary["metrics"]


def test_divergence_curve_rejects_real_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        source={"preset": "markov_stay90", "values": [-1.0, 1.0]},
        schedule={"mode": "real"},
    )
    assert main(["divergence-curve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_predict_artifacts_and_worker_parity(tmp_path):
    cfg = write_config(tmp_path, n_grid=[400], loss="hamming")
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["predict", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["predict", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    for r in (0, 1):
        a = (out1 / f"online_r{r}.csv").read_bytes()
        b = (out2 / f"online_r{r}.csv").read_bytes()
        assert a == b  # parallelism must not leak into the numbers
    rows = read_csv(out1 / "online_r0.csv")
    assert rows[0] == ["t", "prediction", "outcome", "loss", "running_avg"]
    assert len(rows) - 1 == 400


@pytest.mark.parametrize(
    "command, csvs",
    [
        ("simulate", ["paths.csv"]),
        ("recurrence-stats", ["kac.csv", "growth.csv"]),
        ("estimate", ["estimates.csv"]),
    ],
)
def test_worker_count_leaves_csvs_unchanged(tmp_path, command, csvs):
    cfg = write_config(tmp_path, replicas=3)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
    assert main([command, "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each replica pool opened; the pool runs in process."""
    from pastcast import experiments

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_replica_pool_is_no_larger_than_the_replica_count(tmp_path, monkeypatch, pool_sizes):
    """A pool that forks its workers up front gets at most one per replica."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = write_config(tmp_path, n_grid=[50], replicas=2, workers=64)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert pool_sizes == [2]


@pytest.mark.parametrize("cpus, sizes", [(3, [3]), (1, []), (None, [])])
def test_replica_pool_is_no_larger_than_the_cpu_count(
    tmp_path, monkeypatch, pool_sizes, cpus, sizes
):
    """With one CPU, or a count the system cannot tell, replicas run in process."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = write_config(tmp_path, n_grid=[50], replicas=8, workers=5000)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert pool_sizes == sizes


def test_predict_writes_each_replica_before_the_next(tmp_path, monkeypatch):
    """A replica's rows are written and freed before the next replica runs."""
    from pastcast import experiments

    events = []
    predict_one = experiments._predict_one

    class Rows(list):
        def __del__(self):
            events.append(("freed", self.replica))

    def traced(*args):
        events.append(("run", args[-1]))
        rows, summary = predict_one(*args)
        rows = Rows(rows)
        rows.replica = args[-1]
        return rows, summary

    monkeypatch.setattr(experiments, "_predict_one", traced)
    cfg = write_config(tmp_path, n_grid=[50], replicas=3, loss="hamming")
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert events == [("run", 0), ("freed", 0), ("run", 1), ("freed", 1), ("run", 2), ("freed", 2)]
    assert len(read_csv(tmp_path / "out" / "online_r2.csv")) == 51


@pytest.mark.parametrize(
    "command, name, content",
    [
        ("simulate", "config.json", b"\xff\xfe{}"),
        ("report", "summary.json", b"{bad"),
        ("report", "summary.json", b"[1, 2]"),
        ("report", "summary.json", b'{"config": 5}'),
        ("report", "summary.json", b'{"config": {"source": 5}}'),
    ],
    ids=["config-not-utf8", "summary-not-json", "summary-list", "summary-config", "summary-source"],
)
def test_malformed_files_are_validation_errors(tmp_path, capsys, command, name, content):
    path = tmp_path / "runs" / name
    path.parent.mkdir()
    path.write_bytes(content)
    flag = ["--config", str(path)] if command != "report" else []
    assert main([command, *flag, "--out", str(path.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pastcast: ") and err.count("\n") == 1
    assert str(path) in err


def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    from pastcast import experiments

    def exhausted(config, out_dir):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setitem(experiments.RUNNERS, "simulate", exhausted)
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "pastcast: Unable to allocate 72.8 TiB for an array\n"


def test_failed_run_removes_the_out_dir_it_made(tmp_path, capsys, monkeypatch):
    """Only a directory the run made, and left empty, goes; nothing is
    really allocated."""
    from pastcast import experiments

    def exhausted(fn, config):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(experiments, "_map_replicas", exhausted)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "pastcast: Unable to allocate 72.8 TiB for an array\n"
    assert not out.exists()
    out.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert out.is_dir()
    # Parents the run made go too, deepest first; one that existed stays.
    deep = tmp_path / "deep"
    assert main(["simulate", "--config", str(cfg), "--out", str(deep / "a" / "out")]) == 3
    assert not deep.exists()
    deep.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(deep / "a" / "out")]) == 3
    assert deep.is_dir() and not any(deep.iterdir())


@pytest.mark.parametrize(
    "command, overrides, csv_name, rows, metrics",
    [
        # A growth level too deep for the path truncates in every replica.
        (
            "recurrence-stats",
            dict(source="iid_fair", n_grid=[2000], k_grid=[1, 12], replicas=3, trials=200),
            "growth.csv",
            6,
            {"growth_truncated_by_k": {"1": 0, "12": 3}},
        ),
        # The oracle refuses a past of mass 0, and that window writes no row.
        (
            "estimate",
            dict(source="ryabco_alt", n_grid=[2, 3], replicas=8, seed=0),
            "estimates.csv",
            15,
            {"rows": 15},
        ),
        # A replica whose past has mass 0 is skipped.
        (
            "divergence-curve",
            dict(source="ryabco_alt", n_grid=[1], replicas=8, seed=0),
            "divergence.csv",
            6,
            {"replicas_used": 6},
        ),
    ],
    ids=["growth-truncates", "estimate-oracle-refuses", "curve-skips-replicas"],
)
def test_skipped_and_truncated_paths(tmp_path, command, overrides, csv_name, rows, metrics):
    """Paths that skip or truncate a replica's rows.  Each run writes the
    same bytes with one worker and with a pool of two, which pickles the
    run's source, schedule and outcome space (``divergence-curve`` ignores
    the worker count)."""
    cfg = write_config(tmp_path, **overrides)
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main([command, "--config", str(cfg), "--out", str(out), "--workers", workers]) == 0
        written.append((out / csv_name).read_bytes())
        assert len(read_csv(out / csv_name)) == rows + 1
        summary = json.loads((out / "summary.json").read_text())
        assert metrics.items() <= summary["metrics"].items()
    assert written[0] == written[1]
    if command == "recurrence-stats":
        assert summary["metrics"]["growth_mean_rate_by_k"]["12"] is None
        assert read_csv(out / csv_name)[2::2] == [["12", "4", "", "", "", "", "1"]] * 3


def test_finite_schedule_refuses_a_budget_past_the_path(tmp_path, capsys):
    """At a level boundary the rounded level can need more than the path;
    validation refuses the run before anything is allocated."""
    cfg = write_config(
        tmp_path,
        source={"kind": "iid", "pmf": [0.25, 0.25, 0.25, 0.25]},
        schedule={"epsilon": 0.854163325870362},
        n_grid=[180565007],
    )
    out = tmp_path / "o"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "pastcast: schedule: search budget exceeds the path at n=180565007 (k=2)\n"
    )
    assert not out.exists()


def test_real_mode_far_out_values_run_without_warnings(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        source={"kind": "iid", "pmf": [0.5, 0.5], "values": [-1e20, 1e20]},
        schedule={"mode": "real"},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_report_empty_dir_is_ok(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.strip() == "dir,source,runtime_seconds"


def test_report_aggregates_summaries(tmp_path):
    cfg = write_config(tmp_path, n_grid=[200])
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs" / "sim")]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "runs" / "est")]) == 0
    buf = io.StringIO()
    rows = run_report(tmp_path / "runs", stream=buf)
    assert {r["dir"] for r in rows} == {"sim", "est"}
    table = buf.getvalue().splitlines()
    assert table[0].startswith("dir,source,runtime_seconds")
    assert len(table) == 3


HMM = {"state_transition": [[0.9, 0.1], [0.2, 0.8]], "emission": [[0.8, 0.2], [0.3, 0.7]]}
MALFORMED = {
    "periodic-short-values": {
        "source": {"kind": "periodic", "cycle": [0, 1], "values": [1.0]},
        "schedule": {"mode": "real"},
    },
    "ryabco-short-values": {
        "source": {"kind": "ryabco", "values": [1.0, 2.0]},
        "schedule": {"mode": "real"},
    },
    "hmm-short-values": {
        "source": {"kind": "hmm", **HMM, "values": [1.0]},
        "schedule": {"mode": "real"},
    },
    "infinite-values": {"source": {"kind": "iid", "pmf": [0.5, 0.5], "values": [1e400, 0]}},
    "pmf-string": {"source": {"kind": "iid", "pmf": "abc"}},
    "pmf-mixed": {"source": {"kind": "iid", "pmf": [0.5, "x"]}},
    "transition-string": {"source": {"kind": "markov", "transition": "x"}},
    "state-transition-string": {
        "source": {"kind": "hmm", "state_transition": "x", "emission": HMM["emission"]}
    },
    "order-string": {
        "source": {"kind": "markov", "transition": [[0.9, 0.1], [0.1, 0.9]], "order": "x"}
    },
    "delta-cycle-number": {"source": {"kind": "ryabco", "delta_cycle": 5}},
    "delta-cycle-misspelt": {"source": {"kind": "ryabco", "delta_cylce": [0.9]}},
    "iid-with-order": {"source": {"kind": "iid", "pmf": [0.5, 0.5], "order": 3}},
    "delta-cycle-string": {"source": {"kind": "ryabco", "delta_cycle": ["a"]}},
    "values-number": {"source": {"kind": "iid", "pmf": [0.5, 0.5], "values": 3}},
    "values-mixed-bool": {"source": {"kind": "iid", "pmf": [0.5, 0.5], "values": [0.0, True]}},
    "pmf-mixed-bool": {"source": {"kind": "iid", "pmf": [0, True]}},
    "transition-mixed-bool": {"source": {"kind": "markov", "transition": [[0.5, 0.5], [0, True]]}},
    "epsilon-overflow": {"schedule": {"epsilon": 0.999999}},
    "known-rate-overflow": {"schedule": {"known_rate": 1e300}},
    "real-keys-in-finite-mode": {"schedule": {"mode": "finite", "j0": 5, "max_level": 3}},
    "finite-keys-in-real-mode": {
        "source": {"preset": "markov_stay90", "values": [-1.0, 1.0]},
        "schedule": {"mode": "real", "epsilon": 0.9, "known_rate": 0.5},
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_sources_and_schedules_are_validation_errors(tmp_path, capsys, name):
    cfg = write_config(tmp_path, **MALFORMED[name])
    for command in ("simulate", "recurrence-stats", "estimate", "divergence-curve", "predict"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("pastcast: ") and err.count("\n") == 1, (command, err)
        assert not out.exists(), command


@pytest.mark.parametrize(
    "overrides, oracle",
    [
        (
            {"source": {"kind": "hmm", **HMM}, "estimator": "side_info"},
            "oracle_side_info_bayes_rate",
        ),
        ({"source": VALUED, "loss": "squared"}, "oracle_innovation_variance"),
        (
            {"source": VALUED, "loss": "squared", "schedule": {"mode": "real"}},
            "oracle_innovation_variance",
        ),
    ],
    ids=["side-info-hamming", "squared-finite", "squared-real"],
)
def test_predict_routes_and_worker_parity(tmp_path, overrides, oracle):
    cfg = write_config(tmp_path, n_grid=[400], **overrides)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["predict", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["predict", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    for r in (0, 1):
        name = f"online_r{r}.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = read_csv(out1 / name)
        assert rows[0] == ["t", "prediction", "outcome", "loss", "running_avg"]
        assert len(rows) - 1 == 400
    summary = json.loads((out1 / "summary.json").read_text())
    assert oracle in summary["oracle_targets"]


# JSON values of every type and some nesting, including NaN and infinities,
# which Python's json module reads and writes.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=8,
)
EDGE_NUMBERS = st.sampled_from([-1, 0, 1, 2, 3, 0.5, 1e-300, 1e300, 10**30])
PMFS = {2: [[0.5, 0.5], [0.0, 1.0], [0.9, 0.1]], 3: [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]]}


def _or_junk(strategy):
    """Mostly ``strategy``, so that runs get past the first checks; else any JSON."""
    return st.one_of(strategy, strategy, strategy, JSON_VALUES)


def _rows(count):
    """``count(m)`` pmf rows over ``m`` symbols, for ``m`` of 2 or 3."""
    return st.sampled_from(sorted(PMFS)).flatmap(
        lambda m: st.lists(st.sampled_from(PMFS[m]), min_size=count(m), max_size=count(m))
    )


def _spec(kind, **fields):
    """An inline spec of ``kind``: the given fields, an optional ``values``."""
    values = st.lists(st.floats() | EDGE_NUMBERS, min_size=2, max_size=3)
    return st.fixed_dictionaries(
        {"kind": st.just(kind), **{k: _or_junk(v) for k, v in fields.items()}},
        optional={"values": _or_junk(values)},
    )


SOURCES = st.one_of(
    JSON_VALUES,
    st.sampled_from(["iid_fair", "markov_stay90", "periodic01", "ryabco_alt"]),
    _spec("iid", pmf=st.sampled_from(PMFS[2] + PMFS[3])),
    _spec(
        "markov",
        transition=_rows(lambda m: m) | _rows(lambda m: m * m),
        order=st.integers(0, 2) | EDGE_NUMBERS,
    ),
    _spec("periodic", cycle=st.lists(st.integers(0, 3) | EDGE_NUMBERS, min_size=1, max_size=4)),
    _spec("hmm", state_transition=_rows(lambda m: m), emission=_rows(lambda m: 2)),
    _spec("ryabco", delta_cycle=st.lists(st.floats(0, 1) | EDGE_NUMBERS, max_size=3)),
)
SCHEDULE_FIELDS = {
    "mode": st.sampled_from(["finite", "real"]),
    "epsilon": st.floats(0, 1) | EDGE_NUMBERS,
    "known_rate": st.floats(0, 2000) | EDGE_NUMBERS,
    "budget_fraction": st.floats(0, 1) | EDGE_NUMBERS,
    "j0": st.integers(0, 10**6) | EDGE_NUMBERS,
    "j_growth": st.floats(0, 1e6) | EDGE_NUMBERS,
    "max_level": st.integers(0, 60),
}
SCHEDULES = _or_junk(
    st.lists(st.sampled_from(sorted(SCHEDULE_FIELDS)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: _or_junk(SCHEDULE_FIELDS[k]) for k in keys})
    )
)


@settings(derandomize=True)
@given(
    command=st.sampled_from(["estimate", "predict", "divergence-curve"]),
    source=SOURCES,
    schedule=SCHEDULES,
    n_grid=st.sampled_from([[1], [20, 200], [200]]),
    replicas=st.integers(1, 2),
    loss=st.sampled_from(["hamming", "squared"]),
)
def test_fuzzed_sources_and_schedules_exit_cleanly(command, source, schedule, n_grid, replicas, loss):
    """Any JSON for ``source`` and ``schedule`` ends in exit 0 or 2, never a traceback."""
    cfg = {"source": source, "schedule": schedule, "n_grid": n_grid, "replicas": replicas,
           "workers": 1, "seed": 3, "loss": loss, "model_order": 2}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a numeric warning is a bug too
            rc = main([command, "--config", str(path), "--out", str(out)])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert rc == 2, err.getvalue()
            assert len(lines) == 1 and lines[0].startswith("pastcast: "), err.getvalue()
            assert not out.exists()
