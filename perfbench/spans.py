"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions and methods that the
experiment runners call (plus ``experiments._write_csv``, since CSV
writing has no public entry point).  Each wrapped call records one span:
a name, a start, an end and the span that was open when it began; every
span of one process shares the tracer's ``run_id``.  Spans stay in
memory, in flat arrays, until the run ends and :meth:`Tracer.report`
turns them into per-layer metrics.

A layer's self time is its spans' duration minus the time covered by
their child spans, so the self times of every span under the runner add
up to the runner's traced wall time.  A wrapped call made while a span of
the same name is already open (``MarkovSource.generate`` delegating to
``generate_batch``) is covered by the outer span and records nothing of
its own.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
import uuid
from array import array
from collections import defaultdict

# Per-layer metrics of a traced run, with their units.  BENCHMARK.json
# lists the same names; the harness self-check keeps the two in step.
LAYER_METRICS = {
    "recurrence.search.calls": "count",
    "recurrence.search.self_s": "s",
    "recurrence.search.path_values": "count",
    "recurrence.search.depth_fraction": "ratio",
    "recurrence.search.truncated_rate": "ratio",
    "recurrence.kac.self_s": "s",
    "recurrence.kac.trials": "count",
    "recurrence.index.append.self_s": "s",
    "recurrence.index.query.self_s": "s",
    "recurrence.index.query.samples": "count",
    "recurrence.index.rekeys": "count",
    "quantize.encode.values": "count",
    "quantize.encode.self_s": "s",
    "quantize.encode.values_per_outcome": "ratio",
    "sources.generate.outcomes": "count",
    "sources.generate.self_s": "s",
    "sources.conditional.self_s": "s",
    "estimators.estimate.calls": "count",
    "estimators.estimate.self_s": "s",
    "estimators.default_rate": "ratio",
    "estimators.law.built": "count",
    "estimators.law.self_s": "s",
    "online.steps": "count",
    "online.step_us.p50": "us",
    "online.step_us.tail": "us",
    "online.step_us.tail_pct": "%",
    "online.step_us.samples": "count",
    "online.default_rate": "ratio",
    "online.self_s": "s",
    "models.kt.prepend.calls": "count",
    "models.kt.prepend.self_s": "s",
    "models.kt.predict.self_s": "s",
    "models.kt.step_us": "us",
    "divergence.window_steps": "count",
    "divergence.kl.calls": "count",
    "divergence.kl.self_s": "s",
    "divergence.curve.self_s": "s",
    "experiments.write.rows": "count",
    "experiments.write.bytes": "B",
    "experiments.write.self_s": "s",
    "experiments.runner.self_s": "s",
    "config.validate.self_s": "s",
}

RUNNER_SPAN = "experiments.runner"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open at this moment."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name[s] == nid for s in self._open[1:])

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span ``name`` per call.

        ``count(tracer, args, kwargs, result, error)`` runs after the span
        closes, so its cost lands in the caller's self time.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = open_spans[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            open_spans.append(sid)
            result = error = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[sid] = clock()
                open_spans.pop()
                if count is not None:
                    count(self, args, kwargs, result, error)

        return traced

    # -- aggregation -----------------------------------------------------

    def _durations(self):
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def _by_name(self, own):
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            key = self.span_names[nid]
            calls[key] += 1
            self_s[key] += own[i]
        return calls, self_s

    def check(self) -> dict:
        """Consistency of the recorded spans.

        Every span must lie inside its parent and have a non-negative self
        time, and the self times of the runner's subtree must add up to
        the runner's duration (its traced wall time).
        """
        dur, own = self._durations()
        nested = all(
            p < 0 or (self.start[p] <= self.start[i] and self.end[i] <= self.end[p])
            for i, p in enumerate(self.parent)
        )
        min_self = min(own, default=0.0)
        runner = self._name_ids.get(RUNNER_SPAN)
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        wall = self_sum = 0.0
        for pos, r in enumerate(roots):
            if self.name[r] == runner:
                stop = roots[pos + 1] if pos + 1 < len(roots) else len(own)
                wall += dur[r]
                self_sum += math.fsum(own[r:stop])
        return {
            "run_id": self.run_id,
            "spans": len(own),
            "nested": nested,
            "min_self_s": min_self,
            "wall_s": wall,
            "self_sum_s": self_sum,
        }

    def report(self) -> dict:
        """Per-layer metrics (see ``LAYER_METRICS``) and the span check."""
        _, own = self._durations()
        calls, self_s = self._by_name(own)
        c = self.counts
        m: dict[str, float] = {}

        searches = calls["recurrence.search"]
        depth = self.samples["recurrence.search.depth_fraction"]
        m["recurrence.search.calls"] = searches
        m["recurrence.search.self_s"] = self_s["recurrence.search"]
        m["recurrence.search.path_values"] = c["recurrence.search.path_values"]
        m["recurrence.search.depth_fraction"] = statistics.median(depth) if depth else 0.0
        m["recurrence.search.truncated_rate"] = _ratio(c["recurrence.search.truncated"], searches)
        m["recurrence.kac.self_s"] = self_s["recurrence.kac"]
        m["recurrence.kac.trials"] = c["recurrence.kac.trials"]
        m["recurrence.index.append.self_s"] = self_s["recurrence.index.append"]
        m["recurrence.index.query.self_s"] = self_s["recurrence.index.query"]
        m["recurrence.index.query.samples"] = c["recurrence.index.query.samples"]
        m["recurrence.index.rekeys"] = calls["recurrence.index.rekey"]

        m["quantize.encode.values"] = c["quantize.encode.values"]
        m["quantize.encode.self_s"] = self_s["quantize.encode"]
        m["quantize.encode.values_per_outcome"] = _ratio(
            c["quantize.encode.values"], c["sources.generate.path_outcomes"]
        )
        m["sources.generate.outcomes"] = c["sources.generate.outcomes"]
        m["sources.generate.self_s"] = self_s["sources.generate"]
        m["sources.conditional.self_s"] = self_s["sources.conditional"]

        estimates = calls["estimators.estimate"]
        m["estimators.estimate.calls"] = estimates
        m["estimators.estimate.self_s"] = self_s["estimators.estimate"]
        m["estimators.default_rate"] = _ratio(c["estimators.estimate.fallbacks"], estimates)
        m["estimators.law.built"] = calls["estimators.law"]
        m["estimators.law.self_s"] = self_s["estimators.law"]

        steps = self._online_steps_us()
        tail_pct, tail = _tail(steps)
        m["online.steps"] = calls["online.estimate"]
        m["online.step_us.p50"] = statistics.median(steps) if steps else 0.0
        m["online.step_us.tail"] = tail
        m["online.step_us.tail_pct"] = tail_pct
        m["online.step_us.samples"] = len(steps)
        m["online.default_rate"] = _ratio(c["online.defaults"], calls["online.estimate"])
        m["online.self_s"] = sum(v for k, v in self_s.items() if k.startswith("online."))

        prepends = calls["models.kt.prepend"]
        m["models.kt.prepend.calls"] = prepends
        m["models.kt.prepend.self_s"] = self_s["models.kt.prepend"]
        m["models.kt.predict.self_s"] = self_s["models.kt.predict"]
        kt_total = sum(
            e - s
            for nid, s, e in zip(self.name, self.start, self.end)
            if self.span_names[nid] in ("models.kt.prepend", "models.kt.predict")
        )
        m["models.kt.step_us"] = 1e6 * _ratio(kt_total, prepends)

        m["divergence.window_steps"] = c["divergence.window_steps"]
        m["divergence.kl.calls"] = calls["divergence.kl"]
        m["divergence.kl.self_s"] = self_s["divergence.kl"]
        m["divergence.curve.self_s"] = self_s["divergence.curve"]

        m["experiments.write.rows"] = c["experiments.write.rows"]
        m["experiments.write.bytes"] = c["experiments.write.bytes"]
        m["experiments.write.self_s"] = self_s["experiments.write"]
        m["experiments.runner.self_s"] = self_s[RUNNER_SPAN]
        m["config.validate.self_s"] = self_s["config.validate"]
        return {"metrics": {k: float(v) for k, v in m.items()}, "check": self.check()}

    def _online_steps_us(self) -> list[float]:
        """Time per online step: one ``current_estimate`` start to the next.

        A step covers the whole predict-decide-score-update iteration; the
        last step of a run ends with its ``online.run`` span.
        """
        est = self._name_ids.get("online.estimate")
        if est is None:
            return []
        by_run: dict[int, list[float]] = defaultdict(list)
        for i, nid in enumerate(self.name):
            if nid == est:
                by_run[self.parent[i]].append(self.start[i])
        steps = []
        for run, starts in by_run.items():
            stops = starts[1:] + [self.end[run]] if run >= 0 else starts[1:]
            steps.extend(1e6 * (b - a) for a, b in zip(starts, stops))
        return steps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(samples) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 20:
        return 0.0, max(samples, default=0.0)
    pct, beyond = 50.0, n // 2
    digits = 1
    while n // 10**digits >= 10:
        pct, beyond = 100.0 - 10.0 ** (2 - digits), n // 10**digits
        digits += 1
    return pct, sorted(samples)[n - beyond - 1]


# ---------------------------------------------------------------------------
# Instrumentation of the pastcast modules


def _count_generate(t, args, kwargs, result, error):
    if error is None:
        path = result[0] if isinstance(result, tuple) else result
        t.counts["sources.generate.outcomes"] += path.size
        # Kac trial batches are scanned raw, never encoded, so only the
        # runner's own paths count toward encoded values per outcome.
        if not t.inside("recurrence.kac"):
            t.counts["sources.generate.path_outcomes"] += path.size


def _count_encode(t, args, kwargs, result, error):
    if error is None:
        t.counts["quantize.encode.values"] += result.size


def _count_search(t, args, kwargs, result, error):
    if error is None:
        n = args[0].n
        t.counts["recurrence.search.path_values"] += n
        if result.truncated:
            t.counts["recurrence.search.truncated"] += 1
        else:
            t.samples["recurrence.search.depth_fraction"].append(result.lam / n)


def _count_kac(t, args, kwargs, result, error):
    if error is None:
        t.counts["recurrence.kac.trials"] += int(args[2] if len(args) > 2 else kwargs["n_trials"])


def _count_query(t, args, kwargs, result, error):
    if result is not None:
        t.counts["recurrence.index.query.samples"] += len(result[1])


def _count_estimate(insufficient):
    def count(t, args, kwargs, result, error):
        # The runner falls back to the schedule's default law when the
        # search comes up short.
        if isinstance(error, insufficient):
            t.counts["estimators.estimate.fallbacks"] += 1

    return count


def _count_online_estimate(t, args, kwargs, result, error):
    if error is None and result.default_used:
        t.counts["online.defaults"] += 1


def _count_curve(t, args, kwargs, result, error):
    n_grid = args[2] if len(args) > 2 else kwargs["n_grid"]
    replicas = args[3] if len(args) > 3 else kwargs["replicas"]
    t.counts["divergence.window_steps"] += int(replicas) * max(int(n) for n in n_grid)


def _count_write(t, args, kwargs, result, error):
    if error is None:
        t.counts["experiments.write.rows"] += len(args[2])
        t.counts["experiments.write.bytes"] += os.path.getsize(args[0])


def instrument(tracer: Tracer, pastcast_modules: dict) -> None:
    """Install span wrappers over every layer the runners call.

    Module-level functions are replaced wherever a pastcast module (or
    the runner table) refers to them; methods are replaced on their class.
    """
    config = pastcast_modules["config"]
    divergence = pastcast_modules["divergence"]
    errors = pastcast_modules["errors"]
    estimators = pastcast_modules["estimators"]
    experiments = pastcast_modules["experiments"]
    models = pastcast_modules["models"]
    online = pastcast_modules["online"]
    quantize = pastcast_modules["quantize"]
    recurrence = pastcast_modules["recurrence"]
    sources = pastcast_modules["sources"]

    count_estimate = _count_estimate(errors.InsufficientDataError)
    functions = [
        (experiments, "_write_csv", "experiments.write", _count_write),
        (recurrence, "backward_recurrences", "recurrence.search", _count_search),
        (recurrence, "kac_diagnostic", "recurrence.kac", _count_kac),
        (estimators, "estimate_fixed_k", "estimators.estimate", count_estimate),
        (estimators, "estimate_with_side_info", "estimators.estimate", count_estimate),
        (online, "run_online", "online.run", None),
        (online, "run_online_side_info", "online.run", None),
        (divergence, "expected_divergence_curve", "divergence.curve", _count_curve),
        (divergence, "kl_divergence", "divergence.kl", None),
    ]
    methods = [
        (config.ExperimentConfig, "validate", "config.validate", None),
        (quantize.Alphabet, "encode", "quantize.encode", _count_encode),
        (quantize.IntervalFieldHierarchy, "encode", "quantize.encode", _count_encode),
        (recurrence.IncrementalPatternIndex, "append", "recurrence.index.append", None),
        (recurrence.IncrementalPatternIndex, "query", "recurrence.index.query", _count_query),
        (recurrence.IncrementalPatternIndex, "reconfigure", "recurrence.index.rekey", None),
        (estimators.ConditionalDistribution, "__post_init__", "estimators.law", None),
        (online.OnlinePatternEstimator, "current_estimate", "online.estimate", _count_online_estimate),
        (online.OnlinePatternEstimator, "update", "online.update", None),
        (online.OnlineSideInfoEstimator, "current_estimate", "online.estimate", _count_online_estimate),
        (online.OnlineSideInfoEstimator, "update", "online.update", None),
        (models.KTMixtureModel, "prepend", "models.kt.prepend", None),
        (models.KTMixtureModel, "predict", "models.kt.predict", None),
    ]
    for cls in vars(sources).values():
        if isinstance(cls, type) and issubclass(cls, sources._SourceBase):
            for attr in ("generate", "generate_with_states", "generate_batch"):
                if attr in vars(cls):
                    methods.append((cls, attr, "sources.generate", _count_generate))
            if "conditional" in vars(cls):
                methods.append((cls, "conditional", "sources.conditional", None))

    for owner, attr, name, count in methods:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    namespaces = [vars(m) for m in pastcast_modules.values()]
    for module, attr, name, count in functions:
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, count)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapped

    runners = experiments.RUNNERS
    for command, runner in runners.items():
        runners[command] = tracer.wrap(runner, RUNNER_SPAN)
