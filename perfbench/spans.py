"""Spans around calls into vampcf, recorded from outside the package.

``Tracer.install`` replaces public functions on vampcf's modules with
wrappers that record a span (name, start, end, parent, shape key) per
call. This works because the package resolves these names through
module lookups at call time: ``autodiff`` calls ``K.<kernel>``, ``model``
calls ``ad.matmul`` and ``vamp_log_density``, ``training`` and
``metrics`` call the names they imported into their own namespace. The
wrappers are removed again by ``uninstall``; spans stay in memory until
the run writes them out.
"""
import json
import time
from contextlib import contextmanager

import numpy as np

from vampcf import autodiff, checkpoint, data, kernels, metrics, model, training

LAYERS = ("data", "model", "autodiff", "kernels", "training", "metrics",
          "checkpoint")

KERNELS = ("sigmoid", "sigmoid_bwd", "tanh_bwd", "softplus", "softplus_bwd",
           "logsumexp_rows", "logsumexp_rows_bwd", "log_softmax_rows",
           "log_softmax_rows_bwd", "l2_normalize_rows", "l2_normalize_rows_bwd",
           "adam_update")

# Every evaluate call in the benchmark ranks for a largest K of 100.
MAX_K = 100


def _shape(x):
    return "x".join(str(d) for d in getattr(x, "shape", ()))


class Tracer:
    """In-memory span recorder. One instance per run."""

    def __init__(self):
        self.spans = []       # [id, name, start, end, parent, key, root]
        self._stack = []
        self._patches = []
        self.enabled = False
        self.counts = {"tape_ops": [], "prior_rows": 0, "elbo_rows": 0,
                       "input_nnz": 0, "input_size": 0,
                       "rank_useful": 0, "rank_candidates": 0,
                       "steps_attempted": 0, "steps_completed": 0}
        self._open_step = None
        self.hook_seconds = 0.0   # time spent in the counting hooks

    # -- spans ------------------------------------------------------------

    def _begin(self, name, key=""):
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][6] if parent is not None else len(self.spans)
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None, parent, key, root])
        self._stack.append(sid)
        return sid

    def _end(self, sid):
        if sid not in self._stack:
            return
        self.spans[sid][3] = time.perf_counter()
        # Pop through sid: a span left open by an exception closes with it.
        while self._stack:
            top = self._stack.pop()
            if self.spans[top][3] is None:
                self.spans[top][3] = self.spans[sid][3]
            if top == sid:
                break

    @contextmanager
    def span(self, name):
        """A span around benchmark code; no-op while tracing is disabled."""
        if not self.enabled:
            yield
            return
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _timed(self, name, key_fn=None, before=None, after=None):
        def factory(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                if before is not None:
                    h0 = time.perf_counter()
                    before(*args, **kwargs)
                    self.hook_seconds += time.perf_counter() - h0
                sid = self._begin(name, key_fn(*args, **kwargs) if key_fn else "")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._end(sid)
                if after is not None:
                    h0 = time.perf_counter()
                    after(out, *args, **kwargs)
                    self.hook_seconds += time.perf_counter() - h0
                return out
            return wrapper
        return factory

    def install(self):
        """Wrap the public functions of every traced layer."""
        c = self.counts

        def first_shape(a, *_, **__):
            return _shape(a)

        for name in KERNELS:
            self._patch(kernels, name, self._timed(f"kernels.{name}", first_shape))

        self._patch(autodiff, "matmul", self._timed(
            "autodiff.matmul", lambda a, b: f"{_shape(a)}@{_shape(b)}"))
        self._patch(autodiff.Tape, "backward", self._timed(
            "autodiff.backward", lambda tape, out: str(len(tape)),
            before=lambda tape, out: c["tape_ops"].append(len(tape))))

        def count_input(x, *_, **__):
            c["input_nnz"] += int(np.count_nonzero(x.data))
            c["input_size"] += int(x.data.size)

        def start_step(x, *args, **kwargs):
            # A step runs from its forward to the end of its Adam update.
            if self._open_step is not None:
                self._end(self._open_step)
            c["steps_attempted"] += 1
            c["elbo_rows"] += x.rows
            count_input(x)
            self._open_step = self._begin("training.step", _shape(x))

        def end_step(*_, **__):
            c["steps_completed"] += 1
            sid, self._open_step = self._open_step, None
            if sid is not None:
                self._end(sid)

        def count_prior(z, params):
            c["prior_rows"] += params.pseudo_inputs.rows

        def count_ranked(order, *_, **__):
            c["rank_useful"] += min(MAX_K, order.size)
            c["rank_candidates"] += order.size

        self._patch(training, "elbo", self._timed(
            "model.elbo", first_shape, before=start_step))
        self._patch(training, "adam_step", self._timed(
            "training.adam_step", after=end_step))
        self._patch(model, "vamp_log_density", self._timed(
            "model.vamp_log_density", first_shape, before=count_prior))
        self._patch(metrics, "score_items", self._timed(
            "model.score_items", first_shape, before=count_input))
        for owner in (model, training, checkpoint):
            self._patch(owner, "init_params", self._timed("model.init_params"))

        self._patch(data, "ingest", self._timed("data.ingest"))
        self._patch(data, "split", self._timed("data.split"))
        self._patch(metrics, "to_dense_batch", self._timed(
            "data.to_dense_batch", lambda v, n: f"{len(v)}x{n}"))

        self._patch(metrics, "ranked_candidates", self._timed(
            "metrics.ranked_candidates", first_shape, after=count_ranked))
        self._patch(metrics, "evaluate", self._timed(
            "metrics.evaluate", lambda users, *a, **k: str(len(users))))
        # Validation inside train() goes through training's own binding;
        # route it through the wrapped metrics.evaluate so that span nests.
        self._patch(training, "evaluate", lambda _orig: self._timed(
            "training.validation")(lambda *a, **k: metrics.evaluate(*a, **k)))
        self._patch(training, "train", self._timed("training.train"))

        self._patch(checkpoint, "save_checkpoint", self._timed("checkpoint.save"))
        self._patch(checkpoint, "load_checkpoint", self._timed("checkpoint.load"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- overhead ---------------------------------------------------------

    @staticmethod
    def span_cost(calls=20000, trials=5):
        """Seconds a wrapper adds to one call: a wrapped no-op taking an
        array (so the shape key is built) against the bare no-op, best of
        ``trials`` loops on a tracer of its own."""
        probe = Tracer()
        probe.enabled = True

        def noop(a):
            return a

        wrapped = probe._timed("probe", _shape)(noop)
        x = np.empty((2, 3))
        best = float("inf")
        for _ in range(trials):
            probe.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped(x)
            t1 = time.perf_counter()
            for _ in range(calls):
                noop(x)
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
        return max(best, 0.0)

    # -- summaries --------------------------------------------------------

    def durations(self, name, roots):
        """Durations of every span with this name under the given roots."""
        return [s[3] - s[2] for s in self.spans
                if s[1] == name and s[3] is not None and s[6] in roots]

    def self_times(self, roots):
        """Self time per layer, summed over spans under the given roots: a
        span's duration minus the durations of its direct children."""
        child_time = {}
        for s in self.spans:
            if s[4] is not None and s[3] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out = {}
        for s in self.spans:
            if s[6] not in roots or s[3] is None:
                continue
            layer = s[1].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[3] - s[2]) - child_time.get(s[0], 0.0)
        return out

    def by_key(self, roots):
        """{span name: {shape key: [calls, total seconds]}} under the roots."""
        out = {}
        for s in self.spans:
            if s[3] is None or s[6] not in roots:
                continue
            row = out.setdefault(s[1], {}).setdefault(s[5], [0, 0.0])
            row[0] += 1
            row[1] += s[3] - s[2]
        return out

    def write(self, path):
        """All spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, key, root in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "root": root,
                    "key": key, "start": start - t0,
                    "end": None if end is None else end - t0}) + "\n")


# (span name, phase): setup spans are summarised per set-up, the rest per
# measured repetition.
TIMED = (
    [("data.ingest", "setup"), ("data.split", "setup"),
     ("data.to_dense_batch", "rep"),
     ("model.elbo", "rep"), ("model.vamp_log_density", "rep"),
     ("model.score_items", "rep"), ("model.init_params", "rep"),
     ("autodiff.backward", "rep"), ("autodiff.matmul", "rep")]
    + [(f"kernels.{k}", "rep") for k in KERNELS]
    + [("training.step", "rep"), ("training.adam_step", "rep"),
       ("training.validation", "rep"),
       ("metrics.evaluate", "rep"), ("metrics.ranked_candidates", "rep"),
       ("checkpoint.load", "rep"), ("checkpoint.save", "setup")])

def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, setup_roots, rep_roots, computed, rep_seconds):
    """Every per-layer metric of one traced run.

    Timings are per call (p50 and p90 over all calls); ``_calls`` counts
    and self times are per set-up or per measured repetition, so they
    repeat exactly for a deterministic workload whatever the run length.
    ``computed`` holds the sizes the workload works out from its inputs;
    ``rep_seconds`` are the traced repetitions' wall times.

    The tracing overhead is estimated, not measured as traced against
    untraced repetitions: one pair of those differs mostly by the
    machine's speed drift. It is spans per repetition times the calibrated
    cost of one wrapped call, plus the time the counting hooks took, as a
    share of the repetition's time without them.
    """
    m = {}
    for name, phase in TIMED:
        roots = setup_roots if phase == "setup" else rep_roots
        d = tracer.durations(name, roots)
        m[f"{name}_s.p50"] = _percentile(d, 50)
        m[f"{name}_s.p90"] = _percentile(d, 90)
        m[f"{name}_calls"] = _ratio(len(d), len(roots))
    c = tracer.counts
    m["model.prior_rows_per_batch_row"] = _ratio(c["prior_rows"], c["elbo_rows"])
    m["model.input_nnz_frac"] = _ratio(c["input_nnz"], c["input_size"])
    m["autodiff.tape_ops"] = float(np.median(c["tape_ops"])) if c["tape_ops"] else 0.0
    m["training.steps_attempted"] = _ratio(c["steps_attempted"], len(rep_roots))
    m["training.steps_completed"] = _ratio(c["steps_completed"], len(rep_roots))
    m["metrics.rank_useful_frac"] = _ratio(c["rank_useful"], c["rank_candidates"])
    for key in ("model.param_mb", "training.dense_mb", "training.optimizer_mb",
                "training.test_ndcg_100", "metrics.popularity_users_per_s",
                "checkpoint.mb"):
        m[key] = computed[key]
    self_s = tracer.self_times(rep_roots)
    for layer in ("bench",) + LAYERS:
        m[f"{layer}.self_s"] = _ratio(self_s.get(layer, 0.0), len(rep_roots))
    spans = _ratio(sum(1 for s in tracer.spans if s[6] in rep_roots),
                   len(rep_roots))
    cost = spans * Tracer.span_cost() + _ratio(tracer.hook_seconds, len(rep_roots))
    rep = float(np.median(rep_seconds)) if rep_seconds else 0.0
    m["trace.overhead_frac"] = _ratio(cost, rep - cost) if rep > cost else 0.0
    m["trace.spans"] = spans
    return m
