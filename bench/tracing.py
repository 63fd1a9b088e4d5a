"""In-memory span tracer that wraps levyheat's public functions from outside.

A wrapped function records one span per call: name, start, end, parent span
and sample index.  Wrapping replaces the function under every module
attribute bound to it, so a name imported with ``from .noise import ...``
is traced where its caller looks it up (``levyheat.experiments.sample_path``,
``levyheat.schemes.restrict_path``), not only where it is defined.  Nothing
in ``src/`` is edited; ``restore`` puts the originals back.
"""

import functools
import json
import statistics
import sys
import time

# (module, attribute, span name, position of a sample-index argument)
FUNCTIONS = (
    ("levyheat.noise", "sample_path", "noise.sample_path", 5),
    ("levyheat.noise", "restrict_path", "noise.restrict_path", None),
    ("levyheat.noise", "sample_jump_skeleton", "noise.sample_jump_skeleton",
     None),
    ("levyheat.noise", "stream", "noise.stream", 1),
    ("levyheat.noise", "truncate_levy", "noise.truncate_levy", None),
    ("levyheat.schemes", "run_scheme_A", "schemes.run", None),
    ("levyheat.schemes", "run_scheme_B", "schemes.run", None),
    ("levyheat.experiments", "run_study", "experiments.run_study", None),
    ("levyheat.cli", "parse_config", "cli.parse_config", None),
    ("levyheat.cli", "execute", "cli.execute", None),
)
# (module, class, method, span name)
METHODS = (
    ("levyheat.spectral", "NemytskiiKernel", "__call__",
     "spectral.nemytskii"),
)


class Tracer:
    """Collects spans as [name, start, end, parent, sample] lists.

    `parent` is the index of the enclosing span in `spans` (-1 at top
    level).  `sample` is the last sample index passed to `sample_path` or
    `stream`, or -1 before any; spans keep it so a sample's work can be
    grouped.  Counters (`steps`) are read from the values the wrapped
    functions return.
    """

    def __init__(self):
        self.spans = []
        self.steps = 0
        self._stack = []
        self._sample = -1
        self._patches = []

    def _wrap(self, original, name, sample_arg):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self
        counts_steps = name == "schemes.run"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if sample_arg is not None and len(args) > sample_arg:
                tracer._sample = int(args[sample_arg])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer._sample]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts_steps:
                tracer.steps += result.partition.n_steps
            return result

        return traced

    def install(self):
        """Wrap every function in FUNCTIONS at each of its lookup sites."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "levyheat"
                                         or key.startswith("levyheat."))]
        for mod_name, attr, name, sample_arg in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(original, name, sample_arg)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name, None))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in this single-threaded run.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start),
                         own + (end - start) - child[i])
        return out


def call_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one wrapped call adds to a bare call, timed on a no-op.

    The median over batches, each with a fresh Tracer, of the traced loop's
    time minus the bare loop's, per call.
    """
    def noop():
        return None

    clock = time.perf_counter
    costs = []
    for _ in range(batches):
        traced = Tracer()._wrap(noop, "noop", None)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def layer_metrics(tracer: Tracer, bytes_written: int, intervals: int):
    """The per-layer figures of one traced run, by metric name.

    `trace.overhead_s` is the number of spans times `call_cost()`: what the
    wrappers added to this run, without the host noise of comparing it with
    an untraced run.
    """
    t = tracer.totals()

    def get(name, field):
        return t.get(name, (0, 0.0, 0.0))[field]

    steps = tracer.steps
    run_s = get("schemes.run", 1)
    nem_calls, nem_s = get("spectral.nemytskii", 0), get("spectral.nemytskii", 1)
    out = {}
    for layer in ("noise.sample_path", "noise.restrict_path",
                  "noise.sample_jump_skeleton", "noise.stream"):
        out[f"{layer}.calls"] = (get(layer, 0), "count")
        out[f"{layer}.s"] = (get(layer, 1), "s")
    out["noise.truncate_levy.s"] = (get("noise.truncate_levy", 1), "s")
    out["schemes.run.calls"] = (get("schemes.run", 0), "count")
    out["schemes.run.self_s"] = (get("schemes.run", 2), "s")
    out["schemes.steps"] = (steps, "count")
    out["schemes.us_per_step"] = (1e6 * run_s / steps if steps else 0.0, "us")
    out["spectral.nemytskii.calls"] = (nem_calls, "count")
    out["spectral.nemytskii.s"] = (nem_s, "s")
    out["spectral.nemytskii.us_per_call"] = (
        1e6 * nem_s / nem_calls if nem_calls else 0.0, "us")
    out["experiments.self_s"] = (get("experiments.run_study", 2), "s")
    out["experiments.intervals"] = (intervals, "count")
    out["cli.parse_config.s"] = (get("cli.parse_config", 1), "s")
    out["cli.self_s"] = (get("cli.execute", 2), "s")
    out["cli.bytes_written"] = (bytes_written, "bytes")
    out["trace.overhead_s"] = (len(tracer.spans) * call_cost(), "s")
    return out
