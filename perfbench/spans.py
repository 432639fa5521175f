"""Spans and counters around the calls into hopfmin's layers.

A traced op runs hopfmin.cli.main in this process. For the length of the op,
the public functions that the CLI and its layers call are replaced, in the
namespace of the module that calls them, by wrappers that record a span
(name, start, end, parent, op id) around each call. Nothing private is
wrapped. A name a later version no longer has, or a SymEngine without its
memo, stops the traced run with an error: a lost hook must not read as a
layer that takes no time. Only a layer a workload never reaches reads 0.
Spans stay in memory; run.py writes them once at exit.

Bookkeeping after a call (counting words, nonzero entries, memo size) runs
in a span of its own, trace.probe, which is left out of every layer time and
shows up in trace.overhead_s instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

PROBE = "trace.probe"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = 0
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(result) runs as a probe."""
        spans = self.spans
        stack = self._stack
        probe = self.wrap(PROBE, after) if after is not None else None

        def wrapped(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(result)
            return result

        return wrapped


class Counters:
    """Work counts of one traced op, gathered by the probes."""

    def __init__(self):
        self.words = 0
        self.rows_entries = 0
        self.rows_nonzero = 0
        self.rank_sum = 0
        self.det_num_degree = 0
        self.memo_words = 0
        self.memo_coeffs = 0
        self.resets = 0
        self.engines = []

    def on_words(self, words):
        self.words += len(words)

    def on_rows(self, result):
        _, rows = result
        for row in rows:
            self.rows_entries += len(row)
            self.rows_nonzero += sum(1 for x in row if x)
        # a block's rows are built when its memo peaks: trimming comes after
        for engine in self.engines:
            memo = engine.memo
            self.memo_words = max(self.memo_words, len(memo))
            self.memo_coeffs = max(self.memo_coeffs,
                                   sum(len(v) for v in memo.values()))

    def on_rank(self, rank):
        self.rank_sum += rank

    def on_det(self, report):
        num = getattr(report.determinant, "num", None)
        self.det_num_degree = max(num.degree, 0) if num is not None else 0


class EngineProbe:
    """Stands in for a SymEngine: spans each top-level sym call and counts
    the times the memo shrank (trim or eviction) between calls. The engine's
    own recursion calls itself, not the probe, so inner calls are not spanned.
    """

    def __init__(self, tracer, counters, engine):
        self._engine = engine
        self._counters = counters
        self._sym = tracer.wrap("shapovalov.sym", engine.sym)
        self._seen = 0
        counters.engines.append(self)

    @property
    def memo(self):
        try:
            return self._engine.memo
        except AttributeError:
            raise RuntimeError("SymEngine has no memo attribute; update the "
                               "memo probes in perfbench/spans.py") from None

    def sym(self, w):
        if len(self.memo) < self._seen:
            self._counters.resets += 1
        out = self._sym(w)
        self._seen = len(self.memo)
        return out

    def __getattr__(self, name):
        return getattr(self._engine, name)


@contextmanager
def _patched(plan):
    saved = []
    try:
        for module, attr, make in plan:
            fn = getattr(module, attr, None)
            if fn is None:
                raise RuntimeError(f"{module.__name__}.{attr} is gone; update "
                                   f"the probes in perfbench/spans.py")
            saved.append((module, attr, fn))
            setattr(module, attr, make(fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_probes(tracer, counters):
    """Context in which a serial CLI op records every layer's spans."""
    from hopfmin import cli, growth, shapovalov

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    def engine(cls):
        return lambda braiding: EngineProbe(tracer, counters, cls(braiding))

    plan = [(cli, f, span("datum.load"))
            for f in ("preset_cartan", "preset_doubled", "preset_reductive",
                      "parse_datum", "specialize_datum")]
    plan += [
        (cli, "multidegrees_up_to", span("words.enumerate")),
        (cli, "compute_blocks", span("growth.serial")),
        (cli, "growth_classify", span("growth.classify")),
        (cli, "gram_determinant", span("shapovalov.det", counters.on_det)),
        (growth, "SymEngine", engine),
        (growth, "matrix_rows", span("shapovalov.rows", counters.on_rows)),
        (growth, "rank_rows", span("shapovalov.rank", counters.on_rank)),
        (shapovalov, "SymEngine", engine),
        (shapovalov, "symmetrizer", span("shapovalov.symmetrizer")),
        (shapovalov, "matrix_rows", span("shapovalov.rows", counters.on_rows)),
        (shapovalov, "words_of_multidegree",
         span("words.enumerate", counters.on_words)),
    ]
    return _patched(plan)


def pool_probe(tracer):
    """Context in which only the CLI's block computation is spanned, so the
    pool's forked workers inherit no wrappers."""
    from hopfmin import cli

    return _patched([(cli, "compute_blocks",
                      lambda fn: tracer.wrap("growth.pool", fn))])


def span_times(spans):
    """Per (op, name): self time, inclusive time and longest single span.

    Self time is a span's duration minus its children's; inclusive time
    leaves out only the probe spans inside it. Children run one after the
    other, so their durations do not overlap.
    """
    n = len(spans)
    child = [0.0] * n
    probe = [0.0] * n
    for i in range(n - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child[parent] += end - start
            probe[parent] += (end - start) if name == PROBE else probe[i]
    own, incl, longest = {}, {}, {}
    for i, (name, start, end, _, op) in enumerate(spans):
        key = (op, name)
        whole = end - start - probe[i]
        own[key] = own.get(key, 0.0) + (end - start - child[i])
        incl[key] = incl.get(key, 0.0) + whole
        longest[key] = max(longest.get(key, 0.0), whole)
    return own, incl, longest
