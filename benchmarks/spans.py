"""Span recorder for the traced benchmark run.

Spans are taken around calls into mlnsim's layers without changing any file
of the package. ``interpose`` finds each traced function in the module that
defines it, then replaces every name bound to that same function object, in
every loaded ``mlnsim`` module, with a wrapper that records a span; on exit it
puts the originals back. Because the match is by identity, a call is traced
whichever module imported the function and under whichever name, including a
module's calls to its own globals (``pep_ratio_curve`` calling
``pep_eigen_product_mc``, ``simulate_ber`` calling ``_simulate_point``).

A span records its name, start, end, thread id and parent. A span opened in
a thread that has no open span of its own (a worker of the simulator's thread
pool) takes as parent the innermost open span of the thread that created the
tracer, which during a sweep is the ``simulate.sweep`` span. Spans stay in
memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

# (defining module, function, span name). A function the package no longer
# defines is skipped and listed in Tracer.missing, so a later refactor shows
# up as a zero count instead of breaking the traced run.
TRACED = (
    ("mlnsim.linalg", "sample_cn_matrix", "linalg.sample"),
    ("mlnsim.config", "load_config", "config.load"),
    ("mlnsim.codes", "pairwise_codebook_from_delta", "codes.build"),
    ("mlnsim.codes", "repetition_bpsk", "codes.build"),
    ("mlnsim.codes", "uncoded_bpsk", "codes.build"),
    ("mlnsim.codes", "difference_matrix", "codes.build"),
    ("mlnsim.query", "uniform_query", "query.build"),
    ("mlnsim.query", "unitary_query", "query.build"),
    ("mlnsim.channel", "sample_channel", "channel.call"),
    ("mlnsim.channel", "effective_signal", "channel.call"),
    ("mlnsim.channel", "backscatter_transmit", "channel.call"),
    ("mlnsim.simulate", "ml_detect", "channel.call"),
    ("mlnsim.simulate", "simulate_ber", "simulate.sweep"),
    ("mlnsim.simulate", "_simulate_point", "simulate.point"),
    ("mlnsim.pep", "pep_eigen_product_mc", "pep.eigen"),
    ("mlnsim.pep", "pep_qfunction_mc", "pep.qfunc"),
    ("mlnsim.pep", "decay_exponent_checked", "pep.fit"),
    ("mlnsim.measure", "compare_queries", "measure.compare"),
    ("mlnsim.measure", "empirical_rank_check", "measure.rank_check"),
)

# the sweep's result (a BerCurve) is what the simulate.* metrics are read from
_KEEP_RESULT = frozenset({"simulate.sweep"})


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    args: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the benchmark and from interposed mlnsim calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, args: dict) -> Span:
        stack = self._stack()
        outer = stack or self._owner_stack
        span = Span(
            id=next(self._ids),
            name=name,
            parent=outer[-1].id if outer else None,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            cpu_start=time.process_time(),
            args=args,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, **args):
        """A span around a block of the benchmark's own code."""
        s = self._open(name, args)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, sig.bind(*args, **kwargs).arguments)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if name in _KEEP_RESULT:
                s.result = result
            return result

        return traced

    def write(self, path):
        """Dump the spans as JSON lines (scalar arguments only)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {
                    "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                    "start": s.start, "end": s.end,
                }
                rec.update(
                    {k: v for k, v in s.args.items() if isinstance(v, (int, float, str))}
                )
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def interpose(tracer: Tracer):
    """Route calls to the TRACED functions through tracer spans, then restore."""
    originals = {}
    for modname, fname, span_name in TRACED:
        fn = getattr(sys.modules.get(modname), fname, None)
        if fn is None:
            tracer.missing.append(f"{modname}.{fname}")
            continue
        originals[id(fn)] = (fn, tracer.wrap(fn, span_name))
    modules = [m for n, m in list(sys.modules.items()) if n == "mlnsim" or n.startswith("mlnsim.")]
    replaced = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    replaced.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
