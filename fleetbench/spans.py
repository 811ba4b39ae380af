"""Span recording for the traced run.

The traced run wraps the public functions of each layer — from this
file, not from inside ``src/`` — and records one span per call: name,
start, end, parent span and run id, kept in memory and written out
when the run ends.  A span's *self time* is its duration minus the
time its child spans cover; calls on one thread nest strictly, so the
children's durations simply add up.

Generator functions (``RawFileParser.parse``) are timed while they are
iterated: every ``next()`` is one slice of the same span, and the slice
time is charged to whatever span is open on the iterating thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from config import route_of


class SpanRecorder:
    """In-memory span table plus per-name self time, calls and counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: name → sum of what a wrapper's ``count`` hook returned
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open_span(self) -> Tuple[list, list]:
        """Push a span on this thread's stack; returns what
        :meth:`close_span` needs."""
        stack = self._stack()
        # [span id, parent id, child seconds]
        entry = [next(self._ids), stack[-1][0] if stack else -1, 0.0]
        stack.append(entry)
        return stack, entry

    def close_span(self, stack: list, entry: list, name: str,
               t0: float, t1: float) -> None:
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][2] += dur
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_id.append(entry[0])
            self.name_id.append(nid)
            self.parent.append(entry[1])
            self.start.append(t0)
            self.end.append(t1)
            self.self_s[name] += dur - entry[2]
            self.total_s[name] += dur
            self.calls[name] += 1

    def _timed_gen(self, name: str, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack, entry = rec.open_span()
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    rec.close_span(stack, entry, name, t0, time.perf_counter())
                    return
                rec.close_span(stack, entry, name, t0, time.perf_counter())
                yield item

        return traced

    # -- wrapping the layers ---------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        label: Optional[Callable[..., str]] = None,
        count: Optional[Callable[..., float]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``label(*args)`` appends a suffix to the span name per call;
        ``count(*args)`` adds to :attr:`counts` under ``name``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        if inspect.isgeneratorfunction(original):
            wrapped = self._timed_gen(name, original)
        else:
            rec = self

            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                span = name if label is None else f"{name}.{label(*args)}"
                if count is not None:
                    with rec._lock:
                        rec.counts[name] += count(*args, **kwargs)
                stack, entry = rec.open_span()
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    rec.close_span(stack, entry, span, t0, time.perf_counter())

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the span table as NumPy columns (``.npz``)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            np.savez(
                path,
                run_id=np.array(self.run_id),
                names=np.array(self.names),
                span_id=np.frombuffer(self.span_id, dtype=np.int64),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )

    def __len__(self) -> int:
        return len(self.span_id)


def _route(app, url: str, *_a) -> str:
    return route_of(url)


def install_layers(rec: SpanRecorder) -> None:
    """Wrap the public functions of every layer the benchmark measures."""
    import repro.analysis.fleet as fleet
    import repro.pipeline.parallel as parallel
    import repro.tsdb.query as tsdb_query
    from repro.broker import Broker
    from repro.cluster import Cluster
    from repro.core.collector import Collector
    from repro.core.rawfile import RawFileParser, RawFileWriter
    from repro.core.store import CentralStore
    from repro.db.models import Manager
    from repro.obs.analytics import FleetAnalytics
    from repro.portal.app import PortalApp
    from repro.portal.search import JobSearch
    from repro.shard import ShardedTSDB, ShardWorkerPool
    from repro.stream.alerts import AlertRouter
    from repro.stream.analyzer import StreamingFlagAnalyzer
    from repro.stream.retention import RetainingWriter
    from repro.tsdb.store import TimeSeriesDB

    w = rec.wrap
    w(Cluster, "run_for", "cluster")
    w(RawFileWriter, "record", "daemon.record")
    w(Collector, "collect", "collector.collect")
    w(Broker, "publish", "broker.publish")
    w(CentralStore, "append", "store.append",
      count=lambda self, host, text, *a, **k: len(text))
    w(RawFileParser, "parse", "stream.parse")
    w(StreamingFlagAnalyzer, "observe", "stream.analyze")
    w(RetainingWriter, "put_many", "stream.retain_put")
    w(AlertRouter, "route", "stream.alert_route")
    w(FleetAnalytics, "observe_batch", "analytics.observe")
    w(TimeSeriesDB, "put_many", "tsdb.put_many",
      count=lambda self, metric, tags, times, *a, **k: len(times))
    w(tsdb_query, "query", "tsdb.query")
    w(ShardedTSDB, "query", "tsdb.query")
    w(ShardedTSDB, "window_stats", "tsdb.query")
    w(PortalApp, "get_url", "portal.render", label=_route)
    w(JobSearch, "run", "db.search")
    w(fleet, "fleet_report", "analysis.fleet_report")
    w(parallel, "parse_blocks", "pipeline.parse")
    w(parallel, "assemble_jobs", "pipeline.assemble")
    w(parallel, "compute_metrics_batch", "metrics.compute")
    w(parallel, "evaluate_flags", "metrics.flags")
    w(Manager, "bulk_create", "db.bulk_create")
    for op in ("ingest", "scan", "window_stats", "select"):
        w(ShardWorkerPool, op, f"shard.{op}")
