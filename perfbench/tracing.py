"""Span tracing for the benchmark, installed from outside the library.

The library carries no instrumentation of its own, so a traced run wraps
the public calls of each layer at the names through which they are looked
up: a module that does ``from x import f`` holds its own reference, so
``f`` is wrapped in that module as well.  Every wrapped call records one
span ``(id, parent, name, start_ns, end_ns, request, tag)``; spans stay in
memory until the run ends.  The sampler service and the coordinator's
workers install the same wrappers through ``perfbench/boot/sitecustomize.py``
and write their spans to a file when they exit.

A span's self time is its duration minus the part of it that its child
spans cover.  Root spans of other threads (the service's executor) nest
into the same-process span that contains them in time, and root spans of a
child process nest into the harness span that was waiting for them, so a
closed-loop round trip accounts for the work done across the socket (the
k-th client request holds the k-th message the service decodes).  All
spans of one harness operation, on either side, share its request id.
"""

from __future__ import annotations

import atexit
import bisect
import functools
import glob
import inspect
import itertools
import json
import os
import signal
import threading
import time
from collections import Counter

#: Span-name prefix -> layer (``README.md`` lists each layer's modules).
LAYER_OF_PREFIX = {
    "hashing": "hash_tables",
    "countsketch": "sketch_kernels",
    "ams": "sketch_kernels",
    "fp_estimator": "sketch_kernels",
    "jw18": "l2_substrate",
    "lp_base": "rejection_driver",
    "ensemble": "ensemble_engine",
    "retry": "ensemble_engine",
    "transport": "transport",
    "service": "service",
    "snapshot": "snapshot",
    "coordinator": "distributed",
    "worker": "distributed",
    "sharding": "distributed",
    "distributed": "distributed",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF_PREFIX.values()))

#: Environment read by the child bootstrap.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ROLE_ENV = "PERFBENCH_ROLE"


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.enabled = False
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enclosing(self):
        """Name of the innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def wrap(self, name: str, fn, *, before=None, after=None, tag=None):
        """A wrapper recording one span per call of ``fn``.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(args, kwargs, result, state)``; both maintain
        counters.  ``tag(args, kwargs)`` labels the span.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            stack = recorder._stack()
            if not stack and recorder.role == "harness":
                recorder.request += 1
            parent = stack[-1][0] if stack else 0
            span_id = next(recorder._ids)
            label = tag(args, kwargs) if tag is not None else None
            stack.append((span_id, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end,
                                       recorder.request, label))
            if after is not None:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def wrap_async(self, name: str, fn):
        """Span wrapper for a coroutine function (recorded as a root span)."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            span_id = next(recorder._ids)
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.spans.append((span_id, 0, name, start,
                                       time.perf_counter_ns(),
                                       recorder.request, None))

        return wrapper

    def count_only(self, fn, after):
        """A wrapper that maintains counters but records no span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if recorder.enabled:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``, keeping descriptors."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def dump(self, directory: str) -> None:
        """Write this process's spans and counters for the harness."""
        from repro.utils.table_cache import cache_stats

        stats = cache_stats()
        record = {
            "role": self.role,
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": dict(self.counts),
            "cache": {"table_cache.hits": stats.hits,
                      "table_cache.misses": stats.misses,
                      "table_cache.evictions": stats.evictions},
        }
        path = os.path.join(directory, f"{self.role}-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path)


def install(recorder: Recorder) -> None:
    """Wrap the timed calls of the nine layers in this process."""
    from repro.applications import distributed
    from repro.core import lp_base
    from repro.evaluation import distribution_tests
    from repro.samplers.jw18_lp_sampler import JW18LpSampler, JW18LpSamplerEnsemble
    from repro.service import sampler_service
    from repro.sketch.ams import AMSEnsemble, AMSSketch
    from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
    from repro.sketch.fp_estimator import FpEstimator
    from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
    from repro.utils import coordinator, ensemble, sharding, snapshot, transport

    counts = recorder.counts

    def span(owner, attr, name, **hooks):
        recorder.patch(owner, attr, lambda fn: recorder.wrap(name, fn, **hooks))

    def count(key, amount=1):
        def after(args, kwargs, result, state):
            counts[key] += amount(args, result) if callable(amount) else amount
        return after

    # -- hash tables ---------------------------------------------------------
    span(KWiseHashFamily, "from_rng", "hashing.from_rng",
         after=count("hashing.families_drawn"))
    span(KWiseHashFamily, "hash_all", "hashing.eval",
         after=count("hashing.cells", lambda args, result: int(result.size)))
    for attr in ("hash_slice", "hash_table", "hash_table_tensor"):
        span(KWiseHashFamily, attr, "hashing.eval")
    for attr in ("sign_all", "sign_slice", "sign_table", "sign_table_float",
                 "sign_table_tensor", "sign_table_float_tensor"):
        span(SignHashFamily, attr, "hashing.eval")

    # -- sketch kernels ------------------------------------------------------
    def cells(key, per_index):
        return count(key, lambda args, result: per_index(args[0]) * len(args[1]))

    span(CountSketch, "update_batch", "countsketch.update",
         after=cells("countsketch.update_cells", lambda s: s._rows))
    span(CountSketchEnsemble, "update_batch", "countsketch.update",
         after=cells("countsketch.update_cells",
                     lambda s: s.num_members * s._rows))
    span(CountSketch, "estimate_all", "countsketch.estimate")
    span(CountSketchEnsemble, "estimate_all_members", "countsketch.estimate")
    span(CountSketchEnsemble, "estimate_members_at", "countsketch.estimate")
    span(AMSSketch, "update_batch", "ams.update",
         after=cells("ams.update_cells", lambda s: s._width * s._depth))
    span(AMSEnsemble, "update_batch", "ams.update",
         after=cells("ams.update_cells", lambda s: s._counters.size))
    span(FpEstimator, "update_batch", "fp_estimator.update")
    span(FpEstimator, "estimate", "fp_estimator.estimate")

    # -- L_2 substrate -------------------------------------------------------
    def l2_drawn(args, kwargs, result, enclosing):
        counts["jw18.sample_calls"] += 1
        counts["jw18.failures"] += result is None
        if enclosing == "lp_base.sample" and result is not None:
            counts["lp_base.candidates"] += 1

    def enclosing(args, kwargs):
        return recorder.enclosing()

    span(JW18LpSamplerEnsemble, "update_batch", "jw18.update")
    span(JW18LpSampler, "update_batch", "jw18.update")
    span(JW18LpSamplerEnsemble, "sample_replica", "jw18.sample",
         before=enclosing, after=l2_drawn)
    span(JW18LpSampler, "sample", "jw18.sample",
         before=enclosing, after=l2_drawn)

    # -- rejection driver ----------------------------------------------------
    def clips_before(args, kwargs):
        return args[0].clip_events

    def lp_drawn(args, kwargs, result, clips):
        counts["lp_base.sample_calls"] += 1
        counts["lp_base.failures"] += result is None
        counts["lp_base.clip_events"] += args[0].clip_events - clips

    rejection = lp_base.RejectionLpSamplerBase
    span(rejection, "__init__", "lp_base.construct",
         after=count("lp_base.constructed"))
    span(rejection, "update_batch", "lp_base.update")
    span(rejection, "sample", "lp_base.sample", before=clips_before,
         after=lp_drawn)

    # -- ensemble engine -----------------------------------------------------
    def retried(args, kwargs, result, state):
        results, stats = result
        counts["retry.rounds"] += stats.rounds
        counts["retry.replicas_built"] += stats.replicas_built
        counts["retry.useful"] += sum(r is not None for r in results)

    built = count("ensemble.replicas", lambda args, result: result.num_replicas)
    span(ensemble, "build_ensemble", "ensemble.build", after=built)
    span(lp_base, "build_ensemble", "ensemble.build", after=built)
    span(ensemble.SamplerEnsemble, "update_batch", "ensemble.fanout")
    span(distribution_tests, "ensemble_samples", "ensemble.samples")
    span(distribution_tests, "overprovisioned_draws", "retry.draws",
         after=retried)
    span(distribution_tests, "evaluate_sampler_distribution",
         "ensemble.evaluate")

    # -- transport -----------------------------------------------------------
    harness = recorder.role == "harness"

    def sent(args, kwargs, result, state):
        counts["transport.messages"] += 1
        if harness:
            counts["transport.bytes_sent"] += int(result)

    def received(args, kwargs, result, state):
        if harness:
            counts["transport.bytes_received"] += int(result[1])

    for module in (transport, coordinator, sharding):
        span(module, "dumps_frames", "transport.encode")
        span(module, "loads_frames", "transport.decode")
    for module in (transport, coordinator):
        span(module, "send_frames", "transport.send", after=sent)
        recorder.patch(module, "recv_frames_counted",
                       lambda fn: recorder.count_only(fn, received))
    span(transport, "encode_frames", "transport.encode",
         after=count("transport.messages"))
    span(transport, "decode_frames", "transport.decode")

    # -- service -------------------------------------------------------------
    def op_of(args, kwargs):
        message = args[1]
        return message.get("op") if isinstance(message, dict) else None

    span(sampler_service.ServiceClient, "request", "service.request", tag=op_of)
    span(sampler_service, "spawn_service", "service.spawn")
    span(sampler_service, "stop_service", "service.stop")
    span(sampler_service, "read_snapshot", "service.restore")
    recorder.patch(sampler_service.SamplerService, "_dispatch",
                   lambda fn: recorder.wrap_async("service.dispatch", fn))

    # -- snapshot ------------------------------------------------------------
    span(snapshot, "snapshot_bytes", "snapshot.encode",
         after=count("snapshot.bytes", lambda args, result: len(result)))
    for module in (snapshot, sampler_service):
        span(module, "save_snapshot", "snapshot.write")
        span(module, "object_from_snapshot", "snapshot.decode")

    # -- distributed coordinator ---------------------------------------------
    coordinating = distributed.DistributedSamplingCoordinator
    span(coordinator.DistributedExecutor, "ingest", "coordinator.ingest")
    span(coordinator, "spawn_local_workers", "coordinator.spawn")
    span(coordinator, "stop_local_workers", "coordinator.stop")
    span(coordinating, "update_batch", "distributed.update")
    span(coordinating, "sample", "distributed.sample")
    span(coordinating, "bulk_samples", "distributed.bulk_samples")
    span(distributed, "split_stream", "distributed.split_stream")
    span(distributed, "build_ensemble", "distributed.build")
    span(distributed, "ingest_sharded", "sharding.ingest")
    if recorder.role == "worker":
        # The worker module runs as ``__main__``, so its request handler
        # cannot be wrapped by name; the stream replay it runs for every
        # shard is the worker-side ingest.
        span(ensemble.ReplicaEnsemble, "update_stream", "worker.ingest")


def install_in_child() -> None:
    """Bootstrap of a traced child process (run from ``sitecustomize``)."""
    directory = os.environ.get(TRACE_DIR_ENV)
    role = os.environ.get(ROLE_ENV)
    if not directory or not role:
        return
    recorder = Recorder(role)
    install(recorder)
    recorder.enabled = True
    done = []

    def dump(*_):
        if not done:
            done.append(True)
            recorder.dump(directory)

    atexit.register(dump)
    # One service instance is SIGKILLed to exercise restore; the harness
    # asks for its spans first with SIGUSR1.
    signal.signal(signal.SIGUSR1, dump)


def request_dump(process, directory: str, timeout: float = 30.0) -> None:
    """Have a traced child write its spans now (before it is killed)."""
    process.send_signal(signal.SIGUSR1)
    path = os.path.join(directory, f"*-{process.pid}.json")
    deadline = time.monotonic() + timeout
    while not glob.glob(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"child {process.pid} wrote no span file")
        time.sleep(0.005)


def load_child_dumps(directory: str) -> list:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            records.append(json.load(handle))
    return records


# ---------------------------------------------------------------------------
# Analysis: nesting, self times, per-layer metrics
# ---------------------------------------------------------------------------


class Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "request",
                 "tag", "children", "_starts")

    def __init__(self, pid: int, record) -> None:
        (self.sid, self.parent, self.name, self.start, self.end,
         self.request, self.tag) = record
        self.pid = pid
        self.children: list = []
        self._starts = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def child_starts(self) -> list:
        if self._starts is None:
            self._starts = [child.start for child in self.children]
        return self._starts


def _key(span: Span):
    return (span.start, -span.end)


def _union_ns(intervals, lo: int, hi: int) -> int:
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _innermost(roots: list, starts: list, span: Span):
    """Deepest span of a nested, start-sorted forest containing ``span``."""
    found = None
    level, level_starts = roots, starts
    while level:
        position = bisect.bisect_right(level_starts, span.start) - 1
        if position < 0 or level[position].end < span.end:
            break
        found = level[position]
        level, level_starts = found.children, found.child_starts()
    return found


def _nest(spans: list) -> list:
    """Build one process's span forest; returns its start-sorted roots.

    Explicit parents come from the per-thread stacks.  A root of another
    thread or of an asyncio task then nests into the innermost span that
    contains it in time.
    """
    index = {span.sid: span for span in spans}
    roots = []
    for span in spans:
        parent = index.get(span.parent) if span.parent else None
        (parent.children if parent is not None else roots).append(span)
    for span in spans:
        span.children.sort(key=_key)
    roots.sort(key=_key)
    kept: list = []  # a containment chain of the roots seen so far
    top: list = []
    for span in roots:
        while kept and kept[-1].end < span.end:
            kept.pop()
        if kept and kept[-1].start <= span.start:
            host = kept[-1]
            inner = _innermost(host.children, host.child_starts(), span)
            host = inner if inner is not None else host
            bisect.insort(host.children, span, key=_key)
            host._starts = None
        else:
            top.append(span)
        kept.append(span)
    return top


class Trace:
    """The spans of one traced pass, harness and child processes together."""

    def __init__(self, harness: Recorder, child_records: list) -> None:
        self.counts = Counter(harness.counts)
        self.roles = {}
        by_process = {os.getpid(): (harness.role, harness.spans)}
        for record in child_records:
            by_process[record["pid"]] = (record["role"], record["spans"])
            self.counts.update(record["counts"])
            self.counts.update(record["cache"])
        self.all_spans: list[Span] = []
        forests = {}
        for pid, (role, records) in by_process.items():
            self.roles[pid] = role
            spans = [Span(pid, record) for record in records]
            self.all_spans.extend(spans)
            forests[pid] = _nest(spans)
        self.roots = forests.pop(os.getpid())
        starts = [span.start for span in self.roots]
        attached = []
        for roots in forests.values():
            for span in roots:
                host = _innermost(self.roots, starts, span)
                if host is not None:
                    attached.append((host, span))
        for host, span in attached:
            host.children.append(span)
            stack = [span]
            while stack:
                node = stack.pop()
                node.request, node.tag = host.request, host.tag
                stack.extend(node.children)

    @staticmethod
    def self_ns(span: Span) -> int:
        return span.duration - _union_ns(
            [(child.start, child.end) for child in span.children],
            span.start, span.end)

    @staticmethod
    def local_children_ns(span: Span) -> int:
        return _union_ns([(child.start, child.end) for child in span.children
                          if child.pid == span.pid], span.start, span.end)

    def covered_ns(self) -> int:
        return _union_ns([(span.start, span.end) for span in self.roots],
                         0, 1 << 62)

    def outermost(self, name: str, where=None):
        """Spans called ``name`` not nested in another span of that name."""
        found = []
        stack = [(span, False) for span in self.roots]
        seen = set()
        while stack:
            span, inside = stack.pop()
            seen.add(id(span))
            hit = span.name == name and not inside
            if hit and (where is None or where(span)):
                found.append(span)
            stack.extend((child, inside or span.name == name)
                         for child in span.children)
        # Child-process spans that no harness span was waiting on.
        found.extend(span for span in self.all_spans
                     if id(span) not in seen and span.name == name
                     and (where is None or where(span)))
        return found


def per_layer_metrics(trace: Trace, *, wall_s: float, untraced_wall_s: float,
                      extras: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``."""
    counts = trace.counts
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for span in trace.all_spans:
        own = trace.self_ns(span)
        self_by_name[span.name] += own
        self_by_layer[layer_of(span.name)] += own

    def self_s(*names):
        return sum(self_by_name[name] for name in names) / 1e9

    def total_s(name, where=None):
        return sum(span.duration for span in trace.outermost(name, where)) / 1e9

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def in_role(role):
        return lambda span: trace.roles[span.pid] == role

    service_spans = [s for s in trace.all_spans if s.name == "service.request"]
    ingest_spans = trace.outermost("coordinator.ingest")
    hits, misses = counts["table_cache.hits"], counts["table_cache.misses"]
    sample_calls = counts["lp_base.sample_calls"]
    wall_ns = wall_s * 1e9
    metrics = {
        "hashing.families_drawn": (counts["hashing.families_drawn"], "count"),
        "hashing.draw_s": (total_s("hashing.from_rng"), "s"),
        "hashing.cells": (counts["hashing.cells"], "count"),
        "hashing.eval_s": (total_s("hashing.eval"), "s"),
        "table_cache.hits": (hits, "count"),
        "table_cache.misses": (misses, "count"),
        "table_cache.evictions": (counts["table_cache.evictions"], "count"),
        "table_cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "countsketch.update_cells": (counts["countsketch.update_cells"], "count"),
        "countsketch.update_s": (total_s("countsketch.update"), "s"),
        "countsketch.estimate_s": (total_s("countsketch.estimate"), "s"),
        "ams.update_cells": (counts["ams.update_cells"], "count"),
        "ams.update_s": (total_s("ams.update"), "s"),
        "fp_estimator.update_s": (total_s("fp_estimator.update"), "s"),
        "fp_estimator.estimate_s": (total_s("fp_estimator.estimate"), "s"),
        "jw18.update_self_s": (self_s("jw18.update"), "s"),
        "jw18.sample_calls": (counts["jw18.sample_calls"], "count"),
        "jw18.sample_s": (total_s("jw18.sample"), "s"),
        "jw18.fail_ratio": (ratio(counts["jw18.failures"],
                                  counts["jw18.sample_calls"]), "ratio"),
        "lp_base.constructed": (counts["lp_base.constructed"], "count"),
        "lp_base.construct_self_s": (self_s("lp_base.construct"), "s"),
        "lp_base.sample_calls": (sample_calls, "count"),
        "lp_base.sample_self_s": (self_s("lp_base.sample"), "s"),
        "lp_base.candidates": (counts["lp_base.candidates"], "count"),
        "lp_base.accept_ratio": (ratio(sample_calls - counts["lp_base.failures"],
                                       counts["lp_base.candidates"]), "ratio"),
        "lp_base.fail_ratio": (ratio(counts["lp_base.failures"], sample_calls),
                               "ratio"),
        "lp_base.clip_events": (counts["lp_base.clip_events"], "count"),
        "ensemble.replicas": (counts["ensemble.replicas"], "count"),
        "ensemble.build_s": (total_s("ensemble.build"), "s"),
        "ensemble.fanout_self_s": (self_s("ensemble.fanout"), "s"),
        "retry.rounds": (counts["retry.rounds"], "count"),
        "retry.replicas_built": (counts["retry.replicas_built"], "count"),
        "retry.useful_ratio": (ratio(counts["retry.useful"],
                                     counts["retry.replicas_built"]), "ratio"),
        "transport.messages": (counts["transport.messages"], "count"),
        "transport.bytes_sent": (counts["transport.bytes_sent"], "bytes"),
        "transport.bytes_received": (counts["transport.bytes_received"], "bytes"),
        "transport.encode_s": (self_s("transport.encode", "transport.send"), "s"),
        "transport.decode_s": (self_s("transport.decode"), "s"),
        "service.ingest_call_s": (total_s(
            "countsketch.update",
            lambda s: trace.roles[s.pid] == "service" and s.tag == "ingest"), "s"),
        "service.query_call_s": (total_s(
            "countsketch.estimate",
            lambda s: trace.roles[s.pid] == "service" and s.tag == "query"), "s"),
        "service.unattributed_ms": (ratio(
            sum(trace.self_ns(s) for s in service_spans) / 1e6,
            len(service_spans)), "ms"),
        "service.restore_s": (total_s("service.restore"), "s"),
        "snapshot.bytes": (counts["snapshot.bytes"], "bytes"),
        "snapshot.encode_s": (total_s("snapshot.encode"), "s"),
        "snapshot.write_s": (self_s("snapshot.write"), "s"),
        "coordinator.ingest_s": (sum(s.duration for s in ingest_spans) / 1e9, "s"),
        "coordinator.wait_s": (sum(s.duration - trace.local_children_ns(s)
                                   for s in ingest_spans) / 1e9, "s"),
        "coordinator.wire_bytes_sent": (extras.get("wire_bytes_sent", 0), "bytes"),
        "coordinator.wire_bytes_received": (extras.get("wire_bytes_received", 0),
                                            "bytes"),
        "coordinator.redispatches": (extras.get("redispatches", 0), "count"),
        "coordinator.degraded_serial_shards": (
            extras.get("degraded_serial_shards", 0), "count"),
        "worker.ingest_s": (total_s("worker.ingest", in_role("worker")), "s"),
        "worker.codec_s": (sum(
            trace.self_ns(s) for s in trace.all_spans
            if trace.roles[s.pid] == "worker"
            and layer_of(s.name) == "transport") / 1e9, "s"),
        "distributed.build_s": (total_s("distributed.build"), "s"),
        "distributed.query_s": (sum(
            child.duration for span in trace.outermost("distributed.bulk_samples")
            for child in span.children if child.name == "jw18.sample") / 1e9, "s"),
        "distributed.serial_s": (extras.get("serial_s", 0.0), "s"),
        "distributed.speedup_vs_serial": (extras.get("speedup_vs_serial", 0.0),
                                          "ratio"),
        "trace.wall_s": (wall_s, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_ratio": (ratio(wall_s, untraced_wall_s), "ratio"),
        "trace.unattributed_ratio": (1.0 - ratio(trace.covered_ns(), wall_ns),
                                     "ratio"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (self_by_layer[layer] / 1e9, "s")
    return metrics
