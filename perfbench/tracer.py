"""Span recording for the benchmark's traced run.

The tracer measures the simulator from outside.  ``installed()``
replaces a fixed set of public methods, and every callback handed to
``Engine.schedule``, with timing wrappers, and puts the originals back
on exit; no simulator source changes.  Objects built while it is
installed keep their wrappers, so a traced run builds its own.

Each span belongs to a layer: the ``repro`` package of the module that
defined the called function (``repro.controller.scheduler`` is
``controller``).  Spans nest, and each records its parent and its op.
A span's self time is its duration minus the time spent in its child
spans, so the self times under a root span add up to the root's
duration.  The wrappers' own bookkeeping is charged to a ``trace``
layer instead of the caller, which keeps that sum exact.

A perf_fig10 pass fires about a million events, so call-level spans are
aggregated in memory per op and (parent, layer, kind, name); only op-
and setup-level root spans are kept whole.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: (layer, kind, name); kind is "op", "setup", "event", "complete",
#: "call" or "scheduler"
Key = Tuple[str, str, str]

TRACE_KEY: Key = ("trace", "bookkeeping", "wrappers")


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to (its top-level package)."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"


def _target(callback: Any) -> Any:
    """The plain function behind a callback, partial or bound method."""
    while isinstance(callback, partial):
        callback = callback.func
    return getattr(callback, "__func__", callback)


class Tracer:
    """Records spans and exact op counts while installed."""

    def __init__(self) -> None:
        #: whole root spans (ops and setup), in the order they ended
        self.spans: List[Dict[str, Any]] = []
        #: op id -> {(parent key, key): [count, total_s, self_s]}
        self.aggregates: Dict[str, Dict[Tuple[Optional[Key], Key], List[Any]]] = {}
        #: exact counts taken at wrapped calls
        self.counts: Counter = Counter()
        #: each Channel built while installed -> its MemoryController
        self.owners: Dict[Any, Any] = {}
        self._stack: List[List[Any]] = [[0.0, None]]
        self._agg: Dict[Tuple[Optional[Key], Key], List[Any]] = {}
        self._bookkeeping = 0.0
        self._keys: Dict[str, Dict[Any, Key]] = defaultdict(dict)
        self._origin = clock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def key(self, fn: Any, kind: str) -> Key:
        """The span key of a callable, by the module that defined it."""
        target = _target(fn)
        keys = self._keys[kind]
        code = getattr(target, "__code__", None)
        key = keys.get(code) if code is not None else None
        if key is None:
            while hasattr(target, "__wrapped__"):
                target = target.__wrapped__
            code = getattr(target, "__code__", target)
            key = keys.get(code)
            if key is None:
                module = getattr(target, "__module__", None) or ""
                name = getattr(target, "__qualname__", None) or repr(target)
                key = keys[code] = (layer_of(module), kind, name)
        return key

    def call(
        self,
        key: Key,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: Dict[str, Any],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Any:
        """Run ``fn`` inside an aggregated span.

        ``before(*args)`` and ``after(result, *args)`` take counts; their
        time is charged to the trace layer with the rest of the wrapper.
        """
        entry = clock()
        if before is not None:
            before(*args)
        frame = [0.0, key]
        self._stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, start, clock(), entry)
            raise
        end = clock()
        if after is not None:
            after(result, *args)
        self._close(frame, start, end, entry)
        return result

    def event(self, key: Key, fn: Callable[[], Any]) -> None:
        """Run an engine callback inside an aggregated span."""
        entry = clock()
        frame = [0.0, key]
        self._stack.append(frame)
        start = clock()
        try:
            fn()
        finally:
            self._close(frame, start, clock(), entry)

    def _close(self, frame: List[Any], start: float, end: float, entry: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        duration = end - start
        agg = self._agg
        slot = (parent[1], frame[1])
        totals = agg.get(slot)
        if totals is None:
            agg[slot] = [1, duration, duration - frame[0]]
        else:
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[0]
        leave = clock()
        parent[0] += leave - entry
        self._bookkeeping += leave - entry - duration

    @contextmanager
    def root(self, op: str, key: Key) -> Iterator[None]:
        """A whole span that starts op ``op`` and its aggregates.

        The wrappers' bookkeeping inside it is aggregated as one
        trace-layer child of the root.
        """
        previous = self._agg, self._bookkeeping
        self._agg = agg = self.aggregates.setdefault(op, {})
        self._bookkeeping = 0.0
        frame = [0.0, key]
        self._stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            duration = end - start
            self._stack[-1][0] += duration
            agg[(key, TRACE_KEY)] = [0, 0.0, self._bookkeeping]
            layer, kind, name = key
            self.spans.append({
                "op": op, "layer": layer, "kind": kind, "name": name,
                "parent": None, "start_s": start - self._origin,
                "duration_s": duration, "self_s": duration - frame[0],
            })
            self._agg, self._bookkeeping = previous

    # ------------------------------------------------------------------
    # Per-layer totals
    # ------------------------------------------------------------------
    def self_seconds(self, ops: List[str]) -> Dict[str, float]:
        """Self time per layer over the given ops, root spans included."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span["op"] in ops:
                totals[span["layer"]] = totals.get(span["layer"], 0.0) + span["self_s"]
        for op in ops:
            for (_parent, (layer, _kind, _name)), (_n, _total, own) in (
                self.aggregates.get(op, {}).items()
            ):
                totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def select(self, ops: List[str], match: Callable[[Key], bool]) -> Tuple[int, float]:
        """(count, self seconds) of aggregated spans whose key matches."""
        count, own_total = 0, 0.0
        for op in ops:
            for (_parent, key), (n, _total, own) in self.aggregates.get(op, {}).items():
                if match(key):
                    count += n
                    own_total += own
        return count, own_total

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, as JSON-ready data."""
        def name(key: Optional[Key]) -> Optional[str]:
            return None if key is None else "/".join(key)

        return {
            "spans": self.spans,
            "aggregates": {
                op: [
                    {"parent": name(parent), "span": name(key), "count": n,
                     "total_s": total, "self_s": own}
                    for (parent, key), (n, total, own) in agg.items()
                ]
                for op, agg in self.aggregates.items()
            },
            "counts": dict(self.counts),
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the traced calls for the duration of the block."""
        patches: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attr, kind, before, after in self._targets():
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, kind, before, after))
            self._patch_schedule(patches)
            self._patch_complete(patches)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _wrapper(
        self,
        original: Callable[..., Any],
        kind: str,
        before: Optional[Callable[..., None]],
        after: Optional[Callable[..., None]],
    ) -> Callable[..., Any]:
        key = self.key(original, kind)
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(key, original, args, kwargs, before, after)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def _patch_schedule(self, patches: List[Tuple[Any, str, Any]]) -> None:
        """Wrap every callback passed to ``Engine.schedule`` in a span."""
        from repro.core.engine import Engine

        original = Engine.__dict__["schedule"]
        key, event, counts = self.key, self.event, self.counts

        def schedule(engine: Any, time: float, callback: Any, priority: int = 0,
                     label: str = "") -> Any:
            counts["core.scheduled"] += 1
            span = key(callback, "event")
            return original(
                engine, time, lambda: event(span, callback), priority, label
            )

        patches.append((Engine, "schedule", original))
        Engine.schedule = schedule  # type: ignore[method-assign]

    def _patch_complete(self, patches: List[Tuple[Any, str, Any]]) -> None:
        """Attribute ``MemRequest.complete`` to whoever set ``on_complete``."""
        from repro.controller.request import MemRequest

        original = MemRequest.__dict__["complete"]
        key, call = self.key, self.call
        default = self.key(original, "complete")

        def complete(request: Any, time: float) -> None:
            callback = request.on_complete
            span = default if callback is None else key(callback, "complete")
            call(span, original, (request, time), {})

        patches.append((MemRequest, "complete", original))
        MemRequest.complete = complete  # type: ignore[method-assign]

    def _targets(self) -> Iterator[Tuple[Any, str, str, Any, Any]]:
        """(owner, attribute, kind, before, after) of each wrapped call."""
        from repro.analysis import tb_window
        from repro.attacks import side_channel
        from repro.controller.controller import MemoryController
        from repro.controller.scheduler import BankQueueScheduler
        from repro.core.engine import Engine
        from repro.crypto.victim import AesVictim
        from repro.dram.rank import Channel
        from repro.mitigations.base import MitigationPolicy
        from repro.prac.abo import AboProtocol
        from repro.prac.mitigation_queue import MitigationQueue
        from repro.workloads import synthetic

        yield MemoryController, "__init__", "call", None, self._on_controller
        yield MemoryController, "enqueue", "call", None, None
        yield MemoryController, "request_rfm", "call", None, None
        yield Engine, "run", "call", None, None
        yield Channel, "block", "call", self._on_block, None
        yield AboProtocol, "_observe_activation", "call", None, None
        yield AboProtocol, "mitigation_done", "call", None, None
        yield AesVictim, "first_round_rows", "call", None, None
        yield synthetic, "homogeneous_traces", "call", None, None
        # Imported by name into the attack module, so wrap both bindings.
        yield tb_window, "required_tb_window", "call", None, None
        yield side_channel, "required_tb_window", "call", None, None
        for cls in _hierarchy(BankQueueScheduler):
            for attr in ("enqueue", "pick"):
                if attr in cls.__dict__:
                    yield cls, attr, "scheduler", None, None
        for cls in _hierarchy(MitigationPolicy):
            if "mitigate_on_rfm" in cls.__dict__:
                yield cls, "mitigate_on_rfm", "call", None, self._on_rfm
            if "on_tref" in cls.__dict__:
                yield cls, "on_tref", "call", None, None
        for cls in _hierarchy(MitigationQueue):
            if "observe" in cls.__dict__:
                yield cls, "observe", "call", None, None

    # ------------------------------------------------------------------
    # Count hooks
    # ------------------------------------------------------------------
    def _on_controller(self, _result: None, controller: Any, *_args: Any, **_kw: Any) -> None:
        self.owners[controller.channel] = controller

    def _on_block(self, channel: Any, *_args: Any) -> None:
        counts = self.counts
        banks = channel.banks
        counts["dram.banks_iterated"] += len(banks)
        counts["dram.banks_precharged"] += sum(
            1 for bank in banks if bank.open_row is not None
        )
        owner = self.owners.get(channel)
        if (
            owner is not None
            and owner.scheduler.pending() == 0
            and not owner.abo.alert_pending
        ):
            counts["dram.idle_windows"] += 1

    def _on_rfm(self, mitigated: Dict[int, int], policy: Any, _controller: Any,
                _time: float, provenance: Any) -> None:
        # The wrapped call is still on the stack; its parent is below it.
        parent = self._stack[-2][1]
        if parent is not None and parent[2].endswith(".mitigate_on_rfm"):
            return  # a subclass delegating to its base: count the RFM once
        counts = self.counts
        counts[f"mitigations.rfms_{provenance.value}"] += 1
        counts["mitigations.queues_popped"] += len(policy.queues)
        counts["mitigations.victims"] += len(mitigated)


def _hierarchy(cls: type) -> Iterator[type]:
    """``cls`` and every subclass defined so far."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _hierarchy(sub)
