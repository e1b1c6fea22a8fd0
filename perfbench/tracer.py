"""Per-layer tracing installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer of the
``repro`` package (class attributes and module-level functions) with
span recorders, runs the traced workload, and puts every original
object back afterwards.  Nothing under ``src/`` knows about it.

Each span stores its name, start, end and parent span in compact
arrays; :meth:`Tracer.breakdown` turns them into per-name counts and
self times (a span's duration minus the time its child spans cover).
Counting work that reads program state (merge row counts, snapshot
bytes, hold-back sizes) runs inside ``trace.instrument`` spans, so it
is subtracted from the layer that would otherwise be charged for it.

Wrappers only observe: they draw no random numbers, send nothing and
keep argument and return values untouched, so a traced trial returns
the same result as an untraced one (the benchmark checks this on every
traced run).
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Span name -> layer (event spans are added below).  Names absent here
#: (``experiments.trial``, the glue of a trial function;
#: ``experiments.event``, events that start workload broadcasts;
#: ``trace.instrument``) belong to no layer and count against
#: ``trace.coverage``.
LAYER_OF: Dict[str, str] = {
    "sim.engine.run": "sim.engine",
    "sim.network.send": "sim.network",
    "sim.network.start": "sim.network",
    "sim.network.build": "sim.network",
    "sim.trace.record": "sim.trace",
    "util.rng.stream": "util.rng",
    "core.viewtable.merge": "core.viewtable",
    "core.viewtable.snapshot": "core.viewtable",
    "core.viewtable.sweep": "core.viewtable",
    "core.viewtable.tick": "core.viewtable",
    "core.adaptive.callback": "core.adaptive",
    "core.mrt": "core.mrt",
    "core.optimize": "core.optimize",
    "protocols.callback": "protocols",
    "protocols.registry.deploy": "protocols.registry",
    "membership.exchange": "membership",
    "membership.handle": "membership",
    "analysis.convergence.check": "analysis.convergence",
    "kvstore.op": "kvstore",
    "kvstore.deliver": "kvstore",
    "topology.build": "topology",
    "experiments.campaign.run": "experiments.campaign",
}

#: Module prefix of a scheduled callback -> (event span name, layer).
#: Event spans have names of their own, so their count is the number
#: of dispatched events.
EVENT_OF_MODULE: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.network", "sim.network.deliver", "sim.network"),
    ("repro.sim.process", "sim.engine.timer", "sim.engine"),
    ("repro.sim.monitors", "analysis.convergence.poll", "analysis.convergence"),
    ("repro.sim.dynamics", "sim.dynamics.apply", "sim.dynamics"),
    ("repro.kvstore", "kvstore.event", "kvstore"),
    ("repro.membership", "membership.event", "membership"),
    ("repro.core.adaptive", "core.adaptive.event", "core.adaptive"),
    ("repro.core.optimal", "protocols.event", "protocols"),
    ("repro.protocols", "protocols.event", "protocols"),
)
#: Events of any other module (workload broadcasts of a trial function).
OTHER_EVENT = "experiments.event"
EVENT_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(name for _, name, _ in EVENT_OF_MODULE)
) + (OTHER_EVENT,)
LAYER_OF.update({name: layer for _, name, layer in EVENT_OF_MODULE})

#: Layers in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values()))

INSTRUMENT = "trace.instrument"

_ABSENT = object()

#: ``(module:Class, attribute, span name)`` for every wrapped method.
#: Timer actions are private methods handed to ``set_periodic``; they
#: are the layer's entry points from the kernel, so they are wrapped too.
METHOD_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine:Simulator", "run", "sim.engine.run"),
    ("repro.sim.network:Network", "__init__", "sim.network.build"),
    ("repro.sim.network:Network", "send", "sim.network.send"),
    ("repro.sim.network:Network", "start", "sim.network.start"),
    ("repro.sim.trace:MessageStats", "record", "sim.trace.record"),
    ("repro.util.rng:RandomSource", "__init__", "util.rng.stream"),
    ("repro.core.viewtable:VectorView", "staleness_sweep", "core.viewtable.sweep"),
    ("repro.core.viewtable:VectorView", "record_up_tick", "core.viewtable.tick"),
    ("repro.core.viewtable:VectorView", "record_downtime", "core.viewtable.tick"),
    ("repro.core.adaptive:AdaptiveBroadcast", "on_message", "core.adaptive.callback"),
    ("repro.core.adaptive:AdaptiveBroadcast", "broadcast", "core.adaptive.callback"),
    ("repro.core.adaptive:AdaptiveBroadcast", "_heartbeat_round", "core.adaptive.callback"),
    ("repro.core.adaptive:AdaptiveBroadcast", "_self_tick", "core.adaptive.callback"),
    ("repro.core.adaptive:AdaptiveBroadcast", "on_recovery", "core.adaptive.callback"),
    *(
        (owner, name, "protocols.callback")
        for owner, names in (
            ("repro.core.optimal:OptimalBroadcast", ("on_message", "broadcast")),
            ("repro.protocols.gossip:GossipBroadcast", ("on_message", "broadcast", "_step")),
            ("repro.protocols.flooding:FloodingBroadcast", ("on_message", "broadcast")),
            ("repro.protocols.twophase:TwoPhaseBroadcast", ("on_message", "broadcast", "_anti_entropy")),
            ("repro.protocols.partial_view:GossipPVBroadcast", ("on_message", "broadcast", "_step")),
            ("repro.protocols.partial_view:FloodingPVBroadcast", ("on_message", "broadcast")),
            ("repro.protocols.partial_view:AdaptivePVBroadcast", ("on_message", "_heartbeat_round")),
        )
        for name in names
    ),
    ("repro.protocols.registry:ProtocolSpec", "deploy", "protocols.registry.deploy"),
    ("repro.membership.sampler:PeerSampler", "begin_exchange", "membership.exchange"),
    ("repro.membership.sampler:PeerSampler", "handle", "membership.handle"),
    ("repro.kvstore.replica:KVReplica", "put", "kvstore.op"),
    ("repro.kvstore.replica:KVReplica", "get", "kvstore.op"),
    ("repro.topology.configuration:Configuration", "uniform", "topology.build"),
    ("repro.scenario.schema:TopologySpec", "build_with_tiers", "topology.build"),
    ("repro.scenario.schema:EnvironmentSpec", "base_configuration", "topology.build"),
    ("repro.experiments.campaign:Campaign", "run", "experiments.campaign.run"),
)

#: ``(module, function, span name)`` for wrapped module-level functions;
#: every ``repro`` module that imported the function by name is patched.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.mrt", "maximum_reliability_tree", "core.mrt"),
    ("repro.core.mrt", "reachable_processes", "core.mrt"),
    ("repro.core.optimize", "optimize", "core.optimize"),
    ("repro.analysis.convergence", "views_converged", "analysis.convergence.check"),
    ("repro.topology.generators", "ring", "topology.build"),
    ("repro.topology.generators", "k_regular", "topology.build"),
    ("repro.topology.generators", "random_tree", "topology.build"),
    ("repro.scenario.registry", "build_scenario", "topology.build"),
    ("repro.experiments.campaign", "execute_spec", "experiments.trial"),
)


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def _callback_module(callback: object) -> str:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    if hasattr(callback, "__code__"):
        return getattr(callback, "__module__", "") or ""
    return type(callback).__module__


class Tracer:
    """Span store plus the wrappers that feed it.

    Use as ``with Tracer() as tracer: ...``: entering installs every
    wrapper, leaving removes them and checks that each patched name is
    bound to its original object again.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("h")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: List[int] = [-1]
        self.counters: Dict[str, float] = {
            "sim.engine.schedules": 0,
            "core.viewtable.rows_scanned": 0,
            "core.viewtable.rows_changed": 0,
            "core.viewtable.snapshot_bytes": 0,
            "kvstore.holdback_peak": 0,
        }
        self._patches: List[Tuple[object, str, bool, object]] = []
        self._event_names: Dict[object, int] = {}
        self.missing: List[str] = []

    # -- span recording ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_counting(
        self, fn: Callable, name: str, before=None, after=None
    ) -> Callable:
        """Like :meth:`wrap`, with counting hooks in instrument spans."""
        inner = self.wrap(fn, name)
        instrument = self.wrap(lambda hook, *a: hook(*a), INSTRUMENT)

        def traced(*args, **kwargs):
            if before is not None:
                instrument(before, *args)
            result = inner(*args, **kwargs)
            if after is not None:
                instrument(after, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counting hooks -----------------------------------------------------------------

    def _count_merge(self, view, snapshot, now=None) -> None:
        c = self.counters
        c["core.viewtable.rows_scanned"] += len(view.proc_d) + len(view.link_d)
        # rows the merge adopts from the sender: processes with a strictly
        # better distortion, and links the sender knows with a strictly
        # better distortion (unknown links hold +inf, so newly learned
        # links are included)
        c["core.viewtable.rows_changed"] += int(
            np.count_nonzero(snapshot.proc_d < view.proc_d)
        ) + int(
            np.count_nonzero(
                snapshot.link_known & (snapshot.link_d < view.link_d)
            )
        )

    def _count_snapshot(self, snapshot, *args) -> None:
        self.counters["core.viewtable.snapshot_bytes"] += sum(
            getattr(snapshot, field).nbytes
            for field in (
                "proc_logb",
                "proc_d",
                "proc_seq",
                "link_logb",
                "link_d",
                "link_known",
            )
        )

    def _count_holdback(self, result, replica, *args) -> None:
        held = replica.buffered()
        if held > self.counters["kvstore.holdback_peak"]:
            self.counters["kvstore.holdback_peak"] = held

    # -- scheduling hook -------------------------------------------------------------

    def _event_name_id(self, callback: object) -> int:
        func = getattr(callback, "__func__", None)
        key = func if func is not None else getattr(callback, "__code__", type(callback))
        nid = self._event_names.get(key)
        if nid is None:
            module = _callback_module(callback)
            name = OTHER_EVENT
            for prefix, event, _ in EVENT_OF_MODULE:
                if module.startswith(prefix):
                    name = event
                    break
            nid = self._event_names[key] = self.name_id(name)
        return nid

    def _wrap_schedule(self, schedule: Callable) -> Callable:
        counters = self.counters
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        event_name_id = self._event_name_id

        def traced_schedule(sim, when, callback, *args, **kwargs):
            counters["sim.engine.schedules"] += 1
            nid = event_name_id(callback)

            def event():
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(perf_counter())
                try:
                    callback()
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()

            return schedule(sim, when, event, *args, **kwargs)

        traced_schedule.__wrapped__ = schedule
        return traced_schedule

    # -- install / remove ---------------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str, make: Callable) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._patch(cls, attr, make(raw))

    def install(self) -> None:
        from repro.core.viewtable import VectorView
        from repro.kvstore.replica import KVReplica
        from repro.sim.engine import Simulator

        # import every module a workload runs so module-level patching
        # below sees all the names they imported
        for module in (
            "repro.experiments.figure4",
            "repro.experiments.figure5",
            "repro.experiments.figure6",
            "repro.experiments.registry",
            "repro.scenario.trial",
            "repro.kvstore.trial",
            "repro.exec.serial",
        ):
            importlib.import_module(module)

        for path, attr, name in METHOD_TARGETS:
            cls = _resolve(path)
            if attr not in vars(cls):
                self.missing.append(f"{path}.{attr}")
                continue
            self._patch_method(cls, attr, lambda fn, n=name: self.wrap(fn, n))
        self._patch_method(
            VectorView,
            "handle_heartbeat",
            lambda fn: self._wrap_counting(
                fn, "core.viewtable.merge", before=self._count_merge
            ),
        )
        self._patch_method(
            VectorView,
            "peek_snapshot",
            lambda fn: self._wrap_counting(
                fn, "core.viewtable.snapshot", after=self._count_snapshot
            ),
        )
        self._patch_method(
            KVReplica,
            "_on_deliver",
            lambda fn: self._wrap_counting(
                fn, "kvstore.deliver", after=self._count_holdback
            ),
        )
        for attr in ("schedule", "schedule_at"):
            self._patch_method(Simulator, attr, self._wrap_schedule)

        for module_name, attr, name in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, name)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name; raises if any stays wrapped."""
        for owner, attr, had, original in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, had, original in self._patches
            if vars(owner).get(attr, _ABSENT) is not (original if had else _ABSENT)
        ]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrappers installed: {leftover}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ---------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self._span_name)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The span table as NumPy arrays (name id, parent, start, end)."""
        return {
            "name": np.frombuffer(self._span_name, dtype=np.int16),
            "parent": np.frombuffer(self._span_parent, dtype=np.int32),
            "start": np.frombuffer(self._span_start, dtype=np.float64),
            "end": np.frombuffer(self._span_end, dtype=np.float64),
        }

    def breakdown(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        children = parent >= 0
        covered = np.bincount(
            parent[children], weights=duration[children], minlength=len(duration)
        )
        own = duration - covered
        size = len(self.names)
        calls = np.bincount(spans["name"], minlength=size)
        self_s = np.bincount(spans["name"], weights=own, minlength=size)
        return {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write the span table and its name list to ``path`` (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.arrays())
