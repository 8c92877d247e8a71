"""The traced run: spans around calls into each layer of ``repro``.

Nothing in the program changes.  :class:`Tracer` rebinds, for the
duration of one run, the public entry points of each layer — class
methods by assignment on the class, module-level crypto functions in
every ``repro.*`` module that imported them — to wrappers that record
a span (layer, start, end, parent) and keep a span stack, so each
layer's *self* time is its spans' duration minus the time their child
spans cover.  Timer callbacks scheduled through ``Actor.set_timer``
are wrapped under the layer of the object that owns them.

No span covers a whole run, so time spent outside every wrapped call
— the kernel's event loop, handlers of classes nothing patches — stays
unattributed; the runner reports it as ``other``.

Install before the deployment is built: ``Network.register`` binds
every actor's ``deliver`` once, at construction.  Spans are held in
memory (up to ``keep``; beyond it only the per-layer sums are kept)
and written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable


class Tracer:
    def __init__(self, keep: int = 2_000_000):
        self.layers: list[str] = []
        self.self_s: list[float] = []
        self.calls: dict[str, list[int]] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.layer_ids = array("H")
        self.parents = array("q")
        self.keep = keep
        self.dropped = 0
        self._stack: list[list[Any]] = []
        self._undo: list[Callable[[], None]] = []
        self._owner_layers: dict[type, str] = {}

    # ------------------------------------------------------------------
    def _layer(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self.self_s.append(0.0)
        return self.layers.index(layer)

    def wrap(
        self, layer: str, fn: Callable, name: str, before: Callable | None = None
    ) -> Callable:
        """``fn`` inside a span of ``layer``; ``name`` keys its call
        count; ``before(*args)`` runs first, outside the span."""
        lid = self._layer(layer)
        cell = self.calls.setdefault(name, [0])
        stack = self._stack
        self_s = self.self_s
        starts, ends = self.starts, self.ends
        layer_ids, parents = self.layer_ids, self.parents
        keep = self.keep
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            index = len(starts)
            if index < keep:
                starts.append(0.0)
                ends.append(0.0)
                layer_ids.append(lid)
                parents.append(stack[-1][0] if stack else -1)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[lid] += elapsed - frame[1]
                cell[0] += 1
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    starts[index] = t0
                    ends[index] = t1

        traced.__wrapped__ = fn
        return traced

    def patch(
        self, cls: type, names: tuple[str, ...], layer: str,
        before: dict[str, Callable] | None = None,
    ) -> None:
        """Wrap methods of ``cls`` (inherited ones get a class-level
        override that :meth:`uninstall` deletes again)."""
        self._owner_layers.setdefault(cls, layer)
        for name in names:
            own = name in vars(cls)
            original = getattr(cls, name)
            hook = (before or {}).get(name)
            setattr(
                cls, name,
                self.wrap(layer, original, f"{cls.__name__}.{name}", hook),
            )
            if own:
                self._undo.append(lambda c=cls, n=name, o=original: setattr(c, n, o))
            else:
                self._undo.append(lambda c=cls, n=name: delattr(c, n))

    def rebind(self, fn: Callable, layer: str) -> None:
        """Wrap a module-level function wherever a ``repro`` module
        holds a reference to it."""
        traced = self.wrap(layer, fn, fn.__name__)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append(
                        lambda m=module, a=attr, o=fn: setattr(m, a, o)
                    )

    def wrap_timers(self, actor_cls: type) -> None:
        """Timer callbacks run under the layer of their owner object (the
        most derived patched class it is an instance of)."""
        original = actor_cls.set_timer
        layer_of: dict[type, str | None] = {}
        wrapped: dict[tuple[type, str], Callable] = {}

        def owner_layer(owner: Any) -> str | None:
            cls = type(owner)
            if cls not in layer_of:
                layer_of[cls] = next(
                    (self._owner_layers[base] for base in cls.__mro__
                     if base in self._owner_layers),
                    None,
                )
            return layer_of[cls]

        def set_timer(actor: Any, delay: float, fn: Callable, *args: Any) -> Any:
            owner = getattr(fn, "__self__", None)
            layer = owner_layer(owner) if owner is not None else None
            if layer is not None:
                key = (type(owner), fn.__name__)
                unbound = wrapped.get(key)
                if unbound is None:
                    unbound = wrapped[key] = self.wrap(
                        layer, fn.__func__, f"timer:{key[0].__name__}.{key[1]}"
                    )
                return original(actor, delay, unbound, owner, *args)
            return original(actor, delay, fn, *args)

        actor_cls.set_timer = set_timer
        self._undo.append(lambda: setattr(actor_cls, "set_timer", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        return dict(zip(self.layers, self.self_s))

    def dump(self, path: Path) -> None:
        """Write every kept span once: a JSON header line, then the raw
        arrays (``start``/``end`` float64 perf-counter seconds, ``layer``
        uint16 index into ``layers``, ``parent`` int64 span index or -1)."""
        header = {
            "layers": self.layers,
            "spans": len(self.starts),
            "dropped": self.dropped,
            "arrays": ["start:f8", "end:f8", "layer:u2", "parent:i8"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.starts, self.ends, self.layer_ids, self.parents):
                column.tofile(out)


def install(tracer: Tracer, hooks: dict[str, Any]) -> None:
    """Wrap every layer's entry points.  ``hooks`` carries the runner's
    callbacks: ``deliver(node)`` samples the CPU queue at a delivery,
    ``propose(value)`` sees each local-consensus proposal, ``seal(block)``
    each cross-cluster batch, ``multicast(msg)`` each multicast."""
    from repro.consensus.checkpoint import CheckpointManager
    from repro.consensus.coordinator import CoordinatorEngine
    from repro.consensus.flattened import FlattenedEngine
    from repro.consensus.paxos import MultiPaxos
    from repro.consensus.pbft import PBFT
    from repro.core.client import Client
    from repro.core.executor import ExecutionUnit
    from repro.core.node import ClusterNode
    from repro.crypto import hashing, signatures
    from repro.datamodel.store import MultiVersionStore
    from repro.firewall.execution import ExecutionNode
    from repro.firewall.filters import FilterNode
    from repro.ledger.dag import DagLedger
    from repro.sim.network import Network
    from repro.sim.node import Actor, SimNode
    from repro.storage.wal import WalBackend

    def entry_points(cls: type) -> tuple[str, ...]:
        return tuple(
            n for n in vars(cls) if n == "start" or n.startswith("on_")
        )

    # ``Simulator.run`` stays unwrapped: as the root of the timed region
    # it would absorb every unwrapped line.  The kernel's event loop and
    # handlers of unpatched classes are what ``other`` holds.
    tracer.patch(
        SimNode, ("deliver",), "sim",
        before={"deliver": lambda node, msg, src: hooks["deliver"](node)},
    )
    # A partitioned network (shard-parallel kernel) points its instance's
    # ``send``/``multicast`` at the ``_*_partitioned`` variants.
    count_multicast = lambda net, src, dsts, msg: hooks["multicast"](msg)  # noqa: E731
    tracer.patch(
        Network,
        ("send", "multicast", "_send_partitioned", "_multicast_partitioned"),
        "sim.net",
        before={
            "multicast": count_multicast,
            "_multicast_partitioned": count_multicast,
        },
    )
    tracer.patch(FilterNode, ("on_message",), "fw")
    tracer.patch(ExecutionNode, ("on_message",), "fw")
    tracer.patch(Client, ("on_message",), "client")
    tracer.patch(
        ClusterNode,
        ("on_message", "internal_propose", "on_decide", "on_view_change"),
        "node",
    )
    # The sealer hands a local batch to ``propose`` as a Block and a
    # cross-cluster batch to the engine's ``start`` as a CrossBlock.
    for cls in (PBFT, MultiPaxos):
        tracer.patch(
            cls, ("propose", "handle"), "cons.local",
            before={"propose": lambda cons, slot, value: hooks["propose"](value)},
        )
    tracer.patch(CheckpointManager, ("handle", "on_commit"), "cons.local")
    for cls in (CoordinatorEngine, FlattenedEngine):
        tracer.patch(
            cls, entry_points(cls), "cons.cross",
            before={"start": lambda engine, block: hooks["seal"](block)},
        )
    tracer.patch(ExecutionUnit, ("commit",), "exec")
    tracer.patch(DagLedger, ("append",), "ledger")
    tracer.patch(MultiVersionStore, ("write", "read", "mark_version"), "datamodel.store")
    tracer.patch(WalBackend, ("append", "snapshot", "compact"), "storage")
    for fn in (
        hashing.digest, signatures.sign, signatures.verify, signatures.verify_many
    ):
        tracer.rebind(fn, "crypto")
    tracer.wrap_timers(Actor)
