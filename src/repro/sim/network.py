"""Message-passing network over the simulation kernel.

Supports the paper's assumptions: an unreliable network that may drop or
delay messages (partial synchrony), pairwise channels, and — for the
privacy firewall (§3.4) — *physically restricted* links: a node with a
link restriction can only exchange messages with its allowed peers, the
way filter rows are wired only to the rows above and below.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ConfigurationError, PartitionError
from repro.sim.latency import LatencyModel, UniformLatency

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sim.node import Actor


class _PartitionNetState:
    """Per-partition view of the network's mutable tables.

    In shard-parallel mode, partitions of one window execute at
    different wall-clock moments (and in different processes at
    different worker counts), so anything a fault event mutates
    mid-run — pairwise blocks, the latency model and its sampler
    cache — must be per-partition: each kernel fires the fault event
    itself, against its own view, at the same *virtual* time.
    """

    __slots__ = ("latency", "samplers", "blocked", "unrestricted")

    def __init__(self, latency: LatencyModel, blocked: set, unrestricted: bool):
        self.latency = latency
        self.samplers: dict[tuple[str, str], Any] = {}
        self.blocked = set(blocked)
        self.unrestricted = unrestricted


class Network:
    """Delivers messages between registered actors with modeled latency."""

    #: Per-partition state table; None in (default) sequential mode,
    #: one :class:`_PartitionNetState` per partition after
    #: :meth:`enable_partitioning`.
    _pstates = None

    def __init__(
        self,
        sim: "Simulator",
        latency: LatencyModel | None = None,
        seed: int = 0,
        drop_probability: float = 0.0,
    ):
        self.sim = sim
        self._latency = latency if latency is not None else UniformLatency()
        self._seed = seed
        self.rng = random.Random(seed)
        self.drop_probability = drop_probability
        self._nodes: dict[str, "Actor"] = {}
        self._deliver: dict[str, Any] = {}
        self._blocked: set[frozenset[str]] = set()
        self._allowed_links: dict[str, frozenset[str]] = {}
        # Fast-path flag: True while no partitions and no link
        # restrictions exist (the common case), letting ``send`` skip
        # the per-message ``_routable`` checks entirely.  ``block`` /
        # ``restrict_links`` dirty it; ``unblock`` / ``heal`` restore
        # it once both tables are empty again.
        self._unrestricted = True
        # One resolved latency sampler per (src, dst) pair; invalidated
        # whenever the latency model is swapped (wan-jitter overlays).
        self._samplers: dict[tuple[str, str], Any] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        # Observability capture at construction: None when off, so the
        # send hot path pays one ``is not None`` check and nothing else.
        from repro import obs

        self._obs_registry = obs.REGISTRY

    @property
    def latency(self) -> LatencyModel:
        if self._pstates is not None:
            return self._pstates[self._current_pid()].latency
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        if self._pstates is not None:
            state = self._pstates[self._current_pid()]
            state.latency = model
            state.samplers.clear()
            return
        self._latency = model
        self._samplers.clear()

    def _current_pid(self) -> int:
        pid = self._facade.current_pid
        if pid is None:
            raise PartitionError(
                "network state touched outside any partition context; "
                "in shard-parallel mode latency/fault tables are "
                "per-partition and only reachable while a kernel runs"
            )
        return pid

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, node: "Actor") -> None:
        if node.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        # Bind the delivery callback once: creating a bound method per
        # send is measurable at ~80k sends per smoke run.
        self._deliver[node.node_id] = node.deliver
        if self._pstates is not None:
            self._partition_of[node.node_id] = self._pmap.pid_of_node(
                node.node_id
            )

    def node(self, node_id: str) -> "Actor":
        return self._nodes[node_id]

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def restrict_links(self, node_id: str, allowed_peers: Iterable[str]) -> None:
        """Physically wire ``node_id`` to ``allowed_peers`` only.

        Models the firewall requirement that each filter has a physical
        connection only to the rows above and below (§3.4).  Traffic to
        or from any other node is silently impossible — not dropped
        probabilistically, simply unroutable.
        """
        self._allowed_links[node_id] = frozenset(allowed_peers)
        self._unrestricted = False

    def allowed_peers(self, node_id: str) -> frozenset[str] | None:
        """The restriction set for a node, or None if unrestricted."""
        return self._allowed_links.get(node_id)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def block(self, a: str, b: str) -> None:
        """Partition the pair: messages between a and b are dropped."""
        if self._pstates is not None:
            state = self._pstates[self._current_pid()]
            state.blocked.add(frozenset((a, b)))
            state.unrestricted = False
            return
        self._blocked.add(frozenset((a, b)))
        self._unrestricted = False

    def unblock(self, a: str, b: str) -> None:
        if self._pstates is not None:
            state = self._pstates[self._current_pid()]
            state.blocked.discard(frozenset((a, b)))
            state.unrestricted = (
                not state.blocked and not self._allowed_links
            )
            return
        self._blocked.discard(frozenset((a, b)))
        self._unrestricted = not self._blocked and not self._allowed_links

    def heal(self) -> None:
        """Remove all pairwise partitions."""
        if self._pstates is not None:
            state = self._pstates[self._current_pid()]
            state.blocked.clear()
            state.unrestricted = not self._allowed_links
            return
        self._blocked.clear()
        self._unrestricted = not self._allowed_links

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the named nodes into isolated groups.

        Traffic *between* groups is blocked; traffic within a group,
        and to/from nodes not named in any group, is unaffected.
        Compose with :meth:`heal` for partition-and-recover scenarios.
        """
        named = [set(group) for group in groups]
        for index, group_a in enumerate(named):
            for group_b in named[index + 1:]:
                for a in group_a:
                    for b in group_b:
                        self.block(a, b)

    def isolate(self, node_id: str, others: Iterable[str]) -> None:
        """Cut one node off from each of ``others``."""
        for other in others:
            self.block(node_id, other)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _routable(self, src: str, dst: str) -> bool:
        if frozenset((src, dst)) in self._blocked:
            return False
        src_allowed = self._allowed_links.get(src)
        if src_allowed is not None and dst not in src_allowed:
            return False
        dst_allowed = self._allowed_links.get(dst)
        if dst_allowed is not None and src not in dst_allowed:
            return False
        return True

    def send(self, src: str, dst: str, msg: Any) -> bool:
        """Send ``msg`` from ``src`` to ``dst``.

        Returns True if the message was put on the wire (it may still
        be dropped by the unreliable-network model), False if no
        physical route exists.  Local delivery (src == dst) bypasses
        the wire but still goes through the destination's CPU queue.

        This is the hottest call in the simulation (one per message
        per destination), so the common case is kept lean: with no
        partitions or link restrictions the ``_routable`` checks are
        skipped outright, and the per-pair latency sampler is resolved
        once and cached.  The rng draw sequence is identical to the
        slow path, keeping runs bit-identical.
        """
        deliver = self._deliver.get(dst)
        if deliver is None:
            raise ConfigurationError(f"unknown destination {dst!r}")
        if not self._unrestricted and not self._routable(src, dst):
            return False
        self.messages_sent += 1
        registry = self._obs_registry
        if registry is not None:
            registry.counter(
                "messages_sent", kind=msg.__class__.__name__
            ).inc()
        if src != dst:
            rng = self.rng
            if self.drop_probability > 0.0 and rng.random() < self.drop_probability:
                self.messages_dropped += 1
                if registry is not None:
                    registry.counter(
                        "messages_dropped", kind=msg.__class__.__name__
                    ).inc()
                return True
            samplers = self._samplers
            sampler = samplers.get((src, dst))
            if sampler is None:
                sampler = samplers[(src, dst)] = self._latency.sampler(src, dst)
            delay = sampler(rng)
        else:
            delay = 0.0
        self.sim.schedule_fire(delay, deliver, msg, src)
        return True

    def multicast(self, src: str, dsts: Iterable[str], msg: Any) -> int:
        """Send ``msg`` to every destination; returns the routable count.

        With no partitions or link restrictions (the dirty flag that
        already guards :meth:`send`) the whole fan-out runs on one fast
        path: the ``_routable`` walk is skipped per destination, and
        the hot lookups — delivery table, rng, sampler cache, the
        ``schedule_fire`` bound method, obs counters — are resolved
        once per multicast instead of once per destination.  Counter
        totals and the rng draw sequence are identical to the per-send
        loop, so runs stay bit-identical.
        """
        if not self._unrestricted:
            send = self.send
            routed = 0
            for dst in dsts:
                if send(src, dst, msg):
                    routed += 1
            return routed
        deliver_map = self._deliver
        registry = self._obs_registry
        sent_counter = dropped_counter = None
        if registry is not None:
            # The dropped-counter series is resolved lazily below:
            # creating it on a drop-free run would register a zero
            # series the per-send path never materializes.
            sent_counter = registry.counter(
                "messages_sent", kind=msg.__class__.__name__
            )
        rng = self.rng
        drop_p = self.drop_probability
        samplers = self._samplers
        latency = self._latency
        schedule_fire = self.sim.schedule_fire
        sent = 0
        dropped = 0
        routed = 0
        for dst in dsts:
            deliver = deliver_map.get(dst)
            if deliver is None:
                raise ConfigurationError(f"unknown destination {dst!r}")
            sent += 1
            if sent_counter is not None:
                sent_counter.inc()
            if src != dst:
                if drop_p > 0.0 and rng.random() < drop_p:
                    dropped += 1
                    if registry is not None:
                        if dropped_counter is None:
                            dropped_counter = registry.counter(
                                "messages_dropped",
                                kind=msg.__class__.__name__,
                            )
                        dropped_counter.inc()
                    routed += 1
                    continue
                sampler = samplers.get((src, dst))
                if sampler is None:
                    sampler = samplers[(src, dst)] = latency.sampler(src, dst)
                delay = sampler(rng)
            else:
                delay = 0.0
            schedule_fire(delay, deliver, msg, src)
            routed += 1
        self.messages_sent += sent
        self.messages_dropped += dropped
        return routed

    # ------------------------------------------------------------------
    # shard-parallel mode
    # ------------------------------------------------------------------
    def enable_partitioning(self, pmap: Any, facade: Any) -> None:
        """Switch transmission to shard-parallel mode.

        From here on, ``send``/``multicast`` (swapped as instance
        attributes, so the sequential class methods — and their byte
        behavior — are untouched) schedule same-partition traffic on
        the currently-executing kernel and turn every cross-partition
        message into a timestamped :class:`~repro.sim.partition.Envelope`
        queued in :attr:`_outbox` for the engine's barrier exchange.

        Determinism replaces the single shared rng with one stream per
        ``(src, dst)`` pair, seeded from the network seed and the pair
        ids via string seeding (SHA-512 based, independent of
        ``PYTHONHASHSEED``): a pair's draw sequence then depends only
        on the sender partition's own event order, which the safe-
        window protocol makes identical at every worker count.
        """
        from repro.sim.partition import Envelope

        if self._pstates is not None:
            raise ConfigurationError("partitioning already enabled")
        self._Envelope = Envelope
        self._pmap = pmap
        self._facade = facade
        self._partition_of = {
            node_id: pmap.pid_of_node(node_id) for node_id in self._nodes
        }
        self._pair_rngs: dict[tuple[str, str], random.Random] = {}
        self._outbox: list[Any] = []
        self._env_seqs = [0] * len(pmap)
        self._pstates = [
            _PartitionNetState(self._latency, self._blocked, self._unrestricted)
            for _ in range(len(pmap))
        ]
        self.send = self._send_partitioned
        self.multicast = self._multicast_partitioned

    def take_outbox(self) -> list:
        """Drain the cross-partition envelopes queued since last call."""
        outbox = self._outbox
        self._outbox = []
        return outbox

    def _routable_p(self, state: "_PartitionNetState", src: str, dst: str) -> bool:
        if frozenset((src, dst)) in state.blocked:
            return False
        src_allowed = self._allowed_links.get(src)
        if src_allowed is not None and dst not in src_allowed:
            return False
        dst_allowed = self._allowed_links.get(dst)
        if dst_allowed is not None and src not in dst_allowed:
            return False
        return True

    def _pair_rng(self, src: str, dst: str) -> random.Random:
        rng = random.Random(f"pair|{self._seed}|{src}|{dst}")
        self._pair_rngs[(src, dst)] = rng
        return rng

    def _send_partitioned(self, src: str, dst: str, msg: Any) -> bool:
        """The shard-parallel ``send``: same wire semantics, but drop
        and latency draws come from the per-pair rng stream, and
        cross-partition messages become envelopes instead of events."""
        deliver = self._deliver.get(dst)
        if deliver is None:
            raise ConfigurationError(f"unknown destination {dst!r}")
        facade = self._facade
        state = self._pstates[facade.current_pid]
        if not state.unrestricted and not self._routable_p(state, src, dst):
            return False
        self.messages_sent += 1
        registry = self._obs_registry
        if registry is not None:
            registry.counter(
                "messages_sent", kind=msg.__class__.__name__
            ).inc()
        if src == dst:
            facade.current.schedule_fire(0.0, deliver, msg, src)
            return True
        pair = (src, dst)
        rng = self._pair_rngs.get(pair)
        if rng is None:
            rng = self._pair_rng(src, dst)
        if self.drop_probability > 0.0 and rng.random() < self.drop_probability:
            self.messages_dropped += 1
            if registry is not None:
                registry.counter(
                    "messages_dropped", kind=msg.__class__.__name__
                ).inc()
            return True
        sampler = state.samplers.get(pair)
        if sampler is None:
            sampler = state.samplers[pair] = state.latency.sampler(src, dst)
        delay = sampler(rng)
        partition_of = self._partition_of
        src_pid = partition_of[src]
        if src_pid == partition_of[dst]:
            facade.current.schedule_fire(delay, deliver, msg, src)
        else:
            seq = self._env_seqs[src_pid]
            self._env_seqs[src_pid] = seq + 1
            self._outbox.append(
                self._Envelope(
                    facade.current.now + delay, src_pid, seq, src, dst, msg
                )
            )
        return True

    def _multicast_partitioned(self, src: str, dsts: Iterable[str], msg: Any) -> int:
        send = self._send_partitioned
        routed = 0
        for dst in dsts:
            if send(src, dst, msg):
                routed += 1
        return routed
