"""The three benchmark workloads, each a pure function of its seed.

The seed generates the workload's *inputs*: which node each exchange
addresses, report phases, senders, frame sizes, backoff draws.  The
deployment (topology, link shadowing and the simulator's own seed) is
fixed per workload by ``deployment_seed``, the way a benchmark fixes
the program it measures and varies only what it feeds it.  Seeds
therefore compare like with like: a TSCH cell schedule, for instance,
sets report latency far more than any input does.

A workload has four steps, timed separately by :mod:`worker`:

- ``build``: construct the deployment;
- ``form``: advance simulated time until the network is formed;
- ``begin``: schedule the open-loop operations (the last of set-up);
- the timed phase: the simulator runs ``timed_s`` of simulated time in
  fixed slices of ``slice_s``; ``end`` then checks the outcomes.

``outputs`` returns the modelled results (operation counts, simulated
latencies, duty cycle) and ``counters`` the exact work counters read
from public state.  Neither depends on host speed, so both repeat
exactly for one seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.aggregation.service import AggregationService
from repro.core.system import IIoTSystem, SystemConfig
from repro.crdt import CrdtReplica, GCounter, NetworkReplicator
from repro.deployment.topology import campus_topology, grid_topology
from repro.devices.phenomena import DiurnalField
from repro.faults.plan import FaultPlan
from repro.middleware.coap import CoapClient, CoapServer, CoapTransport
from repro.middleware.coap.resource import CallbackResource
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig
from repro.radio.medium import Frame, Medium, Radio, RadioState
from repro.radio.propagation import LogDistanceModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

#: Port the tsch-faults sensor reports travel to (unused by the library).
REPORT_PORT = 7


def _awake_seconds(radios: List[Radio]) -> List[float]:
    """``[awake, total]`` radio seconds summed over ``radios``."""
    awake = total = 0.0
    for radio in radios:
        times = radio.flush_state_time()
        awake += times[RadioState.LISTEN] + times[RadioState.TX]
        total += sum(times.values())
    return [awake, total]


class Workload:
    """Base: the phases and bookkeeping every workload shares."""

    name = ""
    #: Seed of the deployment and the simulator (fixed; see above).
    deployment_seed = 2018
    #: Simulated length of the timed phase and of one timing slice.
    timed_s = 0.0
    slice_s = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Every input is drawn from this stream, in a fixed order.
        self.rng = random.Random(seed)
        self.sim: Optional[Simulator] = None
        self.trace: Optional[TraceLog] = None
        self.medium: Optional[Medium] = None
        self.system: Optional[IIoTSystem] = None
        self.attempted = 0
        self.ok = 0
        #: Operations the program left without a correct outcome.
        self.failed = 0
        self.latencies_s: List[float] = []
        self.errors: List[str] = []
        self._duty_start = [0.0, 0.0]

    # -- phases ---------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def form(self) -> None:
        """Advance to the first timed event (default: nothing to form)."""

    def begin(self) -> None:
        raise NotImplementedError

    def end(self) -> None:
        """Close the timed phase: verify outcomes, record errors."""

    # -- results --------------------------------------------------------
    def duty_radios(self) -> List[Radio]:
        """Radios whose radio-on share ``duty_cycle`` averages: every
        radio but the border router's (mains-powered, always on)."""
        if self.system is None:
            return list(self.medium.radios.values())
        root_id = self.system.topology.root_id
        return [node.stack.radio for nid, node in self.system.nodes.items()
                if nid != root_id]

    def mark_duty(self) -> None:
        self._duty_start = _awake_seconds(self.duty_radios())

    def duty_cycle(self) -> float:
        awake, total = _awake_seconds(self.duty_radios())
        span = total - self._duty_start[1]
        return (awake - self._duty_start[0]) / span if span > 0 else 0.0

    def outputs(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "latencies_s": self.latencies_s,
            "duty_cycle": self.duty_cycle(),
        }

    def counters(self) -> Dict[str, float]:
        """Exact work counters read from public state (cumulative)."""
        radios = list(self.medium.radios.values())
        trace = self.trace.counters
        out = {
            "sim.events": self.sim.events_processed,
            "radio.frames_sent": sum(r.frames_sent for r in radios),
            "radio.frames_received": sum(r.frames_received for r in radios),
        }
        for kind in ("collision", "drop", "miss"):
            out[f"radio.{kind}"] = trace.get(f"radio.{kind}", 0)
        if self.system is None:
            return out
        stacks = [node.stack for node in self.system.nodes.values()]
        for field in ("enqueued", "queue_drops", "tx_success", "tx_failed",
                      "tx_attempts", "rx_delivered", "rx_duplicates"):
            out[f"mac.{field}"] = sum(getattr(s.mac.stats, field) for s in stacks)
        tsch = [s.mac.tsch_stats for s in stacks if hasattr(s.mac, "tsch_stats")]
        for field in ("sixp_sent", "cells_used", "cells_elapsed",
                      "shared_tx", "dedicated_tx"):
            out[f"mac.{field}"] = sum(getattr(t, field) for t in tsch)
        for field in ("dio_sent", "dao_sent", "parent_changes"):
            out[f"rpl.{field}"] = sum(getattr(s.rpl, field) for s in stacks)
        for field in ("datagrams_sent", "datagrams_delivered",
                      "datagrams_forwarded", "datagrams_dropped_no_route",
                      "datagrams_dropped_ttl", "datagrams_dropped_link"):
            out[f"net.{field}"] = sum(getattr(s.stats, field) for s in stacks)
        out["net.fragments_sent"] = sum(s.frag.fragments_sent for s in stacks)
        return out


# ----------------------------------------------------------------------
# plant-poll: the Fig. 1 data path, CoAP over a multi-hop CSMA floor
# ----------------------------------------------------------------------
class PlantPoll(Workload):
    """Root polls (GET) and writes setpoints (PUT, about 1 in 5) on every node.

    Open loop: one confirmable exchange every ``1 / RATE`` simulated
    seconds, in seeded rounds over the 99 nodes, for ``POLL_S``; the last
    ``DRAIN_S`` let every exchange resolve (the client timeout is
    shorter than the drain).  An epoch ``avg`` aggregation query and a
    gossiped CRDT counter run alongside.
    """

    name = "plant-poll"
    SIDE = 10
    FORM_S = 120.0
    RATE = 4.0
    POLL_S = 150.0
    TIMEOUT_S = 30.0
    DRAIN_S = 35.0
    timed_s = POLL_S + DRAIN_S
    slice_s = 1.0

    def build(self) -> None:
        system = IIoTSystem.build(grid_topology(self.SIDE),
                                  config=SystemConfig(observability=True),
                                  seed=self.deployment_seed)
        system.add_field_sensors("temp", DiurnalField(mean=21.0))
        self.system, self.sim = system, system.sim
        self.trace, self.medium = system.trace, system.medium
        self.setpoints: Dict[int, float] = {}
        self.transports: List[CoapTransport] = []
        for node in system.nodes.values():
            if node.is_root:
                continue
            transport = CoapTransport(node.stack)
            self.transports.append(transport)
            server = CoapServer(transport)
            server.add_resource(CallbackResource(
                "/temp", on_get=lambda n=node: (n.sensors["temp"].read(), 4)))
            server.add_resource(CallbackResource(
                "/setpoint", on_put=lambda v, nid=node.node_id:
                self._store_setpoint(nid, v)))
        self.client = CoapClient(CoapTransport(system.root.stack))
        self.transports.append(self.client.transport)
        self.agg_results: List[Any] = []
        self.replicators: List[NetworkReplicator] = []
        system.start()

    def _store_setpoint(self, node_id: int, value: float) -> bool:
        self.setpoints[node_id] = value
        return True

    def form(self) -> None:
        self.system.run(self.FORM_S)

    def begin(self) -> None:
        system, sim = self.system, self.sim
        root_id = system.topology.root_id
        services = {nid: AggregationService(node)
                    for nid, node in system.nodes.items()}
        services[root_id].run_query("temp", "avg", epoch_s=30.0,
                                    on_result=self.agg_results.append)
        for nid, node in system.nodes.items():
            replica = CrdtReplica(nid, GCounter(nid))
            replicator = NetworkReplicator(node.stack, replica)
            replicator.start()
            replica.mutate(lambda s: s.increment())
            replicator.notify_local_update()
            self.replicators.append(replicator)
        # Each round addresses every node once, in a seeded order; one
        # exchange in five (seeded) writes a setpoint instead of reading.
        targets = sorted(nid for nid in system.nodes if nid != root_id)
        self.pending: Dict[int, float] = {}
        self.written: Dict[int, set] = {}  # node -> setpoints sent
        order: List[int] = []
        for k in range(int(self.RATE * self.POLL_S)):
            if not order:
                order = self.rng.sample(targets, len(targets))
            dest = order.pop()
            value = None
            if self.rng.random() < 0.2:
                value = round(self.rng.uniform(18.0, 24.0), 1)
            sim.schedule(k / self.RATE,
                         lambda k=k, d=dest, v=value: self._exchange(k, d, v))

    def _exchange(self, k: int, dest: int, value: Optional[float]) -> None:
        sent = self.sim.now
        self.attempted += 1
        self.pending[k] = sent

        def on_response(response) -> None:
            if self.pending.pop(k, None) is None:
                self.failed += 1  # a second outcome for one exchange
                return
            if response is not None:
                self.ok += 1
                self.latencies_s.append(self.sim.now - sent)

        if value is not None:
            self.written.setdefault(dest, set()).add(value)
            self.client.put(dest, "/setpoint", value, 4, on_response,
                            timeout_s=self.TIMEOUT_S)
        else:
            self.client.get(dest, "/temp", on_response,
                            timeout_s=self.TIMEOUT_S)

    def end(self) -> None:
        if self.pending:
            self.failed += len(self.pending)
            self.errors.append(f"{len(self.pending)} CoAP exchanges "
                               "unresolved after the drain")
        wrong = [n for n, v in self.setpoints.items()
                 if v not in self.written.get(n, ())]
        if wrong:
            self.errors.append(f"setpoints never written: nodes {wrong[:5]}")
        if not self.agg_results:
            self.errors.append("the aggregation query produced no epoch")

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["coap.requests"] = self.client.requests_sent
        out["coap.retransmits"] = sum(t.retransmissions for t in self.transports)
        out["crdt.rounds"] = sum(r.gossips_sent for r in self.replicators)
        out["agg.epochs"] = len(self.agg_results)
        spans = self.system.obs.spans
        out["obs.spans_stored"] = len(spans) if spans is not None else 0
        return out


# ----------------------------------------------------------------------
# tsch-faults: the tsch-dependability sweep configuration plus reports
# ----------------------------------------------------------------------
class TschFaults(Workload):
    """grid(3) over TSCH through a partition and a border-router kill.

    The configuration and fault plan are those of the built-in
    ``tsch-dependability`` sweep scenario; on top, every non-root node
    sends a sensor report to the root every ``REPORT_PERIOD_S``
    (seeded phase).  Reports stop ``DRAIN_S`` before the end.
    """

    name = "tsch-faults"
    #: Not 2018: on that deployment the fleet re-joins after the border
    #: router recovers for some input seeds and not for others, so
    #: ``ok_ratio`` flips between ~0.74 and ~0.39 from seed to seed.  On
    #: this one it fails to re-join on almost every input seed (a
    #: defect; see README.md), which the benchmark then measures steadily.
    deployment_seed = 1
    FORM_S = 600.0
    CUT_X = 30.0
    REPORT_PERIOD_S = 30.0
    DRAIN_S = 60.0
    timed_s = 3300.0
    slice_s = 10.0

    def build(self) -> None:
        config = SystemConfig(
            stack=StackConfig(
                mac="tsch",
                mac_config=TschConfig(slotframe_slots=23),
                rnfd_enabled=True,
                rnfd=RnfdConfig(probe_period_s=30.0),
                rpl=RplConfig(dao_period_s=120.0,
                              trickle_variant="adaptive-imin"),
            ),
            invariant_checking=True,
        )
        system = IIoTSystem.build(grid_topology(3), config=config,
                                  seed=self.deployment_seed)
        self.system, self.sim = system, system.sim
        self.trace, self.medium = system.trace, system.medium
        self.sent: Dict[tuple, float] = {}
        self.delivered: set = set()
        system.root.stack.bind(REPORT_PORT, self._on_report)
        system.start()

    def form(self) -> None:
        self.system.run(self.FORM_S)

    def begin(self) -> None:
        system, sim = self.system, self.sim
        start = sim.now
        plan = (
            FaultPlan()
            .partition(start + 60.0, cut_x=self.CUT_X, heal_after_s=600.0)
            .kill_border_router(start + 1500.0, recover_after_s=600.0)
        )
        for checker in system.checkers.checkers:
            if hasattr(checker, "declare_fault_window"):
                plan.declare_windows(checker, grace_s=600.0)
        plan.install(system)
        rng = self.rng
        root_id = system.topology.root_id
        last = self.timed_s - self.DRAIN_S
        for nid in sorted(system.nodes):
            if nid == root_id:
                continue
            stack = system.nodes[nid].stack
            at = rng.uniform(0.0, self.REPORT_PERIOD_S)
            seq = 0
            while at < last:
                sim.schedule(at, lambda s=stack, q=seq: self._report(s, q))
                at += self.REPORT_PERIOD_S
                seq += 1

    def _report(self, stack, seq: int) -> None:
        key = (stack.node_id, seq)
        self.sent[key] = self.sim.now
        self.attempted += 1
        stack.send_datagram(self.system.topology.root_id, REPORT_PORT,
                            payload=key, payload_bytes=24)

    def _on_report(self, datagram) -> None:
        key = datagram.payload
        sent = self.sent.get(key)
        if sent is None:
            self.failed += 1  # delivered but never sent
            return
        if key in self.delivered:
            return  # a link-layer duplicate the upward retry produced
        self.delivered.add(key)
        self.ok += 1
        self.latencies_s.append(self.sim.now - sent)

    def end(self) -> None:
        violations = self.system.checkers.finish()
        if violations:
            self.errors.append(f"{len(violations)} invariant violations, "
                               f"first: {violations[0]}")

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["checking.violations"] = len(self.system.checkers.violations)
        return out


# ----------------------------------------------------------------------
# campus-10k: the radio medium alone at geographic scale, cold caches
# ----------------------------------------------------------------------
class Campus10k(Workload):
    """100 buildings x 100 radios; seeded senders CCA then transmit.

    Senders fire in groups of ``GROUP`` radios of one building,
    staggered inside one frame airtime, one group every
    ``GROUP_PERIOD_S``.  A sender that finds
    the channel busy backs off (seeded, up to ``MAX_BACKOFFS`` times)
    before transmitting anyway.  An operation is one frame reaching a
    radio that can hear it; its simulated latency runs from the
    sender's due time to the end of reception.
    """

    name = "campus-10k"
    BUILDINGS = 100
    PER_BUILDING = 100
    SENDERS = 1200
    GROUP = 8
    GROUP_PERIOD_S = 0.03
    STAGGER_S = 0.0025
    BACKOFF_S = (0.00032, 0.0025)
    MAX_BACKOFFS = 4
    #: Frame sizes are drawn per sender from this range (bytes).
    FRAME_BYTES = (20, 110)
    timed_s = (SENDERS // GROUP + 2) * GROUP_PERIOD_S
    slice_s = GROUP_PERIOD_S

    def build(self) -> None:
        topology = campus_topology(self.BUILDINGS, self.PER_BUILDING,
                                   seed=self.deployment_seed)
        self.sim = Simulator(seed=self.deployment_seed)
        self.trace = TraceLog(enabled=False)
        model = LogDistanceModel(path_loss_exponent=3.5,
                                 shadowing_sigma_db=2.0,
                                 seed=self.deployment_seed)
        self.medium = Medium(self.sim, model, self.trace)
        self.due: Dict[int, float] = {}
        for node_id in topology.node_ids():
            radio = Radio(self.medium, node_id, topology.positions[node_id])
            radio.on_receive = self._on_receive
            radio.set_listening()

    def _on_receive(self, frame: Frame, rssi: float) -> None:
        self.latencies_s.append(self.sim.now - self.due[frame.sender])

    def begin(self) -> None:
        rng = self.rng
        self.counts_start = dict(self.trace.counters)
        # Each group transmits from one building, so its carrier-sense
        # probes really contend; buildings are visited in seeded passes
        # and no radio sends twice, so every neighbourhood starts cold.
        unused = {b: list(range(b * self.PER_BUILDING, (b + 1) * self.PER_BUILDING))
                  for b in range(self.BUILDINGS)}
        order: List[int] = []
        while len(order) < self.SENDERS // self.GROUP:
            order.extend(rng.sample(range(self.BUILDINGS), self.BUILDINGS))
        for g, building in enumerate(order[:self.SENDERS // self.GROUP]):
            pool = unused[building]
            for k in range(self.GROUP):
                node_id = pool.pop(rng.randrange(len(pool)))
                at = g * self.GROUP_PERIOD_S + k * self.STAGGER_S
                self.due[node_id] = self.sim.now + at
                self.sim.schedule(at, lambda r=self.medium.radios[node_id],
                                  size=rng.randint(*self.FRAME_BYTES):
                                  self._attempt(r, size, 0))

    def _attempt(self, radio: Radio, size: int, backoffs: int) -> None:
        if backoffs < self.MAX_BACKOFFS and self.medium.carrier_busy(radio):
            delay = self.rng.uniform(*self.BACKOFF_S)
            self.sim.schedule(delay, lambda: self._attempt(radio, size,
                                                           backoffs + 1))
            return
        frame = Frame(payload="p", size_bytes=size,
                      channel=radio.channel, sender=radio.node_id)
        self.medium.transmit(radio, frame)

    def end(self) -> None:
        counts = self.trace.counters
        heard = sum(counts.get(f"radio.{k}", 0) - self.counts_start.get(f"radio.{k}", 0)
                    for k in ("rx", "collision", "drop", "miss"))
        self.attempted = heard
        self.ok = len(self.latencies_s)
        received = counts.get("radio.rx", 0) - self.counts_start.get("radio.rx", 0)
        if received != self.ok:
            self.failed += abs(received - self.ok)
            self.errors.append(f"{received} receptions traced but "
                               f"{self.ok} delivered to radios")
        sent = counts.get("radio.tx", 0) - self.counts_start.get("radio.tx", 0)
        if sent != self.SENDERS:
            self.errors.append(f"{sent} frames sent, {self.SENDERS} due")


WORKLOADS = {cls.name: cls for cls in (PlantPoll, TschFaults, Campus10k)}
