"""The deterministic cluster simulation: generate, execute, check.

One run is a pure function of ``(seed, config)``:

1. :func:`generate_ops` draws a **fault schedule** — a list of plain-dict
   ops (ingest bursts, applier ticks, replication polls, crashes with
   process/power semantics, partitions, disk-full windows, network fault
   rates, failovers, snapshot corruption) — from a seeded RNG. Ops carry
   every parameter; the executor never draws randomness of its own
   beyond the transport's seeded fault rolls.
2. :class:`_Sim` executes the ops against a virtual serve cluster:
   primary + followers as plain :class:`~repro.serve.service.LiveIngestService`
   objects on :class:`~repro.simtest.clock.SimClock` /
   :class:`~repro.simtest.disk.SimDisk` /
   :class:`~repro.simtest.transport.SimTransport`. Ingest goes through a
   real :class:`~repro.serve.client.ServeClient`, so retry, Retry-After,
   409-redirect and failover logic are inside the tested surface. Every
   202 the client sees lands its sequence range in the **acked ledger**.
3. A **settle phase** heals all faults, restarts every node, resolves a
   single primary, re-aims and (when diverged) re-seeds followers, and
   pumps replication until the cluster converges.
4. The **oracles** then assert the standing invariants:

   * *durability* — every acked sequence is present in the final
     primary's whole history or named by a shed tombstone, power cuts
     included (a batch is acked only once its WAL lines are fsynced);
   * *digest* — every non-fenced node's live store digest equals an
     offline replay oracle built from the final primary's history alone;
   * *epoch* — at most one node accepted writes per epoch (observed at
     the transport chokepoint, so split-brain cannot hide);
   * *recovery* — every non-fenced node, restarted from its own data
     dir, recovers the digest it had live.

   The nodes run the WAL retention a server runs, so a node's history
   is more than its WAL on disk: the segments it pruned (kept by
   :class:`~repro.simtest.disk.SimDisk` for the oracles alone), and,
   once it bootstrapped from a snapshot, the history of the primary it
   took that snapshot from, up to the snapshot's sequence.

Failures ship as replayable JSON traces (:func:`trace_to_json` is
byte-stable for a given seed) and are minimized by
:func:`~repro.simtest.shrink.shrink_trace`.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.exec.retry import RetryPolicy
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.replication import (
    CLUSTER_FILE,
    CURSOR_FILE,
    ReplicationError,
    ROLE_FENCED,
    ROLE_PRIMARY,
    ROLE_REPLICA,
)
from repro.serve.service import LiveIngestService, ServeConfig, WAL_DIR
from repro.serve.state import LiveFusedStore
from repro.serve.transport import TransportError
from repro.serve.wal import (
    KIND_ATTACK,
    KIND_DPS,
    ReplayReport,
    WalRecord,
    parse_segment,
    resolve_lines,
    segment_first_seq,
    shed_seqs,
)
from repro.simtest.clock import SimClock
from repro.simtest.disk import MemorySnapshotStore, SimDisk
from repro.simtest.transport import SimTransport

TRACE_VERSION = 1

#: Relative op frequencies for the generator.
_OP_WEIGHTS = (
    ("ingest", 34),
    ("tick", 16),
    ("poll", 16),
    ("advance", 8),
    ("crash", 5),
    ("restart", 6),
    ("partition", 4),
    ("heal", 3),
    ("disk_full", 2),
    ("disk_free", 2),
    ("net", 2),
    ("failover", 1),
    ("corrupt_snapshot", 1),
)

_SETTLE_ROUNDS = 400
#: Pump rounds a follower may sit at the same committed sequence while
#: still behind before it is declared diverged and re-seeded.
_STALL_ROUNDS = 8


def default_spec(**overrides) -> dict:
    """The baseline simulation config; keyword args override fields."""
    spec = {
        "nodes": 3,
        "steps": 80,
        "records_per_ingest": 6,
        "queue_size": 64,
        "snapshot_every_events": 40,
        "snapshot_interval_s": 5.0,
        "sync_replicas": 1,
        "sync_timeout_s": 1.0,
        "retry_after": 0.2,
        "breaker_cooldown": 0.5,
        "apply_batch": 16,
        "baseline_days": 7,
        "alert_factor": 3.0,
        "max_events_per_victim": 64,
        "fault_rates": {
            "drop": 0.04,
            "dup": 0.03,
            "stale": 0.03,
            "delay": 0.05,
        },
    }
    spec.update(overrides)
    return spec


def make_records(feed: str, start: int, count: int) -> List[dict]:
    """Deterministic record batch: a pure function of (feed, start, count).

    Ops carry only ``start``/``count`` so traces stay small; the executor
    regenerates identical payloads on every replay.
    """
    records = []
    for i in range(count):
        n = start + i
        if feed == "dps":
            records.append({
                "domain": f"site-{n % 37}.example",
                "provider": f"dps-{n % 7}",
                "day": n % 5,
                "active": n % 3 != 0,
            })
        else:
            records.append({
                "source": feed,
                "target": (10 << 24) + (n % 499),
                "start_ts": float(n),
                "end_ts": float(n) + 30.0,
                "intensity": 50.0 + (n % 11),
            })
    return records


def generate_ops(seed: int, config: dict) -> List[dict]:
    """Draw a fault schedule from *seed*; every op is a plain dict.

    The generator keeps a lightweight cluster model (who is crashed,
    which pairs are partitioned, whose disk is full) so schedules stay
    *mostly* sensible — but the executor treats every op as total (a
    crash of a crashed node is a no-op), which is what lets the shrinker
    delete arbitrary subsets.
    """
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(int(config["nodes"]))]
    total = sum(weight for _name, weight in _OP_WEIGHTS)
    crashed: Set[str] = set()
    partitions: List[Tuple[str, str]] = []
    full: Set[str] = set()
    next_start = 0
    ops: List[dict] = []
    for _ in range(int(config["steps"])):
        pick = rng.randrange(total)
        kind = _OP_WEIGHTS[-1][0]
        for name, weight in _OP_WEIGHTS:
            if pick < weight:
                kind = name
                break
            pick -= weight
        if kind == "ingest":
            feed = rng.choice(("telescope", "honeypot", "dps"))
            count = rng.randint(1, int(config["records_per_ingest"]))
            ops.append({
                "op": "ingest", "feed": feed,
                "start": next_start, "count": count,
            })
            next_start += count
        elif kind in ("tick", "poll"):
            ops.append({"op": kind, "node": rng.choice(names)})
        elif kind == "advance":
            ops.append({
                "op": "advance",
                "seconds": round(rng.uniform(0.05, 2.0), 3),
            })
        elif kind == "crash":
            alive = [n for n in names if n not in crashed]
            if not alive:
                ops.append({"op": "advance", "seconds": 0.1})
                continue
            node = rng.choice(alive)
            crashed.add(node)
            if rng.random() < 0.4:
                ops.append({
                    "op": "crash", "node": node, "mode": "power",
                    "keep_fraction": round(rng.random(), 3),
                })
            else:
                ops.append({"op": "crash", "node": node, "mode": "process"})
        elif kind == "restart":
            if crashed:
                node = rng.choice(sorted(crashed))
                crashed.discard(node)
                ops.append({"op": "restart", "node": node})
            else:
                ops.append({"op": "tick", "node": rng.choice(names)})
        elif kind == "partition":
            pool = names + ["client"]
            a, b = rng.sample(pool, 2)
            partitions.append((a, b))
            ops.append({"op": "partition", "a": a, "b": b})
        elif kind == "heal":
            if partitions and rng.random() < 0.5:
                a, b = partitions.pop(rng.randrange(len(partitions)))
                ops.append({"op": "heal", "a": a, "b": b})
            elif partitions:
                partitions.clear()
                ops.append({"op": "heal"})
            else:
                ops.append({"op": "advance", "seconds": 0.1})
        elif kind == "disk_full":
            candidates = [n for n in names if n not in full]
            if not candidates:
                ops.append({"op": "advance", "seconds": 0.1})
                continue
            node = rng.choice(candidates)
            full.add(node)
            ops.append({
                "op": "disk_full", "node": node,
                "torn": rng.choice((0, 0, 3, 9)),
            })
        elif kind == "disk_free":
            if full:
                node = rng.choice(sorted(full))
                full.discard(node)
                ops.append({"op": "disk_free", "node": node})
            else:
                ops.append({"op": "advance", "seconds": 0.1})
        elif kind == "net":
            if rng.random() < 0.35:
                ops.append({"op": "net"})
            else:
                rates = config.get("fault_rates") or {}
                ops.append({
                    "op": "net",
                    "drop": round(
                        rng.uniform(0, float(rates.get("drop", 0.1))), 3
                    ),
                    "dup": round(
                        rng.uniform(0, float(rates.get("dup", 0.05))), 3
                    ),
                    "stale": round(
                        rng.uniform(0, float(rates.get("stale", 0.05))), 3
                    ),
                    "delay": round(
                        rng.uniform(0, float(rates.get("delay", 0.1))), 3
                    ),
                })
        elif kind == "failover":
            if len(names) > 1:
                ops.append({"op": "failover"})
            else:
                ops.append({"op": "advance", "seconds": 0.1})
        elif kind == "corrupt_snapshot":
            ops.append({
                "op": "corrupt_snapshot",
                "node": rng.choice(names),
                "count": rng.randint(1, 2),
            })
    return ops


class _SimNode:
    """One virtual cluster member: durable layers + (maybe) a service."""

    def __init__(self, name: str, base_dir: Path) -> None:
        self.name = name
        self.data_dir = base_dir / name
        self.disk = SimDisk()
        self.snap_store = MemorySnapshotStore()
        self.service: Optional[LiveIngestService] = None
        self.crashed = False
        self.replica_of: Optional[str] = None
        #: What the node took over at its last bootstrap: the source
        #: primary's history up to the snapshot's sequence.
        self.inherited: List[WalRecord] = []
        self.inherited_seq = 0


def _wal_lines(node: _SimNode) -> List[dict]:
    """Every WAL line the node wrote, pruned segments first (in unlink
    order), each segment up to its first torn line as replay reads it.

    Reads the raw SimDisk bytes directly — no service needed.
    """
    wal_dir = node.data_dir / WAL_DIR
    segments = [
        raw for path, raw in node.disk.unlinked
        if Path(path).parent == wal_dir
    ]
    live = sorted(
        (first, name) for name in node.disk.listdir(wal_dir)
        if (first := segment_first_seq(name)) is not None
    )
    segments += [node.disk.read_bytes(wal_dir / name) for _, name in live]
    report = ReplayReport()
    return [line for raw in segments for line in parse_segment(raw, report)]


def _history(node: _SimNode) -> List[WalRecord]:
    """The node's whole committed history, by seq: what it inherited at
    its last bootstrap, then its own WAL lines past that."""
    own = resolve_lines(
        _wal_lines(node), ReplayReport(), after_seq=node.inherited_seq
    )
    return node.inherited + own


class _Sim:
    """Executor state for one simulated cluster run."""

    def __init__(self, seed: int, config: dict) -> None:
        self.seed = seed
        self.config = config
        self.base_dir = Path(tempfile.mkdtemp(prefix="repro-simtest-"))
        self.clock = SimClock()
        self.transport = SimTransport(seed, clock=self.clock)
        self.names = [f"n{i}" for i in range(int(config["nodes"]))]
        self.nodes: Dict[str, _SimNode] = {
            name: _SimNode(name, self.base_dir) for name in self.names
        }
        for node in self.nodes.values():
            self.transport.register(
                node.name,
                lambda n=node: None if n.crashed else n.service,
            )
        self.transport.on_response = self._on_response
        self.acked: Set[int] = set()
        self.shed_harvest: Set[int] = set()
        self.writes_by_epoch: Dict[int, Set[str]] = {}
        self.violations: List[dict] = []
        self.primary_name = self.names[0]
        self.max_epoch = 1
        primary_url = self.transport.url_of(self.primary_name)
        for name in self.names[1:]:
            self.nodes[name].replica_of = primary_url
        for name in self.names:
            self._start_node(self.nodes[name])
        self.client = ServeClient(
            [self.transport.url_of(name) for name in self.names],
            retry=RetryPolicy(
                max_attempts=6,
                backoff_base=0.05,
                backoff_max=1.0,
                jitter=True,
                jitter_seed=seed & 0xFFFF,
            ),
            timeout=2.0,
            sleep=self.clock.sleep,
            transport=self.transport.bind("client"),
        )

    # -- node lifecycle --------------------------------------------------------

    def _service_config(self, node: _SimNode) -> ServeConfig:
        c = self.config
        followers = max(0, len(self.names) - 1)
        return ServeConfig(
            data_dir=node.data_dir,
            manual_drive=True,
            queue_size=int(c["queue_size"]),
            retry_after=float(c["retry_after"]),
            snapshot_every_events=int(c["snapshot_every_events"]),
            snapshot_interval_s=float(c["snapshot_interval_s"]),
            max_events_per_victim=int(c["max_events_per_victim"]),
            baseline_days=int(c["baseline_days"]),
            alert_factor=float(c["alert_factor"]),
            apply_batch=int(c["apply_batch"]),
            breaker_cooldown=float(c["breaker_cooldown"]),
            sync_replicas=min(int(c["sync_replicas"]), followers),
            sync_timeout_s=float(c["sync_timeout_s"]),
            replica_of=node.replica_of,
            follower_id=node.name,
            poll_interval_s=0.1,
        )

    def _start_node(self, node: _SimNode) -> None:
        node.crashed = False
        service = LiveIngestService(
            self._service_config(node),
            metrics=MetricsRegistry(),
            clock=self.clock,
            disk=node.disk,
            snapshot_store=node.snap_store,
            transport=self.transport.bind(node.name),
            sleep=self.clock.sleep,
        )
        node.service = service
        service.bootstrap_from_snapshot = functools.partial(
            self._bootstrap, node, service.bootstrap_from_snapshot
        )
        service.start()
        service.sync_pump = self._pump
        # A restarted stale primary must not reopen for writes when a
        # newer epoch exists: the operator runbook fences it on arrival,
        # and the simulated runbook does the same.
        if (
            service.cluster.role == ROLE_PRIMARY
            and node.name != self.primary_name
            and self.max_epoch > service.cluster.epoch
        ):
            service.fence(
                self.max_epoch, self.transport.url_of(self.primary_name)
            )

    def _bootstrap(self, node: _SimNode, bootstrap, seq: int,
                   state: dict) -> None:
        """The service's own bootstrap, noting what the node inherits."""
        url = node.service.shipper.primary_url
        source = next(
            other for other in self.nodes.values()
            if self.transport.url_of(other.name) == url
        )
        inherited = [
            record for record in _history(source) if record.seq <= seq
        ]
        bootstrap(seq, state)
        node.inherited, node.inherited_seq = inherited, seq

    def _crash_node(self, node: _SimNode, mode: str,
                    keep_fraction: float) -> None:
        if node.crashed:
            return
        if mode == "power":
            node.disk.crash_power(keep_fraction)
        else:
            node.disk.crash_process()
        # No drain, no close: a crash is a crash. The service object is
        # simply dropped; durable truth lives in SimDisk + snapshots.
        node.service = None
        node.crashed = True

    def _reaim(self, node: _SimNode, primary_url: str) -> None:
        """Restart a follower pointed at a new primary.

        The cursor file is removed first: its byte offsets index the
        *old* primary's segment files and would misalign the stream
        against the new one. The local WAL stays — committed sequences
        remain the commit truth, and refetched duplicates dedupe.
        """
        node.replica_of = primary_url
        (node.data_dir / CURSOR_FILE).unlink(missing_ok=True)
        node.disk.crash_process()
        node.service = None
        node.crashed = True
        self._start_node(node)

    def _reseed(self, node: _SimNode, primary_url: str) -> None:
        """Wipe a diverged follower and stream it fresh from seq 1."""
        # Shed tombstones live only in the WAL of the node that was
        # primary when the shed happened; harvest them before the wipe
        # so the durability oracle keeps exempting acked-then-shed
        # sequences.
        self.shed_harvest |= shed_seqs(_wal_lines(node))
        node.disk.wipe()
        node.inherited, node.inherited_seq = [], 0
        node.snap_store = MemorySnapshotStore()
        (node.data_dir / CURSOR_FILE).unlink(missing_ok=True)
        (node.data_dir / CLUSTER_FILE).unlink(missing_ok=True)
        node.replica_of = primary_url
        node.service = None
        node.crashed = True
        self._start_node(node)

    def _alive(self) -> List[_SimNode]:
        return [
            node for node in self.nodes.values()
            if node.service is not None and not node.crashed
        ]

    def _pump(self) -> None:
        """Advance appliers, replication and the clock (sync-wait driver).

        Ticking the appliers matters: a queued batch is *above* the
        stable frontier until the applier takes it, and followers only
        commit at-or-below the frontier — without ticks the sync wait
        could never be confirmed.
        """
        for node in self._alive():
            node.service.tick_apply()
        for node in self._alive():
            shipper = node.service.shipper
            if shipper is None:
                continue
            try:
                shipper.poll_once()
            except (ReplicationError, OSError):
                pass
        self.clock.advance(0.05)

    def _on_response(self, target: str, method: str, path: str,
                     response) -> None:
        if method != "POST" or not path.startswith("/ingest"):
            return
        try:
            data = json.loads(response.data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return
        if not isinstance(data, dict) or not data.get("accepted"):
            return
        node = self.nodes.get(target)
        if node is None or node.service is None:
            return
        epoch = node.service.cluster.epoch
        self.writes_by_epoch.setdefault(epoch, set()).add(target)

    # -- op execution ----------------------------------------------------------

    def run_op(self, op: dict) -> None:
        kind = op.get("op")
        if kind == "ingest":
            self._op_ingest(op)
        elif kind == "tick":
            node = self.nodes.get(op.get("node"))
            if node is not None and node.service is not None:
                node.service.tick_apply()
        elif kind == "poll":
            node = self.nodes.get(op.get("node"))
            if (
                node is not None
                and node.service is not None
                and node.service.shipper is not None
            ):
                try:
                    node.service.shipper.poll_once()
                except (ReplicationError, OSError):
                    pass
        elif kind == "advance":
            self.clock.advance(max(0.0, float(op.get("seconds", 0.1))))
        elif kind == "crash":
            node = self.nodes.get(op.get("node"))
            if node is not None:
                self._crash_node(
                    node,
                    op.get("mode", "process"),
                    float(op.get("keep_fraction", 0.0)),
                )
        elif kind == "restart":
            node = self.nodes.get(op.get("node"))
            if node is not None and node.crashed:
                self._start_node(node)
        elif kind == "partition":
            if op.get("a") and op.get("b"):
                self.transport.partition(op["a"], op["b"])
        elif kind == "heal":
            if op.get("a") and op.get("b"):
                self.transport.heal(op["a"], op["b"])
            else:
                self.transport.heal()
        elif kind == "disk_full":
            node = self.nodes.get(op.get("node"))
            if node is not None:
                torn = int(op.get("torn", 0))
                node.disk.set_full(True, torn if torn > 0 else None)
                node.snap_store.fail_saves = True
        elif kind == "disk_free":
            node = self.nodes.get(op.get("node"))
            if node is not None:
                node.disk.set_full(False)
                node.snap_store.fail_saves = False
        elif kind == "net":
            self.transport.set_rates(
                drop=float(op.get("drop", 0.0)),
                dup=float(op.get("dup", 0.0)),
                stale=float(op.get("stale", 0.0)),
                delay=float(op.get("delay", 0.0)),
            )
        elif kind == "failover":
            self._op_failover()
        elif kind == "corrupt_snapshot":
            node = self.nodes.get(op.get("node"))
            if node is not None:
                node.snap_store.corrupt_newest(int(op.get("count", 1)))
        # Unknown ops are ignored: executors must be total so the
        # shrinker can cut arbitrary subsets and traces stay replayable
        # across versions.

    def _op_ingest(self, op: dict) -> None:
        feed = op.get("feed", "telescope")
        records = make_records(
            feed, int(op.get("start", 0)), int(op.get("count", 1))
        )
        if feed == "dps":
            path = "/ingest/dps"
        else:
            path = f"/ingest/attacks?feed={feed}"
        # Trace ID derived from the op itself, not a counter: replays
        # and shrunk traces tag the same write with the same ID.
        trace = f"ingest-{feed}-{int(op.get('start', 0))}"
        try:
            response = self.client.request(
                "POST", path, body={"records": records}, trace=trace
            )
        except (ServeClientError, TransportError, OSError):
            # The write never got a 202: it is *allowed* to be lost.
            return
        if response.status != 202:
            return
        accepted = response.body.get("accepted")
        last_seq = response.body.get("last_seq")
        if (
            isinstance(accepted, int) and accepted > 0
            and isinstance(last_seq, int)
        ):
            self.acked.update(range(last_seq - accepted + 1, last_seq + 1))

    def _committed(self, node: _SimNode) -> int:
        service = node.service
        if service is None:
            return -1
        if service.shipper is not None:
            return service.shipper.committed_seq
        return service._seq

    def _op_failover(self) -> None:
        """The failover drill: crash the primary, promote the freshest.

        Crashed followers are restarted *first* so their recovered WALs
        are candidates — under synchronous replication the acked
        frontier is guaranteed to live in some follower's log, and
        committed sequences are a contiguous prefix, so the maximum
        committed follower holds a superset of every confirmed write.

        Like a real runbook, the drill ABORTS rather than promote a
        candidate known to be behind the acknowledged frontier (e.g.
        the only caught-up follower is down and the survivor was
        disk-full while the writes flowed). Early harness versions
        promoted unconditionally and the durability oracle rightly
        flagged the acked-write loss — that is operator-induced data
        loss, not a serve-layer bug, so the runbook gained the same
        freshness gate production failovers use.
        """
        for node in self.nodes.values():
            if node.crashed:
                self._start_node(node)
        candidates = [
            node for node in self._alive()
            if node.service.cluster.role == ROLE_REPLICA
        ]
        if not candidates:
            return
        # Give each candidate one last pull before choosing.
        for node in candidates:
            if node.service.shipper is not None:
                try:
                    node.service.shipper.poll_once()
                except (ReplicationError, OSError):
                    pass
        new = max(candidates, key=lambda n: (self._committed(n), n.name))
        frontier = max(self.acked) if self.acked else 0
        if self._committed(new) < frontier:
            return
        old = self.nodes.get(self.primary_name)
        if old is not None and not old.crashed and old is not new:
            self._crash_node(old, mode="process", keep_fraction=1.0)
        new.service.promote()
        new.replica_of = None
        self.max_epoch = new.service.cluster.epoch
        self.primary_name = new.name
        url = self.transport.url_of(new.name)
        for node in self._alive():
            if node is new:
                continue
            node.service.fence(self.max_epoch, url)
            if node.service.cluster.role == ROLE_REPLICA:
                self._reaim(node, url)

    # -- settle + oracles ------------------------------------------------------

    def settle(self) -> None:
        """Heal everything, converge the cluster, re-seed the diverged."""
        self.transport.set_rates()
        self.transport.heal()
        for node in self.nodes.values():
            node.disk.set_full(False)
            node.snap_store.fail_saves = False
        for node in self.nodes.values():
            if node.crashed:
                self._start_node(node)
        keeper = self._resolve_primary()
        url = self.transport.url_of(keeper.name)
        for node in self._alive():
            if node is keeper:
                continue
            service = node.service
            if service.cluster.role == ROLE_FENCED:
                # Rejoin fenced ex-primaries the way operators do: wipe
                # and re-seed from the keeper (their WAL may hold a
                # diverged suffix). This also puts them back under the
                # digest oracle instead of leaving them exempt forever.
                self._reseed(node, url)
            elif (
                service.cluster.role == ROLE_REPLICA
                and service.cluster.primary_url != url
            ):
                self._reaim(node, url)
        last_committed: Dict[str, int] = {}
        stalls: Dict[str, int] = {}
        converged = False
        for _round in range(_SETTLE_ROUNDS):
            while keeper.service.tick_apply():
                pass
            target = keeper.service._seq
            done = keeper.service.queue.depth == 0
            for node in self._alive():
                if node.service.cluster.role != ROLE_REPLICA:
                    continue
                shipper = node.service.shipper
                if shipper is None:
                    self._reseed(node, url)
                    done = False
                    continue
                try:
                    shipper.poll_once()
                except (ReplicationError, OSError):
                    pass
                committed = shipper.committed_seq
                if committed != last_committed.get(node.name):
                    last_committed[node.name] = committed
                    stalls[node.name] = 0
                else:
                    stalls[node.name] = stalls.get(node.name, 0) + 1
                if committed < target:
                    done = False
                    if stalls[node.name] >= _STALL_ROUNDS:
                        # Diverged (rewound primary, misaligned offsets,
                        # poisoned stream): wipe and stream fresh, from
                        # sequence 1 or from the keeper's snapshot.
                        self._reseed(node, url)
                        last_committed.pop(node.name, None)
                        stalls[node.name] = 0
            self.clock.advance(0.2)
            if done and keeper.service.queue.depth == 0:
                converged = True
                break
        if not converged:
            self.violations.append({
                "oracle": "settle",
                "detail": "cluster failed to converge after settle rounds",
                "committed": {
                    name: self._committed(self.nodes[name])
                    for name in sorted(self.nodes)
                },
                "target": keeper.service._seq,
            })

    def _resolve_primary(self) -> _SimNode:
        primaries = [
            node for node in self._alive()
            if node.service.cluster.role == ROLE_PRIMARY
        ]
        if not primaries:
            candidates = [
                node for node in self._alive()
                if node.service.cluster.role == ROLE_REPLICA
            ] or self._alive()
            keeper = max(
                candidates, key=lambda n: (self._committed(n), n.name)
            )
            keeper.service.promote()
        else:
            keeper = max(
                primaries,
                key=lambda n: (
                    n.service.cluster.epoch, n.service._seq, n.name
                ),
            )
            others = [node for node in primaries if node is not keeper]
            if any(
                node.service.cluster.epoch >= keeper.service.cluster.epoch
                for node in others
            ):
                # An epoch tie means two nodes both believe the same
                # reign: bump the keeper past it so the fence below is
                # unambiguous.
                keeper.service.promote()
            for node in others:
                node.service.fence(
                    keeper.service.cluster.epoch,
                    self.transport.url_of(keeper.name),
                )
        keeper.replica_of = None
        self.primary_name = keeper.name
        self.max_epoch = keeper.service.cluster.epoch
        return keeper

    def check_oracles(self) -> None:
        keeper = self.nodes[self.primary_name]
        records = _history(keeper)
        survived = {record.seq for record in records}
        shed: Set[int] = set(self.shed_harvest)
        for node in self.nodes.values():
            shed |= shed_seqs(_wal_lines(node))
        missing = sorted(self.acked - survived - shed)
        if missing:
            self.violations.append({
                "oracle": "durability",
                "detail": "acked sequences absent from final primary "
                          "history and shed set",
                "missing_count": len(missing),
                "missing": missing[:32],
            })
        c = self.config
        store = LiveFusedStore(
            baseline_days=int(c["baseline_days"]),
            alert_factor=float(c["alert_factor"]),
            max_events_per_victim=int(c["max_events_per_victim"]),
            metrics=MetricsRegistry(),
        )
        for record in records:
            try:
                if record.kind == KIND_ATTACK:
                    store.apply_attack(record.record)
                elif record.kind == KIND_DPS:
                    store.apply_dps(record.record)
            except ValueError:
                # Deterministic apply rejection: the live nodes skipped
                # it too.
                pass
        expected = store.state_digest()
        for node in self._alive():
            if node.service.cluster.role == ROLE_FENCED:
                # A fenced ex-primary may legitimately hold a diverged
                # suffix — that is *why* it is fenced.
                continue
            digest = node.service.store.state_digest()
            if digest != expected:
                self.violations.append({
                    "oracle": "digest",
                    "node": node.name,
                    "digest": digest,
                    "expected": expected,
                })
        for epoch in sorted(self.writes_by_epoch):
            writers = sorted(self.writes_by_epoch[epoch])
            if len(writers) > 1:
                self.violations.append({
                    "oracle": "epoch",
                    "epoch": epoch,
                    "writers": writers,
                })
        for node in self._alive():
            if node.service.cluster.role == ROLE_FENCED:
                continue
            live = node.service.store.state_digest()
            self._crash_node(node, mode="process", keep_fraction=1.0)
            self._start_node(node)
            recovered = node.service.store.state_digest()
            if recovered != live:
                self.violations.append({
                    "oracle": "recovery",
                    "node": node.name,
                    "digest": recovered,
                    "expected": live,
                    "recovery": node.service.recovery.to_dict(),
                })

    def summary(self) -> dict:
        nodes = {}
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if node.service is None or node.crashed:
                nodes[name] = {"crashed": True}
                continue
            service = node.service
            nodes[name] = {
                "role": service.cluster.role,
                "epoch": service.cluster.epoch,
                "seq": service._seq,
                "applied_seq": service.applied_seq,
                "digest": service.store.state_digest(),
            }
        keeper = self.nodes.get(self.primary_name)
        return {
            "acked": len(self.acked),
            "final_primary": self.primary_name,
            "final_epoch": self.max_epoch,
            "final_seq": (
                keeper.service._seq
                if keeper is not None and keeper.service is not None
                else None
            ),
            "nodes": nodes,
            "writes_by_epoch": {
                str(epoch): sorted(writers)
                for epoch, writers in sorted(self.writes_by_epoch.items())
            },
            "network": {
                "exchanges": self.transport.exchanges,
                "faults": dict(sorted(self.transport.faults.items())),
            },
            "sim_time_s": round(self.clock.now(), 3),
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.base_dir, ignore_errors=True)


def execute_ops(seed: int, config: dict,
                ops: List[dict]) -> Tuple[List[dict], dict]:
    """Run one op schedule to completion; returns (violations, summary)."""
    sim = _Sim(seed, config)
    try:
        try:
            for op in ops:
                sim.run_op(op)
            sim.settle()
            sim.check_oracles()
        except Exception as exc:  # noqa: BLE001 — an executor crash IS a finding
            detail = f"{type(exc).__name__}: {exc}".replace(
                str(sim.base_dir), "<tmp>"
            )
            sim.violations.append({"oracle": "exception", "detail": detail})
        try:
            summary = sim.summary()
        except Exception as exc:  # noqa: BLE001 — summary must never mask a run
            summary = {
                "error": f"{type(exc).__name__}: {exc}".replace(
                    str(sim.base_dir), "<tmp>"
                )
            }
        return sim.violations, summary
    finally:
        sim.cleanup()


def run_sim(seed: int, config: Optional[dict] = None) -> dict:
    """Generate and execute one seeded run; returns the full trace."""
    config = config if config is not None else default_spec()
    ops = generate_ops(seed, config)
    violations, summary = execute_ops(seed, config, ops)
    return {
        "version": TRACE_VERSION,
        "seed": seed,
        "config": config,
        "ops": ops,
        "violations": violations,
        "summary": summary,
    }


def run_trace(trace: dict) -> dict:
    """Re-execute a recorded trace's ops verbatim (replay / shrinking)."""
    violations, summary = execute_ops(
        int(trace["seed"]), dict(trace["config"]), list(trace["ops"])
    )
    return {
        "version": TRACE_VERSION,
        "seed": int(trace["seed"]),
        "config": dict(trace["config"]),
        "ops": list(trace["ops"]),
        "violations": violations,
        "summary": summary,
    }


def trace_to_json(trace: dict) -> str:
    """Canonical trace serialization: byte-identical for identical runs."""
    return json.dumps(trace, sort_keys=True, indent=2) + "\n"


__all__ = [
    "TRACE_VERSION",
    "default_spec",
    "execute_ops",
    "generate_ops",
    "make_records",
    "run_sim",
    "run_trace",
    "trace_to_json",
]
