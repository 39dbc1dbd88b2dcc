"""End-to-end simulation: generate the Internet, attack it, measure it.

``run_simulation`` executes the full reproduction pipeline:

1. generate topology, address census, hosting ecosystem, DNS zones;
2. schedule two years of ground-truth attacks;
3. run the behavioural DPS-migration model (mutating DNS timelines);
4. observe the attacks through the telescope (backscatter + RSDoS) and the
   honeypot fleet (request logs + event extraction);
5. compile the OpenINTEL measurement and detect DPS usage from DNS;
6. annotate and fuse the event data sets.

Each step is a standalone stage function here; the one runner,
:class:`repro.pipeline.runner.ResilientPipeline`, chains them and adds
timing, retries, checkpointing and fault injection. ``run_simulation`` is
that runner with its defaults: serial, in memory, fault-free. The
capture functions and :func:`apply_dns_faults` take optional fault
injectors (see :mod:`repro.faults`) that degrade a feed the way the real
lossy infrastructures would.

Step 4 runs one victim partition at a time, so no whole capture is ever
held: :func:`partition_attacks` buckets the attacks by ``target % n``
(``n`` from :func:`partition_count`), :func:`telescope_noise` and
:func:`honeypot_noise` draw each feed's noise once and split it by the
same key, and :func:`telescope_capture` / :func:`honeypot_capture` build
one partition's capture from its attacks and noise slice. Detection
over each partition is merged with :func:`merge_telescope_shards` /
:func:`merge_honeypot_shards`. Flows are keyed on the victim, so the
merged events equal those of the whole capture, which is what the
capture functions build when called without a noise slice.

The result object carries every layer so tests, examples and benchmarks can
reach both ground truth and observations.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator, List, Optional, Tuple

import numpy as np

from repro.attacks.attacker import GroundTruthAttack
from repro.attacks.schedule import AttackSchedule, TargetPools
from repro.core.events import AttackDataset, origin_lookup
from repro.core.fusion import FusedDataset
from repro.core.webmap import WebHostingIndex
from repro.dns.openintel import OpenIntelDataset, OpenIntelPlatform
from repro.dns.nameservers import NameServerDirectory
from repro.dns.zone import Zone, ZoneGenerator
from repro.dps.detection import BGPDiversionLog, DPSDetector, DPSUsageDataset
from repro.dps.migration_sim import MigrationLedger, MigrationSimulator
from repro.dps.providers import DPSProvider, build_providers
from repro.honeypot.amppot import AmpPotFleet
from repro.honeypot.columnar import RequestColumns
from repro.honeypot.detection import (
    AmpPotEvent,
    detect_columns as detect_honeypot_columns,
)
from repro.net.columnar import PacketColumns
from repro.internet.hosting import HostingEcosystem
from repro.internet.population import ActiveAddressCensus
from repro.internet.topology import InternetTopology
from repro.log import get_logger
from repro.pipeline.config import ScenarioConfig
from repro.telescope.backscatter import BackscatterModel
from repro.telescope.darknet import NetworkTelescope, TelescopeNoise
from repro.telescope.rsdos import (
    TelescopeEvent,
    detect_columns as detect_telescope_columns,
)

log = get_logger("simulation")


@dataclass
class SimulationResult:
    """Everything one scenario run produces."""

    config: ScenarioConfig
    topology: InternetTopology
    census: ActiveAddressCensus
    ecosystem: HostingEcosystem
    zones: List[Zone]
    providers: List[DPSProvider]
    ns_directory: NameServerDirectory
    diversion_log: BGPDiversionLog
    ledger: MigrationLedger
    ground_truth: List[GroundTruthAttack]
    telescope_events: List[TelescopeEvent]
    honeypot_events: List[AmpPotEvent]
    fused: FusedDataset
    openintel: OpenIntelDataset
    dps_usage: DPSUsageDataset
    web_index: WebHostingIndex
    # Feed/stage quality report the runner attaches to every result.
    quality: Optional["DataQualityReport"] = None

    @property
    def n_days(self) -> int:
        return self.config.n_days


# -- stage functions ---------------------------------------------------------


@dataclass
class InternetLayer:
    """Stage 1 output: the synthetic Internet every later stage reads."""

    topology: InternetTopology
    census: ActiveAddressCensus
    ecosystem: HostingEcosystem
    zones: List[Zone]
    providers: List[DPSProvider]
    ns_directory: NameServerDirectory
    self_hosted_web_ips: List[int] = field(default_factory=list)


def build_internet(config: ScenarioConfig) -> InternetLayer:
    """Stage 1: topology, census, hosting, zones, providers, name servers."""
    topology = InternetTopology.generate(config.topology_config())
    census = ActiveAddressCensus.from_topology(
        topology, config.active_fraction, config.census_seed()
    )
    ecosystem = HostingEcosystem.generate(topology, config.hosting_config())
    zone_generator = ZoneGenerator(ecosystem, config.zone_config())
    zones = zone_generator.generate()
    providers = build_providers(topology)
    ns_directory = NameServerDirectory.build(ecosystem, providers, topology)
    log.debug(
        "internet generated",
        ases=len(topology.ases),
        zones=len(zones),
        providers=len(providers),
    )
    return InternetLayer(
        topology=topology,
        census=census,
        ecosystem=ecosystem,
        zones=zones,
        providers=providers,
        ns_directory=ns_directory,
        self_hosted_web_ips=zone_generator.self_hosted_web_ips(),
    )


def schedule_attacks(
    config: ScenarioConfig, internet: InternetLayer
) -> List[GroundTruthAttack]:
    """Stage 2: two years of ground-truth attacks against the pools."""
    dps_infra_ips = [
        address
        for provider in internet.providers
        for address in provider.edge_addresses()
    ]
    pools = TargetPools.build(
        internet.topology,
        internet.ecosystem,
        self_hosted_web_ips=internet.self_hosted_web_ips,
        dps_infra_ips=dps_infra_ips,
    )
    # Name servers share the mail/infrastructure target pool: both are
    # non-Web supporting services the paper found under attack.
    pools.mail.extend(internet.ns_directory.addresses())
    schedule = AttackSchedule(
        pools,
        internet.topology.geo,
        config.schedule_config(),
        config.direct_attack_config(),
        config.reflection_attack_config(),
    )
    attacks = schedule.generate()
    log.debug("attacks scheduled", attacks=len(attacks), days=config.n_days)
    return attacks


def run_migration(
    config: ScenarioConfig,
    internet: InternetLayer,
    ground_truth: List[GroundTruthAttack],
) -> Tuple[BGPDiversionLog, MigrationLedger]:
    """Stage 3: behavioural DPS migration (mutates zone timelines)."""
    diversion_log = BGPDiversionLog()
    migration = MigrationSimulator(
        internet.zones,
        internet.providers,
        internet.ecosystem,
        config.migration_config(),
        diversion_log=diversion_log,
    )
    ledger = migration.run(ground_truth, config.n_days)
    return diversion_log, ledger


#: Attacks per victim partition of the telescope and honeypot stages.
#: The pipeline synthesizes and detects one partition at a time, so this
#: bounds the capture held at once: 10 partitions on the default preset,
#: 116 on the paper preset. DESIGN.md section 6 has the peak-RSS sweep
#: that sized it.
ATTACKS_PER_PARTITION = 1024


def partition_count(n_attacks: int) -> int:
    """Victim partitions of an observation stage over *n_attacks*."""
    return max(1, -(-n_attacks // ATTACKS_PER_PARTITION))


def partition_attacks(
    ground_truth: List[GroundTruthAttack], n_partitions: int
) -> List[List[GroundTruthAttack]]:
    """*ground_truth* bucketed in one pass: partition ``k`` holds the
    attacks with ``attack.target % n_partitions == k``."""
    buckets: List[List[GroundTruthAttack]] = [[] for _ in range(n_partitions)]
    for attack in ground_truth:
        buckets[attack.target % n_partitions].append(attack)
    return buckets


def split_partitions(rows, victims: np.ndarray, n_partitions: int) -> list:
    """*rows* (columns whose victim key is *victims*) split into victim
    partitions, each keeping its rows in their original order."""
    key = victims % n_partitions
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(n_partitions + 1))
    grouped = rows.take(order)
    return [
        grouped.take(slice(lo, hi))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def _telescope(config: ScenarioConfig) -> NetworkTelescope:
    noise = (
        TelescopeNoise(config.telescope_noise_config())
        if config.telescope_noise
        else None
    )
    return NetworkTelescope(
        backscatter=BackscatterModel(config.backscatter_config()), noise=noise
    )


def telescope_noise(
    config: ScenarioConfig, n_partitions: int
) -> List[PacketColumns]:
    """The window's telescope noise, drawn once from its one stream and
    split into victim partitions by source address."""
    noise = _telescope(config).noise_columns(config.n_days)
    return split_partitions(noise, noise.src, n_partitions)


def telescope_capture(
    config: ScenarioConfig,
    attacks: List[GroundTruthAttack],
    noise: Optional[PacketColumns] = None,
    fault=None,
) -> PacketColumns:
    """The darknet capture of *attacks* plus *noise* (optionally
    degraded), as columns.

    The runner calls this once per victim partition, with the
    partition's attacks and its slice of :func:`telescope_noise`.
    Without *noise* it is the whole window's capture. Every attack's
    backscatter comes from its own random stream (see
    :mod:`repro.attacks.streams`), so the capture depends on the attack
    set, not on its order. Fault filtering happens here, so injector
    counters mutate in the calling process, never in a supervised fork
    child whose memory is thrown away.
    """
    capture = _telescope(config).capture_columns(
        attacks, n_days=config.n_days, noise=noise
    )
    if fault is not None:
        capture = fault.filter(capture)
    return capture


def detect_telescope_shard(
    config: ScenarioConfig, capture: PacketColumns
) -> List[TelescopeEvent]:
    """RSDoS over a capture.

    Flows are keyed by victim (the backscatter source) and their content
    depends only on that victim's rows, so any victim partition of the
    capture, detected part by part and merged with
    :func:`merge_telescope_shards`, gives the same events.
    """
    return detect_telescope_columns(config.rsdos_config(), capture)


def observe_telescope(
    config: ScenarioConfig,
    ground_truth: List[GroundTruthAttack],
    fault=None,
) -> List[TelescopeEvent]:
    """Stage 4: the darknet capture, optionally degraded, then RSDoS."""
    capture = telescope_capture(config, ground_truth, fault=fault)
    events = merge_telescope_shards([detect_telescope_shard(config, capture)])
    log.debug(
        "telescope observed",
        events=len(events),
        degraded=fault is not None and fault.dropped_batches > 0,
    )
    return events


def merge_telescope_shards(
    shards: List[List[TelescopeEvent]],
) -> List[TelescopeEvent]:
    """Merge per-partition detections into the canonical order:
    ``(start_ts, victim)`` is unique per event."""
    merged = [event for shard in shards for event in shard]
    return sorted(merged, key=lambda e: (e.start_ts, e.victim))


def _fleet_noise_days(config: ScenarioConfig) -> int:
    return config.n_days if config.honeypot_noise else 0


def honeypot_noise(
    config: ScenarioConfig, n_partitions: int
) -> List[RequestColumns]:
    """The window's scanner rows, drawn once from their one stream and
    split into victim partitions."""
    noise = AmpPotFleet(config.fleet_config()).noise_columns(
        _fleet_noise_days(config)
    )
    return split_partitions(noise, noise.victim, n_partitions)


def honeypot_capture(
    config: ScenarioConfig,
    attacks: List[GroundTruthAttack],
    noise: Optional[RequestColumns] = None,
    fault=None,
) -> RequestColumns:
    """The fleet's request log of *attacks* plus *noise* (optionally
    degraded), as columns.

    Like :func:`telescope_capture`: called once per victim partition
    with a slice of :func:`honeypot_noise`, or without *noise* for the
    whole window's log.
    """
    request_log = AmpPotFleet(config.fleet_config()).capture_columns(
        attacks, n_days=_fleet_noise_days(config), noise=noise
    )
    if fault is not None:
        request_log = fault.filter(request_log)
    return request_log


def detect_honeypot_shard(
    config: ScenarioConfig, request_log: RequestColumns
) -> List[AmpPotEvent]:
    """Honeypot event extraction over a request log.

    Flows are keyed by (victim, protocol), so, as for the telescope, any
    victim partition merged with :func:`merge_honeypot_shards` gives the
    same events.
    """
    return detect_honeypot_columns(
        config.honeypot_detection_config(), request_log
    )


def observe_honeypots(
    config: ScenarioConfig,
    ground_truth: List[GroundTruthAttack],
    fault=None,
) -> List[AmpPotEvent]:
    """Stage 4b: the fleet's request log, optionally degraded, then events."""
    request_log = honeypot_capture(config, ground_truth, fault=fault)
    events = merge_honeypot_shards([detect_honeypot_shard(config, request_log)])
    log.debug("honeypots observed", events=len(events))
    return events


def merge_honeypot_shards(
    shards: List[List[AmpPotEvent]],
) -> List[AmpPotEvent]:
    """Merge per-partition detections into the canonical order:
    ``(start_ts, victim, protocol)`` is unique per event."""
    merged = [event for shard in shards for event in shard]
    return sorted(merged, key=lambda e: (e.start_ts, e.victim, e.protocol))


def apply_dns_faults(
    openintel: OpenIntelDataset,
    dps_usage: DPSUsageDataset,
    openintel_fault=None,
    dps_fault=None,
) -> Tuple[OpenIntelDataset, DPSUsageDataset]:
    """Degrade the measurement; the runner calls this in its own process
    so injector counters are not lost in a fork child."""
    if openintel_fault is not None:
        openintel = openintel_fault.degrade(openintel)
    if dps_fault is not None:
        dps_usage = dps_fault.corrupt(dps_usage)
    return openintel, dps_usage


#: A stage's layer hook: ``layer(name)`` is a context manager around
#: one named piece of the stage, yielding a setter for its input row
#: count. The runner's hook profiles and traces each piece.
LayerHook = Callable[[str], ContextManager[Callable[[int], None]]]


@contextmanager
def untimed(layer: str) -> Iterator[Callable[[int], None]]:
    """The default layer hook: records nothing."""
    yield lambda rows: None


def measure_dns(
    config: ScenarioConfig,
    internet: InternetLayer,
    diversion_log: BGPDiversionLog,
    layer: LayerHook = untimed,
) -> Tuple[OpenIntelDataset, DPSUsageDataset]:
    """Stage 5: daily DNS measurement (layer ``crawl``) and
    DPS-signature detection (``classify``), fault-free;
    :func:`apply_dns_faults` degrades the result."""
    n_domains = sum(len(zone.domains) for zone in internet.zones)
    with layer("crawl") as set_rows:
        set_rows(n_domains)
        platform = OpenIntelPlatform(internet.zones, config.n_days)
        openintel = platform.measure(ns_directory=internet.ns_directory)
    with layer("classify") as set_rows:
        set_rows(n_domains)
        detector = DPSDetector(internet.providers, diversion_log=diversion_log)
        dps_usage = detector.scan(internet.zones, config.n_days)
    return openintel, dps_usage


def fuse_observations(
    internet: InternetLayer,
    telescope_events: List[TelescopeEvent],
    honeypot_events: List[AmpPotEvent],
    openintel: OpenIntelDataset,
    layer: LayerHook = untimed,
) -> Tuple[FusedDataset, WebHostingIndex]:
    """Stage 6: build each feed's annotated data set (layer
    ``annotate``), fuse them (``fuse``) and index the Web hosting
    intervals (``index``).

    Every detected event becomes one :class:`AttackEvent`, built with
    its victim's country and origin AS already attached; the origins
    are looked up once per victim across both feeds. Each feed is
    sorted once, so the data sets equal
    ``AttackDataset.from_*_events(...).annotated(geo, routing)``.
    """
    topology = internet.topology
    with layer("annotate") as set_rows:
        set_rows(len(telescope_events) + len(honeypot_events))
        origin = origin_lookup(topology.geo, topology.routing)
        telescope_dataset = AttackDataset.from_telescope_events(
            telescope_events, origin=origin
        )
        honeypot_dataset = AttackDataset.from_honeypot_events(
            honeypot_events, origin=origin
        )
    with layer("fuse") as set_rows:
        set_rows(len(telescope_dataset) + len(honeypot_dataset))
        fused = FusedDataset(telescope_dataset, honeypot_dataset)
    with layer("index") as set_rows:
        set_rows(len(openintel.hosting_intervals))
        web_index = WebHostingIndex(openintel.hosting_intervals)
    return fused, web_index


def run_simulation(config: ScenarioConfig = ScenarioConfig()) -> SimulationResult:
    """Run the full pipeline for one scenario: serial, in memory, fault-free."""
    from repro.pipeline.runner import ResilientPipeline  # imports this module

    return ResilientPipeline(config).run()
