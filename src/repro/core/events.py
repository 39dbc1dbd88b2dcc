"""Unified attack-event model and per-source data sets.

Telescope and honeypot detections have different native schemas and
intensity semantics (max backscatter pps vs. average per-reflector request
rate). The fusion framework lifts both into :class:`AttackEvent`, keeping
the source tag so intensity normalization and per-source statistics remain
well-defined, and annotates events with geolocation and origin-AS metadata
the way the paper does with NetAcuity and Routeviews.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.net.addressing import slash16, slash24
from repro.net.geo import GeoDatabase, UNKNOWN_COUNTRY
from repro.net.routing import RoutingTable

if TYPE_CHECKING:
    from repro.honeypot.detection import AmpPotEvent
    from repro.telescope.rsdos import TelescopeEvent

SOURCE_TELESCOPE = "telescope"
SOURCE_HONEYPOT = "honeypot"

DAY = 86400.0

#: Version of the serialized AttackEvent record schema (JSONL feeds).
EVENT_SCHEMA_VERSION = 1

#: A target's country and origin AS, as annotation attaches them.
Origin = Tuple[str, Optional[int]]

#: The origin of an event that is not annotated.
NO_ORIGIN: Origin = (UNKNOWN_COUNTRY, None)

MAX_IPV4 = 2**32 - 1
MAX_PORT = 65535

#: Required serialized fields and their accepted types. Booleans are
#: excluded from the numeric fields: JSON ``true`` is not a timestamp.
_REQUIRED_FIELDS = (
    ("source", str),
    ("target", int),
    ("start_ts", (int, float)),
    ("end_ts", (int, float)),
    ("intensity", (int, float)),
)


def validate_event_dict(data) -> Optional[str]:
    """Validate one deserialized record against the AttackEvent schema.

    Returns ``None`` for a valid record, else a stable reason code
    (``missing-field:target``, ``out-of-range:start_ts``, ...) suitable
    for quarantine accounting. Validation is untrusted-input hardening:
    it never raises, whatever shape *data* has.
    """
    if not isinstance(data, dict):
        return "not-an-object"
    for name, types in _REQUIRED_FIELDS:
        if name not in data:
            return f"missing-field:{name}"
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, types):
            return f"bad-type:{name}"
    if data["source"] not in (SOURCE_TELESCOPE, SOURCE_HONEYPOT):
        return "unknown-source"
    if not 0 <= data["target"] <= MAX_IPV4:
        return "out-of-range:target"
    if data["start_ts"] < 0:
        return "out-of-range:start_ts"
    if data["end_ts"] < data["start_ts"]:
        return "out-of-range:end_ts"
    if data["intensity"] < 0:
        return "out-of-range:intensity"
    ports = data.get("ports", ())
    if not isinstance(ports, (list, tuple)):
        return "bad-type:ports"
    for port in ports:
        if isinstance(port, bool) or not isinstance(port, int):
            return "bad-type:ports"
        if not 0 <= port <= MAX_PORT:
            return "out-of-range:ports"
    if "ip_proto" in data:
        value = data["ip_proto"]
        if isinstance(value, bool) or not isinstance(value, int):
            return "bad-type:ip_proto"
        if not 0 <= value <= 255:
            return "out-of-range:ip_proto"
    if "packets" in data:
        value = data["packets"]
        if isinstance(value, bool) or not isinstance(value, int):
            return "bad-type:packets"
        if value < 0:
            return "out-of-range:packets"
    if "reflector_protocol" in data:
        value = data["reflector_protocol"]
        if value is not None and not isinstance(value, str):
            return "bad-type:reflector_protocol"
    if "country" in data and not isinstance(data["country"], str):
        return "bad-type:country"
    if "asn" in data:
        value = data["asn"]
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            return "bad-type:asn"
    return None


@dataclass(frozen=True)
class AttackEvent:
    """One attack event in the unified schema."""

    source: str
    target: int
    start_ts: float
    end_ts: float
    intensity: float
    ip_proto: int = 0
    ports: Tuple[int, ...] = ()
    reflector_protocol: Optional[str] = None
    packets: int = 0
    country: str = UNKNOWN_COUNTRY
    asn: Optional[int] = None

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_TELESCOPE, SOURCE_HONEYPOT):
            raise ValueError(f"unknown event source: {self.source!r}")
        if self.end_ts < self.start_ts:
            raise ValueError("event ends before it starts")

    @property
    def duration(self) -> float:
        return self.end_ts - self.start_ts

    @property
    def start_day(self) -> int:
        """Day index the attack started on; multi-day attacks count here."""
        return int(self.start_ts // DAY)

    @property
    def single_port(self) -> bool:
        return len(self.ports) <= 1

    def overlaps(self, other: "AttackEvent") -> bool:
        return self.start_ts <= other.end_ts and other.start_ts <= self.end_ts

    @classmethod
    def from_telescope(
        cls, event: TelescopeEvent, origin: Origin = NO_ORIGIN
    ) -> "AttackEvent":
        """A telescope detection in the unified schema, with *origin*
        (its victim's country and origin AS) attached."""
        country, asn = origin
        return cls(
            source=SOURCE_TELESCOPE,
            target=event.victim,
            start_ts=event.start_ts,
            end_ts=event.end_ts,
            intensity=event.max_pps,
            ip_proto=event.ip_proto,
            ports=event.ports,
            packets=event.packets,
            country=country,
            asn=asn,
        )

    @classmethod
    def from_honeypot(
        cls, event: AmpPotEvent, origin: Origin = NO_ORIGIN
    ) -> "AttackEvent":
        """A honeypot detection in the unified schema, with *origin*
        (its victim's country and origin AS) attached."""
        country, asn = origin
        return cls(
            source=SOURCE_HONEYPOT,
            target=event.victim,
            start_ts=event.start_ts,
            end_ts=event.end_ts,
            intensity=event.avg_rps,
            reflector_protocol=event.protocol,
            packets=event.requests,
            country=country,
            asn=asn,
        )

    def annotated(
        self, geo: GeoDatabase, routing: RoutingTable
    ) -> "AttackEvent":
        """Copy with country and origin-AS metadata attached."""
        return self.with_origin(
            geo.country(self.target), routing.origin_asn(self.target)
        )

    def with_origin(self, country: str, asn: Optional[int]) -> "AttackEvent":
        """Copy with the given country and origin AS."""
        return AttackEvent(
            self.source,
            self.target,
            self.start_ts,
            self.end_ts,
            self.intensity,
            self.ip_proto,
            self.ports,
            self.reflector_protocol,
            self.packets,
            country,
            asn,
        )


# The JSON record codec of the schema: JSONL feeds, the serve WAL and its
# snapshots all encode events with it.
def event_to_dict(event: AttackEvent) -> dict:
    return {
        "source": event.source,
        "target": event.target,
        "start_ts": event.start_ts,
        "end_ts": event.end_ts,
        "intensity": event.intensity,
        "ip_proto": event.ip_proto,
        "ports": list(event.ports),
        "reflector_protocol": event.reflector_protocol,
        "packets": event.packets,
        "country": event.country,
        "asn": event.asn,
    }


def event_from_dict(data: dict) -> AttackEvent:
    return AttackEvent(
        source=data["source"],
        target=data["target"],
        start_ts=data["start_ts"],
        end_ts=data["end_ts"],
        intensity=data["intensity"],
        ip_proto=data.get("ip_proto", 0),
        ports=tuple(data.get("ports", ())),
        reflector_protocol=data.get("reflector_protocol"),
        packets=data.get("packets", 0),
        country=data.get("country", "??"),
        asn=data.get("asn"),
    )


#: The canonical order of a data set's events: ``(start_ts, target)``.
event_order = operator.attrgetter("start_ts", "target")


def origin_lookup(
    geo: GeoDatabase,
    routing: RoutingTable,
    origins: Optional[Dict[int, Origin]] = None,
) -> Callable[[int], Origin]:
    """A target's :data:`Origin`, looked up once per distinct target in
    *origins* (target -> origin), which callers annotating several data
    sets over one geo database and routing table share."""
    known: Dict[int, Origin] = {} if origins is None else origins

    def origin(target: int) -> Origin:
        found = known.get(target)
        if found is None:
            found = known[target] = (
                geo.country(target),
                routing.origin_asn(target),
            )
        return found

    return origin


class AttackDataset:
    """An ordered collection of events from one source (or combined)."""

    def __init__(self, events: Iterable[AttackEvent], label: str = "") -> None:
        self.events: List[AttackEvent] = sorted(events, key=event_order)
        self.label = label

    @classmethod
    def _in_order(
        cls, events: List[AttackEvent], label: str
    ) -> "AttackDataset":
        """A data set over *events*, already in :func:`event_order`."""
        dataset = cls.__new__(cls)
        dataset.events = events
        dataset.label = label
        return dataset

    @classmethod
    def merged(
        cls, first: "AttackDataset", second: "AttackDataset", label: str = ""
    ) -> "AttackDataset":
        """The data set of both sets' events: one merge of the two sorted
        lists, *first*'s event ahead on a tie, which is the order sorting
        their concatenation gives."""
        return cls._in_order(
            list(heapq.merge(first.events, second.events, key=event_order)),
            label,
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def unique_targets(self) -> Set[int]:
        return {event.target for event in self.events}

    def unique_slash24s(self) -> Set[int]:
        return {slash24(event.target) for event in self.events}

    def unique_slash16s(self) -> Set[int]:
        return {slash16(event.target) for event in self.events}

    def unique_asns(self) -> Set[int]:
        return {
            event.asn for event in self.events if event.asn is not None
        }

    def summary(self) -> dict:
        """One row of Table 1."""
        return {
            "source": self.label,
            "events": len(self.events),
            "targets": len(self.unique_targets()),
            "slash24s": len(self.unique_slash24s()),
            "slash16s": len(self.unique_slash16s()),
            "asns": len(self.unique_asns()),
        }

    def annotated(
        self,
        geo: GeoDatabase,
        routing: RoutingTable,
        origins: Optional[Dict[int, Tuple[str, Optional[int]]]] = None,
    ) -> "AttackDataset":
        """Copy with country and origin-AS metadata on every event.

        The metadata is a function of the target alone, so it is looked
        up once per distinct victim (:func:`origin_lookup` over
        *origins*); the order is unchanged, so the copy is not sorted
        again.
        """
        origin = origin_lookup(geo, routing, origins)
        return AttackDataset._in_order(
            [event.with_origin(*origin(event.target)) for event in self.events],
            self.label,
        )

    def filter(self, predicate) -> "AttackDataset":
        return AttackDataset(
            (event for event in self.events if predicate(event)),
            label=self.label,
        )

    def events_per_target(self) -> float:
        """Mean number of events per unique target (repeat victimization)."""
        targets = self.unique_targets()
        if not targets:
            return 0.0
        return len(self.events) / len(targets)

    @classmethod
    def from_telescope_events(
        cls,
        events: Iterable[TelescopeEvent],
        label: str = "Network Telescope",
        origin: Callable[[int], Origin] = lambda target: NO_ORIGIN,
    ) -> "AttackDataset":
        """The telescope's data set, every event built with its victim's
        *origin* (an :func:`origin_lookup` annotates)."""
        return cls(
            (AttackEvent.from_telescope(e, origin(e.victim)) for e in events),
            label,
        )

    @classmethod
    def from_honeypot_events(
        cls,
        events: Iterable[AmpPotEvent],
        label: str = "Amplification Honeypot",
        origin: Callable[[int], Origin] = lambda target: NO_ORIGIN,
    ) -> "AttackDataset":
        """The honeypot's data set, every event built with its victim's
        *origin* (an :func:`origin_lookup` annotates)."""
        return cls(
            (AttackEvent.from_honeypot(e, origin(e.victim)) for e in events),
            label,
        )
