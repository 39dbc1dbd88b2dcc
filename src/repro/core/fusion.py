"""Multi-source data fusion: Table 1, shared targets, joint attacks.

The framework's central correlation primitive: attacks seen by both
infrastructures against the same victim. Targets present in both data sets
are *shared*; pairs of events whose time intervals overlap are *joint
attacks* (e.g. a SYN flood combined with an NTP reflection attack), the
phenomenon Section 4 quantifies at 137 k victims.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.events import (
    AttackDataset,
    AttackEvent,
)
from repro.net.packet import PROTO_TCP, PROTO_UDP


@dataclass(frozen=True)
class JointAttack:
    """A telescope event and a honeypot event overlapping in time."""

    target: int
    telescope_event: AttackEvent
    honeypot_event: AttackEvent


@dataclass
class JointAnalysis:
    """Distribution shifts among jointly attacking events (Section 4)."""

    n_joint_targets: int
    n_shared_targets: int
    single_port_fraction: float
    udp_27015_fraction: float
    tcp_http_fraction: float
    reflection_protocol_shares: Dict[str, float]
    top_asns: List[Tuple[Optional[int], float]]
    top_countries: List[Tuple[str, float]]


class FusedDataset:
    """The combined view over the telescope and honeypot data sets."""

    def __init__(
        self, telescope: AttackDataset, honeypot: AttackDataset
    ) -> None:
        self.telescope = telescope
        self.honeypot = honeypot
        self.combined = AttackDataset.merged(
            telescope, honeypot, label="Combined"
        )

    # -- Table 1 -------------------------------------------------------------

    def summary_rows(self) -> List[dict]:
        return [
            self.telescope.summary(),
            self.honeypot.summary(),
            self.combined.summary(),
        ]

    # -- shared and joint targets ---------------------------------------------

    def shared_targets(self) -> Set[int]:
        """Victims present in both data sets (not necessarily simultaneous)."""
        return self.telescope.unique_targets() & self.honeypot.unique_targets()

    def joint_attacks(self) -> List[JointAttack]:
        """All (telescope, honeypot) event pairs overlapping in time.

        Uses per-target interval lists with binary search so the pairing
        stays near-linear in the event count.
        """
        shared = self.shared_targets()
        by_target: Dict[int, List[AttackEvent]] = defaultdict(list)
        for event in self.honeypot.events:
            if event.target in shared:
                by_target[event.target].append(event)
        # Honeypot events arrive sorted by start_ts from AttackDataset.
        start_keys = {
            target: [e.start_ts for e in events]
            for target, events in by_target.items()
        }
        joints: List[JointAttack] = []
        for tel_event in self.telescope.events:
            candidates = by_target.get(tel_event.target)
            if not candidates:
                continue
            starts = start_keys[tel_event.target]
            # Candidates starting after the telescope event ends cannot
            # overlap; scan backwards from that bound.
            hi = bisect.bisect_right(starts, tel_event.end_ts)
            for hp_event in candidates[:hi]:
                if hp_event.end_ts >= tel_event.start_ts:
                    joints.append(
                        JointAttack(tel_event.target, tel_event, hp_event)
                    )
        return joints

    def joint_targets(self) -> Set[int]:
        """Victims hit simultaneously by both attack types."""
        return {joint.target for joint in self.joint_attacks()}

    # -- Section 4's joint-attack characterization -----------------------------

    def joint_analysis(self, top_n: int = 5) -> JointAnalysis:
        joints = self.joint_attacks()
        joint_targets = {j.target for j in joints}
        tel_events = _dedupe([j.telescope_event for j in joints])
        hp_events = _dedupe([j.honeypot_event for j in joints])

        ported = [e for e in tel_events if e.ports]
        single = [e for e in ported if e.single_port]
        single_fraction = len(single) / len(ported) if ported else 0.0

        single_udp = [e for e in single if e.ip_proto == PROTO_UDP]
        udp_27015 = [e for e in single_udp if e.ports == (27015,)]
        udp_fraction = len(udp_27015) / len(single_udp) if single_udp else 0.0

        single_tcp = [e for e in single if e.ip_proto == PROTO_TCP]
        tcp_http = [e for e in single_tcp if e.ports == (80,)]
        tcp_fraction = len(tcp_http) / len(single_tcp) if single_tcp else 0.0

        proto_counts = Counter(
            e.reflector_protocol for e in hp_events if e.reflector_protocol
        )
        total_hp = sum(proto_counts.values())
        proto_shares = {
            proto: count / total_hp for proto, count in proto_counts.items()
        } if total_hp else {}

        asn_by_target: Dict[int, Optional[int]] = {}
        country_by_target: Dict[int, str] = {}
        for event in tel_events:
            asn_by_target.setdefault(event.target, event.asn)
            country_by_target.setdefault(event.target, event.country)
        asn_counts = Counter(
            asn_by_target.get(target) for target in joint_targets
        )
        country_counts = Counter(
            country_by_target.get(target, "??") for target in joint_targets
        )
        n_joint = max(1, len(joint_targets))
        return JointAnalysis(
            n_joint_targets=len(joint_targets),
            n_shared_targets=len(self.shared_targets()),
            single_port_fraction=single_fraction,
            udp_27015_fraction=udp_fraction,
            tcp_http_fraction=tcp_fraction,
            reflection_protocol_shares=proto_shares,
            top_asns=[
                (asn, count / n_joint)
                for asn, count in asn_counts.most_common(top_n)
            ],
            top_countries=[
                (country, count / n_joint)
                for country, count in country_counts.most_common(top_n)
            ],
        )


def _dedupe(events: Iterable[AttackEvent]) -> List[AttackEvent]:
    """Stable de-duplication of events repeated across joint pairs."""
    seen: Set[int] = set()
    unique: List[AttackEvent] = []
    for event in events:
        key = id(event)
        if key not in seen:
            seen.add(key)
            unique.append(event)
    return unique
