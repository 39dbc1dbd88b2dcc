"""Two-year attack schedule generation.

This module decides *who gets attacked when*: daily attack volumes with
jitter and a mild growth trend, repeat-victimization (the telescope data set
shows ~5 events per target, the honeypot data ~2), country-level targeting
bias (the paper's Table 4 anomalies: Japan under-attacked relative to its
address space, Russia and France — via OVH — over-attacked), joint
direct+reflection attacks against the same victim, and scripted spike days
reproducing the hoster-targeting peaks of Figure 7.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from random import Random
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.attacks.actors import (
    ACTOR_BOOTER,
    ACTOR_BOTNET,
    ACTOR_SKILLED,
    ActorPopulation,
    ActorPopulationConfig,
)
from repro.attacks.attacker import GroundTruthAttack
from repro.attacks.direct import DirectAttackConfig, DirectAttackGenerator
from repro.attacks.reflection import (
    ReflectionAttackConfig,
    ReflectionAttackGenerator,
)
from repro.core.distributions import (
    cumulative_weights,
    poisson,
    weighted_pick,
)
from repro.internet.hosting import HostingEcosystem
from repro.internet.topology import AS_KIND_ISP, InternetTopology
from repro.net.geo import GeoDatabase
from repro.net.packet import PROTO_TCP, PROTO_UDP

DAY = 86400.0

# Target categories.
CAT_WEB_SHARED = "web-shared"
CAT_WEB_SELF = "web-self"
CAT_EYEBALL = "eyeball"
CAT_MAIL = "mail"
CAT_DPS_INFRA = "dps-infra"


@dataclass(frozen=True)
class SpikeEvent:
    """A scripted attack wave against named hosting platforms.

    ``day_fraction`` positions the spike within the window so the same
    storyline scales to any simulated duration. The four defaults mirror the
    peaks the paper investigates in Section 5 (GoDaddy/WordPress,
    Squarespace/OVH/AWS-reseller, GoDaddy/Wix high-intensity, and the
    multi-hoster wave at the end of the window).
    """

    day_fraction: float
    hoster_names: Tuple[str, ...]
    n_attacks: int
    intensity_multiplier: float = 1.0
    joint: bool = False
    min_duration: float = 0.0
    label: str = ""


DEFAULT_SPIKES: Tuple[SpikeEvent, ...] = (
    SpikeEvent(0.016, ("GoDaddy", "Automattic"), 60, 1.5, joint=True,
               label="peak-1 GoDaddy/WordPress"),
    SpikeEvent(0.30, ("Squarespace", "OVH", "AWS reseller"), 45, 1.2,
               label="peak-2 Squarespace/OVH"),
    SpikeEvent(0.84, ("GoDaddy", "Wix", "Squarespace"), 70, 300.0, joint=True,
               min_duration=4.5 * 3600.0, label="peak-3 GoDaddy/Wix intense"),
    SpikeEvent(0.995, ("GoDaddy", "OVH", "Network Solutions", "EIG"), 55, 1.4,
               label="peak-4 multi-hoster"),
)


@dataclass(frozen=True)
class ScheduleConfig:
    """Volume, repetition and bias parameters of the schedule."""

    seed: int = 3
    n_days: int = 120
    direct_per_day: float = 40.0
    reflection_per_day: float = 27.0
    daily_jitter: float = 0.25
    growth: float = 0.35  # relative volume growth start -> end of window
    # Joint attacks: fraction of reflection attacks paired with a
    # simultaneous direct attack on the same victim.
    joint_fraction: float = 0.035
    # In a joint pair, the direct component is single-port more often and
    # biased toward 27015/UDP and HTTP (Section 4).
    joint_single_port: float = 0.771
    joint_udp_27015: float = 0.53
    # Fraction of direct attacks launched without source spoofing (botnets
    # revealing bot addresses). Invisible to both measurement
    # infrastructures — the coverage gap of Section 3.1.3.
    unspoofed_fraction: float = 0.12
    # Repeat victimization (drives events-per-target ratios).
    repeat_prob_direct: float = 0.80
    repeat_prob_reflection: float = 0.50
    cross_repeat_prob: float = 0.03  # reflection re-hits a telescope victim
    hot_pool_size: int = 4000
    # Fresh-target category mix.
    category_weights: Dict[str, float] = field(
        default_factory=lambda: {
            CAT_WEB_SHARED: 13.0,
            CAT_WEB_SELF: 29.0,
            CAT_EYEBALL: 47.0,
            CAT_MAIL: 3.0,
            # DPS scrubbing infrastructure is itself a popular target (the
            # paper found DOSarrest- and CenturyLink-routed IPs attacked);
            # this is also what pulls preexisting customers into the
            # "attack observed" branch of Figure 8.
            CAT_DPS_INFRA: 8.0,
        }
    )
    # Country acceptance multipliers (rejection sampling on fresh targets).
    country_bias: Dict[str, float] = field(
        default_factory=lambda: {"JP": 0.18, "RU": 1.9, "FR": 1.4, "GB": 1.3}
    )
    spikes: Tuple[SpikeEvent, ...] = DEFAULT_SPIKES


class TargetPools:
    """Candidate victim addresses, organized by category."""

    def __init__(
        self,
        web_shared: Sequence[Tuple[int, float]],
        web_self: Sequence[int],
        mail: Sequence[int],
        dps_infra: Sequence[int],
        topology: InternetTopology,
        named_hoster_ips: Dict[str, Sequence[int]],
    ) -> None:
        if not web_shared:
            raise ValueError("web_shared pool must not be empty")
        self.web_shared = list(web_shared)
        self.web_self = list(web_self)
        self.mail = list(mail)
        self.dps_infra = list(dps_infra)
        self.named_hoster_ips = {k: list(v) for k, v in named_hoster_ips.items()}
        self._topology = topology
        self._eyeball_ases = topology.ases_of_kind(AS_KIND_ISP)
        if not self._eyeball_ases:
            raise ValueError("topology has no ISP space for eyeball targets")
        # Space-weighted AS selection: eyeball victims are distributed like
        # address-space usage, which is what makes the per-country rankings
        # track space-usage statistics (paper Section 4).
        self._eyeball_cum_weights = cumulative_weights(
            a.address_count for a in self._eyeball_ases
        )
        self._shared_ips = [ip for ip, _ in self.web_shared]
        self._shared_cum_weights = cumulative_weights(w for _, w in self.web_shared)

    @classmethod
    def build(
        cls,
        topology: InternetTopology,
        ecosystem: HostingEcosystem,
        self_hosted_web_ips: Sequence[int],
        dps_infra_ips: Sequence[int] = (),
    ) -> "TargetPools":
        """Assemble pools from the generated Internet.

        Shared hosting IPs are weighted by their hoster's popularity divided
        by pool size, so attacks land on big platforms' addresses roughly in
        proportion to the Web sites they carry.
        """
        web_shared: List[Tuple[int, float]] = []
        mail: List[int] = []
        named: Dict[str, Sequence[int]] = {}
        for hoster in ecosystem.hosters:
            # Attacks concentrate harder than hosting does: customer
            # placement is Zipf (rank^-1) but attackers aim at the
            # prominent front-end addresses (rank^-2). The tail of each
            # pool therefore hosts sites that are rarely, if ever, attacked
            # — which is what leaves ~a third of the namespace unattacked
            # even over a two-year window (Figure 8's 64 %).
            weights = [w * w for w in hoster.ip_weights()]
            total = sum(weights) or 1.0
            web_shared.extend(
                (ip, hoster.popularity * weight / total)
                for ip, weight in zip(hoster.ips, weights)
            )
            mail.extend(hoster.mail_ips)
            named[hoster.name] = hoster.ips
        return cls(
            web_shared=web_shared,
            web_self=self_hosted_web_ips,
            mail=mail,
            dps_infra=dps_infra_ips,
            topology=topology,
            named_hoster_ips=named,
        )

    def draw(self, category: str, rng: Random) -> int:
        """Draw a target address from one category."""
        if category == CAT_WEB_SHARED:
            return weighted_pick(
                rng, self._shared_ips, self._shared_cum_weights
            )
        if category == CAT_WEB_SELF and self.web_self:
            return rng.choice(self.web_self)
        if category == CAT_MAIL and self.mail:
            return rng.choice(self.mail)
        if category == CAT_DPS_INFRA and self.dps_infra:
            return rng.choice(self.dps_infra)
        autonomous_system = weighted_pick(
            rng, self._eyeball_ases, self._eyeball_cum_weights
        )
        return autonomous_system.random_address(rng)


class AttackSchedule:
    """Generates the full ground-truth attack list for a scenario window."""

    def __init__(
        self,
        pools: TargetPools,
        geo: GeoDatabase,
        config: ScheduleConfig = ScheduleConfig(),
        direct_config: DirectAttackConfig = DirectAttackConfig(),
        reflection_config: ReflectionAttackConfig = ReflectionAttackConfig(),
        actors: Optional[ActorPopulation] = None,
    ) -> None:
        self.pools = pools
        self.config = config
        self.actors = actors if actors is not None else ActorPopulation.generate(
            ActorPopulationConfig(seed=config.seed ^ 0xAC70)
        )
        self._geo = geo
        self._rng = Random(config.seed)
        self._direct = DirectAttackGenerator(
            direct_config, Random(config.seed ^ 0xD1CE)
        )
        self._reflection = ReflectionAttackGenerator(
            reflection_config, Random(config.seed ^ 0x3EF1)
        )
        self._next_id = 1
        self._next_joint = 1
        self._recent_direct: Deque[int] = deque(maxlen=config.hot_pool_size)
        self._recent_reflection: Deque[int] = deque(maxlen=config.hot_pool_size)
        self._categories = list(config.category_weights)
        self._category_cum_weights = cumulative_weights(
            config.category_weights[c] for c in self._categories
        )

    def generate(self) -> List[GroundTruthAttack]:
        """Generate all attacks for the window, sorted by start time."""
        attacks: List[GroundTruthAttack] = []
        spike_days = {
            min(self.config.n_days - 1, int(s.day_fraction * self.config.n_days)): s
            for s in self.config.spikes
        }
        for day in range(self.config.n_days):
            attacks.extend(self._generate_day(day))
            spike = spike_days.get(day)
            if spike is not None:
                attacks.extend(self._generate_spike(day, spike))
        attacks.sort(key=lambda a: a.start)
        return attacks

    # -- daily volume ------------------------------------------------------

    def _daily_volume(self, day: int, base: float) -> int:
        rng, cfg = self._rng, self.config
        trend = 1.0 + cfg.growth * (day / max(1, cfg.n_days - 1))
        jitter = rng.uniform(1.0 - cfg.daily_jitter, 1.0 + cfg.daily_jitter)
        lam = base * trend * jitter
        return poisson(rng, lam)

    def _generate_day(self, day: int) -> List[GroundTruthAttack]:
        rng, cfg = self._rng, self.config
        attacks: List[GroundTruthAttack] = []
        n_reflection = self._daily_volume(day, cfg.reflection_per_day)
        n_direct = self._daily_volume(day, cfg.direct_per_day)

        for _ in range(n_reflection):
            target = self._pick_target(ATTACK_DIRECT_REPEAT_NO)
            start = day * DAY + rng.uniform(0.0, DAY)
            if rng.random() < cfg.joint_fraction:
                attacks.extend(self._generate_joint(target, start))
            else:
                attacks.append(self._make_reflection(target, start))

        for _ in range(n_direct):
            target = self._pick_target(ATTACK_DIRECT_REPEAT_YES)
            start = day * DAY + rng.uniform(0.0, DAY)
            attacks.append(self._make_direct(target, start))
        return attacks

    # -- target selection --------------------------------------------------

    def _pick_target(self, for_direct: bool) -> int:
        """Repeat an earlier victim or draw a fresh, country-biased one."""
        rng, cfg = self._rng, self.config
        if for_direct:
            if self._recent_direct and rng.random() < cfg.repeat_prob_direct:
                return rng.choice(self._recent_direct)
        else:
            if self._recent_reflection and rng.random() < cfg.repeat_prob_reflection:
                return rng.choice(self._recent_reflection)
            if self._recent_direct and rng.random() < cfg.cross_repeat_prob:
                return rng.choice(self._recent_direct)
        for _ in range(64):
            category = weighted_pick(
                rng, self._categories, self._category_cum_weights
            )
            target = self.pools.draw(category, rng)
            bias = cfg.country_bias.get(self._geo.country(target), 1.0)
            if bias >= 1.0 or rng.random() < bias:
                return target
        return target  # bias rejection exhausted; accept the last draw

    # -- attack construction -----------------------------------------------

    def _make_direct(
        self,
        target: int,
        start: float,
        joint_id: Optional[int] = None,
        force_ports: Optional[Tuple[int, ...]] = None,
        force_proto: Optional[int] = None,
    ) -> GroundTruthAttack:
        # Who launches it decides how: skilled attackers run the joint
        # campaigns, botnets flood without spoofing, booters do the rest.
        if joint_id is not None:
            actor = self.actors.draw(ACTOR_SKILLED, self._rng)
        elif self._rng.random() < self.config.unspoofed_fraction:
            actor = self.actors.draw(ACTOR_BOTNET, self._rng)
        else:
            actor = self.actors.draw(ACTOR_BOOTER, self._rng)
        attack = self._direct.generate(
            attack_id=self._take_id(),
            target=target,
            start=start,
            attacker_id=actor.actor_id,
            joint_id=joint_id,
            force_ports=force_ports,
            force_proto=force_proto,
        )
        if actor.kind == ACTOR_BOTNET:
            attack = replace(attack, spoofed=False)
        self._recent_direct.append(target)
        return attack

    def _make_reflection(
        self,
        target: int,
        start: float,
        joint_id: Optional[int] = None,
        force_protocol: Optional[str] = None,
        min_duration: Optional[float] = None,
    ) -> GroundTruthAttack:
        kind = ACTOR_SKILLED if joint_id is not None else ACTOR_BOOTER
        actor = self.actors.draw(kind, self._rng)
        attack = self._reflection.generate(
            attack_id=self._take_id(),
            target=target,
            start=start,
            attacker_id=actor.actor_id,
            joint_id=joint_id,
            force_protocol=force_protocol,
            min_duration=min_duration,
        )
        self._recent_reflection.append(target)
        return attack

    def _generate_joint(
        self, target: int, start: float
    ) -> List[GroundTruthAttack]:
        """A simultaneous direct + reflection pair against one victim.

        Joint attackers favour NTP reflection, single-port floods, the
        27015/UDP game port and HTTP — the distribution shifts the paper
        reports for co-participating attacks.
        """
        rng, cfg = self._rng, self.config
        joint_id = self._next_joint
        self._next_joint += 1
        force_protocol = "NTP" if rng.random() < 0.47 else None
        reflection = self._make_reflection(
            target, start, joint_id=joint_id, force_protocol=force_protocol
        )
        force_ports: Optional[Tuple[int, ...]] = None
        force_proto: Optional[int] = None
        if rng.random() < cfg.joint_single_port:
            # Joint attackers overwhelmingly aim at one specific service.
            if rng.random() < cfg.joint_udp_27015:
                force_ports, force_proto = (27015,), PROTO_UDP
            elif rng.random() < 0.5023:
                force_ports, force_proto = (80,), PROTO_TCP
            else:
                force_ports = (rng.choice((443, 22, 25, 6667, 3306)),)
                force_proto = PROTO_TCP
        offset = rng.uniform(0.0, max(1.0, reflection.duration * 0.5))
        direct = self._make_direct(
            target,
            start + offset,
            joint_id=joint_id,
            force_ports=force_ports,
            force_proto=force_proto,
        )
        return [reflection, direct]

    def _generate_spike(
        self, day: int, spike: SpikeEvent
    ) -> List[GroundTruthAttack]:
        """A scripted wave against named hosters' address space."""
        rng = self._rng
        per_hoster = [
            self.pools.named_hoster_ips[name]
            for name in spike.hoster_names
            if self.pools.named_hoster_ips.get(name)
        ]
        if not per_hoster:
            return []
        attacks: List[GroundTruthAttack] = []
        for index in range(spike.n_attacks):
            # Round-robin across the named hosters so every platform in the
            # storyline is guaranteed to be hit.
            target = rng.choice(per_hoster[index % len(per_hoster)])
            start = day * DAY + rng.uniform(0.0, DAY * 0.8)
            if spike.joint and rng.random() < 0.6:
                wave = self._generate_joint(target, start)
            elif rng.random() < 0.5:
                wave = [
                    self._make_reflection(
                        target,
                        start,
                        force_protocol="NTP",
                        min_duration=spike.min_duration or None,
                    )
                ]
            else:
                wave = [
                    self._make_direct(
                        target, start, force_ports=(80,), force_proto=PROTO_TCP
                    )
                ]
            for attack in wave:
                boosted = replace(
                    attack, rate=attack.rate * spike.intensity_multiplier
                )
                if spike.min_duration and boosted.duration < spike.min_duration:
                    boosted = replace(boosted, duration=spike.min_duration)
                attacks.append(boosted)
        return attacks

    def _take_id(self) -> int:
        attack_id = self._next_id
        self._next_id += 1
        return attack_id


# Readability aliases for _pick_target's boolean parameter.
ATTACK_DIRECT_REPEAT_YES = True
ATTACK_DIRECT_REPEAT_NO = False
