"""Behavioural model of DPS adoption.

This simulator edits domain hosting timelines so that protection adoption
has the causal structure the paper measures:

* **Preexisting customers** — a tier-dependent fraction of domains is
  protected from registration; big shared platforms (which attract attacks)
  adopt at higher rates, which is why the paper finds 18.6 % preexisting
  customers among attacked sites versus 0.89 % among unattacked ones.
* **Post-attack migration** — each ground-truth attack on a domain's
  current address may trigger migration. The *probability* rises mildly
  with intensity; the *delay* shrinks sharply with intensity (Figure 10's
  urgency effect). Repetition has no direct effect — and because a migrated
  domain stops resolving to its attacked origin, migrating sites naturally
  accumulate fewer attacks (Figure 9's counter-intuitive CDF).
* **Hoster storylines** — platform-level migrations that move every hosted
  site at once, reproducing the paper's Wix-to-Incapsula (one day after a
  ≥4 h attack) and eNom-to-Verisign (101 days) anecdotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.attacker import ATTACK_DIRECT, GroundTruthAttack
from repro.dns.records import DomainTimeline, HostingState
from repro.dns.zone import Zone
from repro.dps.detection import BGPDiversionLog
from repro.dps.providers import (
    DPSProvider,
    METHOD_BGP,
    choose_provider,
    provider_by_name,
    provider_cum_weights,
)
from repro.internet.hosting import (
    HostingEcosystem,
    TIER_GIANT,
    TIER_LARGE,
    TIER_MEDIUM,
    TIER_SELF,
    TIER_SMALL,
)
from repro.net.addressing import Prefix, slash24

DAY = 86400.0

#: A Web domain and its ``www`` name, computed once per run.
WebDomain = Tuple[DomainTimeline, str]


@dataclass(frozen=True)
class HosterStoryline:
    """A scripted platform-level migration.

    The trigger is the first attack meeting *both* thresholds; the Wix
    storyline requires the long, high-intensity wave (the paper's
    November 2016 peak), not just any four-hour attack.
    """

    hoster_name: str
    provider_name: str
    delay_days: int
    min_trigger_duration: float = 0.0  # e.g. 4 h for the Wix storyline
    min_trigger_rate: float = 0.0  # e.g. spike-level rates only
    label: str = ""


DEFAULT_STORYLINES: Tuple[HosterStoryline, ...] = (
    HosterStoryline(
        "Wix", "Incapsula", 1, 4 * 3600.0, 20_000.0, "Wix -> Incapsula"
    ),
    HosterStoryline("eNom", "Verisign", 101, 0.0, 0.0, "eNom -> Verisign"),
)


@dataclass(frozen=True)
class MigrationConfig:
    """Behavioural parameters."""

    seed: int = 8
    preexisting_by_tier: Dict[str, float] = field(
        default_factory=lambda: {
            TIER_GIANT: 0.15,
            TIER_LARGE: 0.11,
            TIER_MEDIUM: 0.07,
            TIER_SMALL: 0.045,
            TIER_SELF: 0.004,
        }
    )
    # Per-attack migration probabilities.
    migrate_prob_self_hosted: float = 0.015
    migrate_prob_shared: float = 0.0018
    # A site owner seriously considers outsourcing protection only the
    # first few times they are hit; after that they have visibly decided to
    # ride attacks out. This hardening is what keeps attack *repetition*
    # from driving migration (Figure 9).
    max_migration_trials: int = 4
    # Probability scales exponentially with standardized intensity: intense
    # attacks are what actually push owners to buy protection, which in turn
    # makes the *observed* top-intensity classes migrate fastest (Fig. 10).
    intensity_prob_slope: float = 1.1
    intensity_prob_cap: float = 8.0
    # Background DPS adoption unrelated to (observed) attacks — the paper's
    # "no attack observed / migrating" branch (3.32 %). Shared-hosting
    # customers adopt independently far less often (their platform decides).
    ambient_migration_prob: float = 0.06
    ambient_shared_factor: float = 0.35
    # Delay model: log-normal days, shifted down by standardized intensity.
    delay_mu: float = math.log(12.0)
    delay_sigma: float = 1.0
    delay_intensity_slope: float = 0.95
    straggler_probability: float = 0.15
    straggler_multiplier: Tuple[float, float] = (3.0, 9.0)
    max_delay_days: int = 180
    # Standardization of ground-truth rates (matches generator defaults).
    direct_rate_mu: float = math.log(256.0)
    direct_rate_sigma: float = 2.6
    reflection_rate_mu: float = math.log(77.0)
    reflection_rate_sigma: float = 1.8
    storylines: Tuple[HosterStoryline, ...] = DEFAULT_STORYLINES


@dataclass(frozen=True)
class MigrationRecord:
    """Ground truth of one migration decision (for validation)."""

    domain: str
    migration_day: int
    provider: str
    trigger_attack_id: Optional[int]
    trigger_day: Optional[int]
    delay_days: int
    storyline: Optional[str] = None


@dataclass
class MigrationLedger:
    """All behavioural outcomes of the simulation."""

    preexisting: List[Tuple[str, str]] = field(default_factory=list)
    migrations: List[MigrationRecord] = field(default_factory=list)


class MigrationSimulator:
    """Applies the behavioural model to zones, in place."""

    def __init__(
        self,
        zones: Sequence[Zone],
        providers: Sequence[DPSProvider],
        ecosystem: HostingEcosystem,
        config: MigrationConfig = MigrationConfig(),
        diversion_log: Optional[BGPDiversionLog] = None,
    ) -> None:
        self.zones = list(zones)
        self.providers = list(providers)
        self._provider_cum_weights = provider_cum_weights(self.providers)
        self.ecosystem = ecosystem
        self.config = config
        self.diversion_log = diversion_log if diversion_log is not None else BGPDiversionLog()
        self._rng = Random(config.seed)
        self._ledger = MigrationLedger()
        # domain name -> scheduled (day, provider, record); blocks re-migration.
        self._scheduled: Dict[str, Tuple[int, DPSProvider, MigrationRecord]] = {}
        # Every Web domain with its www name, built once per run.
        self._web: List[WebDomain] = []

    def run(
        self, attacks: Sequence[GroundTruthAttack], n_days: int
    ) -> MigrationLedger:
        """Assign preexisting customers, react to attacks, apply timelines."""
        self._web = [
            (domain, domain.www_name)
            for zone in self.zones
            for domain in zone.domains
            if domain.has_www
        ]
        self._assign_preexisting()
        index = self._build_ip_index()
        ordered = sorted(attacks, key=lambda a: a.start)
        self._apply_storylines(ordered, index, n_days)
        self._react_to_attacks(ordered, index, n_days)
        self._ambient_adoption(n_days)
        self._apply_scheduled()
        return self._ledger

    # -- ambient adoption -----------------------------------------------------

    def _ambient_adoption(self, n_days: int) -> None:
        """Background DPS uptake not driven by any attack we generated.

        In the real data some "no attack observed" sites still migrate
        (3.32 %) — they react to attacks outside the observation window or
        adopt protection proactively. Attack-triggered decisions already
        made take precedence (``_scheduled`` wins on conflict).
        """
        rng, cfg = self._rng, self.config
        if cfg.ambient_migration_prob <= 0:
            return
        for domain, name in self._web:
            if name in self._scheduled:
                continue
            state = domain.states()[0]
            if state.dps_provider is not None:
                continue
            probability = cfg.ambient_migration_prob
            if state.hoster is not None:
                probability *= cfg.ambient_shared_factor
            if rng.random() >= probability:
                continue
            first_possible = max(1, domain.registered_day + 1)
            if first_possible >= n_days:
                continue
            day = rng.randrange(first_possible, n_days)
            provider = self._choose_provider_for(state)
            record = MigrationRecord(
                domain=name,
                migration_day=day,
                provider=provider.name,
                trigger_attack_id=None,
                trigger_day=None,
                delay_days=0,
                storyline="ambient",
            )
            self._scheduled[name] = (day, provider, record)

    # -- preexisting customers ----------------------------------------------

    def _assign_preexisting(self) -> None:
        rng, cfg = self._rng, self.config
        # Adoption probability by hoster name; self-hosted domains, and
        # any hoster the ecosystem does not know, adopt at TIER_SELF's.
        self_hosted = cfg.preexisting_by_tier.get(TIER_SELF, 0.0)
        by_hoster = {
            hoster.name: cfg.preexisting_by_tier.get(hoster.tier, 0.0)
            for hoster in self.ecosystem.hosters
        }
        for domain, name in self._web:
            state = domain.states()[0]
            if rng.random() >= by_hoster.get(state.hoster, self_hosted):
                continue
            # _choose_provider_for keeps BGP providers away from
            # shared-hosting customers: diverting a shared /24 would
            # otherwise "protect" every co-hosted site at once.
            provider = self._choose_provider_for(state)
            protected = self._protected_state(domain, state, provider, day=domain.registered_day)
            domain.set_state(domain.registered_day, protected)
            self._ledger.preexisting.append((name, provider.name))

    # -- per-attack migration -----------------------------------------------

    def _react_to_attacks(
        self,
        attacks: Sequence[GroundTruthAttack],
        index: Dict[int, List[WebDomain]],
        n_days: int,
    ) -> None:
        """Each attack on a domain's origin IP may schedule its migration.

        *index* holds each IP's live domains, the only ones an attack can
        still act on; it is pruned in place as domains settle. A domain
        settles once it is scheduled, has used ``max_migration_trials``,
        or is protected by the last segment of its timeline. Timelines do
        not change in this loop and *attacks* arrive sorted by start, so
        a settled domain would be skipped by every later attack too, and
        skipped domains draw nothing from the RNG: pruning leaves the
        ``Random`` sequence, and so every decision, unchanged. A domain
        not registered yet on the attack day stays live.
        """
        rng, cfg = self._rng, self.config
        scheduled = self._scheduled
        max_trials = cfg.max_migration_trials
        trials: Dict[str, int] = {}
        for attack in attacks:
            live = index.get(attack.target)
            if not live:
                continue
            day = int(attack.start // DAY)
            z = self._standardized_intensity(attack)
            prob_scale = min(
                cfg.intensity_prob_cap,
                math.exp(cfg.intensity_prob_slope * max(0.0, z)),
            )
            p_self_hosted = min(0.9, cfg.migrate_prob_self_hosted * prob_scale)
            p_shared = min(0.9, cfg.migrate_prob_shared * prob_scale)
            still_live: List[WebDomain] = []
            for entry in live:
                domain, name = entry
                if name in scheduled:
                    continue
                tried = trials.get(name, 0)
                if tried >= max_trials:
                    continue
                if day < domain.registered_day:
                    still_live.append(entry)
                    continue
                state = domain.state_on(day)
                if state is None:
                    still_live.append(entry)
                    continue
                if state.dps_provider is not None:
                    if day < domain.change_days()[-1]:
                        # Protected only until a later segment starts.
                        still_live.append(entry)
                    continue
                tried += 1
                trials[name] = tried
                if rng.random() < (
                    p_self_hosted if state.hoster is None else p_shared
                ):
                    delay = self._draw_delay(z)
                    migration_day = day + delay
                    if migration_day < n_days:
                        provider = self._choose_provider_for(state)
                        scheduled[name] = (
                            migration_day,
                            provider,
                            MigrationRecord(
                                domain=name,
                                migration_day=migration_day,
                                provider=provider.name,
                                trigger_attack_id=attack.attack_id,
                                trigger_day=day,
                                delay_days=delay,
                            ),
                        )
                        continue
                if tried < max_trials:
                    still_live.append(entry)
            index[attack.target] = still_live

    def _standardized_intensity(self, attack: GroundTruthAttack) -> float:
        cfg = self.config
        if attack.kind == ATTACK_DIRECT:
            return (math.log(attack.rate) - cfg.direct_rate_mu) / cfg.direct_rate_sigma
        return (
            math.log(attack.rate) - cfg.reflection_rate_mu
        ) / cfg.reflection_rate_sigma

    def _draw_delay(self, z: float) -> int:
        rng, cfg = self._rng, self.config
        mu = cfg.delay_mu - cfg.delay_intensity_slope * z
        delay = rng.lognormvariate(mu, cfg.delay_sigma)
        if rng.random() < cfg.straggler_probability:
            delay *= rng.uniform(*cfg.straggler_multiplier)
        return max(1, min(cfg.max_delay_days, int(round(delay))))

    def _choose_provider_for(self, state: HostingState) -> DPSProvider:
        """Shared-hosting customers cannot use BGP diversion (no prefix of
        their own), so re-draw until a DNS-method provider comes up."""
        provider = choose_provider(
            self.providers, self._rng, self._provider_cum_weights
        )
        if state.hoster is not None:
            while provider.method == METHOD_BGP:
                provider = choose_provider(
                    self.providers, self._rng, self._provider_cum_weights
                )
        return provider

    # -- storylines -----------------------------------------------------------

    def _apply_storylines(
        self,
        attacks: Sequence[GroundTruthAttack],
        index: Dict[int, List[WebDomain]],
        n_days: int,
    ) -> None:
        for storyline in self.config.storylines:
            hoster = self.ecosystem.hoster_by_name(storyline.hoster_name)
            provider = provider_by_name(self.providers, storyline.provider_name)
            if hoster is None or provider is None:
                continue
            hoster_ips = set(hoster.ips)
            trigger = next(
                (
                    a
                    for a in attacks
                    if a.target in hoster_ips
                    and a.duration >= storyline.min_trigger_duration
                    and a.rate >= storyline.min_trigger_rate
                ),
                None,
            )
            if trigger is None:
                continue
            trigger_day = int(trigger.start // DAY)
            migration_day = trigger_day + storyline.delay_days
            if migration_day >= n_days:
                continue
            for ip in hoster_ips:
                for domain, name in index.get(ip, ()):  # all platform customers
                    if name in self._scheduled:
                        continue
                    state = domain.state_on(trigger_day)
                    if state is None or state.dps_provider is not None:
                        continue
                    record = MigrationRecord(
                        domain=name,
                        migration_day=migration_day,
                        provider=provider.name,
                        trigger_attack_id=trigger.attack_id,
                        trigger_day=trigger_day,
                        delay_days=storyline.delay_days,
                        storyline=storyline.label,
                    )
                    self._scheduled[name] = (
                        migration_day,
                        provider,
                        record,
                    )

    # -- apply ---------------------------------------------------------------

    def _apply_scheduled(self) -> None:
        by_name = {name: domain for domain, name in self._web}
        for www_name, (day, provider, record) in sorted(self._scheduled.items()):
            domain = by_name[www_name]
            state = domain.state_on(day)
            if state is None:
                state = domain.states()[-1]
            protected = self._protected_state(domain, state, provider, day)
            domain.set_state(day, protected)
            self._ledger.migrations.append(record)

    def _protected_state(
        self,
        domain: DomainTimeline,
        state: HostingState,
        provider: DPSProvider,
        day: int,
    ) -> HostingState:
        """The DNS configuration after onboarding with *provider*."""
        if provider.method == METHOD_BGP:
            # The provider announces the customer's /24; records unchanged.
            self.diversion_log.divert(
                Prefix(slash24(state.ip), 24), provider.name, day
            )
            return HostingState(
                ip=state.ip,
                hoster=state.hoster,
                cname=state.cname,
                ns=state.ns,
                mx_ip=state.mx_ip,
                dps_provider=provider.name,
            )
        edge_ip = provider.edge_address(self._rng)
        cname = provider.protection_cname(domain.name)
        ns = provider.protection_ns() or state.ns
        return HostingState(
            ip=edge_ip,
            hoster=state.hoster,
            cname=cname,
            ns=ns,
            mx_ip=state.mx_ip,
            dps_provider=provider.name,
        )

    # -- helpers ---------------------------------------------------------------

    def _build_ip_index(self) -> Dict[int, List[WebDomain]]:
        """Initial-state IP -> domains (decisions react to origin attacks)."""
        index: Dict[int, List[WebDomain]] = {}
        for entry in self._web:
            index.setdefault(entry[0].states()[0].ip, []).append(entry)
        return index
