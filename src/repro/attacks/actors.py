"""The attacker population: booters, botnets, and skilled attackers.

The paper's introduction attributes the explosion of DoS to the
DoS-as-a-Service phenomenon (booters), and Section 4 infers a class of
"serious attackers" who combine randomly spoofed and reflection attacks
against one victim. The actor population gives the schedule's
``attacker_id`` those semantics:

* **booters** — the bulk of attacks; activity is Zipf-distributed, so a
  few popular services launch most of the volume (as Santanna et al.
  observed across real booters);
* **botnets** — direct floods from real bot addresses, i.e. the unspoofed
  attacks invisible to both measurement infrastructures;
* **skilled attackers** — the joint-attack perpetrators.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Sequence

from repro.core.distributions import cumulative_weights, weighted_pick

ACTOR_BOOTER = "booter"
ACTOR_BOTNET = "botnet"
ACTOR_SKILLED = "skilled"


@dataclass(frozen=True)
class Actor:
    """One attacking entity."""

    actor_id: int
    kind: str
    name: str
    activity: float  # relative launch-rate weight within its kind

    def __post_init__(self) -> None:
        if self.kind not in (ACTOR_BOOTER, ACTOR_BOTNET, ACTOR_SKILLED):
            raise ValueError(f"unknown actor kind: {self.kind!r}")
        if self.activity <= 0:
            raise ValueError("actor activity must be positive")


@dataclass(frozen=True)
class ActorPopulationConfig:
    """Size and skew of the attacker population."""

    seed: int = 10
    n_booters: int = 140
    n_botnets: int = 30
    n_skilled: int = 20
    # Zipf exponent for booter popularity (a few services dominate).
    booter_zipf: float = 1.1


class ActorPopulation:
    """All actors, with weighted draws per kind."""

    def __init__(self, actors: Sequence[Actor]) -> None:
        if not actors:
            raise ValueError("actor population must not be empty")
        self.actors = list(actors)
        self._by_id: Dict[int, Actor] = {a.actor_id: a for a in self.actors}
        self._by_kind: Dict[str, List[Actor]] = {}
        for actor in self.actors:
            self._by_kind.setdefault(actor.kind, []).append(actor)
        self._cum_weights: Dict[str, List[float]] = {
            kind: cumulative_weights(a.activity for a in members)
            for kind, members in self._by_kind.items()
        }

    def __len__(self) -> int:
        return len(self.actors)

    def by_id(self, actor_id: int) -> Actor:
        return self._by_id[actor_id]

    def of_kind(self, kind: str) -> List[Actor]:
        return list(self._by_kind.get(kind, ()))

    def draw(self, kind: str, rng: Random) -> Actor:
        """Weighted draw of an actor of *kind*."""
        members = self._by_kind.get(kind)
        if not members:
            raise ValueError(f"no actors of kind {kind!r}")
        return weighted_pick(rng, members, self._cum_weights[kind])

    @classmethod
    def generate(
        cls, config: ActorPopulationConfig = ActorPopulationConfig()
    ) -> "ActorPopulation":
        rng = Random(config.seed)
        actors: List[Actor] = []
        next_id = 1
        for rank in range(config.n_booters):
            actors.append(
                Actor(
                    actor_id=next_id,
                    kind=ACTOR_BOOTER,
                    name=f"booter-{rank:03d}",
                    activity=1.0 / (rank + 1) ** config.booter_zipf,
                )
            )
            next_id += 1
        for rank in range(config.n_botnets):
            actors.append(
                Actor(
                    actor_id=next_id,
                    kind=ACTOR_BOTNET,
                    name=f"botnet-{rank:03d}",
                    activity=rng.uniform(0.5, 2.0),
                )
            )
            next_id += 1
        for rank in range(config.n_skilled):
            actors.append(
                Actor(
                    actor_id=next_id,
                    kind=ACTOR_SKILLED,
                    name=f"attacker-{rank:03d}",
                    activity=rng.uniform(0.5, 2.0),
                )
            )
            next_id += 1
        return cls(actors)


def attacks_per_actor(attacks, population: ActorPopulation) -> Dict[str, int]:
    """Ground-truth launch counts per actor name (heavy-tailed for booters)."""
    counts: Dict[str, int] = {}
    for attack in attacks:
        actor = population.by_id(attack.attacker_id)
        counts[actor.name] = counts.get(actor.name, 0) + 1
    return counts
