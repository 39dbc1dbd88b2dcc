"""Per-attack random streams for traffic synthesis.

The sensor models (backscatter at the telescope, request logs at the
honeypots) draw every attack's traffic from its own numpy generator,
``SeedSequence(model_seed, spawn_key=(ATTACK_STREAM, attack_id))``. What
one attack looks like therefore never depends on which other attacks
were drawn before it or in what order, so a capture is a function of the
attack *set*. Background noise draws from the model's disjoint
``(NOISE_STREAM,)`` stream.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

import numpy as np

from repro.attacks.attacker import GroundTruthAttack

#: ``SeedSequence`` spawn-key prefixes; attack and noise streams never meet.
ATTACK_STREAM = 0
NOISE_STREAM = 1


def attack_rng(seed: int, attack: GroundTruthAttack) -> np.random.Generator:
    """The generator one attack's traffic is drawn from."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(ATTACK_STREAM, attack.attack_id))
    )


def noise_rng(seed: int) -> np.random.Generator:
    """The generator a model's background noise is drawn from."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(NOISE_STREAM,))
    )


def by_attack_id(attacks: Iterable[GroundTruthAttack]) -> List[GroundTruthAttack]:
    """*attacks* in id order, so row order does not depend on list order."""
    return sorted(attacks, key=lambda attack: attack.attack_id)


def minute_windows(duration: float) -> Tuple[np.ndarray, np.ndarray]:
    """(minute index, seconds of that minute inside *duration*) arrays.

    Minute *m* is covered when ``m * 60 < duration``; every covered
    minute but the last is whole, and the last gets
    ``min(60, duration - m * 60)`` seconds.
    """
    n = max(0, math.ceil(duration / 60.0))
    if n and (n - 1) * 60.0 >= duration:
        n -= 1
    windows = np.full(n, 60.0)
    if n:
        windows[-1] = min(60.0, duration - (n - 1) * 60.0)
    return np.arange(n, dtype=np.int64), windows


__all__ = [
    "ATTACK_STREAM",
    "NOISE_STREAM",
    "attack_rng",
    "by_attack_id",
    "minute_windows",
    "noise_rng",
]
