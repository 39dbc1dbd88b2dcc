"""Per-attack random streams for traffic synthesis.

The sensor models (backscatter at the telescope, request logs at the
honeypots) draw every attack's traffic from its own numpy generator,
``PCG64(SeedSequence(model_seed, spawn_key=(ATTACK_STREAM, attack_id)))``.
What one attack looks like therefore never depends on which other
attacks were drawn before it or in what order, so a capture is a
function of the attack *set*. Background noise draws from the model's
disjoint ``(NOISE_STREAM,)`` stream.

Building a ``SeedSequence`` and a ``PCG64`` costs ~20 µs per attack
(2-core x86-64 container, numpy 2.4), more than most attacks' draws.
:func:`attack_states` instead derives every attack's PCG64 ``(state,
inc)`` in one vectorized pass that replays numpy's seeding arithmetic,
and :func:`attack_streams` re-points one reused generator at each attack
through the ``PCG64.state`` setter (~2 µs on the same machine). Each
call cross-checks its first batch-seeded attack against numpy's own
constructor and raises if they disagree, so a numpy release that
changed its seeding would fail loudly rather than change the draws.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.attacks.attacker import GroundTruthAttack

#: ``SeedSequence`` spawn-key prefixes; attack and noise streams never meet.
ATTACK_STREAM = 0
NOISE_STREAM = 1

# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def noise_rng(seed: int) -> np.random.Generator:
    """The generator a model's background noise is drawn from."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(NOISE_STREAM,))
    )


def by_attack_id(attacks: Iterable[GroundTruthAttack]) -> List[GroundTruthAttack]:
    """*attacks* in id order, so row order does not depend on list order."""
    return sorted(attacks, key=lambda attack: attack.attack_id)


def minute_spans(durations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(covered minutes, seconds of the last one) per duration.

    Minute *m* is covered when ``m * 60 < duration``; every covered
    minute but the last is whole, and the last gets
    ``min(60, duration - m * 60)`` seconds (meaningless where no minute
    is covered).
    """
    durations = np.asarray(durations, dtype=np.float64)
    n = np.maximum(np.ceil(durations / 60.0), 0.0).astype(np.int64)
    n -= (n > 0) & ((n - 1) * 60.0 >= durations)
    return n, np.minimum(60.0, durations - (n - 1) * 60.0)


def attack_states(seed: int, attack_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """Each attack's PCG64 ``(state, inc)``, in *attack_ids* order.

    Equal to what ``PCG64(SeedSequence(seed, spawn_key=(ATTACK_STREAM,
    attack_id)))`` sets. Ids that do not fit one 32-bit word go through
    numpy's constructor (which rejects negative ids).
    """
    ids = [operator.index(attack_id) for attack_id in attack_ids]
    batched = [0 <= attack_id <= _MASK32 for attack_id in ids]
    if not any(batched):
        return [_numpy_state(seed, attack_id) for attack_id in ids]
    packed = np.array(
        [attack_id if fits else 0 for attack_id, fits in zip(ids, batched)],
        dtype=np.uint32,
    )
    # SeedSequence's entropy: the seed's words zero-padded to the pool
    # size (because there is a spawn key), then the spawn key's words.
    seed_words = _int_words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    words = _generate_state(
        [np.array([word], dtype=np.uint32) for word in seed_words + [ATTACK_STREAM]]
        + [packed]
    )
    states = [
        _pcg64_seed(w0, w1, w2, w3) if fits else _numpy_state(seed, attack_id)
        for attack_id, fits, w0, w1, w2, w3 in zip(
            ids, batched, *(word.tolist() for word in words)
        )
    ]
    first = batched.index(True)
    if states[first] != _numpy_state(seed, ids[first]):
        raise RuntimeError(
            "batched attack seeding disagrees with numpy's SeedSequence "
            f"for seed {seed}, attack {ids[first]}"
        )
    return states


def attack_streams(
    seed: int, attack_ids: Sequence[int]
) -> Iterator[np.random.Generator]:
    """One generator per id of *attack_ids*, in order.

    Every item is the same :class:`numpy.random.Generator`, re-pointed
    at the next attack's stream; draw from it before advancing.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in attack_states(seed, attack_ids):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _numpy_state(seed: int, attack_id: int) -> Tuple[int, int]:
    """(state, inc) from numpy's own constructor."""
    state = np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(ATTACK_STREAM, attack_id))
    ).state["state"]
    return state["state"], state["inc"]


def _int_words(value: int) -> List[int]:
    """*value* as little-endian uint32 words, as ``SeedSequence`` reads it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _generate_state(entropy: List[np.ndarray]) -> List[np.ndarray]:
    """``SeedSequence.generate_state(4, np.uint64)`` of an assembled
    entropy array, as four uint64 word arrays.

    Each entropy word is a uint32 array; they broadcast, so a word that
    varies (the attack id) yields one state per element.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(_XSHIFT))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [
        hashmix(entropy[index] if index < len(entropy) else zero)
        for index in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out_const = _INIT_B
    halves = []
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ np.uint32(out_const)
        out_const = out_const * _MULT_B & _MASK32
        value = value * np.uint32(out_const)
        halves.append((value ^ (value >> np.uint32(_XSHIFT))).astype(np.uint64))
    return [
        low | (high << np.uint64(32))
        for low, high in zip(halves[0::2], halves[1::2])
    ]


def _pcg64_seed(w0: int, w1: int, w2: int, w3: int) -> Tuple[int, int]:
    """PCG64's ``(state, inc)`` for seed words ``w0..w3`` (pcg64_set_seed)."""
    inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
    return state, inc


__all__ = [
    "ATTACK_STREAM",
    "NOISE_STREAM",
    "attack_states",
    "attack_streams",
    "by_attack_id",
    "minute_spans",
    "noise_rng",
]
