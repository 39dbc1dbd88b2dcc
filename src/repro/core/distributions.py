"""Distributions: duration and intensity CDFs (Figures 2, 3, 4), the
Poisson sampler the traffic models draw counts from, and the weighted
pick the generators draw categories, countries and targets with.

:class:`EmpiricalCDF` is the shared primitive: exact quantiles and
fraction-at-or-below queries over a sorted sample, which is all the paper's
CDF figures need.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
from random import Random
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    # Only for annotations: the traffic models import ``poisson`` while
    # repro.core.events is still initializing.
    from repro.core.events import AttackEvent

T = TypeVar("T")


def cumulative_weights(weights: Iterable[float]) -> List[float]:
    """The cumulative table of *weights* for :func:`weighted_pick`,
    checked once here where ``Random.choices`` checks it on every call:
    the total must be positive and finite, or it raises the
    ``ValueError`` ``choices`` raises. An empty table passes, and
    picking from it fails as ``choices`` does."""
    table = list(accumulate(weights))
    if not table:
        return table
    total = table[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    return table


def weighted_pick(
    rng: Random, population: Sequence[T], cum_weights: Sequence[float]
) -> T:
    """``rng.choices(population, cum_weights=cum_weights, k=1)[0]``:
    the same arithmetic and one ``random()`` draw, without the list and
    the per-call total checks (*cum_weights* comes from
    :func:`cumulative_weights`)."""
    n = len(population)
    if len(cum_weights) != n:
        raise ValueError("The number of weights does not match the population")
    total = cum_weights[-1] + 0.0
    return population[bisect.bisect(cum_weights, rng.random() * total, 0, n - 1)]


def poisson(rng: Random, lam: float) -> int:
    """One Poisson(*lam*) draw from *rng* (Knuth's product method).

    Costs O(lam) ``random()`` calls; above lam = 500 a rounded normal
    approximation keeps the draw O(1).
    """
    if lam <= 0:
        return 0
    if lam > 500:
        return max(0, int(rng.gauss(lam, lam**0.5) + 0.5))
    limit = math.exp(-lam)
    k, product = 0, 1.0
    while True:
        product *= rng.random()
        if product <= limit:
            return k
        k += 1


class EmpiricalCDF:
    """Exact empirical cumulative distribution over a finite sample."""

    def __init__(self, values: Iterable[float]) -> None:
        self._values: List[float] = sorted(float(v) for v in values)
        if not self._values:
            raise ValueError("empirical CDF needs at least one value")

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Sequence[float]:
        return self._values

    def fraction_at_or_below(self, x: float) -> float:
        """P(X <= x)."""
        return bisect.bisect_right(self._values, x) / len(self._values)

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), lower-interpolation convention."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if q == 0.0:
            return self._values[0]
        index = min(len(self._values) - 1, int(np.ceil(q * len(self._values))) - 1)
        return self._values[index]

    @property
    def mean(self) -> float:
        return float(np.mean(self._values))

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def summary_at(self, points: Sequence[float]) -> Dict[float, float]:
        """CDF values at the given x positions (figure reproduction aid)."""
        return {x: self.fraction_at_or_below(x) for x in points}


# X positions annotated on the paper's duration axis (Figure 2).
DURATION_POINTS = (
    10, 15, 30, 60, 300, 600, 900, 1800, 3600, 7200, 10800, 21600, 43200, 86400
)

# Log-decade positions of the intensity figures (Figures 3 and 4).
INTENSITY_POINTS = (1, 10, 100, 1000, 10_000, 100_000)


def duration_cdf(events: Iterable[AttackEvent]) -> EmpiricalCDF:
    """Distribution of event durations in seconds (Figure 2)."""
    return EmpiricalCDF(event.duration for event in events)


def intensity_cdf(events: Iterable[AttackEvent]) -> EmpiricalCDF:
    """Distribution of event intensities (Figures 3 and 4).

    The metric is source-specific: max pps at the telescope, average
    requests/second per reflector for the honeypot. Mixing sources in one
    CDF is almost always a mistake — pass a single-source event list.
    """
    return EmpiricalCDF(event.intensity for event in events)


def per_protocol_intensity_cdfs(
    events: Iterable[AttackEvent], top_n: int = 5
) -> Dict[str, EmpiricalCDF]:
    """Figure 4: one intensity CDF per top reflector protocol + overall."""
    from repro.core.events import SOURCE_HONEYPOT

    by_protocol: Dict[str, List[float]] = {}
    all_values: List[float] = []
    for event in events:
        if event.source != SOURCE_HONEYPOT or event.reflector_protocol is None:
            continue
        by_protocol.setdefault(event.reflector_protocol, []).append(
            event.intensity
        )
        all_values.append(event.intensity)
    if not all_values:
        return {}
    top = sorted(by_protocol, key=lambda p: len(by_protocol[p]), reverse=True)
    cdfs: Dict[str, EmpiricalCDF] = {"Overall": EmpiricalCDF(all_values)}
    for protocol in top[:top_n]:
        cdfs[protocol] = EmpiricalCDF(by_protocol[protocol])
    return cdfs
