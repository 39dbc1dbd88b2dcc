"""Unit and property tests for empirical CDFs, the Poisson sampler and
the weighted pick."""

import math
import sys
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.core.distributions import (
    EmpiricalCDF,
    cumulative_weights,
    duration_cdf,
    intensity_cdf,
    per_protocol_intensity_cdfs,
    poisson,
    weighted_pick,
)
from repro.core.events import AttackEvent, SOURCE_HONEYPOT, SOURCE_TELESCOPE


def hp(intensity, protocol="NTP", duration=100.0):
    return AttackEvent(
        SOURCE_HONEYPOT, 1, 0.0, duration, intensity,
        reflector_protocol=protocol,
    )


class TestEmpiricalCDF:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_fraction_at_or_below(self):
        cdf = EmpiricalCDF([1, 2, 3, 4])
        assert cdf.fraction_at_or_below(0) == 0.0
        assert cdf.fraction_at_or_below(2) == 0.5
        assert cdf.fraction_at_or_below(4) == 1.0
        assert cdf.fraction_at_or_below(100) == 1.0

    def test_quantile(self):
        cdf = EmpiricalCDF([10, 20, 30, 40])
        assert cdf.quantile(0.0) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF([1])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_mean_median(self):
        cdf = EmpiricalCDF([1, 2, 3, 4, 100])
        assert cdf.mean == pytest.approx(22.0)
        assert cdf.median == 3

    def test_summary_at(self):
        cdf = EmpiricalCDF([1, 10])
        assert cdf.summary_at([1, 5, 10]) == {1: 0.5, 5: 0.5, 10: 1.0}

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60))
    def test_cdf_is_monotone(self, values):
        cdf = EmpiricalCDF(values)
        points = sorted(set(values))
        fractions = [cdf.fraction_at_or_below(p) for p in points]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_inverts_cdf(self, values, q):
        cdf = EmpiricalCDF(values)
        assert cdf.fraction_at_or_below(cdf.quantile(q)) >= q - 1e-9


class TestEventCDFs:
    def test_duration_cdf(self):
        events = [hp(1.0, duration=60.0), hp(1.0, duration=600.0)]
        cdf = duration_cdf(events)
        assert cdf.fraction_at_or_below(60.0) == 0.5

    def test_intensity_cdf(self):
        events = [hp(5.0), hp(50.0)]
        cdf = intensity_cdf(events)
        assert cdf.median == 5.0

    def test_per_protocol_cdfs(self):
        events = (
            [hp(10.0, "NTP")] * 5
            + [hp(1.0, "DNS")] * 3
            + [hp(2.0, "CharGen")] * 2
        )
        cdfs = per_protocol_intensity_cdfs(events, top_n=2)
        assert set(cdfs) == {"Overall", "NTP", "DNS"}
        assert len(cdfs["Overall"]) == 10
        assert len(cdfs["NTP"]) == 5

    def test_per_protocol_ignores_telescope(self):
        telescope_event = AttackEvent(SOURCE_TELESCOPE, 1, 0, 1, 1.0)
        assert per_protocol_intensity_cdfs([telescope_event]) == {}


class TestPoisson:
    def test_nonpositive_rate_draws_zero(self):
        rng = Random(1)
        assert poisson(rng, 0.0) == 0
        assert poisson(rng, -3.0) == 0

    @pytest.mark.parametrize("lam", [0.5, 20.0, 800.0])
    def test_sample_mean_tracks_rate(self, lam):
        # 800 takes the normal-approximation branch; the bound is four
        # standard errors of the mean.
        rng = Random(7)
        n = 4000
        mean = sum(poisson(rng, lam) for _ in range(n)) / n
        assert abs(mean - lam) < 4 * (lam / n) ** 0.5


weights_lists = st.one_of(
    st.lists(st.integers(0, 1000), min_size=1, max_size=60),
    st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=60,
    ),
).filter(lambda weights: sum(weights) > 0)


class TestWeightedPick:
    """``weighted_pick`` is ``Random.choices(k=1)`` draw for draw."""

    @given(
        weights=weights_lists,
        seed=st.integers(0, 2**32 - 1),
        draws=st.integers(1, 20),
    )
    def test_matches_random_choices(self, weights, seed, draws):
        population = list(range(len(weights)))
        table = cumulative_weights(weights)
        assert table == list(accumulate(weights))
        ours, theirs = Random(seed), Random(seed)
        for _ in range(draws):
            assert weighted_pick(ours, population, table) == theirs.choices(
                population, cum_weights=table, k=1
            )[0]
        # The stream is consumed identically.
        assert ours.random() == theirs.random()

    @given(seed=st.integers(0, 2**32 - 1))
    def test_one_element_and_zero_weight_entries(self, seed):
        rng = Random(seed)
        assert weighted_pick(rng, ["only"], cumulative_weights([3])) == "only"
        table = cumulative_weights([0, 2.5, 0, 0, 1, 0])
        picks = {weighted_pick(rng, "abcdef", table) for _ in range(50)}
        assert picks <= {"b", "e"}

    @pytest.mark.parametrize(
        "weights",
        [[0, 0], [0.0], [-1, 0.5], [1, math.inf], [math.nan, 1],
         [1e308, 1e308]],
    )
    def test_bad_totals_raise_what_choices_raises(self, weights):
        with pytest.raises(ValueError) as ours:
            cumulative_weights(weights)
        table = list(accumulate(weights))
        try:
            Random(0).choices(range(len(weights)), cum_weights=table, k=1)
        except ValueError as theirs:
            assert str(ours.value) == str(theirs)
        else:
            # Python 3.9's choices does not check that the total is finite.
            assert sys.version_info < (3, 10)
            assert not math.isfinite(table[-1])

    def test_length_mismatch_raises_what_choices_raises(self):
        table = cumulative_weights([1, 2, 3])
        with pytest.raises(ValueError) as ours:
            weighted_pick(Random(0), [1, 2], table)
        with pytest.raises(ValueError) as theirs:
            Random(0).choices([1, 2], cum_weights=table, k=1)
        assert str(ours.value) == str(theirs.value)

    def test_empty_table_fails_at_the_pick_as_choices_does(self):
        assert cumulative_weights([]) == []
        with pytest.raises(IndexError):
            weighted_pick(Random(0), [], [])
        with pytest.raises(IndexError):
            Random(0).choices([], cum_weights=[], k=1)
