"""Ablation: honeypot fleet size vs. attack coverage.

The AmpPot paper argues 24 attractive honeypots suffice to observe most
reflection attacks on the Internet. This bench measures, on identical
ground truth, the fraction of reflection attacks that at least one fleet
member logs — coverage should saturate well before 24 instances.
"""

import pytest

from repro.attacks.attacker import ATTACK_REFLECTION
from repro.core.report import render_table
from repro.honeypot.amppot import AmpPotFleet, FleetConfig
from repro.honeypot.detection import detect_columns

FLEET_SIZES = (2, 6, 12, 24)


@pytest.fixture(scope="module")
def reflection_truth(sim):
    return [a for a in sim.ground_truth if a.kind == ATTACK_REFLECTION]


def test_ablation_fleet_size(benchmark, sim, reflection_truth, write_report):
    def run_all():
        coverage = {}
        for size in FLEET_SIZES:
            fleet = AmpPotFleet(
                FleetConfig(seed=sim.config.fleet_config().seed,
                            n_instances=size)
            )
            log = fleet.capture_columns(reflection_truth)
            events = detect_columns(
                sim.config.honeypot_detection_config(), log
            )
            observed = {(e.victim, e.protocol) for e in events}
            truth = {
                (a.target, a.reflector_protocol) for a in reflection_truth
            }
            coverage[size] = len(observed & truth) / len(truth)
        return coverage

    coverage = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [size, f"{fraction:.1%}"] for size, fraction in coverage.items()
    ]
    write_report(
        "ablation_fleet",
        render_table(
            ["fleet size", "attack coverage"],
            rows,
            title="Ablation: honeypot fleet size (AmpPot's '24 is enough')",
        ),
    )
    # Coverage grows with fleet size and saturates: 24 instances miss
    # little, and most of the benefit arrives well before that.
    assert coverage[2] < coverage[24]
    assert coverage[24] > 0.85
    assert coverage[12] > 0.95 * coverage[24]
