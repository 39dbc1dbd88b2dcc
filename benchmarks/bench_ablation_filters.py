"""Ablation: the Moore et al. low-intensity filters (25 pkt / 60 s / 0.5 pps).

Runs the detector with each filter disabled in turn over a capture that
includes telescope noise, quantifying how much pollution each conservative
threshold removes.
"""

import pytest

from repro.core.report import render_table
from repro.telescope.backscatter import BackscatterModel
from repro.telescope.darknet import NetworkTelescope, TelescopeNoise
from repro.telescope.rsdos import RSDoSConfig, detect_columns

VARIANTS = {
    "paper (25 pkt / 60 s / 0.5 pps)": RSDoSConfig(),
    "no packet minimum": RSDoSConfig(min_packets=1),
    "no duration minimum": RSDoSConfig(min_duration=0.0),
    "no rate minimum": RSDoSConfig(min_max_pps=0.0),
    "all filters off": RSDoSConfig(
        min_packets=1, min_duration=0.0, min_max_pps=0.0
    ),
}


@pytest.fixture(scope="module")
def noisy_capture(sim):
    telescope = NetworkTelescope(
        backscatter=BackscatterModel(sim.config.backscatter_config()),
        noise=TelescopeNoise(sim.config.telescope_noise_config()),
    )
    return telescope.capture_columns(
        sim.ground_truth, n_days=sim.config.n_days
    )


def test_ablation_intensity_filters(benchmark, noisy_capture, write_report):
    def detect_all():
        kept = {
            label: len(detect_columns(config, noisy_capture))
            for label, config in VARIANTS.items()
        }
        # With every filter off each flow is an event, so the flows a
        # variant discards are the all-off count minus its own.
        flows = kept["all filters off"]
        return {label: (count, flows - count) for label, count in kept.items()}

    results = benchmark.pedantic(detect_all, rounds=2, iterations=1)
    rows = [
        [label, kept, discarded]
        for label, (kept, discarded) in results.items()
    ]
    write_report(
        "ablation_filters",
        render_table(
            ["variant", "#events kept", "#flows discarded"],
            rows,
            title="Ablation: RSDoS low-intensity filters",
        ),
    )
    paper_kept = results["paper (25 pkt / 60 s / 0.5 pps)"][0]
    all_off_kept = results["all filters off"][0]
    # The filters exist to discard sub-threshold pollution: disabling them
    # admits strictly more "events", and each filter removes something.
    assert all_off_kept > paper_kept
    for label, (kept, _) in results.items():
        assert kept >= paper_kept
