"""Ablation: the 300-second flow timeout of the RSDoS detector.

Moore et al. chose a conservative 300 s; this bench shows how the event
count and duration statistics respond to shorter/longer expiry — short
timeouts fragment attacks into multiple events, long ones merge distinct
attacks against repeat victims.
"""

import pytest

from repro.core.report import render_table
from repro.telescope.backscatter import BackscatterModel
from repro.telescope.darknet import NetworkTelescope
from repro.telescope.rsdos import RSDoSConfig, detect_columns

TIMEOUTS = (60.0, 300.0, 1200.0)


@pytest.fixture(scope="module")
def capture(sim):
    telescope = NetworkTelescope(
        backscatter=BackscatterModel(sim.config.backscatter_config()),
        noise=None,
    )
    return telescope.capture_columns(sim.ground_truth)


def test_ablation_flow_timeout(benchmark, capture, write_report):
    def detect_all():
        results = {}
        for timeout in TIMEOUTS:
            events = detect_columns(RSDoSConfig(flow_timeout=timeout), capture)
            durations = sorted(e.duration for e in events)
            median = durations[len(durations) // 2] if durations else 0.0
            results[timeout] = (len(events), median)
        return results

    results = benchmark.pedantic(detect_all, rounds=2, iterations=1)
    rows = [
        [f"{timeout:.0f}s", count, f"{median:.0f}s"]
        for timeout, (count, median) in results.items()
    ]
    write_report(
        "ablation_timeout",
        render_table(
            ["flow timeout", "#events", "median duration"],
            rows,
            title="Ablation: RSDoS flow timeout",
        ),
    )
    # Shorter timeouts split flows -> never fewer events than longer ones.
    assert results[60.0][0] >= results[300.0][0] >= results[1200.0][0]
    # Longer timeouts absorb gaps -> median duration grows monotonically.
    assert results[60.0][1] <= results[1200.0][1]
