"""repro: a reproduction of "Millions of Targets Under Attack" (IMC 2017).

A macroscopic characterization framework for the DoS ecosystem, built on
simulated equivalents of four global measurement infrastructures: a /8
network telescope (randomly spoofed attacks via backscatter), an AmpPot
honeypot fleet (reflection & amplification attacks), an OpenINTEL-style
active DNS platform (Web-site-to-IP mapping), and a DNS-derived DDoS
Protection Service adoption data set.

Quickstart::

    from repro import ScenarioConfig, run_simulation

    result = run_simulation(ScenarioConfig.small())
    for row in result.fused.summary_rows():
        print(row)
"""

from repro._lazy import lazy_exports

# Resolved on first access, so importing a submodule (the live service,
# say) does not import the simulation pipeline.
__getattr__ = lazy_exports(__name__, {
    "repro.core.events": (
        "AttackDataset", "AttackEvent", "SOURCE_HONEYPOT", "SOURCE_TELESCOPE",
    ),
    "repro.core.fusion": ("FusedDataset",),
    "repro.pipeline.config": ("ScenarioConfig",),
    "repro.pipeline.simulation": ("SimulationResult", "run_simulation"),
})

__version__ = "1.0.0"

__all__ = [
    "AttackDataset",
    "AttackEvent",
    "SOURCE_HONEYPOT",
    "SOURCE_TELESCOPE",
    "FusedDataset",
    "ScenarioConfig",
    "SimulationResult",
    "run_simulation",
    "__version__",
]
