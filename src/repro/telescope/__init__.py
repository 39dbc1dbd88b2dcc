"""UCSD Network Telescope substitute.

A /8 darknet passively collecting unsolicited traffic. Randomly and
uniformly spoofed DoS attacks elicit victim responses ("backscatter") of
which 1/256 statistically lands inside the telescope. The detection pipeline
is a re-implementation of the Moore et al. methodology as shipped in the
Corsaro RSDoS plugin: backscatter classification, flow aggregation on the
victim address with a 300-second timeout, and conservative low-intensity
filters (≥25 packets, ≥60 s, ≥0.5 pps max per-minute rate).
"""

from repro.telescope.backscatter import BackscatterConfig, BackscatterModel
from repro.telescope.darknet import NetworkTelescope, NoiseConfig, TelescopeNoise
from repro.telescope.rsdos import RSDoSConfig, TelescopeEvent

__all__ = [
    "BackscatterConfig",
    "BackscatterModel",
    "NetworkTelescope",
    "NoiseConfig",
    "TelescopeNoise",
    "RSDoSConfig",
    "TelescopeEvent",
]
