"""AmpPot honeypot substitute.

A fleet of 24 amplification honeypots mimicking abusable UDP reflectors
(QOTD, CharGen, DNS, NTP, SSDP, MSSQL, RIPv1, TFTP). Attackers scan for
reflectors, include honeypots in their amplifier lists, and spray spoofed
requests carrying the victim's address; the honeypot logs those requests.
Event extraction keeps only floods exceeding 100 requests (separating
attacks from scans) and caps event durations at 24 hours, as the paper
describes.
"""

from repro.honeypot.amppot import (
    AmpPotFleet,
    FleetConfig,
    HoneypotInstance,
    RequestBatch,
)
from repro.honeypot.detection import AmpPotEvent, DetectionConfig

__all__ = [
    "AmpPotFleet",
    "FleetConfig",
    "HoneypotInstance",
    "RequestBatch",
    "AmpPotEvent",
    "DetectionConfig",
]
