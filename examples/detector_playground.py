#!/usr/bin/env python3
"""Drive the two detection pipelines directly, without the full simulator.

Shows the library-level API: hand-craft a capture for the telescope's RSDoS
detector (backscatter vs scan noise, the Moore et al. filters) and a request
log for the AmpPot event extractor (attack floods vs reflector scans), encode
them as columns, then inspect the classified events. Useful as a template for
plugging in your own traffic sources.

Usage::

    python examples/detector_playground.py
"""

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.columnar import RequestColumns
from repro.honeypot.detection import DetectionConfig, detect_columns as amppot_events
from repro.net.addressing import format_ipv4, parse_ipv4
from repro.net.columnar import PacketColumns
from repro.net.packet import PROTO_TCP, PacketBatch, TCP_ACK, TCP_SYN
from repro.telescope.rsdos import RSDoSConfig, detect_columns as rsdos_events

VICTIM = parse_ipv4("203.0.113.7")
SCANNER = parse_ipv4("198.51.100.99")
GAMER = parse_ipv4("192.0.2.50")


def telescope_demo() -> None:
    print("== Telescope / RSDoS ==")
    capture = []
    # A SYN flood victim backscatters SYN/ACKs from port 80 for 5 minutes.
    for minute in range(5):
        capture.append(
            PacketBatch(
                timestamp=minute * 60.0,
                src=VICTIM,
                proto=PROTO_TCP,
                count=90,
                bytes=90 * 54,
                distinct_dsts=90,
                src_ports=frozenset({80}),
                tcp_flags=TCP_SYN | TCP_ACK,
            )
        )
    # A scanner sweeps the darknet with plain SYNs — not a response
    # signature, so the classifier must ignore it.
    capture.append(
        PacketBatch(
            timestamp=30.0,
            src=SCANNER,
            proto=PROTO_TCP,
            count=5000,
            bytes=5000 * 40,
            distinct_dsts=5000,
            tcp_flags=TCP_SYN,
        )
    )
    columns = PacketColumns.from_batches(capture).time_sorted()

    events = rsdos_events(RSDoSConfig(), columns)
    for event in events:
        print(f"  attack on {format_ipv4(event.victim)}: "
              f"{event.packets} packets over {event.duration:.0f}s, "
              f"max {event.max_pps:.1f} pps at the telescope "
              f"(~{event.estimated_victim_pps:.0f} pps at the victim), "
              f"ports {event.ports}")
    print(f"  batches seen: {len(columns)}, "
          f"backscatter: {int(columns.backscatter().sum())}")


def honeypot_demo() -> None:
    print("== Honeypot / AmpPot ==")
    log = []
    # An NTP reflection flood against the victim, seen by 3 honeypots.
    for honeypot in range(3):
        for minute in range(4):
            log.append(
                RequestBatch(
                    timestamp=minute * 60.0 + honeypot * 0.1,
                    victim=VICTIM,
                    honeypot_id=honeypot,
                    protocol="NTP",
                    count=1200,
                )
            )
    # A reflector scan: a handful of probes from the scanner's own address.
    log.append(
        RequestBatch(
            timestamp=10.0, victim=GAMER, honeypot_id=0,
            protocol="CharGen", count=4,
        )
    )
    columns = RequestColumns.from_batches(log).time_sorted()

    events = amppot_events(DetectionConfig(), columns)
    for event in events:
        print(f"  {event.protocol} attack on {format_ipv4(event.victim)}: "
              f"{event.requests} requests via {event.honeypots} honeypots, "
              f"avg {event.avg_rps:.0f} req/s per reflector, "
              f"{event.duration:.0f}s")
    floods = {(e.victim, e.protocol) for e in events}
    scans = {(b.victim, b.protocol) for b in log} - floods
    print(f"  sources dropped as scans/dribble: {len(scans)}")


if __name__ == "__main__":
    telescope_demo()
    print()
    honeypot_demo()
