#!/usr/bin/env python3
"""Export a simulated telescope capture as a pcap and re-detect from it.

Demonstrates the wire-format layer: the darknet's columnar capture
expands, batch by batch, to real IPv4 frames in a classic libpcap file
(linktype RAW, readable by tcpdump/Wireshark), and RSDoS detection over
the frames read back reproduces the same attacks — collection, storage
and analysis fully decoupled, as with real telescope archives.

Usage::

    python examples/pcap_export.py [output.pcap]
"""

import sys
import tempfile
from pathlib import Path

from repro.attacks.attacker import ATTACK_DIRECT, GroundTruthAttack
from repro.net.columnar import PacketColumns
from repro.net.packet import PROTO_TCP
from repro.net.pcap import read_pcap_as_batches, write_batches_pcap
from repro.telescope.backscatter import BackscatterConfig, BackscatterModel
from repro.telescope.darknet import NetworkTelescope
from repro.telescope.rsdos import RSDoSConfig, detect_columns
from repro.net.addressing import format_ipv4, parse_ipv4


def main() -> None:
    path = Path(
        sys.argv[1]
        if len(sys.argv) > 1
        else Path(tempfile.gettempdir()) / "telescope.pcap"
    )

    attacks = [
        GroundTruthAttack(
            attack_id=i + 1, kind=ATTACK_DIRECT,
            target=parse_ipv4(f"203.0.113.{i + 1}"),
            start=i * 900.0, duration=600.0, rate=150_000.0,
            vector="syn-flood", ip_proto=PROTO_TCP, ports=(80,),
        )
        for i in range(3)
    ]
    telescope = NetworkTelescope(
        backscatter=BackscatterModel(BackscatterConfig(seed=12)), noise=None
    )
    capture = telescope.capture_columns(attacks)

    direct_events = detect_columns(RSDoSConfig(), capture)
    written = write_batches_pcap(capture.batches(), path)
    print(f"wrote {written} raw-IP frames to {path} "
          f"(open with: tcpdump -nn -r {path})")

    # Each frame comes back as a one-packet batch; expanded batches of
    # different victims interleave, so restore time order first.
    replayed = PacketColumns.from_batches(read_pcap_as_batches(path))
    replayed_events = detect_columns(RSDoSConfig(), replayed.time_sorted())
    print(f"events detected from live capture : {len(direct_events)}")
    print(f"events detected from pcap replay  : {len(replayed_events)}")
    for live, replayed in zip(direct_events, replayed_events):
        assert live.victim == replayed.victim
        assert live.packets == replayed.packets
        print(f"  {format_ipv4(live.victim)}: {live.packets} packets, "
              f"max {live.max_pps:.1f} pps — identical after round-trip")


if __name__ == "__main__":
    main()
