"""Networking substrate: addressing, packets, protocol registry, routing, geo.

These modules provide the low-level building blocks shared by every
measurement substrate in this reproduction: integer-based IPv4 address
handling, a compact packet model with count-compressed batches, the
IANA-style port registry used for Table 8, a longest-prefix-match routing
table (Routeviews substitute), and a range-based geolocation database
(NetAcuity substitute).
"""

from repro._lazy import lazy_exports

# Resolved on first access: code that needs addressing alone does not
# import the packet codecs.
__getattr__ = lazy_exports(__name__, {
    "repro.net.addressing": (
        "IPv4_MAX",
        "Prefix",
        "format_ipv4",
        "parse_ipv4",
        "slash8",
        "slash16",
        "slash24",
    ),
    "repro.net.packet": ("Packet", "PacketBatch", "ip_proto_name"),
    "repro.net.protocols": (
        "PORT_SERVICES",
        "REFLECTION_PROTOCOLS",
        "ReflectionProtocol",
        "service_for_port",
    ),
    "repro.net.routing": ("RoutingTable",),
    "repro.net.geo": ("GeoDatabase", "GeoRange"),
    "repro.net.wire": ("decode_packet", "encode_packet"),
    "repro.net.pcap": (
        "read_pcap", "read_pcap_as_batches", "write_pcap", "write_batches_pcap",
    ),
})

__all__ = [
    "IPv4_MAX",
    "Prefix",
    "format_ipv4",
    "parse_ipv4",
    "slash8",
    "slash16",
    "slash24",
    "Packet",
    "PacketBatch",
    "ip_proto_name",
    "PORT_SERVICES",
    "REFLECTION_PROTOCOLS",
    "ReflectionProtocol",
    "service_for_port",
    "RoutingTable",
    "GeoDatabase",
    "GeoRange",
    "decode_packet",
    "encode_packet",
    "read_pcap",
    "read_pcap_as_batches",
    "write_pcap",
    "write_batches_pcap",
]
