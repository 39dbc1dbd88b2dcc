"""Unit and property tests for wire encoding and pcap I/O."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    TCP_ACK,
    TCP_SYN,
)
from repro.net.pcap import (
    PcapFormatError,
    read_pcap,
    read_pcap_as_batches,
    write_batches_pcap,
    write_pcap,
)
from repro.net.wire import (
    WireFormatError,
    decode_packet,
    encode_packet,
    ip_checksum,
)


def tcp_packet(**overrides):
    defaults = dict(
        timestamp=1.5, src=0x0A000001, dst=0x2C000005, proto=PROTO_TCP,
        length=54, src_port=80, dst_port=44211,
        tcp_flags=TCP_SYN | TCP_ACK,
    )
    defaults.update(overrides)
    return Packet(**defaults)


class TestChecksum:
    def test_known_value(self):
        # Classic example header from RFC 1071 discussions.
        header = bytes.fromhex(
            "4500003c1c4640004006" + "0000" + "ac100a63ac100a0c"
        )
        checksum = ip_checksum(header)
        rebuilt = header[:10] + struct.pack("!H", checksum) + header[12:]
        assert ip_checksum(rebuilt) == 0

    def test_odd_length_padded(self):
        assert ip_checksum(b"\x01") == ip_checksum(b"\x01\x00")


class TestEncodeDecode:
    def test_tcp_roundtrip(self):
        packet = tcp_packet()
        decoded = decode_packet(encode_packet(packet), timestamp=1.5)
        assert decoded.src == packet.src
        assert decoded.dst == packet.dst
        assert decoded.proto == PROTO_TCP
        assert decoded.src_port == 80
        assert decoded.dst_port == 44211
        assert decoded.tcp_flags == TCP_SYN | TCP_ACK
        assert decoded.is_tcp_response

    def test_udp_roundtrip(self):
        packet = tcp_packet(proto=PROTO_UDP, tcp_flags=0, length=40)
        decoded = decode_packet(encode_packet(packet))
        assert decoded.proto == PROTO_UDP
        assert decoded.src_port == 80

    def test_icmp_roundtrip_with_quote(self):
        packet = tcp_packet(
            proto=PROTO_ICMP, tcp_flags=0, src_port=0, dst_port=0,
            icmp_type=ICMP_DEST_UNREACH, quoted_proto=PROTO_UDP, length=70,
        )
        decoded = decode_packet(encode_packet(packet))
        assert decoded.icmp_type == ICMP_DEST_UNREACH
        assert decoded.quoted_proto == PROTO_UDP
        assert decoded.is_icmp_response

    def test_icmp_without_quote(self):
        packet = tcp_packet(
            proto=PROTO_ICMP, tcp_flags=0, src_port=0, dst_port=0,
            icmp_type=ICMP_ECHO_REPLY, length=28,
        )
        decoded = decode_packet(encode_packet(packet))
        assert decoded.icmp_type == ICMP_ECHO_REPLY
        assert decoded.quoted_proto is None

    def test_declared_length_honoured(self):
        packet = tcp_packet(length=120)
        frame = encode_packet(packet)
        assert len(frame) == 120
        assert decode_packet(frame).length == 120

    def test_ip_checksum_valid(self):
        frame = encode_packet(tcp_packet())
        assert ip_checksum(frame[:20]) == 0

    def test_decode_rejects_short_frame(self):
        with pytest.raises(WireFormatError):
            decode_packet(b"\x45\x00")

    def test_decode_rejects_ipv6(self):
        frame = bytearray(encode_packet(tcp_packet()))
        frame[0] = (6 << 4) | 5
        with pytest.raises(WireFormatError):
            decode_packet(bytes(frame))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=65535),
        st.integers(min_value=0, max_value=255),
    )
    def test_tcp_roundtrip_property(self, src, dst, port, flags):
        packet = tcp_packet(src=src, dst=dst, src_port=port, tcp_flags=flags)
        decoded = decode_packet(encode_packet(packet))
        assert (decoded.src, decoded.dst, decoded.src_port,
                decoded.tcp_flags) == (src, dst, port, flags)


class TestPcap:
    def test_roundtrip(self, tmp_path):
        packets = [
            tcp_packet(timestamp=1.25),
            tcp_packet(timestamp=2.5, proto=PROTO_UDP, tcp_flags=0),
        ]
        path = tmp_path / "capture.pcap"
        assert write_pcap(packets, path) == 2
        loaded = list(read_pcap(path))
        assert len(loaded) == 2
        assert loaded[0].timestamp == pytest.approx(1.25)
        assert loaded[0].src == packets[0].src
        assert loaded[1].proto == PROTO_UDP

    def test_batches_roundtrip_through_detector(self, tmp_path):
        """Telescope batches -> pcap -> detector reproduces the event."""
        from repro.net.packet import PacketBatch
        from tests.detection_oracle import RSDoSDetector

        batches = [
            PacketBatch(
                timestamp=60.0 * minute, src=0x0B0B0B0B, proto=PROTO_TCP,
                count=40, bytes=40 * 54, distinct_dsts=40,
                src_ports=frozenset({80}), tcp_flags=TCP_SYN | TCP_ACK,
            )
            for minute in range(3)
        ]
        path = tmp_path / "telescope.pcap"
        written = write_batches_pcap(batches, path)
        assert written == 120
        replayed = read_pcap_as_batches(path)
        events = list(RSDoSDetector().run(replayed))
        assert len(events) == 1
        assert events[0].victim == 0x0B0B0B0B
        assert events[0].packets == 120

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapFormatError):
            list(read_pcap(path))

    def test_rejects_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap([tcp_packet()], path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(PcapFormatError):
            list(read_pcap(path))

    def test_little_endian_accepted(self, tmp_path):
        path = tmp_path / "le.pcap"
        frame = encode_packet(tcp_packet())
        with open(path, "wb") as handle:
            handle.write(
                struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
            )
            handle.write(struct.pack("<IIII", 7, 0, len(frame), len(frame)))
            handle.write(frame)
        loaded = list(read_pcap(path))
        assert len(loaded) == 1
        assert loaded[0].timestamp == pytest.approx(7.0)
