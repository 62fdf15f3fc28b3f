"""The shield-as-proxy: encrypted relay between programmer and IMD (S4).

"An authorized programmer that wants to communicate with the IMD instead
exchanges its messages with the shield, which relays them to the IMD and
sends back the IMD's responses" over "an authenticated, encrypted
channel".  :class:`ProgrammerLink` is the programmer's end;
:class:`ShieldRelay` the shield's.  Both carry
:class:`~repro.protocol.packets.Packet` objects serialised to bytes and
sealed by :class:`~repro.crypto.secure_channel.SecureChannel`.
"""

from __future__ import annotations

from repro.crypto.secure_channel import SecureChannel
from repro.protocol.crc import bits_to_bytes, bytes_to_bits
from repro.protocol.packets import Packet, PacketCodec

__all__ = ["ShieldRelay", "ProgrammerLink", "packet_to_wire", "wire_to_packet"]


def packet_to_wire(packet: Packet, codec: PacketCodec) -> bytes:
    """Serialise a packet (with its CRC) for the encrypted channel."""
    return bits_to_bytes(codec.encode(packet))


def wire_to_packet(wire: bytes, codec: PacketCodec) -> Packet:
    """Parse a packet from relay bytes; raises :class:`DecodeError`."""
    return codec.decode(bytes_to_bits(wire))


class ProgrammerLink:
    """Programmer-side endpoint of the encrypted relay."""

    def __init__(self, shared_secret: bytes, codec: PacketCodec | None = None):
        self.codec = codec or PacketCodec()
        self.channel = SecureChannel(shared_secret, is_shield=False)

    def seal_command(self, packet: Packet) -> bytes:
        """Encrypt a command for the shield to relay to the IMD."""
        return self.channel.send(packet_to_wire(packet, self.codec))

    def open_reply(self, wire: bytes) -> Packet:
        """Decrypt and parse an IMD reply relayed by the shield."""
        return wire_to_packet(self.channel.receive(wire), self.codec)


class ShieldRelay:
    """Shield-side endpoint: unwraps commands, wraps IMD replies."""

    def __init__(self, shared_secret: bytes, codec: PacketCodec | None = None):
        self.codec = codec or PacketCodec()
        self.channel = SecureChannel(shared_secret, is_shield=True)
        self.relayed_commands = 0
        self.relayed_replies = 0

    def open_command(self, wire: bytes) -> Packet:
        """Decrypt a programmer command destined for the IMD.

        Raises on tampering or replay -- a network adversary between the
        programmer and the shield gets nothing past this point.
        """
        packet = wire_to_packet(self.channel.receive(wire), self.codec)
        self.relayed_commands += 1
        return packet

    def seal_reply(self, packet: Packet) -> bytes:
        """Encrypt an IMD reply for the programmer."""
        self.relayed_replies += 1
        return self.channel.send(packet_to_wire(packet, self.codec))
