"""IMD protocol substrate: packets, CRC, and device behaviour models.

The shield never modifies the IMD, so everything it does leans on the
IMD's *externally visible* protocol behaviour, which S2 and Fig. 3 of the
paper characterise precisely:

* packets carry a preamble, a header with the device's 10-byte serial
  number, and a checksum; the IMD silently discards checksum failures;
* the IMD transmits only in response to a programmer message (FCC rule),
  after a fixed interval (3.5 ms for the Virtuoso), *without sensing the
  medium*;
* programmers listen for 10 ms before claiming a channel and then
  alternate query/response with the IMD.

This package models those behaviours:  :mod:`repro.protocol.imd` is the
Virtuoso/Concerto stand-in, :mod:`repro.protocol.programmer` the Carelink
stand-in, and :mod:`repro.protocol.packets` the wire format both speak.
"""

from repro.protocol.commands import CommandType
from repro.protocol.crc import crc16_ccitt
from repro.protocol.imd import IMDevice, IMDParameters, VIRTUOSO, CONCERTO
from repro.protocol.packets import Packet, PacketCodec, DecodeError
from repro.protocol.programmer import Programmer
from repro.protocol.session import Session, SessionState

__all__ = [
    "CommandType",
    "CONCERTO",
    "DecodeError",
    "IMDParameters",
    "IMDevice",
    "Packet",
    "PacketCodec",
    "Programmer",
    "Session",
    "SessionState",
    "VIRTUOSO",
    "crc16_ccitt",
]
