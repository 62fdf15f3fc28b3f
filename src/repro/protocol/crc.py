"""CRC-16/CCITT checksum, bit- and byte-level.

The paper's whole active defence rests on one assumption (S3.1):
"legitimate messages sent to an IMD have a checksum and the IMD will
discard any message that fails the checksum test".  Jamming works by
flipping bits so this checksum fails.  We implement CRC-16/CCITT-FALSE
(poly 0x1021, init 0xFFFF) -- the family Medtronic telemetry uses -- with
a bit-level path so the simulator can compute checksums over jammed,
partially flipped bit vectors.

The public functions are table-driven (one 256-entry lookup per byte):
the event-level simulator checksums every packet it corrupts, so the
per-bit shift loop was a measurable slice of sweep time.  The original
bitwise implementation survives as ``_crc16_ccitt_bitwise``, the
reference the table is property-tested against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "crc16_ccitt",
    "crc16_bits_batch",
    "crc16_bytes_batch",
    "bytes_to_bits",
    "bits_to_bytes",
]

_POLY = 0x1021
_INIT = 0xFFFF


def _build_table() -> list[int]:
    """The 256-entry CRC table: each byte's 8 shift steps precomputed."""
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_TABLE = _build_table()
_TABLE_NP = np.asarray(_TABLE, dtype=np.uint16)


def _crc16_ccitt_bitwise(data: bytes) -> int:
    """Reference bit-at-a-time CRC-16/CCITT-FALSE (kept for property
    tests; the public path is table-driven)."""
    crc = _INIT
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over a byte string."""
    crc = _INIT
    table = _TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFF00) ^ table[(crc >> 8) ^ byte]
    return crc


def crc16_bits_batch(bits: np.ndarray) -> np.ndarray:
    """CRCs of many bit vectors at once.

    ``bits`` is ``(n_packets, n_bits)`` with ``n_bits`` a multiple of 8;
    the result is a ``uint16`` array of per-row checksums, packed to
    bytes and taken by :func:`crc16_bytes_batch` -- the checksum
    companion to the batched modulate/demodulate APIs, for downstream
    code that scores whole trial blocks at once.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 2:
        raise ValueError("crc16_bits_batch expects a (n_packets, n_bits) array")
    if bits.shape[1] % 8 != 0:
        raise ValueError(
            f"bit vector length {bits.shape[1]} is not a multiple of 8"
        )
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit vectors must contain only 0s and 1s")
    return crc16_bytes_batch(np.packbits(bits.astype(np.uint8), axis=1))


def crc16_bytes_batch(data: np.ndarray) -> np.ndarray:
    """CRC-16/CCITT-FALSE of every row of a ``(n, n_bytes)`` ``uint8``
    matrix, as a ``uint16`` array.

    The CRC is affine in the message bytes, so a row's checksum is the
    checksum of ``n_bytes`` zero bytes XOR each byte's contribution at
    its position (:func:`_position_tables`): one table gather and one
    XOR reduction for the whole matrix, whatever its row count.
    """
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise ValueError("crc16_bytes_batch expects a (n_rows, n_bytes) array")
    n_bytes = data.shape[1]
    if n_bytes == 0:
        return np.full(data.shape[0], _INIT, dtype=np.uint16)
    tables, zeros_crc = _position_tables(n_bytes)
    contributions = tables[np.arange(n_bytes), data]
    return np.bitwise_xor.reduce(contributions, axis=1) ^ zeros_crc


@lru_cache(maxsize=16)
def _position_tables(n_bytes: int) -> tuple[np.ndarray, np.uint16]:
    """``(tables, zeros_crc)`` for ``n_bytes``-byte messages.

    ``tables[p, b]`` is the zero-init CRC of byte ``b`` followed by
    ``n_bytes - 1 - p`` zero bytes, and ``zeros_crc`` the CRC of
    ``n_bytes`` zero bytes.  The last row is the byte table itself;
    each earlier row feeds one more zero byte through the table step.
    Read-only, shared by every call of one message length.
    """
    tables = np.empty((n_bytes, 256), dtype=np.uint16)
    row = _TABLE_NP
    for position in range(n_bytes - 1, -1, -1):
        tables[position] = row
        row = (row << 8) ^ _TABLE_NP[row >> 8]
    tables.flags.writeable = False
    return tables, np.uint16(crc16_ccitt(bytes(n_bytes)))


def bytes_to_bits(data: bytes) -> np.ndarray:
    """MSB-first bit vector of a byte string."""
    if not data:
        return np.zeros(0, dtype=np.int64)
    arr = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(arr).astype(np.int64)


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a multiple of 8."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % 8 != 0:
        raise ValueError(f"bit vector length {bits.size} is not a multiple of 8")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit vector must contain only 0s and 1s")
    return np.packbits(bits.astype(np.uint8)).tobytes()
