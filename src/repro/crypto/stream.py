"""CTR-mode keystream built on SHA-256.

Each 32-byte keystream block is ``SHA256(key || nonce || counter)``; the
plaintext is XORed against the concatenated blocks.  With unique
(key, nonce) pairs -- enforced by :class:`repro.crypto.secure_channel.
SecureChannel` -- blocks never repeat, giving the stream-cipher security
the one-time-pad argument of S6 needs on the wired side of the relay.
"""

from __future__ import annotations

import hashlib

__all__ = ["keystream", "xor_stream"]


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Deterministic keystream of ``length`` bytes for (key, nonce)."""
    if length < 0:
        raise ValueError("length cannot be negative")
    if not key:
        raise ValueError("key must be non-empty")
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(
            key + nonce + counter.to_bytes(8, "big")
        ).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def xor_stream(data: bytes, key: bytes, nonce: bytes) -> bytes:
    """XOR data against the (key, nonce) keystream; its own inverse."""
    stream = keystream(key, nonce, len(data))
    return bytes(d ^ s for d, s in zip(data, stream))
