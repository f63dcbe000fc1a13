"""Message framing for the client/server loop.

Every message is `length (4 bytes LE) || type (1 byte) || body`, where
length counts the type byte plus the body. Request/response pairs:

    0x01 PUNCH_REQ      card element            -> 0x02 PUNCH_RESP
    0x03 REDEEM_REQ     count (2B LE) || u || card -> 0x04 REDEEM_RESP (status)
    0x05 MULTI_REQ      t (1B) || card          -> 0x06 MULTI_RESP
    0x07 MERGE_PUNCH_REQ  two-sided card        -> 0x08 MERGE_PUNCH_RESP
    0x09 MERGE_REDEEM_REQ count || u_a || u_b || value -> 0x0a MERGE_REDEEM_RESP
    0x10 PK_REQ         empty                   -> 0x11 PK_RESP (public key)
    0x7f ERROR          utf-8 text (server to client, fatal for the request)

The framing layer checks only a frame's length (1..MAX_FRAME) and hands
on whatever type byte the frame carries: which types a server serves is
the service's decision, and it answers ERROR to every other one. The
layer knows nothing about group elements; bodies are opaque.
"""

from __future__ import annotations

import struct
import time
from typing import Optional, Tuple

from .errors import WireError

# The largest message is a main MULTI_RESP at t = 255, the ceiling of t_max:
# 1 + 255 * (32 + 96) B of body, 32,642 B with the type byte; every other
# message is under 1 KiB. A reader keeps a frame's bytes until it completes,
# up to FRAME_DEADLINE_S, so this bound caps what each connection can make
# the server hold.
MAX_FRAME = 1 << 16

PUNCH_REQ = 0x01
PUNCH_RESP = 0x02
REDEEM_REQ = 0x03
REDEEM_RESP = 0x04
MULTI_REQ = 0x05
MULTI_RESP = 0x06
MERGE_PUNCH_REQ = 0x07
MERGE_PUNCH_RESP = 0x08
MERGE_REDEEM_REQ = 0x09
MERGE_REDEEM_RESP = 0x0A
PK_REQ = 0x10
PK_RESP = 0x11
ERROR = 0x7F


def _check_length(length: int, error: str = "bad frame length") -> None:
    if not 1 <= length <= MAX_FRAME:
        raise WireError(error)


def pack_frame(msg_type: int, body: bytes) -> bytes:
    _check_length(1 + len(body), "frame too large")
    return struct.pack("<I", 1 + len(body)) + bytes([msg_type]) + body


def unpack_frame(data: bytes) -> Tuple[int, bytes, bytes]:
    """Split one frame off the front; returns (type, body, rest)."""
    if len(data) < 5:
        raise WireError("truncated frame header")
    (length,) = struct.unpack_from("<I", data)
    _check_length(length)
    if len(data) < 4 + length:
        raise WireError("truncated frame body")
    return data[4], data[5 : 4 + length], data[4 + length :]


def send_frame(sock, msg_type: int, body: bytes) -> None:
    sock.sendall(pack_frame(msg_type, body))


def _recv_exact(sock, n: int, deadline: Optional[float]) -> bytes:
    """n bytes from sock. EOFError if the peer closes before the first of
    them, WireError if it closes after."""
    chunks = []
    while n:
        if deadline is not None:
            # once the deadline has passed, take only bytes that arrived before
            sock.settimeout(max(deadline - time.monotonic(), 0.0))
        try:
            chunk = sock.recv(n)
        except BlockingIOError:  # the timeout was 0 and nothing had arrived
            raise TimeoutError("frame deadline passed") from None
        if not chunk:
            raise WireError("connection closed mid-frame") if chunks else EOFError
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock, deadline: Optional[float] = None) -> Tuple[int, bytes]:
    """Blocking read of one frame. Raises WireError on a malformed or
    oversized frame, EOFError on a clean close between frames. With a
    deadline (a time.monotonic() value) the socket's timeout is re-armed
    before each recv, so TimeoutError follows unless the whole frame, header
    and body, has arrived by then; a frame that arrived in time is read
    even after the deadline."""
    (length,) = struct.unpack("<I", _recv_exact(sock, 4, deadline))
    _check_length(length)
    try:
        payload = _recv_exact(sock, length, deadline)
    except EOFError:  # the header came, so the frame had begun
        raise WireError("connection closed mid-frame") from None
    return payload[0], payload[1:]


def reply_body(reply: Tuple[int, bytes], want: int) -> bytes:
    """The body of a (type, body) reply of type want. Any other type raises
    WireError: with the server's text for ERROR, else naming the type."""
    got, body = reply
    if got == want:
        return body
    if got == ERROR:
        raise WireError(body.decode(errors="replace"))
    raise WireError(f"unexpected reply type 0x{got:02x}")


def pack_redeem_body(count: int, message: bytes) -> bytes:
    if not 0 <= count < 1 << 16:
        raise WireError("punch count out of range")
    return struct.pack("<H", count) + message


def unpack_redeem_body(body: bytes) -> Tuple[int, bytes]:
    if len(body) < 2:
        raise WireError("redeem body too short")
    (count,) = struct.unpack_from("<H", body)
    return count, body[2:]


def pack_multi_req(t: int, card: bytes) -> bytes:
    if not 1 <= t <= 255:
        raise WireError("multi-punch size out of range")
    return bytes([t]) + card


def unpack_multi_req(body: bytes) -> Tuple[int, bytes]:
    if len(body) < 2:
        raise WireError("multi-punch request too short")
    return body[0], body[1:]
