import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from punchcard import core, extensions, wire
from punchcard.errors import WireError
from punchcard.groups import get_group


def test_pack_unpack_round_trip():
    for msg_type in (wire.PUNCH_REQ, wire.REDEEM_RESP, wire.ERROR, wire.PK_REQ):
        for body in (b"", b"x", bytes(range(256))):
            frame = wire.pack_frame(msg_type, body)
            got_type, got_body, rest = wire.unpack_frame(frame)
            assert (got_type, got_body, rest) == (msg_type, body, b"")


def test_unpack_leaves_trailing_frames():
    two = wire.pack_frame(wire.PUNCH_REQ, b"a" * 32) + wire.pack_frame(
        wire.PK_REQ, b""
    )
    t1, b1, rest = wire.unpack_frame(two)
    assert t1 == wire.PUNCH_REQ and b1 == b"a" * 32
    t2, b2, rest = wire.unpack_frame(rest)
    assert t2 == wire.PK_REQ and b2 == b"" and rest == b""


def test_pack_rejects_oversize():
    with pytest.raises(WireError):
        wire.pack_frame(wire.PUNCH_REQ, b"\x00" * wire.MAX_FRAME)
    wire.pack_frame(wire.PUNCH_REQ, b"\x00" * (wire.MAX_FRAME - 1))


def test_unpack_rejects_malformed():
    good = wire.pack_frame(wire.PUNCH_RESP, b"abc")
    with pytest.raises(WireError):
        wire.unpack_frame(good[:3])  # short header
    with pytest.raises(WireError):
        wire.unpack_frame(good[:-1])  # short body
    with pytest.raises(WireError):
        wire.unpack_frame(struct.pack("<I", 0) + b"\x01")  # zero length
    with pytest.raises(WireError):
        wire.unpack_frame(struct.pack("<I", wire.MAX_FRAME + 1) + b"\x01" * 10)


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5)
    b.settimeout(5)
    return a, b


def test_send_and_recv_over_socket():
    a, b = _pair()
    try:
        wire.send_frame(a, wire.REDEEM_REQ, b"payload")
        msg_type, body = wire.recv_frame(b)
        assert msg_type == wire.REDEEM_REQ and body == b"payload"
    finally:
        a.close()
        b.close()


def test_recv_reassembles_split_writes():
    a, b = _pair()
    frame = wire.pack_frame(wire.PUNCH_RESP, b"z" * 300)

    def dribble():
        for i in range(0, len(frame), 7):
            a.sendall(frame[i : i + 7])

    t = threading.Thread(target=dribble)
    t.start()
    try:
        msg_type, body = wire.recv_frame(b)
        assert msg_type == wire.PUNCH_RESP and body == b"z" * 300
    finally:
        t.join()
        a.close()
        b.close()


def test_recv_clean_close_and_midframe_close():
    a, b = _pair()
    a.close()
    with pytest.raises(EOFError):
        wire.recv_frame(b)
    b.close()

    a, b = _pair()
    frame = wire.pack_frame(wire.PUNCH_REQ, b"q" * 64)
    a.sendall(frame[:10])
    a.close()
    with pytest.raises(WireError):
        wire.recv_frame(b)
    b.close()

    for n in (1, 2, 3):  # a header cut short is mid-frame too
        a, b = _pair()
        a.sendall(frame[:n])
        a.close()
        with pytest.raises(WireError):
            wire.recv_frame(b)
        b.close()


def test_recv_rejects_bad_length_before_reading_body():
    a, b = _pair()
    try:
        a.sendall(struct.pack("<I", wire.MAX_FRAME + 1))
        with pytest.raises(WireError):
            wire.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_largest_message_fits_a_frame():
    """A main MULTI_RESP of 255 steps, the most t_max allows, packs into a
    frame and reads back whole."""
    g = get_group("ristretto255")
    rng = random.Random(20)
    sk, pk = core.server_setup(g, rng)
    _, card = core.issue(g, rng)
    step = core.punch_chain(g, core.TAG_PUNCH_PROOF, sk, pk, card, 1, rng)[0]
    body = extensions.MultiPunchResponse(steps=[step] * 255).to_bytes(g)
    frame = wire.pack_frame(wire.MULTI_RESP, body)
    assert len(frame) == 4 + 32_642
    a, b = _pair()
    # from a thread: the frame may exceed the socket's buffer
    sender = threading.Thread(target=a.sendall, args=(frame,))
    sender.start()
    try:
        assert wire.recv_frame(b) == (wire.MULTI_RESP, body)
    finally:
        sender.join(5)
        a.close()
        b.close()
    assert not sender.is_alive()


def test_recv_deadline_covers_the_whole_frame():
    a, b = _pair()
    try:
        frame = wire.pack_frame(wire.PUNCH_REQ, b"q" * 64)
        a.sendall(frame[:10])  # then nothing: the frame never completes
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            wire.recv_frame(b, deadline=t0 + 0.2)
        assert 0.15 < time.monotonic() - t0 < 2
        with pytest.raises(TimeoutError):  # a deadline already passed
            wire.recv_frame(b, deadline=time.monotonic())
        # a frame that arrived in time is read after its deadline
        wire.send_frame(a, wire.PK_REQ, b"")
        assert wire.recv_frame(b, deadline=t0) == (wire.PK_REQ, b"")
    finally:
        a.close()
        b.close()


_FRAMES = st.builds(wire.pack_frame, st.integers(0, 255), st.binary(max_size=40))


@settings(max_examples=50, deadline=None)
@given(
    stream=st.lists(st.one_of(_FRAMES, st.binary(max_size=9)), max_size=5).map(b"".join),
    data=st.data(),
)
def test_recv_frame_agrees_with_unpack_frame(stream, data):
    """Any byte stream, written in any pieces, gives the frames
    unpack_frame finds in the whole stream, then EOFError if the stream
    ends at a frame boundary, else WireError."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    with_deadline = data.draw(st.booleans())
    expected, rest, end = [], stream, EOFError
    while rest:
        try:
            msg_type, body, rest = wire.unpack_frame(rest)
        except WireError:
            end = WireError
            break
        expected.append((msg_type, body))

    a, b = _pair()

    def write():
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            a.sendall(stream[lo:hi])
            time.sleep(0.001)
        a.shutdown(socket.SHUT_WR)

    writer = threading.Thread(target=write)
    writer.start()
    got = []
    try:
        with pytest.raises(end):
            while True:
                deadline = time.monotonic() + 5 if with_deadline else None
                got.append(wire.recv_frame(b, deadline=deadline))
        assert got == expected
    finally:
        writer.join(timeout=5)
        assert not writer.is_alive()
        a.close()
        b.close()


def test_redeem_body_round_trip():
    body = wire.pack_redeem_body(10, b"m" * 96)
    assert wire.unpack_redeem_body(body) == (10, b"m" * 96)
    with pytest.raises(WireError):
        wire.pack_redeem_body(-1, b"")
    with pytest.raises(WireError):
        wire.pack_redeem_body(1 << 16, b"")
    with pytest.raises(WireError):
        wire.unpack_redeem_body(b"\x01")


def test_multi_req_round_trip():
    body = wire.pack_multi_req(7, b"c" * 32)
    assert wire.unpack_multi_req(body) == (7, b"c" * 32)
    for bad in (0, 256):
        with pytest.raises(WireError):
            wire.pack_multi_req(bad, b"c" * 32)
    with pytest.raises(WireError):
        wire.unpack_multi_req(b"\x07")
