import pytest

from privateyes.field import FieldParams, vector_to_bytes
from privateyes.simnet import (
    BEHAVIORS,
    EDGE_CLIENT_TO_SERVER,
    EDGE_DEALER,
    EDGE_SERVER_TO_CLIENT,
    EDGE_SERVER_TO_SERVER,
    FRAME_OVERHEAD,
    MAGIC,
    VERSION,
    AdversarySpec,
    CommMetrics,
    FrameError,
    MsgType,
    Network,
    WireMessage,
    decode_message,
    edge_class,
    encode_message,
    overhead_ratio,
)

P = FieldParams()
ROLES = {0: "dealer", 1: "server", 2: "server", 3: "client"}


def test_frame_overhead_is_24():
    assert FRAME_OVERHEAD == 24
    msg = WireMessage(MsgType.COMMIT, 1, 0, 1, b"")
    assert len(encode_message(msg)) == 24


def test_frame_roundtrip():
    msg = WireMessage(MsgType.SHARE_UPLOAD, 7, 3, 1, b"\x01\x02\x03")
    data = encode_message(msg)
    assert data[:2] == MAGIC
    assert data[2] == VERSION
    out = decode_message(data)
    assert out == msg
    assert len(data) == FRAME_OVERHEAD + 3


def test_frame_validation():
    good = encode_message(WireMessage(MsgType.COMMIT, 0, 0, 1, b"xy"))
    with pytest.raises(FrameError):
        decode_message(good[:10])
    with pytest.raises(FrameError):
        decode_message(b"XX" + good[2:])
    bad_version = good[:2] + bytes([9]) + good[3:]
    with pytest.raises(FrameError):
        decode_message(bad_version)
    with pytest.raises(FrameError):
        decode_message(good + b"extra")
    with pytest.raises(FrameError):
        encode_message(WireMessage(99, 0, 0, 1, b""))


def test_edge_classes():
    assert edge_class("dealer", "server") == EDGE_DEALER
    assert edge_class("client", "dealer") == EDGE_DEALER
    assert edge_class("client", "server") == EDGE_CLIENT_TO_SERVER
    assert edge_class("server", "client") == EDGE_SERVER_TO_CLIENT
    assert edge_class("server", "server") == EDGE_SERVER_TO_SERVER


def test_metrics_accumulate_and_conserve():
    net = Network(ROLES, P, log_frames=True)
    payload = vector_to_bytes([1, 2, 3])
    net.send(WireMessage(MsgType.INPUT_OFFSET, 1, 3, 1, payload))
    net.send(WireMessage(MsgType.MASK_DELIVERY, 1, 0, 1, payload))
    net.send(WireMessage(MsgType.OPEN_SHARE, 2, 1, 2, payload))
    frame = FRAME_OVERHEAD + len(payload)
    assert net.metrics.totals[EDGE_CLIENT_TO_SERVER] == frame
    assert net.metrics.totals[EDGE_DEALER] == frame
    assert net.metrics.totals[EDGE_SERVER_TO_SERVER] == frame
    assert net.metrics.total_bytes() == 3 * frame
    assert net.metrics.total_bytes() == sum(rec["bytes"] for rec in net.log)
    assert net.metrics.per_round[1][EDGE_DEALER] == frame
    assert net.metrics.message_counts[EDGE_CLIENT_TO_SERVER] == 1


def test_fifo_recv_with_filters():
    net = Network(ROLES, P)
    net.send(WireMessage(MsgType.COMMIT, 1, 1, 2, b"a"))
    net.send(WireMessage(MsgType.REVEAL, 1, 1, 2, b"b"))
    net.send(WireMessage(MsgType.COMMIT, 1, 0, 2, b"c"))
    assert net.recv(2, MsgType.REVEAL, 1, 1).payload == b"b"
    assert net.recv(2, MsgType.COMMIT, 0, 1).payload == b"c"
    assert net.recv(2, MsgType.COMMIT, 1, 1).payload == b"a"
    assert net.recv(2, MsgType.COMMIT, 1, 1) is None  # timeout


def test_honest_frames_never_mutated():
    net = Network(ROLES, P, AdversarySpec())  # passive-record
    payload = vector_to_bytes([42])
    net.send(WireMessage(MsgType.OPEN_SHARE, 1, 1, 2, payload))
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 1).payload == payload


def test_tamper_share_mutates_first_element():
    adv = AdversarySpec(corrupted_servers=frozenset({1}), behavior="tamper-share")
    net = Network(ROLES, P, adv)
    net.send(WireMessage(MsgType.OPEN_SHARE, 1, 1, 2, vector_to_bytes([5, 7])))
    got = net.recv(2, MsgType.OPEN_SHARE, 1, 1)
    from privateyes.field import to_ints, vector_from_bytes

    assert to_ints(vector_from_bytes(got.payload)) == [6, 7]
    # Frames from honest servers are untouched.
    net.send(WireMessage(MsgType.OPEN_SHARE, 1, 2, 1, vector_to_bytes([5])))
    assert net.recv(1, MsgType.OPEN_SHARE, 2, 1).payload == vector_to_bytes([5])


def test_withhold_drops_frame():
    adv = AdversarySpec(corrupted_servers=frozenset({1}), behavior="withhold")
    net = Network(ROLES, P, adv)
    net.send(WireMessage(MsgType.OPEN_SHARE, 1, 1, 2, b""))
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 1) is None
    assert len(net.dropped) == 1


def test_target_round_scopes_adversary():
    adv = AdversarySpec(corrupted_servers=frozenset({1}), behavior="withhold", target_round=5)
    net = Network(ROLES, P, adv)
    net.send(WireMessage(MsgType.OPEN_SHARE, 4, 1, 2, b""))
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 4) is not None
    net.send(WireMessage(MsgType.OPEN_SHARE, 5, 1, 2, b""))
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 5) is None


def test_adversary_view_captures_corrupted_endpoints():
    adv = AdversarySpec(corrupted_servers=frozenset({2}))
    net = Network(ROLES, P, adv)
    net.send(WireMessage(MsgType.COMMIT, 1, 1, 2, b"seen"))
    net.send(WireMessage(MsgType.COMMIT, 1, 0, 1, b"unseen"))
    assert len(net.adversary_view) == 1
    assert net.adversary_view[0]["payload"] == b"seen"


def test_unknown_behavior_rejected():
    with pytest.raises(ValueError):
        AdversarySpec(behavior="replay")
    assert "passive-record" in BEHAVIORS


def test_determinism_of_byte_counts():
    def run():
        net = Network(ROLES, P, log_frames=True)
        for i in range(10):
            net.send(WireMessage(MsgType.COMMIT, 1, 1, 2, bytes([i])))
        return net.metrics.totals[EDGE_SERVER_TO_SERVER], [r["bytes"] for r in net.log]

    assert run() == run()


def test_overhead_ratio():
    secure = CommMetrics()
    secure.add(1, EDGE_CLIENT_TO_SERVER, 300)
    secure.add(1, EDGE_SERVER_TO_CLIENT, 300)
    secure.add(1, EDGE_DEALER, 100)
    secure.add(1, EDGE_SERVER_TO_SERVER, 999)  # excluded from the numerator
    baseline = CommMetrics()
    baseline.add(1, EDGE_CLIENT_TO_SERVER, 50)
    baseline.add(1, EDGE_SERVER_TO_CLIENT, 50)
    assert overhead_ratio(secure, baseline) == 7.0


ROLES5 = {0: "dealer", 1: "server", 2: "server", 3: "client", 4: "client"}
# One message type over every edge class, in a deliberately mixed order.
MIXED = [
    (0, 1, vector_to_bytes([1, 2])),
    (0, 3, vector_to_bytes([3])),
    (3, 1, vector_to_bytes([4, 5, 6])),
    (1, 2, vector_to_bytes([7])),
    (2, 1, vector_to_bytes([8, 9])),
    (2, 4, b""),
    (4, 2, vector_to_bytes([10])),
    (0, 2, vector_to_bytes([11])),
]


@pytest.mark.parametrize("adversary", [
    None,
    AdversarySpec(corrupted_servers=frozenset({2})),
    AdversarySpec(corrupted_clients=frozenset({4})),
    AdversarySpec(corrupted_servers=frozenset({2}), behavior="tamper-share"),
    AdversarySpec(corrupted_servers=frozenset({2}), behavior="withhold"),
], ids=["honest", "passive-server", "passive-client", "tamper-share", "withhold"])
def test_send_many_bookkeeping_matches_single_sends(adversary):
    batched = Network(ROLES5, P, adversary, log_frames=True)
    single = Network(ROLES5, P, adversary, log_frames=True)
    batched.send_many(MsgType.OPEN_SHARE, 3, MIXED)
    for sender, receiver, payload in MIXED:
        single.send(WireMessage(MsgType.OPEN_SHARE, 3, sender, receiver, payload))
    for net in (batched, single):
        # Arithmetic metering agrees with the encoded size of what was delivered.
        delivered = [m for inbox in net.inboxes.values() for m in inbox]
        assert net.metrics.total_bytes() == sum(len(encode_message(m)) for m in delivered)
        assert sum(net.metrics.message_counts.values()) == len(delivered) == len(net.log)
    assert batched.metrics.per_round == single.metrics.per_round
    assert list(batched.metrics.per_round[3]) == list(single.metrics.per_round[3])
    assert batched.metrics.totals == single.metrics.totals
    assert batched.metrics.message_counts == single.metrics.message_counts
    assert batched.log == single.log
    assert batched.adversary_view == single.adversary_view
    assert batched.dropped == single.dropped
    assert {r: list(q) for r, q in batched.inboxes.items()} == {
        r: list(q) for r, q in single.inboxes.items()}


def test_frame_log_is_opt_in():
    quiet = Network(ROLES5, P)
    quiet.send_many(MsgType.OPEN_SHARE, 3, MIXED)
    assert quiet.log == []
    assert sum(quiet.metrics.message_counts.values()) == len(MIXED)


def test_send_many_rejects_unknown_type():
    net = Network(ROLES5, P)
    with pytest.raises(FrameError):
        net.send_many(99, 1, MIXED)
    assert net.metrics.total_bytes() == 0


def test_recv_many_takes_the_frames_recv_would():
    edges = [(1, 0), (1, 3), (2, 1), (4, 2), (1, 2), (2, 0), (3, 0), (2, 4), (1, 4)]
    batched = Network(ROLES5, P)
    single = Network(ROLES5, P)
    for net in (batched, single):
        net.send_many(MsgType.OPEN_SHARE, 3, MIXED)
    got = batched.recv_many(MsgType.OPEN_SHARE, 3, edges)
    assert got == [single.recv(r, MsgType.OPEN_SHARE, s, 3) for r, s in edges]
    assert got[-1] is None  # nothing from client 4 to server 1
    assert {r: list(q) for r, q in batched.inboxes.items()} == {
        r: list(q) for r, q in single.inboxes.items()}


def test_recv_matches_the_round():
    net = Network(ROLES, P)
    net.send(WireMessage(MsgType.OPEN_SHARE, 1, 1, 2, b"old"))
    net.send(WireMessage(MsgType.OPEN_SHARE, 2, 1, 2, b"new"))
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 2).payload == b"new"
    assert net.recv_many(MsgType.OPEN_SHARE, 2, [(2, 1)]) == [None]
    assert net.recv_many(MsgType.OPEN_SHARE, 1, [(2, 1)])[0].payload == b"old"


def test_wire_message_is_immutable():
    msg = WireMessage(MsgType.COMMIT, 1, 0, 1, b"x")
    with pytest.raises(AttributeError):
        msg.payload = b"y"
