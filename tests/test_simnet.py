import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privateyes.field import FieldParams, from_ints, random_vector, vector_to_bytes
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
    batched.send_many(MsgType.OPEN_SHARE, 3, *zip(*MIXED))
    for sender, receiver, payload in MIXED:
        single.send(WireMessage(MsgType.OPEN_SHARE, 3, sender, receiver, payload))
    for net in (batched, single):
        # Arithmetic metering agrees with the encoded size of what was delivered.
        delivered = net.pending()
        assert net.metrics.total_bytes() == sum(len(encode_message(m)) for m in delivered)
        assert sum(net.metrics.message_counts.values()) == len(delivered) == len(net.log)
    assert batched.metrics.per_round == single.metrics.per_round
    assert list(batched.metrics.per_round[3]) == list(single.metrics.per_round[3])
    assert batched.metrics.totals == single.metrics.totals
    assert batched.metrics.message_counts == single.metrics.message_counts
    assert batched.log == single.log
    assert batched.adversary_view == single.adversary_view
    assert batched.dropped == single.dropped
    assert batched.pending() == single.pending()


def test_frame_log_is_opt_in():
    quiet = Network(ROLES5, P)
    quiet.send_many(MsgType.OPEN_SHARE, 3, *zip(*MIXED))
    assert quiet.log == []
    assert sum(quiet.metrics.message_counts.values()) == len(MIXED)


def test_send_many_rejects_unknown_type():
    net = Network(ROLES5, P)
    with pytest.raises(FrameError):
        net.send_many(99, 1, *zip(*MIXED))
    assert net.metrics.total_bytes() == 0


def test_recv_many_takes_the_frames_recv_would():
    edges = [(1, 0), (1, 3), (2, 1), (4, 2), (1, 2), (2, 0), (3, 0), (2, 4)]
    batched = Network(ROLES5, P)
    single = Network(ROLES5, P)
    for net in (batched, single):
        net.send_many(MsgType.OPEN_SHARE, 3, *zip(*MIXED))
    got = batched.recv_many(MsgType.OPEN_SHARE, 3, *zip(*edges))
    assert got == [single.recv(r, MsgType.OPEN_SHARE, s, 3).payload for r, s in edges]
    assert batched.recv_many(MsgType.OPEN_SHARE, 3, [1], [4]) is None  # nothing from 4 to 1
    assert batched.pending() == single.pending()


def test_recv_many_with_a_missing_edge_takes_the_present_frames():
    """A batch with a missing edge among present ones times out as a whole,
    but takes the frames that are there, as per-edge recv would."""
    edges = [(1, 0), (1, 3), (2, 1), (1, 4), (4, 2), (1, 2), (2, 0)]  # nothing from 4 to 1
    batched = Network(ROLES5, P)
    single = Network(ROLES5, P)
    for net in (batched, single):
        net.send_many(MsgType.OPEN_SHARE, 3, *zip(*MIXED))
    assert batched.recv_many(MsgType.OPEN_SHARE, 3, *zip(*edges)) is None
    assert [single.recv(r, MsgType.OPEN_SHARE, s, 3) is None for r, s in edges] == [
        False, False, False, True, False, False, False]
    assert batched.pending() == single.pending()


def test_recv_many_gathers_rows_of_one_array():
    rows = from_ints(range(12)).reshape(6, 2, 2)
    edges = [(1, 0), (2, 0), (3, 1), (4, 2), (1, 3), (2, 4)]
    senders, receivers = [s for _, s in edges], [r for r, _ in edges]
    nets = [Network(ROLES5, P), Network(ROLES5, P)]
    for net in nets:
        net.send_many(MsgType.INPUT_OFFSET, 3, senders, receivers, rows, [5, 4, 3, 2, 1, 0])
    got = nets[0].recv_many(MsgType.INPUT_OFFSET, 3, receivers, senders)
    assert isinstance(got, np.ndarray) and got.flags.writeable
    assert np.array_equal(got, rows[::-1])
    # Out of send order, the frames are still found, as bytes.
    got = nets[1].recv_many(MsgType.INPUT_OFFSET, 3, receivers[::-1], senders[::-1])
    assert got == [row.tobytes() for row in rows]
    assert all(net.pending() == [] for net in nets)


def test_recv_matches_the_round():
    net = Network(ROLES, P)
    net.send(WireMessage(MsgType.OPEN_SHARE, 1, 1, 2, b"old"))
    net.send(WireMessage(MsgType.OPEN_SHARE, 2, 1, 2, b"new"))
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 2).payload == b"new"
    assert net.recv_many(MsgType.OPEN_SHARE, 2, [2], [1]) is None
    assert net.recv_many(MsgType.OPEN_SHARE, 1, [2], [1]) == [b"old"]


def test_sent_rows_are_frozen():
    """An array sent as rows is read-only afterwards, so a write after the
    send cannot change a frame already delivered."""
    value_vecs = from_ints([1, 2, 3, 4]).reshape(2, 2, 2)
    net = Network(ROLES, P)
    net.send_many(MsgType.SHARE_UPLOAD, 1, [1, 2], [3, 3], value_vecs, [0, 1])
    with pytest.raises(ValueError, match="read-only"):
        value_vecs[0] = from_ints([9, 9])
    with pytest.raises(ValueError, match="read-only"):
        value_vecs += 1
    assert net.recv(3, MsgType.SHARE_UPLOAD, 1, 1).payload == vector_to_bytes([1, 2])
    assert net.recv(3, MsgType.SHARE_UPLOAD, 2, 1).payload == vector_to_bytes([3, 4])


def test_hooked_row_is_copied_before_mutation():
    adv = AdversarySpec(corrupted_servers=frozenset({1}), behavior="tamper-share")
    net = Network(ROLES, P, adv)
    shares = from_ints([5, 7, 8, 9]).reshape(2, 2, 2)
    before = shares.copy()
    net.send_many(MsgType.OPEN_SHARE, 1, [1, 2], [2, 1], shares, [0, 1])
    assert np.array_equal(shares, before)
    assert net.recv(2, MsgType.OPEN_SHARE, 1, 1).payload == vector_to_bytes([6, 7])
    assert net.recv(1, MsgType.OPEN_SHARE, 2, 1).payload == vector_to_bytes([8, 9])


def test_wire_message_is_immutable():
    msg = WireMessage(MsgType.COMMIT, 1, 0, 1, b"x")
    with pytest.raises(AttributeError):
        msg.payload = b"y"


ROLES7 = {0: "dealer", 1: "server", 2: "server", 3: "server", 4: "client", 5: "client",
          6: "client"}
VECTOR_TYPES = (MsgType.MASK_DELIVERY, MsgType.INPUT_OFFSET, MsgType.OPEN_SHARE,
                MsgType.SHARE_UPLOAD)


def _sent_both_ways(msg_type, frames, arrays, adversary, log_frames):
    """The same frames, (sender, receiver, array, row), sent once as one
    stacked-row batch over the arrays and once as one ``send`` per frame."""
    rows_net = Network(ROLES7, P, adversary, log_frames=log_frames)
    single = Network(ROLES7, P, adversary, log_frames=log_frames)
    senders, receivers, which, rows = (list(column) for column in zip(*frames))
    starts = np.cumsum([0] + [len(a) for a in arrays])
    rows_net.send_many(msg_type, 1, senders, receivers, tuple(arrays),
                       [starts[a] + i for a, i in zip(which, rows)])
    for sender, receiver, a, i in frames:
        single.send(WireMessage(msg_type, 1, sender, receiver, vector_to_bytes(arrays[a][i])))
    return rows_net, single


def _taken_bytes(got):
    return None if got is None else [bytes(row) if isinstance(row, bytes) else row.tobytes()
                                     for row in got]


def _check_row_and_single_sends_agree(msg_type, frames, arrays, adversary, log_frames):
    rows_net, single = _sent_both_ways(msg_type, frames, arrays, adversary, log_frames)
    assert list(rows_net.metrics.per_round[1].items()) == list(single.metrics.per_round[1].items())
    assert list(rows_net.metrics.totals.items()) == list(single.metrics.totals.items())
    assert rows_net.metrics.message_counts == single.metrics.message_counts
    assert rows_net.log == single.log
    assert rows_net.adversary_view == single.adversary_view
    assert rows_net.dropped == single.dropped
    taken = [[None if m is None else m.payload
              for m in (net.recv(r, msg_type, s, 1) for s, r, _, _ in frames)]
             for net in (rows_net, single)]
    assert taken[0] == taken[1]
    assert rows_net.pending() == []
    # The batched receive takes the same bytes, stacked or not.
    rows_net, single = _sent_both_ways(msg_type, frames, arrays, adversary, log_frames)
    senders, receivers = [f[0] for f in frames], [f[1] for f in frames]
    got = rows_net.recv_many(msg_type, 1, receivers, senders)
    assert _taken_bytes(got) == _taken_bytes(single.recv_many(msg_type, 1, receivers, senders))
    if adversary is None and len({a for _, _, a, _ in frames}) == 1:
        assert isinstance(got, np.ndarray)


@st.composite
def _row_batches(draw):
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    lengths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    arrays = [random_vector(gen, (4, length), P) for length in lengths]
    parties = sorted(ROLES7)
    frames = draw(st.lists(
        st.tuples(st.sampled_from(parties), st.sampled_from(parties),
                  st.integers(0, len(arrays) - 1), st.integers(0, 3))
        .filter(lambda f: f[0] != f[1]), min_size=1, max_size=10))
    adversary = draw(st.none() | st.builds(
        AdversarySpec,
        corrupted_servers=st.frozensets(st.sampled_from([1, 2, 3])),
        corrupted_clients=st.frozensets(st.sampled_from([4, 5, 6])),
        behavior=st.sampled_from(BEHAVIORS),
        target_round=st.sampled_from([None, 1, 2])))
    return draw(st.sampled_from(VECTOR_TYPES)), frames, arrays, adversary, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_row_batches())
def test_row_and_single_sends_agree(batch):
    """A stacked-row batch and one ``send`` per frame deliver the same bytes
    and keep the same books, whatever the adversary hooks or watches."""
    _check_row_and_single_sends_agree(*batch)


@pytest.mark.parametrize("behavior", ["tamper-share", "withhold"])
@pytest.mark.parametrize("log_frames", [False, True])
def test_one_hooked_frame_among_honest_neighbours(behavior, log_frames):
    arrays = [from_ints(range(6)).reshape(3, 2, 2)]
    frames = [(1, 3, 0, 0), (2, 1, 0, 1), (3, 2, 0, 2)]  # only server 2's frame is hooked
    adv = AdversarySpec(corrupted_servers=frozenset({2}), behavior=behavior)
    _check_row_and_single_sends_agree(MsgType.OPEN_SHARE, frames, arrays, adv, log_frames)
    rows_net, _ = _sent_both_ways(MsgType.OPEN_SHARE, frames, arrays, adv, log_frames)
    got = [rows_net.recv(r, MsgType.OPEN_SHARE, s, 1) for s, r, _, _ in frames]
    assert got[0].payload == vector_to_bytes([0, 1])
    assert got[2].payload == vector_to_bytes([4, 5])
    if behavior == "withhold":
        assert got[1] is None and len(rows_net.dropped) == 1
    else:
        assert got[1].payload == vector_to_bytes([3, 3])
    assert np.array_equal(arrays[0], from_ints(range(6)).reshape(3, 2, 2))


# The delivery rule against a FIFO list model: a receive takes, per edge, the
# first untaken frame of its type, sender, receiver and round, in send order.
# OPEN_SHARE frames from server 3 are withheld, which hooks their batch.
EDGE_POOL = [(0, 1), (0, 4), (0, 5), (1, 2), (2, 1), (4, 1), (5, 2), (1, 4), (3, 4), (3, 1)]
SLOTS = [(MsgType.MASK_DELIVERY, 1), (MsgType.MASK_DELIVERY, 2), (MsgType.OPEN_SHARE, 1)]
WITHHOLD_3 = AdversarySpec(corrupted_servers=frozenset({3}), behavior="withhold")


@st.composite
def _traffic(draw):
    """Sends and receives, interleaved: ("send", slot, edges, kind, seed) with
    edges as (sender, receiver), and ("recv_many" | "recv", slot, requests)
    with requests as (receiver, sender)."""
    ops, sent = [], []
    for _ in range(draw(st.integers(1, 10))):
        if not sent or draw(st.integers(0, 2)) == 0:
            slot = draw(st.sampled_from(SLOTS))
            edges = draw(st.lists(st.sampled_from(EDGE_POOL), min_size=1, max_size=8))
            kind = draw(st.sampled_from(["bytes", "rows", "two-arrays"]))
            ops.append(("send", slot, edges, kind, draw(st.integers(0, 2**32 - 1))))
            sent.append((slot, edges))
            continue
        slot, edges = draw(st.sampled_from(sent))
        requests = [(r, s) for s, r in edges]
        how = draw(st.sampled_from(["whole", "shuffled", "some", "missing", "one"]))
        if how == "shuffled":
            requests = draw(st.permutations(requests))
        elif how == "some":
            requests = draw(st.lists(st.sampled_from(requests), min_size=1, max_size=len(requests)))
        elif how == "missing":
            requests = requests + [(6, draw(st.sampled_from([0, 1, 2])))]  # nothing goes to 6
        elif how == "one":
            ops.append(("recv", slot, [draw(st.sampled_from(requests))]))
            continue
        ops.append(("recv_many", slot, requests))
    return ops


def _send_batch(net, model, slot, edges, kind, seed):
    gen = np.random.default_rng(seed)
    senders, receivers = [s for s, _ in edges], [r for _, r in edges]
    hooked = slot[0] == MsgType.OPEN_SHARE and 3 in senders
    if kind == "bytes":
        payloads = [gen.bytes(int(gen.integers(0, 5))) for _ in edges]
        net.send_many(*slot, senders, receivers, payloads)
        stacked = False
    else:
        arrays = [random_vector(gen, (len(edges), 2), P)]
        if kind == "two-arrays":
            arrays.append(random_vector(gen, (len(edges), 1), P))
        rows = gen.integers(0, len(arrays) * len(edges), len(edges))
        sources = [divmod(int(row), len(edges)) for row in rows]
        payloads = [arrays[a][i].tobytes() for a, i in sources]
        net.send_many(*slot, senders, receivers, tuple(arrays) if len(arrays) > 1 else arrays[0],
                      rows)
        stacked = len({a for a, _ in sources}) == 1 and not hooked
    batch = object()
    model += [{"slot": slot, "edge": edge, "payload": payload, "batch": batch, "taken": False,
               "stacked": stacked, "hooked": hooked}
              for edge, payload in zip(edges, payloads)
              if not (hooked and edge[0] == 3)]


def _model_take(model, slot, requests):
    taken = []
    for receiver, sender in requests:
        frame = next((f for f in model if f["slot"] == slot and f["edge"] == (sender, receiver)
                      and not f["taken"]), None)
        if frame is not None:
            frame["taken"] = True
        taken.append(frame)
    return taken


def _whole_first_batch(model, slot, requests):
    """Whether the request is, in send order, every frame of a batch whose
    frames are the first untaken ones of the slot."""
    pending = [f for f in model if f["slot"] == slot and not f["taken"]]
    if not pending:
        return False
    batch = [f for f in model if f["batch"] is pending[0]["batch"]]
    return (all(not f["taken"] for f in batch) and pending[:len(batch)] == batch
            and [(r, s) for s, r in (f["edge"] for f in batch)] == list(requests))


def _edge_order(frames):
    return sorted(frames, key=lambda f: (int(f[0]), f[1], f[2], f[3]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_traffic())
def test_delivery_matches_a_fifo_model(ops):
    net, model = Network(ROLES7, P, WITHHOLD_3), []
    for op in ops:
        if op[0] == "send":
            _send_batch(net, model, *op[1:])
            continue
        _, slot, requests = op
        whole = _whole_first_batch(model, slot, requests)
        expected = _model_take(model, slot, requests)
        if op[0] == "recv":
            (receiver, sender), = requests
            got = net.recv(receiver, slot[0], sender, slot[1])
            assert (None if got is None else [got.payload]) == (
                None if None in expected else [f["payload"] for f in expected])
            continue
        got = net.recv_many(*slot, *zip(*requests))
        if None in expected:
            assert got is None
            continue
        assert _taken_bytes(got) == [f["payload"] for f in expected]
        if whole and all(f["stacked"] for f in expected):
            assert isinstance(got, np.ndarray) and got.flags.writeable
        if any(f["hooked"] for f in expected):
            assert isinstance(got, list)
    left = [(f["slot"][0], f["slot"][1], *f["edge"], f["payload"]) for f in model if not f["taken"]]
    assert _edge_order(tuple(m) for m in net.pending()) == _edge_order(left)


def test_whole_batch_receives_are_stacked_and_hooked_ones_are_bytes():
    """The dealer's mask batch splits by receiver role: the clients' and the
    servers' receives each take one record as a stacked array. A hooked
    batch comes back as bytes."""
    r, shares = from_ints(range(2)).reshape(2, 1, 2), from_ints(range(10, 14)).reshape(4, 1, 2)
    net = Network(ROLES7, P, WITHHOLD_3)
    # Client 4's r, servers 1 and 2's shares of it; then client 5's.
    net.send_many(MsgType.MASK_DELIVERY, 1, [0] * 6, [4, 1, 2, 5, 1, 2], (r, shares),
                  [0, 2, 3, 1, 4, 5])
    got = net.recv_many(MsgType.MASK_DELIVERY, 1, [4, 5], [0, 0])
    assert isinstance(got, np.ndarray) and np.array_equal(got, r)
    got = net.recv_many(MsgType.MASK_DELIVERY, 1, [1, 2, 1, 2], [0] * 4)
    assert isinstance(got, np.ndarray) and np.array_equal(got, shares)
    net.send_many(MsgType.OPEN_SHARE, 1, [1, 3, 2], [2, 1, 1], shares, [0, 1, 2])
    got = net.recv_many(MsgType.OPEN_SHARE, 1, [2, 1], [1, 2])
    assert got == [shares[0].tobytes(), shares[2].tobytes()]
    assert net.pending() == [] and len(net.dropped) == 1
