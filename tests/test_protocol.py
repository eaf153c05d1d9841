import functools
import hashlib
import json
from collections import defaultdict
from random import Random

import numpy as np
import pytest

from privateyes.aggregation import plaintext_adaptive_fl_oracle
from privateyes.fedcore import ModelSpec, TrainConfig, gen_synthetic_population
from privateyes.field import (
    FieldError,
    FieldParams,
    FixedPointCodec,
    from_ints,
    to_ints,
    vec_add,
    vec_mul,
)
from privateyes import protocol
from privateyes.protocol import (
    DEALER_ID,
    _distribute_key_shares,
    client_wire_id,
    run_secure_aggregation,
    run_training,
    server_wire_id,
)
from privateyes.sharing import (
    ABORT_EQUIVOCATION,
    ABORT_MAC_FAILURE,
    ABORT_TIMEOUT,
    Dealer,
    KeyShareError,
)
from privateyes.simnet import (
    SIGMA_COMMITTED,
    SIGMA_REVEALED,
    AdversarySpec,
    MsgType,
    Network,
    WireMessage,
)
from privateyes.util import derive_seed

P23 = FieldParams(q=23, f_bits=0)
BIG = FieldParams()


def test_wire_ids():
    assert DEALER_ID == 0
    assert server_wire_id(0) == 1
    assert client_wire_id(3, 0) == 4


def test_golden_vector_aggregation():
    # Inputs (3, 10, 8) in Z_23: opened sum 21, client average 7.
    res = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 3, P23, seed=0)
    opened = to_ints(res.opened)
    assert opened == [21]
    codec = FixedPointCodec(P23, signed=False)
    assert codec.decode(opened[0]) / 3 == 7.0
    assert all(to_ints(sums) == [21] for sums in res.client_sums.values())
    # The per-server aggregate shares reconstruct the same sum.
    assert sum(to_ints(v)[0] for v in res.per_server_value_shares) % 23 == 21


def test_aggregation_deterministic(monkeypatch):
    monkeypatch.setattr(protocol, "Network", functools.partial(Network, log_frames=True))
    a = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 3, P23, seed=4)
    b = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 3, P23, seed=4)
    assert [to_ints(v) for v in a.per_server_value_shares] == [
        to_ints(v) for v in b.per_server_value_shares
    ]
    assert [r["bytes"] for r in a.net.log] == [r["bytes"] for r in b.net.log]


def test_vector_aggregation_big_field():
    rng = Random(0)
    inputs = {j: [rng.randrange(BIG.q) for _ in range(5)] for j in range(4)}
    res = run_secure_aggregation(inputs, 3, BIG, seed=1)
    expected = [sum(inputs[j][t] for j in inputs) % BIG.q for t in range(5)]
    assert to_ints(res.opened) == expected


@pytest.mark.parametrize(
    "behavior,reason",
    [
        ("tamper-share", ABORT_MAC_FAILURE),
        ("tamper-epsilon", ABORT_MAC_FAILURE),
        ("forge-sigma", ABORT_MAC_FAILURE),
        ("equivocate-commit", ABORT_EQUIVOCATION),
        ("withhold", ABORT_TIMEOUT),
    ],
)
def test_deviations_abort(behavior, reason):
    adv = AdversarySpec(corrupted_servers=frozenset({2}), behavior=behavior)
    res = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 3, BIG, seed=2, adversary=adv)
    assert res.opened is None
    assert res.abort_reason == reason


def test_passive_adversary_learns_nothing_and_no_abort():
    adv = AdversarySpec(corrupted_servers=frozenset({1}))
    res = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 3, BIG, seed=3, adversary=adv)
    assert res.opened is not None
    assert len(res.net.adversary_view) > 0


def test_view_swap_indistinguishability():
    """Swapping two inputs while preserving the sum leaves the corrupted
    servers' views byte-identical under matched dealer randomness."""
    seed = 11
    adv = AdversarySpec(corrupted_servers=frozenset({1, 2}))  # servers 0 and 1
    inputs_a = {0: [5], 1: [9], 2: [4]}
    shift = 3
    inputs_b = {0: [(5 + shift) % BIG.q], 1: [(9 - shift) % BIG.q], 2: [4]}

    class AdjustedDealer(Dealer):
        """Replays the base dealer's randomness but shifts the masks of the
        two swapped clients, absorbing the difference into the one honest
        server's share so all corrupted shares stay identical."""

        def __init__(self, n, rng, params, adjustments):
            super().__init__(n, rng, params)
            self.adjustments = adjustments

        def issue_masks(self, client_id, count):
            # The round asks for the whole cohort's masks in one call.
            masks = super().issue_masks(client_id, count)
            for j, cid in enumerate(client_id):
                d = self.adjustments.get(cid, 0)
                if d:
                    p = self.params
                    shift = from_ints([d % p.q] * count)
                    mac_shift = vec_mul(from_ints([self.mac_key])[0], shift, p)
                    honest = masks.server_shares[j, self.n - 1]
                    masks.r[j] = vec_add(masks.r[j], shift, p)
                    masks.server_shares[j, self.n - 1] = np.concatenate(
                        [vec_add(honest[:count], shift, p), vec_add(honest[count:], mac_shift, p)]
                    )
            return masks

    dealer_a = Dealer(3, Random(derive_seed(seed, "dealer")), BIG)
    adjustments = {client_wire_id(3, 0): shift, client_wire_id(3, 1): -shift}
    dealer_b = AdjustedDealer(3, Random(derive_seed(seed, "dealer")), BIG, adjustments)

    res_a = run_secure_aggregation(inputs_a, 3, BIG, seed=seed, adversary=adv, dealer=dealer_a)
    res_b = run_secure_aggregation(inputs_b, 3, BIG, seed=seed, adversary=adv, dealer=dealer_b)
    assert to_ints(res_a.opened) == to_ints(res_b.opened)
    assert res_a.net.adversary_view == res_b.net.adversary_view


def test_training_parity_with_oracle():
    pop = gen_synthetic_population(5, seed=3, rounds=4)
    cfg = TrainConfig(rounds=4)
    spec = ModelSpec()
    codec = FixedPointCodec()
    secure = run_training(pop, cfg, spec, "privateyes", seed=3, codec=codec)
    single = run_training(pop, cfg, spec, "adaptive_fl", seed=3, codec=codec)
    oracle = plaintext_adaptive_fl_oracle(pop, cfg, spec, codec, seed=3)
    assert not secure.aborted
    for a, b, c in zip(secure.transcript.om_history, single.transcript.om_history, oracle.om_history):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_secure_transcript_has_no_server_view_iu():
    pop = gen_synthetic_population(3, seed=5, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "privateyes", seed=5)
    assert res.transcript.server_view_iu == {}
    assert len(res.transcript.ground_truth_iu) == 6


def test_single_server_records_iu_view():
    pop = gen_synthetic_population(3, seed=5, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "adaptive_fl", seed=5)
    assert set(res.transcript.server_view_iu) == set(res.transcript.ground_truth_iu)
    for key, vec in res.transcript.server_view_iu.items():
        assert np.array_equal(vec, res.transcript.ground_truth_iu[key])


def test_training_abort_mid_run():
    pop = gen_synthetic_population(4, seed=6, rounds=6)
    adv = AdversarySpec(
        corrupted_servers=frozenset({2}), behavior="tamper-share", target_round=3
    )
    res = run_training(
        pop, TrainConfig(rounds=6), ModelSpec(), "privateyes", seed=6, adversary=adv
    )
    assert res.aborted
    assert res.abort_reason == ABORT_MAC_FAILURE
    assert res.final_model is None
    assert len(res.round_metrics) == 3
    assert res.round_metrics[-1]["abort"] == 1
    assert len(res.transcript.om_history) == 3  # om0 plus two completed rounds


def test_cohort_fraction_limits_participants():
    pop = gen_synthetic_population(6, seed=7, rounds=2)
    cfg = TrainConfig(rounds=2, cohort_fraction=0.5)
    res = run_training(pop, cfg, ModelSpec(), "privateyes", seed=7)
    for record in res.transcript.round_records:
        assert len(record["cohort"]) == 3


def test_datacentre_scheme():
    pop = gen_synthetic_population(3, seed=8, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "datacentre", seed=8)
    assert not res.aborted
    assert res.final_model is not None
    assert res.round_metrics[-1]["test_mae_deg"] > 0


def test_unknown_scheme_rejected():
    pop = gen_synthetic_population(2, seed=0, rounds=1)
    with pytest.raises(ValueError):
        run_training(pop, TrainConfig(rounds=1), ModelSpec(), "pir", seed=0)


def test_unknown_optimizer_mode_rejected_before_training(monkeypatch):
    def train(*args):
        raise AssertionError("a round trained")

    monkeypatch.setattr(protocol, "train_cohort_updates", train)
    pop = gen_synthetic_population(2, seed=0, rounds=1)
    with pytest.raises(ValueError, match="optimizer mode"):
        run_training(pop, TrainConfig(rounds=1), ModelSpec(), "privateyes", seed=0,
                     optimizer_mode="plain")


def test_transcript_ndjson_dump(tmp_path):
    pop = gen_synthetic_population(3, seed=9, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "privateyes", seed=9)
    path = tmp_path / "transcript.ndjson"
    res.transcript.dump_ndjson(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {r["record"] for r in records}
    assert {"config", "output_model", "round", "ground_truth_iu"} <= kinds
    oms = [r for r in records if r["record"] == "output_model"]
    assert len(oms) == 3
    assert oms[0]["round"] == 0


def test_round_metrics_and_bytes():
    pop = gen_synthetic_population(3, seed=10, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "privateyes", seed=10)
    assert len(res.round_metrics) == 2
    for row in res.round_metrics:
        assert row["test_mae_deg"] > 0
        assert row["bytes"]["client_to_server"] > 0
        assert row["bytes"]["dealer"] > 0


# Captured from the list-of-int protocol engine that preceded the limb-vector
# one: sha256 of repr([(round, type, sender, receiver, bytes), ...]) over the
# run's frame log, and sha256 of each om_history entry's bytes.
PINNED_FRAMES = 147
PINNED_LOG_SHA = "eb0535d6d4b0616b237ebe8844ad64e808087808c6c516543dab03fac20389fd"
PINNED_OM_SHA = [
    "9991c61fe4e81d4bf58c2f027a0e2e47d12502484f5cf8050ae428043ff2cbc8",
    "691d4d3774c8cce5b2cdcf8c743e718386148592dd53051d3f49c48dabda176c",
    "a15ec86fd05d7477ea48089d7bd586788df49a99c0585c58daeff5e00071f526",
]


def test_frame_log_and_models_pinned(monkeypatch):
    nets = []

    class RecordingNetwork(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, log_frames=True, **kwargs)
            nets.append(self)

    monkeypatch.setattr(protocol, "Network", RecordingNetwork)
    pop = gen_synthetic_population(4, seed=21, rounds=2)
    spec = ModelSpec(kind="linear", d_in=8)
    res = run_training(pop, TrainConfig(rounds=2), spec, "privateyes", n_servers=3, seed=21)
    log = [(r["round"], r["type"], r["sender"], r["receiver"], r["bytes"]) for r in nets[0].log]
    assert spec.dim == 18
    assert len(log) == PINNED_FRAMES
    assert hashlib.sha256(repr(log).encode()).hexdigest() == PINNED_LOG_SHA
    assert [om.dtype.str for om in res.transcript.om_history] == ["<f8"] * 3
    assert [hashlib.sha256(om.tobytes()).hexdigest()
            for om in res.transcript.om_history] == PINNED_OM_SHA


# sha256 over every frame a passive corrupted server sees in the run above:
# (round, type, sender, receiver) and payload, in delivery order. Unlike the
# frame log, this covers the payload bytes: mask shares, offsets, opening
# shares, and the committed and revealed sigmas.
PINNED_VIEW_FRAMES = 65
PINNED_VIEW_SHA = "b36d8305258efa813d27bc215d311376a404694ef9712aae6b1ce49ac275c7fb"


def test_adversary_view_payloads_pinned():
    pop = gen_synthetic_population(4, seed=21, rounds=2)
    adv = AdversarySpec(corrupted_servers=frozenset({server_wire_id(2)}),
                        behavior="passive-record")
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(kind="linear", d_in=8),
                       "privateyes", n_servers=3, seed=21, adversary=adv)
    assert not res.aborted
    view = res.transcript.adversary_view
    assert {MsgType.COMMIT, MsgType.REVEAL, MsgType.OPEN_SHARE} <= {f["type"] for f in view}
    h = hashlib.sha256()
    for f in view:
        h.update(repr((f["round"], f["type"], f["sender"], f["receiver"])).encode())
        h.update(f["payload"])
    assert len(view) == PINNED_VIEW_FRAMES
    assert h.hexdigest() == PINNED_VIEW_SHA


@pytest.mark.parametrize("fault", ["drop", "flip"])
def test_key_share_frame_missing_or_altered(fault):
    class FaultyNetwork(Network):
        def send(self, msg):
            if msg.msg_type == MsgType.MASK_DELIVERY and msg.receiver == server_wire_id(1):
                if fault == "drop":
                    return
                msg = WireMessage(msg.msg_type, msg.round, msg.sender, msg.receiver,
                                  bytes([msg.payload[0] ^ 1]) + msg.payload[1:])
            super().send(msg)

    roles = {DEALER_ID: "dealer", 1: "server", 2: "server", 3: "server"}
    net = FaultyNetwork(roles, BIG)
    dealer = Dealer(3, Random(0), BIG)
    with pytest.raises(KeyShareError):
        _distribute_key_shares(net, dealer)


def test_passive_corrupted_server_multi_round_matches_honest():
    """A passive corrupted server takes its sigma frames off the wire, so
    later rounds never read stale COMMIT/REVEAL frames."""
    pop = gen_synthetic_population(4, seed=9, rounds=3)
    cfg = TrainConfig(rounds=3)
    honest = run_training(pop, cfg, ModelSpec(), "privateyes", seed=9)
    adv = AdversarySpec(corrupted_servers=frozenset({1}), behavior="passive-record")
    passive = run_training(pop, cfg, ModelSpec(), "privateyes", seed=9, adversary=adv)
    assert not passive.aborted
    assert len(passive.transcript.om_history) == 4
    for a, b in zip(passive.transcript.om_history, honest.transcript.om_history, strict=True):
        assert np.array_equal(a, b)
    assert passive.transcript.comm.totals == honest.transcript.comm.totals


def _capture_networks(monkeypatch, base=Network):
    """Make the protocol build ``base`` networks and collect them."""
    nets = []

    def build(*args, **kwargs):
        nets.append(base(*args, **kwargs))
        return nets[-1]

    monkeypatch.setattr(protocol, "Network", build)
    return nets


@pytest.mark.parametrize("behavior,reason,msg_type,count", [
    ("tamper-share", ABORT_MAC_FAILURE, MsgType.OPEN_SHARE, 2),
    ("tamper-epsilon", ABORT_MAC_FAILURE, MsgType.INPUT_OFFSET, 4),
    ("withhold", ABORT_TIMEOUT, MsgType.OPEN_SHARE, 2),
    ("forge-sigma", ABORT_MAC_FAILURE, SIGMA_COMMITTED, 1),
    ("equivocate-commit", ABORT_EQUIVOCATION, SIGMA_REVEALED, 1),
])
def test_wire_hooks_fire_in_batched_phases(monkeypatch, behavior, reason, msg_type, count):
    """The hook changes exactly the corrupted server's frames of its phase:
    its n - 1 opening shares, the offsets of all four clients to it, or its
    one committed or revealed sigma."""

    class WatchingNetwork(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.changed = []

        def _mutate(self, msg):
            out = super()._mutate(msg)
            if out != msg:
                self.changed.append(msg)
            return out

    nets = _capture_networks(monkeypatch, WatchingNetwork)
    corrupted = server_wire_id(2)
    adv = AdversarySpec(corrupted_servers=frozenset({corrupted}), behavior=behavior)
    res = run_secure_aggregation({j: [j + 1, 2 * j] for j in range(4)}, 3, BIG, seed=2,
                                 adversary=adv)
    assert res.opened is None
    assert res.abort_reason == reason
    changed = nets[0].changed
    assert len(changed) == count
    assert all(m.msg_type == msg_type and corrupted in (m.sender, m.receiver) for m in changed)
    assert len(nets[0].dropped) == (count if behavior == "withhold" else 0)


def _dropping_network(msg_type, receiver_role, round_index):
    class DroppingNetwork(Network):
        """Drops the first frame of one type, round and receiver role."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.pending = True

        def _hooked(self, t, k, frames):
            return t == msg_type and k == round_index

        def _mutate(self, msg):
            if self.pending and self.roles[msg.receiver] == receiver_role:
                self.pending = False
                return None
            return msg

    return DroppingNetwork


@pytest.mark.parametrize("scheme,msg_type,receiver_role,phase", [
    ("privateyes", MsgType.MASK_DELIVERY, "client", "mask delivery"),
    ("privateyes", MsgType.MASK_DELIVERY, "server", "input phase"),
    ("privateyes", MsgType.INPUT_OFFSET, "server", "input phase"),
    ("privateyes", MsgType.COMMIT, "server", "opening"),
    ("privateyes", MsgType.REVEAL, "server", "opening"),
    ("privateyes", MsgType.OPEN_SHARE, "server", "opening"),
    ("privateyes", MsgType.SHARE_UPLOAD, "client", "share return"),
    ("adaptive_fl", MsgType.SHARE_UPLOAD, "server", "upload"),
], ids=["mask-to-client", "mask-to-server", "offset", "commit", "reveal", "open-share",
        "share-return", "single-server-upload"])
def test_dropped_frame_at_every_phase_times_out(monkeypatch, scheme, msg_type, receiver_role,
                                                phase):
    nets = _capture_networks(monkeypatch, _dropping_network(msg_type, receiver_role, 2))
    pop = gen_synthetic_population(4, seed=12, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), scheme, seed=12)
    assert len(nets[0].dropped) == 1
    assert nets[0].dropped[0]["type"] == msg_type
    assert res.aborted
    assert res.abort_reason == ABORT_TIMEOUT
    assert res.abort_phase == phase
    assert res.transcript.events == [{"event": "abort", "round": 2, "reason": ABORT_TIMEOUT,
                                      "phase": phase}]
    assert res.final_model is None
    assert len(res.transcript.om_history) == 2  # om0 plus round 1


def test_dropped_commit_to_a_corrupted_server_is_not_checked(monkeypatch):
    """Only honest servers check the coin's commit-then-reveal frames: a
    round-2 COMMIT dropped on its way to a passive corrupted server changes
    nothing, and the corrupted server still takes the rest off the wire."""

    class DroppingNetwork(Network):
        dropped_commit = None

        def _hooked(self, point, round_index, endpoints):
            return point == MsgType.COMMIT and round_index == 2

        def _mutate(self, msg):
            if self.dropped_commit is None and msg.receiver == server_wire_id(2):
                self.dropped_commit = msg
                return None
            return msg

    pop = gen_synthetic_population(4, seed=12, rounds=3)
    cfg = TrainConfig(rounds=3)
    honest = run_training(pop, cfg, ModelSpec(), "privateyes", seed=12)
    nets = _capture_networks(monkeypatch, DroppingNetwork)
    adv = AdversarySpec(corrupted_servers=frozenset({server_wire_id(2)}),
                        behavior="passive-record")
    res = run_training(pop, cfg, ModelSpec(), "privateyes", seed=12, adversary=adv)
    assert nets[0].dropped_commit.sender == server_wire_id(0)
    assert len(nets[0].dropped) == 1
    assert not res.aborted
    for a, b in zip(res.transcript.om_history, honest.transcript.om_history, strict=True):
        assert np.array_equal(a, b)
    assert nets[0].pending() == []


def test_single_server_secure_round():
    """With n = 1 there are no peers: the server's own sigma must sum to 0."""
    res = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 1, P23)
    assert res.abort_reason is None
    assert to_ints(res.opened) == [21]
    assert [to_ints(s) for s in res.client_sums.values()] == [[21]] * 3


def test_replayed_earlier_round_frame_is_ignored(monkeypatch):
    """A round-1 opening share sent again ahead of round 2's opening is never
    taken as round 2's share."""

    class ReplayingNetwork(Network):
        stale = None

        def _hooked(self, msg_type, round_index, frames):
            return msg_type == MsgType.OPEN_SHARE

        def _mutate(self, msg):
            if self.stale is None:
                self.stale = msg
            elif msg.round == 2 and msg[2:4] == self.stale[2:4]:
                self.send(self.stale)
            return msg

    pop = gen_synthetic_population(4, seed=13, rounds=3)
    cfg = TrainConfig(rounds=3)
    honest = run_training(pop, cfg, ModelSpec(), "privateyes", seed=13)
    nets = _capture_networks(monkeypatch, ReplayingNetwork)
    replayed = run_training(pop, cfg, ModelSpec(), "privateyes", seed=13)
    stale = nets[0].stale
    assert stale.round == 1
    assert nets[0].pending() == [stale]  # still there, never taken
    assert not replayed.aborted
    for a, b in zip(replayed.transcript.om_history, honest.transcript.om_history, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("msg_type", [MsgType.MASK_DELIVERY, MsgType.INPUT_OFFSET,
                                      MsgType.OPEN_SHARE, MsgType.SHARE_UPLOAD],
                         ids=["mask", "offset", "open-share", "share-return"])
def test_truncated_vector_frame_is_a_field_error(monkeypatch, msg_type):
    """A hooked vector frame one byte short fails the receiver's length check."""

    class TruncatingNetwork(Network):
        truncated = False

        def _hooked(self, point, round_index, endpoints):
            return point == msg_type and round_index == 1  # not the round-0 key shares

        def _mutate(self, msg):
            if self.truncated:
                return msg
            self.truncated = True
            return msg._replace(payload=msg.payload[:-1])

    nets = _capture_networks(monkeypatch, TruncatingNetwork)
    with pytest.raises(FieldError, match=r"^payload is not a vector of 2 field elements$"):
        run_secure_aggregation({j: [j + 1, 2 * j] for j in range(4)}, 3, BIG, seed=2)
    assert nets[0].truncated


@pytest.mark.parametrize("scheme", ["privateyes", "adaptive_fl"])
def test_honest_run_leaves_every_inbox_empty(monkeypatch, scheme):
    nets = _capture_networks(monkeypatch)
    pop = gen_synthetic_population(6, seed=14, rounds=3)
    cfg = TrainConfig(rounds=3, cohort_fraction=0.5)
    res = run_training(pop, cfg, ModelSpec(), scheme, seed=14)
    assert not res.aborted
    assert sum(nets[0].metrics.message_counts.values())
    assert nets[0].pending() == []


def test_codec_headroom_scales_with_cohort():
    codec = FixedPointCodec(FieldParams(f_bits=84))  # headroom for one value
    pop = gen_synthetic_population(15, seed=0, rounds=1)
    with pytest.raises(FieldError):
        run_training(pop, TrainConfig(rounds=1), ModelSpec(), "privateyes", codec=codec)


# The deviation sweep. Each action replaces one frame; a replay keeps the
# round-2 header and carries the payload of the same edge's round-1 frame: a
# frame that keeps its old round is never taken
# (test_replayed_earlier_round_frame_is_ignored).
SWEEP_ACTIONS = {
    "flip-byte-0": lambda msg, old: msg._replace(
        payload=bytes([msg.payload[0] ^ 0xFF]) + msg.payload[1:]),
    "flip-last-bit": lambda msg, old: msg._replace(
        payload=msg.payload[:-1] + bytes([msg.payload[-1] ^ 0x01])),
    "drop": lambda msg, old: None,
    "replay": lambda msg, old: msg._replace(payload=old.payload),
}
SWEEP_FRAMES = 66  # round-2 frames with a server at one end, J=4, n=3


def _sweep_network(target, action):
    """Applies ``action`` to the ``target``-th round-2 frame that a server
    sends or receives; with ``target`` None it only counts those frames.

    The dealer's r frames to clients are left out: a client's r fixes its
    offset x - r, so a changed r is a changed input, which no MAC can see.
    """

    class SweepNetwork(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.round1 = defaultdict(list)  # (type, sender, receiver) -> frames
            self.round2 = defaultdict(int)  # (type, sender, receiver) -> frames seen
            self.count = 0

        def _hooked(self, point, round_index, frames):
            return round_index in (1, 2) and isinstance(point, MsgType)  # frames, not values

        def _mutate(self, msg):
            edge = msg[0:1] + msg[2:4]
            if msg.round == 1:
                self.round1[edge].append(msg)
                return msg
            occurrence = self.round2[edge]
            self.round2[edge] += 1
            if "server" not in (self.roles[msg.sender], self.roles[msg.receiver]):
                return msg
            self.count += 1
            if self.count - 1 != target:
                return msg
            return SWEEP_ACTIONS[action](msg, self.round1[edge][occurrence])

    return SweepNetwork


def _sweep_run(monkeypatch, target=None, action=None):
    nets = _capture_networks(monkeypatch, _sweep_network(target, action))
    pop = gen_synthetic_population(4, seed=21, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(kind="linear", d_in=8),
                       "privateyes", n_servers=3, seed=21)
    return nets[0], res


@pytest.mark.parametrize("action", list(SWEEP_ACTIONS))
def test_every_round_two_server_frame_deviation_aborts_or_changes_nothing(monkeypatch, action):
    """Disrupt but never falsify: a run with one round-2 frame flipped,
    dropped or replayed aborts with no final model, or its output models and
    per-round bytes are byte-identical to the honest run's."""
    net, honest = _sweep_run(monkeypatch)
    assert net.count == SWEEP_FRAMES
    honest_bytes = [r["bytes"] for r in honest.transcript.round_records]
    for target in range(SWEEP_FRAMES):
        net, res = _sweep_run(monkeypatch, target, action)
        assert net.count > target
        if res.aborted:
            assert res.final_model is None, (action, target)
            continue
        assert [r["bytes"] for r in res.transcript.round_records] == honest_bytes, (action, target)
        assert [om.tobytes() for om in res.transcript.om_history] == [
            om.tobytes() for om in honest.transcript.om_history], (action, target)
