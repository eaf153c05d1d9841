import hashlib
import json
from random import Random

import numpy as np
import pytest

from privateyes.aggregation import plaintext_adaptive_fl_oracle
from privateyes.fedcore import ModelSpec, TrainConfig, gen_synthetic_population
from privateyes.field import FieldParams, FixedPointCodec, from_ints, to_ints, vec_add, vec_mul
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
from privateyes.simnet import AdversarySpec, MsgType, Network, WireMessage
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


def test_aggregation_deterministic():
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
            masks = super().issue_masks(client_id, count)
            d = self.adjustments.get(client_id, 0)
            if d:
                p = self.params
                shift = from_ints([d % p.q] * count)
                mac_shift = vec_mul(from_ints([self.mac_key])[0], shift, p)
                honest = masks.server_shares[self.n - 1]
                masks.r = vec_add(masks.r, shift, p)
                masks.server_shares[self.n - 1] = np.concatenate(
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
    secure = run_training(pop, cfg, spec, "privateyes", seed=3, codec=codec, evaluate=False)
    single = run_training(pop, cfg, spec, "adaptive_fl", seed=3, codec=codec, evaluate=False)
    oracle = plaintext_adaptive_fl_oracle(pop, cfg, spec, codec, seed=3)
    assert not secure.aborted
    for a, b, c in zip(secure.transcript.om_history, single.transcript.om_history, oracle.om_history):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_secure_transcript_has_no_server_view_iu():
    pop = gen_synthetic_population(3, seed=5, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "privateyes", seed=5, evaluate=False)
    assert res.transcript.server_view_iu == {}
    assert len(res.transcript.ground_truth_iu) == 6


def test_single_server_records_iu_view():
    pop = gen_synthetic_population(3, seed=5, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "adaptive_fl", seed=5, evaluate=False)
    assert set(res.transcript.server_view_iu) == set(res.transcript.ground_truth_iu)
    for key, vec in res.transcript.server_view_iu.items():
        assert np.array_equal(vec, res.transcript.ground_truth_iu[key])


def test_training_abort_mid_run():
    pop = gen_synthetic_population(4, seed=6, rounds=6)
    adv = AdversarySpec(
        corrupted_servers=frozenset({2}), behavior="tamper-share", target_round=3
    )
    res = run_training(
        pop, TrainConfig(rounds=6), ModelSpec(), "privateyes", seed=6, adversary=adv, evaluate=False
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
    res = run_training(pop, cfg, ModelSpec(), "privateyes", seed=7, evaluate=False)
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


def test_transcript_ndjson_dump(tmp_path):
    pop = gen_synthetic_population(3, seed=9, rounds=2)
    res = run_training(pop, TrainConfig(rounds=2), ModelSpec(), "privateyes", seed=9, evaluate=False)
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
            super().__init__(*args, **kwargs)
            nets.append(self)

    monkeypatch.setattr(protocol, "Network", RecordingNetwork)
    pop = gen_synthetic_population(4, seed=21, rounds=2)
    spec = ModelSpec(kind="linear", d_in=8)
    res = run_training(pop, TrainConfig(rounds=2), spec, "privateyes", n_servers=3, seed=21,
                       evaluate=False)
    log = [(r["round"], r["type"], r["sender"], r["receiver"], r["bytes"]) for r in nets[0].log]
    assert spec.dim == 18
    assert len(log) == PINNED_FRAMES
    assert hashlib.sha256(repr(log).encode()).hexdigest() == PINNED_LOG_SHA
    assert [om.dtype.str for om in res.transcript.om_history] == ["<f8"] * 3
    assert [hashlib.sha256(om.tobytes()).hexdigest()
            for om in res.transcript.om_history] == PINNED_OM_SHA


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
    honest = run_training(pop, cfg, ModelSpec(), "privateyes", seed=9, evaluate=False)
    adv = AdversarySpec(corrupted_servers=frozenset({1}), behavior="passive-record")
    passive = run_training(pop, cfg, ModelSpec(), "privateyes", seed=9, adversary=adv,
                           evaluate=False)
    assert not passive.aborted
    assert len(passive.transcript.om_history) == 4
    for a, b in zip(passive.transcript.om_history, honest.transcript.om_history, strict=True):
        assert np.array_equal(a, b)
    assert passive.transcript.comm.totals == honest.transcript.comm.totals
