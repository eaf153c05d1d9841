import hashlib

import numpy as np
import pytest

from privateyes.aggregation import (
    COHORT_BLOCK,
    OptimizerState,
    adaptive_step,
    aggregate_encoded,
    client_average,
    plaintext_adaptive_fl_oracle,
    plaintext_datacentre_oracle,
    train_cohort_updates,
    update_global_model,
)
from privateyes.fedcore import (
    ModelSpec,
    TrainConfig,
    gen_synthetic_population,
    init_weights,
    local_train,
    select_cohort,
)
from privateyes.field import FixedPointCodec
from privateyes.util import derive_seed, derive_seeds


def test_adaptive_step_scalar_example():
    # w0 = 0, delta = 1: m = 0.1, v = 0.01, w = 0.01 / 0.101.
    state = OptimizerState.zeros(1)
    w, new = adaptive_step(np.zeros(1), np.ones(1), state)
    assert new.m[0] == pytest.approx(0.1)
    assert new.v[0] == pytest.approx(0.01)
    assert w[0] == pytest.approx(0.1 * 0.1 / (0.1 + 1e-3))
    assert w[0] == pytest.approx(0.0990099, abs=1e-7)


def test_zero_delta_keeps_model():
    state = OptimizerState.zeros(3)
    w, _ = adaptive_step(np.array([1.0, -2.0, 0.5]), np.zeros(3), state)
    assert np.array_equal(w, np.array([1.0, -2.0, 0.5]))


def test_state_validation():
    with pytest.raises(ValueError):
        OptimizerState.zeros(2, beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerState.zeros(2, tau=0.0)
    with pytest.raises(ValueError):
        OptimizerState(m=np.zeros(2), v=-np.ones(2))


def test_plain_mode_two_clients():
    # t = 1, scalar updates 3 and 5, plain averaging (fedavg with eta = 1):
    # aggregate is 4.
    codec = FixedPointCodec()
    total = aggregate_encoded([codec.encode_vector([3.0]), codec.encode_vector([5.0])], codec.params)
    avg = client_average(total, 2, codec)
    w, _ = update_global_model(np.zeros(1), avg, OptimizerState.zeros(1, eta=1.0), "fedavg")
    assert w[0] == 4.0


def test_update_modes():
    state = OptimizerState.zeros(1)
    om = np.array([1.0])
    avg = np.array([2.0])
    w_fedavg, _ = update_global_model(om, avg, state, "fedavg")
    assert w_fedavg[0] == pytest.approx(1.0 + 0.1 * 1.0)
    with pytest.raises(ValueError):
        update_global_model(om, avg, state, "sgd")


def test_client_average_divides_in_reals():
    codec = FixedPointCodec()
    opened = codec.encode_vector([21.0])
    assert client_average(opened, 3, codec)[0] == pytest.approx(7.0)
    with pytest.raises(ValueError):
        client_average(opened, 0, codec)


def test_field_sum_wraps_negative_updates():
    codec = FixedPointCodec()
    total = aggregate_encoded(
        [codec.encode_vector([-1.5]), codec.encode_vector([0.5])], codec.params
    )
    assert client_average(total, 2, codec)[0] == pytest.approx(-0.5)


def test_oracle_deterministic():
    pop = gen_synthetic_population(4, seed=0, rounds=3)
    cfg = TrainConfig(rounds=3)
    spec = ModelSpec()
    codec = FixedPointCodec()
    a = plaintext_adaptive_fl_oracle(pop, cfg, spec, codec, seed=0)
    b = plaintext_adaptive_fl_oracle(pop, cfg, spec, codec, seed=0)
    for x, y in zip(a.om_history, b.om_history):
        assert np.array_equal(x, y)
    assert len(a.om_history) == 4
    assert len(a.individual_updates) == 12


def test_oracle_om_on_codec_grid():
    pop = gen_synthetic_population(3, seed=1, rounds=2)
    codec = FixedPointCodec()
    run = plaintext_adaptive_fl_oracle(pop, TrainConfig(rounds=2), ModelSpec(), codec, seed=1)
    for om in run.om_history:
        assert np.array_equal(codec.quantize(om), om)


def test_cohort_blocks_match_per_client_loop():
    # A partial cohort that still spans more than one block.
    num_clients = COHORT_BLOCK + 40
    pop = gen_synthetic_population(num_clients, seed=8, rounds=2, samples_per_round=20)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8, rounds=2, cohort_fraction=0.8)
    spec = ModelSpec()
    om = init_weights(spec, 5)
    cohort = select_cohort(num_clients, cfg.cohort_fraction, 2, 8)
    assert COHORT_BLOCK < len(cohort) < num_clients
    updates = train_cohort_updates(pop, cfg, spec, om, 2, cohort, 8)
    assert updates.shape == (len(cohort), spec.dim)
    for row, j in zip(updates, cohort):
        expected = local_train(om, pop.features[[j], 1], pop.gaze[[j], 1], cfg, spec,
                               [derive_seed(8, "train", 2, j)])[0]
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("seed", [0, 2**64 + 12345])
def test_cohort_seeds_equal_derive_seed(seed):
    """The training seeds of a 600-client round, hashed from their shared
    prefix, are derive_seed's: the first 8 bytes of SHA-256 of the joined
    label path."""
    cohort = select_cohort(600, 1.0, 3, seed)
    assert cohort == list(range(600))
    expected = [int.from_bytes(hashlib.sha256(f"{seed}/train/3/{j}".encode()).digest()[:8],
                               "little") for j in cohort]
    assert [derive_seed(seed, "train", 3, j) for j in cohort] == expected
    assert derive_seeds((seed, "train", 3), cohort) == expected


def test_datacentre_single_client_equals_local_train():
    pop = gen_synthetic_population(1, seed=2, rounds=2)
    cfg = TrainConfig(rounds=2, epochs=1)
    spec = ModelSpec()
    w = plaintext_datacentre_oracle(pop, cfg, spec, seed=2)
    X = np.concatenate(pop.features[0])[None]
    G = np.concatenate(pop.gaze[0])[None]
    pooled = TrainConfig(epochs=2, lr=cfg.lr, batch_size=cfg.batch_size, rounds=2)
    expected = local_train(
        init_weights(spec, derive_seed(2, "init")), X, G, pooled, spec,
        [derive_seed(2, "datacentre")],
    )[0]
    assert np.array_equal(w, expected)
