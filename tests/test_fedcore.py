import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privateyes import fedcore
from privateyes.fedcore import (
    GAZE_DIM,
    ModelSpec,
    TrainConfig,
    TrainingDivergence,
    angular_error,
    evaluate_model,
    fairness_spread,
    gaze_to_vecs,
    gen_synthetic_population,
    init_weights,
    local_train,
    loss_and_grad,
    mixing_map,
    predict,
    select_cohort,
)
from privateyes.fedcore import _angles_deg, _pcg64_states, _streams, _words


def angular_errors_deg(pred_angles, true_angles):
    """Elementwise angle in degrees between (..., 2) (pitch, yaw) arrays, on
    the path ``evaluate_model`` runs."""
    return _angles_deg(gaze_to_vecs(pred_angles), gaze_to_vecs(true_angles))


def test_population_deterministic():
    a = gen_synthetic_population(5, seed=9)
    b = gen_synthetic_population(5, seed=9)
    for j in range(5):
        assert np.array_equal(a.mu[j], b.mu[j])
        assert np.array_equal(a.features[j, 0], b.features[j, 0])
        assert np.array_equal(a.test_gaze[j], b.test_gaze[j])
    c = gen_synthetic_population(5, seed=10)
    assert not np.array_equal(a.mu[0], c.mu[0])


# sha256 over the bytes of mu, b, features, gaze, test_features and test_gaze
# in that order, captured from the per-client generator this population
# replaced (client-major, then round), for two shapes.
PINNED_POPULATIONS = [
    (dict(num_clients=5, seed=9),
     "5a4e94ff7667a94c304b0d415f2b2f171c79e5d84543c9bd215b6bcabbe82759"),
    (dict(num_clients=3, seed=2, rounds=2, samples_per_round=3, d_in=4, heterogeneity=0),
     "0e2eee7085b9d3881173e85ed2f6b3590d29eba54782285b914dc1fff32aaa6d"),
]


def test_population_arrays_pinned():
    for kwargs, digest in PINNED_POPULATIONS:
        pop = gen_synthetic_population(**kwargs)
        J, R = kwargs["num_clients"], kwargs.get("rounds", 10)
        m, d = kwargs.get("samples_per_round", 20), kwargs.get("d_in", 8)
        arrays = [pop.mu, pop.b, pop.features, pop.gaze, pop.test_features, pop.test_gaze]
        assert [a.shape for a in arrays] == [(J, 2), (J, d), (J, R, m, d), (J, R, m, 2),
                                             (J, 30, d), (J, 30, 2)]
        h = hashlib.sha256()
        for a in arrays:
            assert a.dtype.str == "<f8" and a.flags.c_contiguous
            h.update(a.tobytes())
        assert h.hexdigest() == digest


def test_zero_heterogeneity_shares_parameters():
    pop = gen_synthetic_population(4, seed=0, heterogeneity=0.0)
    for j in range(1, 4):
        assert np.array_equal(pop.mu[j], pop.mu[0])
        assert np.array_equal(pop.b[j], pop.b[0])


def test_mixing_map_public_and_fixed():
    assert np.array_equal(mixing_map(8), mixing_map(8))
    assert mixing_map(8).shape == (8, GAZE_DIM)


def test_round_datasets_disjoint_draws():
    pop = gen_synthetic_population(2, seed=1, rounds=3, samples_per_round=10)
    gaze = pop.gaze[0]
    assert len(gaze) == 3
    assert not np.array_equal(gaze[0], gaze[1])
    assert gaze.reshape(-1, GAZE_DIM).shape == (30, GAZE_DIM)


def test_model_dims():
    assert ModelSpec().dim == 18
    assert ModelSpec(kind="mlp", d_in=8, hidden=16).dim == 8 * 16 + 16 + 32 + 2
    with pytest.raises(ValueError):
        ModelSpec(kind="cnn")


def test_linear_gradient_matches_finite_differences():
    spec = ModelSpec()
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (6, 8))
    G = rng.normal(0, 0.3, (6, 2))
    w = rng.normal(0, 0.5, spec.dim)
    _, grad = loss_and_grad(spec, w, X, G)
    h = 1e-6
    for t in range(spec.dim):
        e = np.zeros(spec.dim)
        e[t] = h
        lp, _ = loss_and_grad(spec, w + e, X, G)
        lm, _ = loss_and_grad(spec, w - e, X, G)
        assert grad[t] == pytest.approx((lp - lm) / (2 * h), rel=1e-4, abs=1e-7)


def test_mlp_gradient_matches_finite_differences():
    spec = ModelSpec(kind="mlp", d_in=4, hidden=3)
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (5, 4))
    G = rng.normal(0, 0.3, (5, 2))
    w = rng.normal(0, 0.5, spec.dim)
    _, grad = loss_and_grad(spec, w, X, G)
    h = 1e-6
    for t in range(spec.dim):
        e = np.zeros(spec.dim)
        e[t] = h
        lp, _ = loss_and_grad(spec, w + e, X, G)
        lm, _ = loss_and_grad(spec, w - e, X, G)
        assert grad[t] == pytest.approx((lp - lm) / (2 * h), rel=1e-4, abs=1e-7)


def test_local_train_deterministic_and_moves():
    pop = gen_synthetic_population(1, seed=4)
    spec = ModelSpec()
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8)
    w0 = init_weights(spec, 0)
    X, G = pop.features[0, 0], pop.gaze[0, 0]
    w1 = local_train(w0, X, G, cfg, spec, seed=5)
    w2 = local_train(w0, X, G, cfg, spec, seed=5)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w0)
    l0, _ = loss_and_grad(spec, w0, X, G)
    l1, _ = loss_and_grad(spec, w1, X, G)
    assert l1 < l0


def test_zero_epochs_is_identity():
    spec = ModelSpec()
    w0 = init_weights(spec, 0)
    pop = gen_synthetic_population(1, seed=4)
    cfg = TrainConfig(epochs=0)
    X, G = pop.features[0, 0], pop.gaze[0, 0]
    assert np.array_equal(local_train(w0, X, G, cfg, spec, 0), w0)


def _reference_local_train(spec, w, X, G, cfg, seed):
    """One client's mini-batch descent, written out without the client axis."""
    w = w.astype(np.float64).copy()
    rng = np.random.default_rng([seed, 0x10CA1])
    m, d, h = X.shape[0], spec.d_in, spec.hidden
    for _ in range(cfg.epochs):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            Xb, Gb, n = X[idx], G[idx], len(idx)
            if spec.kind == "linear":
                W, c = w[: 2 * d].reshape(d, 2), w[2 * d :]
                E = Xb @ W + c - Gb
                grad = np.concatenate([(2.0 / n * Xb.T @ E).ravel(), 2.0 / n * E.sum(axis=0)])
            else:
                W1 = w[: d * h].reshape(d, h)
                b1 = w[d * h : d * h + h]
                W2 = w[d * h + h : d * h + 3 * h].reshape(h, 2)
                c = w[d * h + 3 * h :]
                H = np.tanh(Xb @ W1 + b1)
                dE = 2.0 / n * (H @ W2 + c - Gb)
                dH = dE @ W2.T * (1.0 - H**2)
                grad = np.concatenate(
                    [(Xb.T @ dH).ravel(), dH.sum(axis=0), (H.T @ dE).ravel(), dE.sum(axis=0)])
            w -= cfg.lr * grad
    return w


def _reference_loss_and_grad(spec, w, X, G):
    """The step's formulas in their plain numpy form: broadcast bias, np.sum
    and np.mean over the (pitch, yaw) and batch axes."""
    m = X.shape[-2]
    lead = w.shape[:-1]
    d, h = spec.d_in, spec.hidden
    tX = X.swapaxes(-1, -2)
    if spec.kind == "linear":
        W, c = w[..., : 2 * d].reshape(*lead, d, 2), w[..., 2 * d :]
        E = X @ W + c[..., None, :] - G
        loss = np.mean(np.sum(E**2, axis=-1), axis=-1)
        grad_W = 2.0 / m * tX @ E
        grad_c = 2.0 / m * E.sum(axis=-2)
        return loss, np.concatenate([grad_W.reshape(*lead, -1), grad_c], axis=-1)
    W1 = w[..., : d * h].reshape(*lead, d, h)
    b1 = w[..., d * h : d * h + h]
    W2 = w[..., d * h + h : d * h + 3 * h].reshape(*lead, h, 2)
    c = w[..., d * h + 3 * h :]
    H = np.tanh(X @ W1 + b1[..., None, :])
    E = H @ W2 + c[..., None, :] - G
    loss = np.mean(np.sum(E**2, axis=-1), axis=-1)
    dE = 2.0 / m * E
    dH = dE @ W2.swapaxes(-1, -2) * (1.0 - H**2)
    grads = [tX @ dH, dH.sum(axis=-2), H.swapaxes(-1, -2) @ dE, dE.sum(axis=-2)]
    return loss, np.concatenate(
        [grads[0].reshape(*lead, -1), grads[1], grads[2].reshape(*lead, -1), grads[3]], axis=-1)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("m", [32, 20, 1])  # full batches, a ragged last batch, one row
def test_loss_and_grad_matches_reference_formulas(kind, m):
    spec = ModelSpec(kind=kind, d_in=5, hidden=6)
    pop = gen_synthetic_population(6, seed=21, samples_per_round=32, d_in=5)
    X, G = pop.features[:, 0, :m], pop.gaze[:, 0, :m]
    w = np.random.default_rng(m).normal(0.0, 0.5, (6, spec.dim))
    # C order, and an input that is not in C order.
    for ws in (w, np.asfortranarray(w)):
        loss, grad = loss_and_grad(spec, ws, X, G)
        ref_loss, ref_grad = _reference_loss_and_grad(spec, ws, X, G)
        assert np.array_equal(loss, ref_loss) and np.array_equal(grad, ref_grad)
        for j in (0, 5):
            loss, grad = loss_and_grad(spec, ws[j], X[j], G[j])
            ref_loss, ref_grad = _reference_loss_and_grad(spec, ws[j], X[j], G[j])
            assert loss.shape == () and grad.shape == (spec.dim,)
            assert np.array_equal(loss, ref_loss) and np.array_equal(grad, ref_grad)


def test_divergence_message_matches_reference_loss():
    # Client 1 overflows to inf and client 2 turns to nan on the first step;
    # the message names the first non-finite client's loss.
    spec = ModelSpec()
    pop = gen_synthetic_population(3, seed=12)
    X, G = pop.features[:, 0].copy(), pop.gaze[:, 0]
    X[1] *= 1e200
    X[2, 3, 0] = np.nan
    cfg = TrainConfig(epochs=1, lr=0.1, batch_size=64)  # one batch: all 20 rows
    w0 = init_weights(spec, 0)
    seeds = [1, 2, 3]
    orders = [np.random.default_rng([s, 0x10CA1]).permutation(20) for s in seeds]
    rows = np.arange(3)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = _reference_loss_and_grad(
            spec, np.broadcast_to(w0, (3, spec.dim)), X[rows, orders], G[rows, orders])
        with pytest.raises(TrainingDivergence) as raised:
            local_train(w0, X, G, cfg, spec, seeds)
    assert np.isinf(loss[1]) and np.isnan(loss[2])
    assert str(raised.value) == f"non-finite loss {loss[1]}" == "non-finite loss inf"


def test_angular_errors_match_reference_formula():
    rng = np.random.default_rng(4)
    pred = rng.uniform(-3.0, 3.0, (40, 30, 2))
    for truth in (pred + rng.normal(0.0, 1e-3, pred.shape), pred, -pred):
        def vecs(a):
            cp = np.cos(a[..., 0])
            return np.stack([cp * np.sin(a[..., 1]), np.sin(a[..., 0]), cp * np.cos(a[..., 1])], -1)
        dots = np.sum(vecs(pred) * vecs(truth), axis=-1)
        expected = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
        assert np.array_equal(angular_errors_deg(pred, truth), expected)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize(
    "epochs, batch_size",
    [(e, b) for b in (8, 1) for e in (0, 1, 3)],
    ids=[f"{e}" if b == 8 else f"{e}-batch{b}" for b in (8, 1) for e in (0, 1, 3)],
)
def test_stacked_local_train_matches_per_client_loop(kind, epochs, batch_size):
    # m = 20 with batch 8 leaves a ragged last batch of 4; batch 1 takes the
    # matmuls down to single rows.
    spec = ModelSpec(kind=kind, d_in=5, hidden=6)
    pop = gen_synthetic_population(7, seed=11, samples_per_round=20, d_in=5)
    cfg = TrainConfig(epochs=epochs, lr=0.1, batch_size=batch_size)
    w0 = init_weights(spec, 3)
    X, G = pop.features[:, 0], pop.gaze[:, 0]
    seeds = [100 + j for j in range(7)]
    stacked = local_train(w0, X, G, cfg, spec, seeds)
    assert stacked.shape == (7, spec.dim) and stacked.dtype == np.float64
    for j in range(7):
        one = local_train(w0, X[j], G[j], cfg, spec, seeds[j])
        assert np.array_equal(stacked[j], one)
        assert np.array_equal(one, _reference_local_train(spec, w0, X[j], G[j], cfg, seeds[j]))


@pytest.mark.parametrize("epochs", [0, 1, 3, 10])
def test_batch_orders_are_one_shuffle_per_epoch(epochs, monkeypatch):
    """Each client's batches follow one shuffle of its rows per epoch, drawn
    in turn from its own stream."""
    J, m, batch = 3, 12, 5
    X = np.arange(J * m, dtype=np.float64).reshape(J, m, 1)  # a row's feature is its flat index
    seen = []
    real = fedcore.loss_and_grad

    def spy(spec, w, Xb, Gb):
        seen.append(Xb[..., 0].astype(np.intp))
        return real(spec, w, Xb, Gb)

    monkeypatch.setattr(fedcore, "loss_and_grad", spy)
    spec, seeds = ModelSpec(d_in=1), [7, 2**40, 9]
    cfg = TrainConfig(epochs=epochs, lr=1e-9, batch_size=batch)
    local_train(init_weights(spec, 0), X, np.zeros((J, m, 2)), cfg, spec, seeds)
    assert len(seen) == epochs * -(-m // batch)
    orders = np.concatenate(seen, axis=1).reshape(J, epochs, m) if seen else []
    for j, s in enumerate(seeds):
        rng = np.random.default_rng([s, 0x10CA1])
        for e in range(epochs):
            expected = np.arange(j * m, (j + 1) * m)
            rng.shuffle(expected)
            assert orders[j][e].tolist() == expected.tolist()


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]
entropy_ints = st.sampled_from(EDGE_SEEDS) | st.integers(2**7, 2**100 - 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(entropy_ints, min_size=2, max_size=5), min_size=1, max_size=6))
def test_stream_states_match_numpy_seeding(entropies):
    """Each stream starts where PCG64(SeedSequence(entropy)) does: 2 to 20
    words, so rows that SeedSequence pads and rows that run its extra mixing
    loop, stacked in one call."""
    expected = [np.random.PCG64(np.random.SeedSequence(e)).state for e in entropies]
    for e, want in zip(entropies, expected):
        state, inc = _pcg64_states(np.array([_words(e)], dtype=np.uint32))[0]
        assert {"state": state, "inc": inc} == want["state"]
    got = [gen.bit_generator.state for gen in _streams(entropies)]
    assert got == expected


def test_stacked_local_train_with_seeds_of_every_width():
    # [seed, 0x10CA1] spans 2, 3, 4 and 5 words; the 5-word rows run
    # SeedSequence's extra mixing loop.
    spec = ModelSpec()
    pop = gen_synthetic_population(8, seed=11, samples_per_round=20)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8)
    w0 = init_weights(spec, 3)
    X, G = pop.features[:, 0], pop.gaze[:, 0]
    seeds = [0, 2**32 + 7, 5, 2**64 + 9, 2**96 + 1, 2**32 - 1, 2**63 + 7, 2**100 + 3]
    stacked = local_train(w0, X, G, cfg, spec, seeds)
    for j, s in enumerate(seeds):
        assert np.array_equal(stacked[j], _reference_local_train(spec, w0, X[j], G[j], cfg, s))


def test_negative_seeds_raise_as_numpy_seeding_does():
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng([-1, 0x10CA1])
    pop = gen_synthetic_population(3, seed=12)
    with pytest.raises(ValueError) as ours:
        local_train(init_weights(ModelSpec(), 0), pop.features[:, 0], pop.gaze[:, 0],
                    TrainConfig(epochs=1), ModelSpec(), [1, -1, 3])
    assert str(ours.value) == str(numpy_error.value) == "expected non-negative integer"
    with pytest.raises(ValueError) as ours:
        gen_synthetic_population(2, seed=-1)
    assert str(ours.value) == str(numpy_error.value)


def test_one_diverging_client_in_a_block_raises():
    spec = ModelSpec()
    pop = gen_synthetic_population(4, seed=12)
    # Copied: a slice of the population is a view of it.
    X, G = pop.features[:, 0].copy(), pop.gaze[:, 0]
    X[2] *= 1e200
    cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8)
    w0 = init_weights(spec, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergence):
            local_train(w0, X, G, cfg, spec, [1, 2, 3, 4])
        local_train(w0, X[[0, 1, 3]], G[[0, 1, 3]], cfg, spec, [1, 2, 4])


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_stacked_evaluate_matches_per_client_loop(kind):
    spec = ModelSpec(kind=kind, d_in=8, hidden=5)
    pop = gen_synthetic_population(9, seed=13)
    w = init_weights(spec, 4)
    expected, total_err, total_count = {}, 0.0, 0
    for j in range(9):
        err = float(angular_errors_deg(predict(spec, w, pop.test_features[j]),
                                       pop.test_gaze[j]).mean())
        expected[j] = err
        total_err += err * pop.test_features[j].shape[0]
        total_count += pop.test_features[j].shape[0]
    mean_err, per_client = evaluate_model(spec, w, pop)
    assert per_client == expected
    assert all(type(err) is float for err in per_client.values())
    assert mean_err == total_err / total_count


def test_test_set_unit_vectors_computed_once():
    pop = gen_synthetic_population(5, seed=3, rounds=1)
    vecs = pop.test_vecs
    assert vecs is pop.test_vecs
    assert np.array_equal(vecs, gaze_to_vecs(pop.test_gaze))
    evaluate_model(ModelSpec(), init_weights(ModelSpec(), 2), pop)
    assert pop.test_vecs is vecs


def test_angular_error_basics():
    assert angular_error((0.1, 0.2), (0.1, 0.2)) == 0.0
    assert angular_error((0.0, 0.0), (0.0, np.pi / 2)) == pytest.approx(90.0)
    preds = np.array([[0.0, 0.0], [0.1, 0.1]])
    assert angular_errors_deg(preds, preds).mean() == 0.0


def test_evaluate_and_fairness():
    pop = gen_synthetic_population(3, seed=6)
    spec = ModelSpec()
    w = init_weights(spec, 1)
    mean_err, per_client = evaluate_model(spec, w, pop)
    assert mean_err > 0
    assert set(per_client) == {0, 1, 2}
    assert fairness_spread(per_client) == max(per_client.values()) - min(per_client.values())


def test_select_cohort():
    assert select_cohort(10, 1.0, 1, 0) == list(range(10))
    half = select_cohort(10, 0.5, 1, 0)
    assert len(half) == 5 and half == sorted(half)
    assert select_cohort(10, 0.5, 1, 0) == select_cohort(10, 0.5, 1, 0)
    assert select_cohort(10, 0.5, 2, 0) != half or select_cohort(10, 0.5, 3, 0) != half
    with pytest.raises(ValueError):
        select_cohort(10, 0.0, 1, 0)


def test_predict_shapes():
    spec = ModelSpec()
    w = init_weights(spec, 0)
    X = np.zeros((4, 8))
    assert predict(spec, w, X).shape == (4, 2)


def test_generation_scale_anchor():
    # Large-population generation stays fast enough for desk-scale runs.
    import time

    t0 = time.time()
    pop = gen_synthetic_population(1474, seed=0, samples_per_round=10, rounds=2)
    assert time.time() - t0 < 10.0
    assert pop.num_clients == 1474
