"""Synthetic heterogeneous gaze-regression task and local client training.

Each client draws gaze targets from its own Gaussian and sees "appearance"
features that are a public linear mixing of gaze plus a client-specific
offset and noise. The default model is a linear regressor so that update
leakage admits an analytic oracle; a one-hidden-layer variant exercises
nonconvexity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .util import derive_seed

GAZE_DIM = 2
MIXING_SEED = 0x9AE3  # the mixing map is public knowledge

MODEL_KINDS = ("linear", "mlp")

TEST_SAMPLES = 30  # held-out test samples per client
MAX_PITCH = math.pi / 2
MAX_YAW = math.pi
GAZE_LIMITS = np.array([MAX_PITCH, MAX_YAW])


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during local training."""


def mixing_map(d_in: int) -> np.ndarray:
    """Fixed public map from gaze space to feature space."""
    rng = np.random.default_rng(MIXING_SEED + d_in)
    return rng.normal(0.0, 1.0, size=(d_in, GAZE_DIM))


@dataclass(frozen=True)
class ModelSpec:
    """Shape descriptor for the flat weight vector."""

    kind: str = "linear"  # "linear" or "mlp"
    d_in: int = 8
    hidden: int = 16

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.d_in < 1 or self.hidden < 1:
            raise ValueError("d_in and hidden must be >= 1")

    @property
    def dim(self) -> int:
        if self.kind == "linear":
            return self.d_in * GAZE_DIM + GAZE_DIM
        return (
            self.d_in * self.hidden
            + self.hidden
            + self.hidden * GAZE_DIM
            + GAZE_DIM
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1
    lr: float = 0.2
    batch_size: int = 256
    rounds: int = 10
    cohort_fraction: float = 1.0

    def __post_init__(self):
        if self.epochs < 0 or self.lr <= 0 or self.batch_size <= 0 or self.rounds < 0:
            raise ValueError("training needs epochs >= 0, lr > 0, batch_size >= 1 and rounds >= 0")
        if not 0 < self.cohort_fraction <= 1:
            raise ValueError("cohort fraction must be in (0, 1]")


@dataclass
class Population:
    """The population as client-indexed arrays: row j of each is client j.

    ``features`` (J, R, m, d_in) and ``gaze`` (J, R, m, 2) hold every
    client's per-round disjoint training sets, ``test_features`` (J, T, d_in)
    and ``test_gaze`` (J, T, 2) its held-out test set, and ``mu`` (J, 2) and
    ``b`` (J, d_in) its generating parameters.
    """

    seed: int
    heterogeneity: float
    samples_per_round: int
    rounds: int
    d_in: int
    sigma_gaze: float
    sigma_noise: float
    A: np.ndarray
    mu: np.ndarray
    b: np.ndarray
    features: np.ndarray
    gaze: np.ndarray
    test_features: np.ndarray
    test_gaze: np.ndarray

    @property
    def num_clients(self) -> int:
        return len(self.mu)

    @cached_property
    def test_vecs(self) -> np.ndarray:
        """Unit vectors (3, J, T) of ``test_gaze``, computed once."""
        return gaze_to_vecs(self.test_gaze)

    def priors(self) -> dict:
        """Population-level generating priors; public attacker knowledge."""
        return {
            "mu_std": 0.25 * self.heterogeneity,
            "b_std": 0.5 * self.heterogeneity,
            "sigma_gaze": self.sigma_gaze,
            "sigma_noise": self.sigma_noise,
        }


def gen_synthetic_population(
    num_clients: int,
    seed: int,
    heterogeneity: float = 1.0,
    samples_per_round: int = 20,
    rounds: int = 10,
    d_in: int = 8,
    sigma_gaze: float = 0.15,
    sigma_noise: float = 0.05,
) -> Population:
    if num_clients < 1:
        raise ValueError("need at least one client")
    J, m, T = num_clients, samples_per_round, TEST_SAMPLES
    A = mixing_map(d_in)
    mu, b = np.empty((J, GAZE_DIM)), np.empty((J, d_in))
    features, gaze = np.empty((J, rounds, m, d_in)), np.empty((J, rounds, m, GAZE_DIM))
    test_features, test_gaze = np.empty((J, T, d_in)), np.empty((J, T, GAZE_DIM))
    # Every client has its own parameter stream, one stream per round and a
    # test stream; each stream is used by itself, so the order they are taken
    # in changes no draw.
    for j, rng in enumerate(_streams([seed, 0xC11E27, j] for j in range(J))):
        mu[j] = _clip(rng.normal(0.0, 0.25 * heterogeneity, GAZE_DIM), 0.6)
        b[j] = rng.normal(0.0, 0.5 * heterogeneity, d_in)
    # A stream's draws land where its two normal() calls put them, gaze first;
    # normal(0, s) is s * z (+ 0.0, which changes no sum below).
    cells = [(j, k) for j in range(J) for k in range(rounds)]
    for (j, k), rng in zip(cells, _streams([seed, 0xDA7A, j, k] for j, k in cells)):
        rng.standard_normal(out=gaze[j, k])
        rng.standard_normal(out=features[j, k])
    for j, rng in enumerate(_streams([seed, 0x7E57, j] for j in range(J))):
        rng.standard_normal(out=test_gaze[j])
        rng.standard_normal(out=test_features[j])
    # Then gaze around mu, clipped to the valid angles, and features mixed from
    # it, offset by b and noised, in blocks of clients that keep each temporary
    # below glibc's 128 KiB mmap threshold (freeing larger ones raises it).
    step = max(1, ((1 << 17) - 1) // features[0].nbytes)
    for G, F in ((gaze, features), (test_gaze, test_features)):
        for s in (slice(lo, lo + step) for lo in range(0, J, step)):
            lead = (s,) + (None,) * (G.ndim - 2)
            G[s] = _clip(sigma_gaze * G[s] + mu[lead], GAZE_LIMITS)
            F[s] = sigma_noise * F[s] + (G[s] @ A.T + b[lead])
    return Population(
        seed=seed, heterogeneity=heterogeneity, samples_per_round=samples_per_round,
        rounds=rounds, d_in=d_in, sigma_gaze=sigma_gaze, sigma_noise=sigma_noise, A=A,
        mu=mu, b=b, features=features, gaze=gaze,
        test_features=test_features, test_gaze=test_gaze,
    )


def _clip(x, bound):
    """np.clip(x, -bound, bound) in place, without the wrapper's call overhead."""
    np.maximum(x, -bound, out=x)
    return np.minimum(x, bound, out=x)


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------

# A PCG64 stream is fixed by the two 128-bit words SeedSequence hashes its
# entropy into, so np.random.default_rng(entropy) need not be built once per
# stream: the hash runs as uint32 arithmetic over a stack of entropy rows,
# and one Generator is set to each resulting state in turn. The constants are
# those of numpy's SeedSequence (pool of 4 words) and PCG64's multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init, mult, count):
    """The hash constant before each of ``count`` hashmix calls, and after."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values, consts, k):
    """SeedSequence's hashmix over the last axis: column i is call k + i."""
    c = values.shape[-1]
    values = (values ^ consts[k : k + c]) * consts[k + 1 : k + c + 1]
    return values ^ (values >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _pcg64_states(entropy: np.ndarray) -> list:
    """(state, inc) of PCG64(SeedSequence(row)) for each row of a (J, w)
    uint32 entropy array. Rows shorter than the pool are zero-padded, as
    SeedSequence pads them; longer rows run its extra mixing loop."""
    J, w = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * max(w, _POOL))
    with np.errstate(over="ignore"):
        pool = np.zeros((J, _POOL), np.uint32)
        pool[:, : min(w, _POOL)] = entropy[:, :_POOL]
        mixer = _hashmix(pool, consts, 0)
        k = _POOL
        for src in range(_POOL):
            dst = [d for d in range(_POOL) if d != src]
            mixer[:, dst] = _mix(mixer[:, dst], _hashmix(mixer[:, [src] * len(dst)], consts, k))
            k += len(dst)
        for src in range(_POOL, w):
            mixer = _mix(mixer, _hashmix(entropy[:, [src] * _POOL], consts, k))
            k += _POOL
        # generate_state(4, np.uint64): eight words drawn cycling the pool.
        words = _hashmix(np.tile(mixer, 2), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL), 0)
    hi_init, lo_init, hi_seq, lo_seq = words.astype("<u4").view("<u8").T.tolist()
    states = []
    for a, b, c, d in zip(hi_init, lo_init, hi_seq, lo_seq):
        inc = ((c << 65) | (d << 1) | 1) & _MASK128
        states.append(((((a << 64) | b) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _words(entropy) -> list:
    """The uint32 words SeedSequence makes of a list of non-negative ints."""
    words = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _streams(entropies):
    """Yield, for each entropy list in turn, a Generator in the state
    np.random.default_rng(entropy) starts in. It is one Generator, reset for
    each list, so a stream must be used up before the next is taken."""
    rows = [_words(e) for e in entropies]
    states = [None] * len(rows)
    by_width = {}
    for i, row in enumerate(rows):
        by_width.setdefault(max(len(row), _POOL), []).append(i)
    for width, lanes in by_width.items():
        entropy = np.array([rows[i] + [0] * (width - len(rows[i])) for i in lanes], np.uint32)
        for i, state in zip(lanes, _pcg64_states(entropy)):
            states[i] = state
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        yield gen


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def init_weights(spec: ModelSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x1417])
    return rng.normal(0.0, 0.05, spec.dim)


def _unpack_linear(spec, w):
    lead = w.shape[:-1]
    W = w[..., : spec.d_in * GAZE_DIM].reshape(*lead, spec.d_in, GAZE_DIM)
    c = w[..., spec.d_in * GAZE_DIM :]
    return W, c


def _unpack_mlp(spec, w):
    lead = w.shape[:-1]
    i = 0
    W1 = w[..., i : i + spec.d_in * spec.hidden].reshape(*lead, spec.d_in, spec.hidden)
    i += spec.d_in * spec.hidden
    b1 = w[..., i : i + spec.hidden]
    i += spec.hidden
    W2 = w[..., i : i + spec.hidden * GAZE_DIM].reshape(*lead, spec.hidden, GAZE_DIM)
    i += spec.hidden * GAZE_DIM
    c = w[..., i:]
    return W1, b1, W2, c


def predict(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predicted (pitch, yaw) for rows X (..., m, d_in) under one model w (dim,)."""
    if spec.kind == "linear":
        W, c = _unpack_linear(spec, w)
        return _add_rows(X @ W, c)
    W1, b1, W2, c = _unpack_mlp(spec, w)
    return _add_rows(np.tanh(X @ W1 + b1) @ W2, c)


def _t(A):
    return A.swapaxes(-1, -2)


def _flat(A):
    return A.reshape(*A.shape[:-2], -1)


# The (pitch, yaw) axis has length 2, and numpy runs an inner loop per row
# over it: broadcasting a bias over the rows or summing the rows costs a
# loop call per 2 numbers. Viewed as complex128, each pair is one element,
# so the loops run over rows instead. Complex + adds the two parts
# separately, so every result keeps the bits of the float code it replaces.


def _add_rows(E, c):
    """E + c[..., None, :] for E (..., m, 2) and c (..., 2), in place in E."""
    rows = E.view(np.complex128)
    rows += np.ascontiguousarray(c).view(np.complex128)[..., None, :]
    return E


def _row_sum(E):
    """E.sum(axis=-2) for E (..., m, 2), leading axes at most one. numpy adds
    the m rows in order; so does a sum over axis 0 of a copy with the batch
    axis first."""
    rows = E.view(np.complex128).swapaxes(0, -2).copy()
    return np.add.reduce(rows.view(np.float64), axis=0)


def _mean_squared(E):
    """np.mean(np.sum(E**2, axis=-1), axis=-1) for E (..., m, 2): numpy sums
    the length-2 axis as e0 + e1, and mean is add.reduce, then / m."""
    sq = E * E
    return np.add.reduce(sq[..., 0] + sq[..., 1], axis=-1) / E.shape[-2]


def loss_and_grad(spec: ModelSpec, w: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Mean squared (pitch, yaw) error and its gradient in flat coordinates.

    Takes one client (w (dim,), X (m, d_in), G (m, 2)) or a stack of J
    clients (w (J, dim), X (J, m, d_in), G (J, m, 2)); the loss and gradient
    then carry the same leading client axis. Each client's slice goes through
    the same operations in the same order, so it is bit-identical to a
    one-client call.
    """
    m = X.shape[-2]
    if spec.kind == "linear":
        W, c = _unpack_linear(spec, w)
        E = _add_rows(X @ W, c)
        E -= G
        grad_W = 2.0 / m * _t(X) @ E
        grad_c = 2.0 / m * _row_sum(E)
        return _mean_squared(E), np.concatenate([_flat(grad_W), grad_c], axis=-1)
    W1, b1, W2, c = _unpack_mlp(spec, w)
    Z = X @ W1 + b1[..., None, :]
    H = np.tanh(Z)
    E = _add_rows(H @ W2, c)
    E -= G
    loss = _mean_squared(E)
    dE = 2.0 / m * E
    grad_W2 = _t(H) @ dE
    grad_c = _row_sum(dE)
    dH = dE @ _t(W2) * (1.0 - H**2)
    grad_W1 = _t(X) @ dH
    grad_b1 = dH.sum(axis=-2)
    return loss, np.concatenate(
        [_flat(grad_W1), grad_b1, _flat(grad_W2), grad_c], axis=-1
    )


def local_train(
    w: np.ndarray,
    X: np.ndarray,
    G: np.ndarray,
    cfg: TrainConfig,
    spec: ModelSpec,
    seed: int | list[int],
) -> np.ndarray:
    """E epochs of mini-batch gradient descent; batch order is a seeded shuffle.

    One client trains from w on X (m, d_in), G (m, 2) with an int seed and
    gets a (dim,) model back. A block of J clients that start from the same w
    passes X (J, m, d_in), G (J, m, 2) and J seeds and gets (J, dim) back,
    each row bit-identical to that client's one-client call: every client
    shuffles with its own stream, the one np.random.default_rng([seed,
    0x10CA1]) starts, and the steps run in lockstep.
    """
    stacked = X.ndim == 3
    if not stacked:
        X, G, seed = X[None], G[None], [seed]
    J, m, d_in = X.shape
    w = np.array(np.broadcast_to(w, (J, w.shape[-1])), dtype=np.float64, order="C")
    # Batches are taken from the client-major rows with one flat index each.
    # Each client's stream draws only its epochs' shuffles, one after the
    # other, as permutation(m) would draw them (permuted shuffles the rows in
    # turn, as one shuffle per epoch would); a shuffle moves positions
    # whatever the values, so client j's rows start out as j*m .. j*m + m-1.
    orders = np.empty((J, cfg.epochs, m), dtype=np.intp)
    orders[...] = np.arange(J * m).reshape(J, 1, m)
    for order, rng in zip(orders, _streams([s, 0x10CA1] for s in seed)):
        rng.permuted(order, axis=1, out=order)
    X, G = X.reshape(J * m, d_in), G.reshape(J * m, GAZE_DIM)
    for epoch in range(cfg.epochs):
        order = orders[:, epoch]
        for start in range(0, m, cfg.batch_size):
            idx = order[:, start : start + cfg.batch_size]
            loss, grad = loss_and_grad(spec, w, X.take(idx, axis=0), G.take(idx, axis=0))
            finite = np.isfinite(loss)
            if not finite.all():
                raise TrainingDivergence(f"non-finite loss {loss[~finite][0]}")
            w -= cfg.lr * grad
    return w if stacked else w[0]


# ---------------------------------------------------------------------------
# Gaze-space metrics
# ---------------------------------------------------------------------------


def gaze_to_vec(pitch: float, yaw: float) -> np.ndarray:
    cp = math.cos(pitch)
    return np.array([cp * math.sin(yaw), math.sin(pitch), cp * math.cos(yaw)])


def gaze_to_vecs(angles: np.ndarray) -> np.ndarray:
    """Unit gaze vectors of (..., 2) (pitch, yaw) angles, component-first:
    (3, ...)."""
    p, y = angles[..., 0], angles[..., 1]
    cp = np.cos(p)
    return np.stack([cp * np.sin(y), np.sin(p), cp * np.cos(y)])


def angular_error(pred, truth) -> float:
    """Angle in degrees between two (pitch, yaw) directions."""
    d = float(np.dot(gaze_to_vec(*pred), gaze_to_vec(*truth)))
    return math.degrees(math.acos(max(-1.0, min(1.0, d))))


def _angles_deg(pred_vecs: np.ndarray, true_vecs: np.ndarray) -> np.ndarray:
    """Elementwise angle in degrees between (3, ...) unit vectors.

    The dot products add their terms as np.sum does over a length-3 axis,
    (x + y) + z, without its inner loop per row.
    """
    terms = pred_vecs * true_vecs
    dots = terms[0] + terms[1]
    dots += terms[2]
    return np.degrees(np.arccos(_clip(dots, 1.0)))


def evaluate_model(spec: ModelSpec, w: np.ndarray, population: Population):
    """Mean test angular error in degrees plus the per-client breakdown.

    Predicts on the (J, T, d_in) test sets in one call. Per-client means and
    the weighted total accumulate in client order, as a per-client loop would.
    """
    P = predict(spec, w, population.test_features)
    errs = _angles_deg(gaze_to_vecs(P), population.test_vecs)
    count = population.test_features.shape[1]
    per_client = dict(enumerate(errs.mean(axis=-1).tolist()))
    total_err = 0.0
    for err in per_client.values():
        total_err += err * count
    return total_err / (count * len(per_client)), per_client


def fairness_spread(per_client: dict) -> float:
    errs = list(per_client.values())
    return max(errs) - min(errs)


def select_cohort(num_clients: int, fraction: float, round_index: int, seed: int) -> list:
    """Deterministic without-replacement cohort for one round."""
    if not 0 < fraction <= 1:
        raise ValueError("cohort fraction must be in (0, 1]")
    size = math.ceil(fraction * num_clients)
    rng = np.random.default_rng([derive_seed(seed, "cohort", round_index)])
    return sorted(rng.choice(num_clients, size=size, replace=False).tolist())
