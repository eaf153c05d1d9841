"""Synthetic heterogeneous gaze-regression task and local client training.

Each client draws gaze targets from its own Gaussian and sees "appearance"
features that are a public linear mixing of gaze plus a client-specific
offset and noise. The default model is a linear regressor so that update
leakage admits an analytic oracle; a one-hidden-layer variant exercises
nonconvexity.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .util import derive_seed

GAZE_DIM = 2
MIXING_SEED = 0x9AE3  # the mixing map is public knowledge

MODEL_KINDS = ("linear", "mlp")

MAX_PITCH = math.pi / 2
MAX_YAW = math.pi


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
            raise ValueError("training hyperparameters must be positive")
        if not 0 < self.cohort_fraction <= 1:
            raise ValueError("cohort fraction must be in (0, 1]")


@dataclass
class ClientData:
    """Per-client generating parameters and per-round disjoint datasets."""

    client_id: int
    mu: np.ndarray
    b: np.ndarray
    round_features: list  # index k-1 -> (m, d_in)
    round_gaze: list  # index k-1 -> (m, 2)
    test_features: np.ndarray
    test_gaze: np.ndarray

    def all_gaze(self) -> np.ndarray:
        return np.concatenate(self.round_gaze, axis=0)


@dataclass
class Population:
    seed: int
    heterogeneity: float
    samples_per_round: int
    rounds: int
    d_in: int
    sigma_gaze: float
    sigma_noise: float
    A: np.ndarray
    clients: list

    @property
    def num_clients(self) -> int:
        return len(self.clients)

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
    test_samples: int = 30,
) -> Population:
    if num_clients < 1:
        raise ValueError("need at least one client")
    A = mixing_map(d_in)
    clients = []
    for j in range(num_clients):
        rng = np.random.default_rng([seed, 0xC11E27, j])
        mu = np.clip(rng.normal(0.0, 0.25 * heterogeneity, GAZE_DIM), -0.6, 0.6)
        b = rng.normal(0.0, 0.5 * heterogeneity, d_in)
        round_features, round_gaze = [], []
        for k in range(rounds):
            rr = np.random.default_rng([seed, 0xDA7A, j, k])
            G = _sample_gaze(rr, mu, sigma_gaze, samples_per_round)
            X = G @ A.T + b + rr.normal(0.0, sigma_noise, (samples_per_round, d_in))
            round_features.append(X)
            round_gaze.append(G)
        tr = np.random.default_rng([seed, 0x7E57, j])
        TG = _sample_gaze(tr, mu, sigma_gaze, test_samples)
        TX = TG @ A.T + b + tr.normal(0.0, sigma_noise, (test_samples, d_in))
        clients.append(ClientData(j, mu, b, round_features, round_gaze, TX, TG))
    return Population(
        seed=seed,
        heterogeneity=heterogeneity,
        samples_per_round=samples_per_round,
        rounds=rounds,
        d_in=d_in,
        sigma_gaze=sigma_gaze,
        sigma_noise=sigma_noise,
        A=A,
        clients=clients,
    )


def _sample_gaze(rng, mu, sigma, count):
    G = mu + rng.normal(0.0, sigma, (count, GAZE_DIM))
    G[:, 0] = np.clip(G[:, 0], -MAX_PITCH, MAX_PITCH)
    G[:, 1] = np.clip(G[:, 1], -MAX_YAW, MAX_YAW)
    return G


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def init_weights(spec: ModelSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x1417])
    return rng.normal(0.0, 0.05, spec.dim)


def _unpack_linear(spec, w):
    W = w[: spec.d_in * GAZE_DIM].reshape(spec.d_in, GAZE_DIM)
    c = w[spec.d_in * GAZE_DIM :]
    return W, c


def _unpack_mlp(spec, w):
    i = 0
    W1 = w[i : i + spec.d_in * spec.hidden].reshape(spec.d_in, spec.hidden)
    i += spec.d_in * spec.hidden
    b1 = w[i : i + spec.hidden]
    i += spec.hidden
    W2 = w[i : i + spec.hidden * GAZE_DIM].reshape(spec.hidden, GAZE_DIM)
    i += spec.hidden * GAZE_DIM
    c = w[i:]
    return W1, b1, W2, c


def predict(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        W, c = _unpack_linear(spec, w)
        return X @ W + c
    W1, b1, W2, c = _unpack_mlp(spec, w)
    return np.tanh(X @ W1 + b1) @ W2 + c


def loss_and_grad(spec: ModelSpec, w: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Mean squared (pitch, yaw) error and its gradient in flat coordinates."""
    m = X.shape[0]
    if spec.kind == "linear":
        W, c = _unpack_linear(spec, w)
        E = X @ W + c - G
        loss = float(np.mean(np.sum(E**2, axis=1)))
        grad_W = 2.0 / m * X.T @ E
        grad_c = 2.0 / m * E.sum(axis=0)
        return loss, np.concatenate([grad_W.ravel(), grad_c])
    W1, b1, W2, c = _unpack_mlp(spec, w)
    Z = X @ W1 + b1
    H = np.tanh(Z)
    E = H @ W2 + c - G
    loss = float(np.mean(np.sum(E**2, axis=1)))
    dE = 2.0 / m * E
    grad_W2 = H.T @ dE
    grad_c = dE.sum(axis=0)
    dH = dE @ W2.T * (1.0 - H**2)
    grad_W1 = X.T @ dH
    grad_b1 = dH.sum(axis=0)
    return loss, np.concatenate(
        [grad_W1.ravel(), grad_b1, grad_W2.ravel(), grad_c]
    )


def local_train(
    w: np.ndarray,
    X: np.ndarray,
    G: np.ndarray,
    cfg: TrainConfig,
    spec: ModelSpec,
    seed: int,
) -> np.ndarray:
    """E epochs of mini-batch gradient descent; batch order is a seeded shuffle."""
    w = w.astype(np.float64).copy()
    rng = np.random.default_rng([seed, 0x10CA1])
    m = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = loss_and_grad(spec, w, X[idx], G[idx])
            if not np.isfinite(loss):
                raise TrainingDivergence(f"non-finite loss {loss}")
            w -= cfg.lr * grad
    return w


# ---------------------------------------------------------------------------
# Gaze-space metrics
# ---------------------------------------------------------------------------


def gaze_to_vec(pitch: float, yaw: float) -> np.ndarray:
    cp = math.cos(pitch)
    return np.array([cp * math.sin(yaw), math.sin(pitch), cp * math.cos(yaw)])


def gaze_to_vecs(angles: np.ndarray) -> np.ndarray:
    p, y = angles[..., 0], angles[..., 1]
    cp = np.cos(p)
    return np.stack([cp * np.sin(y), np.sin(p), cp * np.cos(y)], axis=-1)


def angular_error(pred, truth) -> float:
    """Angle in degrees between two (pitch, yaw) directions."""
    d = float(np.dot(gaze_to_vec(*pred), gaze_to_vec(*truth)))
    return math.degrees(math.acos(max(-1.0, min(1.0, d))))


def mean_angular_error(pred_angles: np.ndarray, true_angles: np.ndarray) -> float:
    dots = np.sum(gaze_to_vecs(pred_angles) * gaze_to_vecs(true_angles), axis=-1)
    return float(np.degrees(np.arccos(np.clip(dots, -1.0, 1.0))).mean())


def evaluate_model(spec: ModelSpec, w: np.ndarray, population: Population):
    """Mean test angular error in degrees plus the per-client breakdown."""
    per_client = {}
    total_err, total_count = 0.0, 0
    for client in population.clients:
        if client.test_features.shape[0] == 0:
            raise ValueError("empty test set")
        P = predict(spec, w, client.test_features)
        err = mean_angular_error(P, client.test_gaze)
        per_client[client.client_id] = err
        total_err += err * client.test_features.shape[0]
        total_count += client.test_features.shape[0]
    return total_err / total_count, per_client


def fairness_spread(per_client: dict) -> float:
    errs = list(per_client.values())
    return max(errs) - min(errs)


# ---------------------------------------------------------------------------
# Dataset export (client_id, round, f1..fd, pitch, yaw)
# ---------------------------------------------------------------------------


def export_population_csv(population: Population, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["client_id", "round"]
        header += [f"f{i + 1}" for i in range(population.d_in)]
        header += ["pitch", "yaw"]
        writer.writerow(header)
        for client in population.clients:
            for k, (X, G) in enumerate(zip(client.round_features, client.round_gaze), start=1):
                for x_row, g_row in zip(X, G):
                    writer.writerow(
                        [client.client_id, k]
                        + [f"{v:.17g}" for v in x_row]
                        + [f"{g_row[0]:.17g}", f"{g_row[1]:.17g}"]
                    )


def import_population_csv(path):
    """Rows back as {(client_id, round): (features, gaze)} arrays."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d_in = len(header) - 4
        for row in reader:
            key = (int(row[0]), int(row[1]))
            feats = [float(v) for v in row[2 : 2 + d_in]]
            gaze = [float(row[2 + d_in]), float(row[3 + d_in])]
            groups.setdefault(key, ([], []))
            groups[key][0].append(feats)
            groups[key][1].append(gaze)
    return {
        key: (np.array(fs), np.array(gs)) for key, (fs, gs) in groups.items()
    }


def select_cohort(num_clients: int, fraction: float, round_index: int, seed: int) -> list:
    """Deterministic without-replacement cohort for one round."""
    if not 0 < fraction <= 1:
        raise ValueError("cohort fraction must be in (0, 1]")
    size = math.ceil(fraction * num_clients)
    rng = np.random.default_rng([derive_seed(seed, "cohort", round_index)])
    return sorted(rng.choice(num_clients, size=size, replace=False).tolist())
