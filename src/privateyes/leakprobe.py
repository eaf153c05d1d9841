"""Leakage views, the DualView-lite reconstruction attack, and scoring.

The attack inverts leaked model updates of the linear gaze regressor back
to per-client generating parameters (gaze mean, appearance offset). For
single-server training the leaked units are the individual updates; for
the secure scheme only round-wise output models leak, so the per-round
cohort average is first recovered by inverting the adaptive server step.
Reconstructions are scored against ground truth by angular MAE of the
gaze mean and by KL divergence between kernel density estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fedcore import GAZE_DIM, Population, angular_error
from .protocol import (
    SCHEME_ADAPTIVE_FL,
    SCHEME_DATACENTRE,
    SCHEME_PRIVATEYES,
    Transcript,
)

SCHEME_GENERIC_MPC = "mpc"

DENSITY_FLOOR = 1e-9
GRID_BINS = 64
KDE_BLOCK = 512  # grid points per kernel evaluation block
EXP_MIN = -700.0  # kernel exponents are floored here (e^-700 ~ 1e-304)


class LeakprobeError(ValueError):
    """Bad inputs to the leakage analysis."""


@dataclass
class LeakageTranscript:
    """Public knowledge plus the scheme-dependent leaked view."""

    scheme: str
    pub: dict  # om0, final OM, model/train config, mixing map, priors
    leak: dict  # "iu": {(j, k): vec}, "om": {k: vec}, "raw": {j: gaze array}


@dataclass(frozen=True)
class AttackConfig:
    alpha: float = 10.0
    beta: float = 6.0
    gamma: float = 4.0
    steps: int = 400
    prior_strength: float = 1.0
    seed: int = 0
    chain: bool = True
    rounds: tuple = None  # restrict to these round indices; None = all
    recon_samples: int = 400

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise LeakprobeError("loss weights must be non-negative")
        if self.steps < 1 or self.prior_strength <= 0:
            raise LeakprobeError("bad attack budget")


@dataclass
class ReconstructionReport:
    scheme: str
    per_client: dict = dc_field(default_factory=dict)
    mean_mae_deg: float = float("nan")
    mean_kl: float = float("nan")

    def finalize(self):
        maes = [c["mae_deg"] for c in self.per_client.values()]
        kls = [c["kl"] for c in self.per_client.values()]
        self.mean_mae_deg = float(np.mean(maes))
        self.mean_kl = float(np.mean(kls))
        return self


# ---------------------------------------------------------------------------
# Leakage views
# ---------------------------------------------------------------------------


def build_leak_set(scheme: str, transcript: Transcript, population: Population = None) -> LeakageTranscript:
    """The adversary's view for one scheme, exactly the per-scheme sets."""
    pub = {
        "config": dict(transcript.config),
        "om0": transcript.om_history[0],
        "om_final": transcript.om_history[-1],
    }
    if population is not None:
        pub["mixing_map"] = population.A
        pub["priors"] = population.priors()
    oms = {k: om for k, om in enumerate(transcript.om_history) if k >= 1}
    if scheme == SCHEME_PRIVATEYES:
        # The aggregate-only view: no individual update may appear anywhere.
        if transcript.server_view_iu:
            raise LeakprobeError("individual updates present in a secure-mode transcript")
        return LeakageTranscript(scheme, pub, {"om": oms})
    if scheme == SCHEME_ADAPTIVE_FL:
        return LeakageTranscript(scheme, pub, {"iu": dict(transcript.server_view_iu), "om": oms})
    if scheme == SCHEME_DATACENTRE:
        if population is None:
            raise LeakprobeError("datacentre leak view needs the raw datasets")
        raw = {c.client_id: c.all_gaze() for c in population.clients}
        return LeakageTranscript(scheme, pub, {"raw": raw, "om": oms})
    if scheme == SCHEME_GENERIC_MPC:
        return LeakageTranscript(scheme, pub, {})
    raise LeakprobeError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Update inversion
# ---------------------------------------------------------------------------


def invert_optimizer_history(om_history: list, config: dict) -> dict:
    """Recover each round's cohort-average model from the public OM chain.

    The adaptive step is invertible per coordinate: with u the updated
    first moment, the observed step obs = eta*u/(sqrt(v')+tau) gives a
    quadratic in u whose correct root is picked by forward evaluation.
    """
    beta1, beta2 = config["beta1"], config["beta2"]
    tau, eta = config["tau"], config["eta"]
    mode = config.get("optimizer_mode", "adaptive")
    averages = {}
    m = np.zeros_like(om_history[0])
    v = np.zeros_like(om_history[0])
    for k in range(1, len(om_history)):
        prev, cur = om_history[k - 1], om_history[k]
        obs = cur - prev
        if mode == "fedavg":
            averages[k] = prev + obs / eta
            continue
        if mode == "plain":
            averages[k] = cur.copy()
            continue
        delta = _invert_adaptive_coordinates(obs, m, v, beta1, beta2, tau, eta)
        m = beta1 * m + (1.0 - beta1) * delta
        v = beta2 * v + (1.0 - beta2) * delta**2
        averages[k] = prev + delta
    return averages


def _invert_adaptive_coordinates(obs, m, v, beta1, beta2, tau, eta):
    a1 = (1.0 - beta2) / (1.0 - beta1) ** 2
    delta = np.empty_like(obs)
    for i in range(obs.size):
        o = obs[i]
        if abs(o) < 1e-15:
            delta[i] = -beta1 * m[i] / (1.0 - beta1)
            continue
        r = eta / o
        qa = a1 - r * r
        qb = -2.0 * a1 * beta1 * m[i] + 2.0 * tau * r
        qc = a1 * beta1**2 * m[i] ** 2 + beta2 * v[i] - tau * tau
        if abs(qa) < 1e-18:
            roots = [-qc / qb] if qb != 0 else []
        else:
            disc = max(qb * qb - 4.0 * qa * qc, 0.0)
            s = np.sqrt(disc)
            roots = [(-qb + s) / (2.0 * qa), (-qb - s) / (2.0 * qa)]
        # Both quadratic roots can reproduce the observed step exactly, so
        # forward error alone cannot separate them; among near-exact roots
        # prefer the smaller update, which is how real deltas behave.
        candidates = []
        for u in roots:
            d = (u - beta1 * m[i]) / (1.0 - beta1)
            v_new = beta2 * v[i] + (1.0 - beta2) * d * d
            pred = eta * u / (np.sqrt(v_new) + tau)
            candidates.append((abs(pred - o), abs(d), d))
        if not candidates:
            delta[i] = -beta1 * m[i] / (1.0 - beta1)
            continue
        best_err = min(c[0] for c in candidates)
        tol = max(10.0 * best_err, 1e-9 * max(1.0, abs(o)))
        plausible = [c for c in candidates if c[0] <= tol]
        delta[i] = min(plausible, key=lambda c: c[1])[2]
    return delta


# ---------------------------------------------------------------------------
# Gradient-matching reconstruction
# ---------------------------------------------------------------------------


def observed_gradient(w_prev: np.ndarray, update: np.ndarray, config: dict) -> np.ndarray:
    """Average per-step gradient implied by a leaked local update."""
    nb = int(np.ceil(config["samples_per_round"] / config["batch_size"]))
    steps = config["epochs"] * nb
    return (w_prev - update) / (config["lr"] * steps)


def _expected_gradient_system(w_prev, grad_obs, pub, cfg, prior_mean, prior_std, prior_weight):
    """Rows of the weighted least-squares system in theta = (mu, b).

    The expected full-batch gradient under the generating model is affine
    in theta once the observed bias gradient pins down the mean residual.
    """
    A = pub["mixing_map"]
    priors = pub["priors"]
    d_in = A.shape[0]
    W = w_prev[: d_in * GAZE_DIM].reshape(d_in, GAZE_DIM)
    c = w_prev[d_in * GAZE_DIM :]
    g_c = grad_obs[d_in * GAZE_DIM :]
    g_W = grad_obs[: d_in * GAZE_DIM].reshape(d_in, GAZE_DIM)
    sg2 = priors["sigma_gaze"] ** 2
    sn2 = priors["sigma_noise"] ** 2

    dim = GAZE_DIM + d_in
    e_obs = g_c / 2.0  # mean residual, read off the bias gradient
    K = sg2 * (A @ A.T @ W - A) + sn2 * W

    rows, targets, weights = [], [], []
    # Bias-gradient residual: 2[(W^T A - I) mu + W^T b + c] - g_c
    M_c = np.hstack([2.0 * (W.T @ A - np.eye(GAZE_DIM)), 2.0 * W.T])
    for l in range(GAZE_DIM):
        rows.append(M_c[l])
        targets.append(g_c[l] - 2.0 * c[l])
        weights.append(np.sqrt(cfg.beta))
    # Weight-gradient residual: 2[(A mu + b) e_obs^T + K] - g_W
    for i in range(d_in):
        for l in range(GAZE_DIM):
            row = np.zeros(dim)
            row[:GAZE_DIM] = 2.0 * e_obs[l] * A[i]
            row[GAZE_DIM + i] = 2.0 * e_obs[l]
            rows.append(row)
            targets.append(g_W[i, l] - 2.0 * K[i, l])
            weights.append(np.sqrt(cfg.gamma))
    # Prior pull toward the current prior mean.
    for t in range(dim):
        row = np.zeros(dim)
        row[t] = 1.0 / prior_std[t]
        rows.append(row)
        targets.append(prior_mean[t] / prior_std[t])
        weights.append(np.sqrt(cfg.alpha * cfg.prior_strength * prior_weight))
    M = np.array(rows) * np.array(weights)[:, None]
    y = np.array(targets) * np.array(weights)
    return M, y


def _solve_gd(M, y, theta0, steps):
    """Plain gradient descent on ||M theta - y||^2 with a safe fixed step,
    evaluated in closed form.

    With H = M^T M = V diag(lam) V^T and step s = 1/(2 lam_max), iterate k is
    theta0 + V diag((1 - (1 - 2 s lam)^k) / lam) V^T (M^T y - H theta0); the
    factor tends to 2 s k as lam -> 0. ``converged`` tests the gradient at
    iterate k - 1, the last one the loop would have computed.
    """
    H = M.T @ M
    b = M.T @ y
    lam, V = np.linalg.eigh(H)
    step = 1.0 / (2.0 * lam[-1]) if lam[-1] > 0 else 0.0
    w = V.T @ (b - H @ theta0)
    theta = theta0 + V @ (_gd_gain(lam, step, steps) * w)
    prev = theta0 + V @ (_gd_gain(lam, step, steps - 1) * w)
    grad = 2.0 * (H @ prev - b)
    converged = bool(np.linalg.norm(grad) <= 1e-6 * max(1.0, np.linalg.norm(b)))
    return theta, converged


def _gd_gain(lam, step, k):
    """(1 - (1 - 2 step lam)^k) / lam per eigenvalue, 2 step k where lam <= 0."""
    if k == 0:
        return np.zeros_like(lam)
    pos = lam > 0
    x = np.minimum(2.0 * step * lam[pos], 1.0)  # 1 - x is the contraction factor
    gain = np.full_like(lam, 2.0 * step * k)
    with np.errstate(divide="ignore"):
        gain[pos] = -np.expm1(k * np.log1p(-x)) / lam[pos]
    return gain


def _prior_std(pub, d_in):
    # Floored so degenerate (homogeneous) priors stay solvable.
    std = np.concatenate(
        [np.full(GAZE_DIM, pub["priors"]["mu_std"]), np.full(d_in, pub["priors"]["b_std"])]
    )
    return np.maximum(std, 1e-6)


def _reconstruct_unit(w_prev, update, pub, cfg, prior_mean, prior_std, prior_weight=1.0):
    grad_obs = observed_gradient(w_prev, update, pub["config"])
    M, y = _expected_gradient_system(
        w_prev, grad_obs, pub, cfg, prior_mean, prior_std, prior_weight
    )
    if cfg.beta == 0 and cfg.gamma == 0:
        return prior_mean.copy(), True
    theta, converged = _solve_gd(M, y, prior_mean, cfg.steps)
    # Project onto the prior's 3-sigma box: ill-conditioned rounds must not
    # walk the chained estimate out of the plausible parameter range.
    theta = np.clip(theta, -3.0 * prior_std, 3.0 * prior_std)
    return theta, converged


def dualview_lite_reconstruct(
    leak: LeakageTranscript, cfg: AttackConfig, population: Population
) -> ReconstructionReport:
    """Run the attack on every attackable unit and score against truth.

    ``population`` supplies ground truth for scoring only; the solver sees
    nothing beyond ``leak``. Only rounds in ``cfg.rounds`` are attacked (all
    when None). Round-k estimates seed round k+1's prior when chaining is
    enabled. Each distinct unit sequence is solved once; clients sharing one
    (every client in secure mode) share its estimate.
    """
    pub = leak.pub
    report = ReconstructionReport(scheme=leak.scheme)
    rng = np.random.default_rng([cfg.seed, 0xA77AC4])

    if leak.scheme == SCHEME_DATACENTRE:
        # The raw data leaks; reconstruction is the data itself.
        for j, gaze in leak.leak["raw"].items():
            report.per_client[j] = _score(gaze.mean(axis=0), gaze, population.clients[j], pub, rng)
            report.per_client[j]["converged"] = True
        return report.finalize()

    if leak.scheme == SCHEME_GENERIC_MPC:
        # Nothing leaks: the best estimate is the population prior.
        for client in population.clients:
            est = np.zeros(GAZE_DIM)
            samples = _draw_recon_samples(est, pub, cfg, rng)
            report.per_client[client.client_id] = _score(est, samples, client, pub, rng)
            report.per_client[client.client_id]["converged"] = True
        return report.finalize()

    d_in = pub["mixing_map"].shape[0]
    prior_std = _prior_std(pub, d_in)
    estimates = {}  # client -> (theta, converged)
    for clients, units in _attack_units(leak, cfg.rounds):
        theta = np.zeros(GAZE_DIM + d_in)
        converged = True
        for s, (k, w_prev, update) in enumerate(units):
            # Chained prior: the round-s prior already summarizes s rounds
            # of evidence, so its weight grows like a Bayesian filter's.
            prior_mean = theta if cfg.chain else np.zeros(GAZE_DIM + d_in)
            weight = float(1 + s) if cfg.chain else 1.0
            theta, ok = _reconstruct_unit(
                w_prev, update, pub, cfg, prior_mean, prior_std, weight
            )
            converged = converged and ok
        for j in clients:
            estimates[j] = (theta, converged)
    for client in population.clients:
        j = client.client_id
        theta, converged = estimates.get(j, (np.zeros(GAZE_DIM + d_in), True))
        est_mu = theta[:GAZE_DIM]
        samples = _draw_recon_samples(est_mu, pub, cfg, rng)
        entry = _score(est_mu, samples, client, pub, rng)
        entry["b_hat"] = theta[GAZE_DIM:]
        entry["converged"] = converged
        report.per_client[j] = entry
    return report.finalize()


def _attack_units(leak: LeakageTranscript, rounds=None) -> list:
    """(clients, ordered (round, w_prev, leaked update) triples) pairs, one
    per distinct unit sequence, restricted to ``rounds`` unless None."""
    pub = leak.pub
    oms = {0: pub["om0"], **leak.leak["om"]}
    keep = None if rounds is None else set(rounds)
    if leak.scheme == SCHEME_ADAPTIVE_FL:
        units = {}
        for (j, k), iu in sorted(leak.leak["iu"].items(), key=lambda t: (t[0][1], t[0][0])):
            if keep is None or k in keep:
                units.setdefault(j, []).append((k, oms[k - 1], iu))
        return [((j,), seq) for j, seq in units.items()]
    # Secure mode: only the round averages are recoverable, shared by all.
    history = [oms[k] for k in sorted(oms)]
    averages = invert_optimizer_history(history, pub["config"])
    shared = [(k, oms[k - 1], averages[k]) for k in sorted(averages)
              if keep is None or k in keep]
    return [(range(pub["config"]["num_clients"]), shared)]


def _draw_recon_samples(est_mu, pub, cfg, rng):
    sigma = pub["priors"]["sigma_gaze"]
    return est_mu + rng.normal(0.0, sigma, (cfg.recon_samples, GAZE_DIM))


def _score(est_mu, recon_samples, client, pub, rng):
    truth = client.all_gaze()
    true_mu = truth.mean(axis=0)
    return {
        "mu_hat": np.asarray(est_mu, dtype=float),
        "sigma_hat": pub["priors"]["sigma_gaze"],
        "mae_deg": angular_error(est_mu, true_mu),
        "kl": kde_kl_divergence(truth, recon_samples),
    }


# ---------------------------------------------------------------------------
# KDE / KL scoring
# ---------------------------------------------------------------------------


def kde_kl_divergence(samples_p, samples_q, grid=None) -> float:
    """KL(p || q) between Gaussian-KDE densities on a shared grid.

    Both sample sets are densified with Scott's-rule kernels, evaluated on
    a fixed-resolution grid covering both supports, floored, normalized,
    and summed discretely. Equal sample sets give exactly 0.
    """
    P = np.asarray(samples_p, dtype=float)
    Q = np.asarray(samples_q, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if Q.ndim == 1:
        Q = Q[:, None]
    if P.shape[0] < 10 or Q.shape[0] < 10:
        raise LeakprobeError("need at least 10 samples per side")
    ndim = P.shape[1]
    if Q.shape[1] != ndim:
        raise LeakprobeError("sample dimensionality mismatch")
    if np.array_equal(P, Q):
        return 0.0
    if grid is None:
        both = np.vstack([P, Q])
        lo = both.min(axis=0)
        hi = both.max(axis=0)
        pad = 0.5 * (hi - lo) + 1e-6
        axes = [np.linspace(lo[t] - pad[t], hi[t] + pad[t], GRID_BINS) for t in range(ndim)]
    else:
        axes = [np.linspace(g[0], g[1], GRID_BINS) for g in grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    p = np.maximum(gaussian_kde_density(P, points), DENSITY_FLOOR)
    q = np.maximum(gaussian_kde_density(Q, points), DENSITY_FLOOR)
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def gaussian_kde_density(data, points) -> np.ndarray:
    """Scott's-rule Gaussian KDE of ``data`` (n, d) evaluated at ``points`` (m, d).

    The kernel covariance is the data covariance times n^(-2/(d+4)), as in
    ``scipy.stats.gaussian_kde``. Both sets are centred on the data mean and
    whitened by L, the upper Cholesky factor of the inverse kernel covariance
    (the transposed inverse of the covariance's lower factor), so every
    exponent -||(x - x_i) L||^2 / 2 comes out of one matmul of augmented rows
    [z, -|z|^2/2, 1] . [z_i, 1, -|z_i|^2/2]. Points are evaluated KDE_BLOCK at
    a time to bound the temporary.
    """
    n, d = data.shape
    # Uniform weights round like scipy's covariance; the KDE differs from it by
    # up to 2e-12 relative at rho = 0.99 without them.
    data_cov = np.atleast_2d(np.cov(data, rowvar=False, aweights=np.full(n, 1.0 / n)))
    L = np.linalg.inv(np.linalg.cholesky(data_cov) * float(n) ** (-1.0 / (d + 4))).T
    norm = np.prod(np.diag(L)) / ((2.0 * np.pi) ** (d / 2.0) * n)
    centre = data.mean(axis=0)
    zd = (data - centre) @ L
    right = np.vstack([zd.T, np.ones(n), -0.5 * np.sum(zd * zd, axis=1)])
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], KDE_BLOCK):
        zp = (points[lo : lo + KDE_BLOCK] - centre) @ L
        left = np.hstack([zp, -0.5 * np.sum(zp * zp, axis=1, keepdims=True),
                          np.ones((zp.shape[0], 1))])
        expo = left @ right
        # Terms below e^EXP_MIN are far under DENSITY_FLOOR, and exp is slow
        # where its result is subnormal.
        np.maximum(expo, EXP_MIN, out=expo)
        np.exp(expo, out=expo)
        out[lo : lo + KDE_BLOCK] = expo.sum(axis=1)
    return out * norm


# ---------------------------------------------------------------------------
# Generic-MPC communication cost estimator
# ---------------------------------------------------------------------------

# Layer tuples: ("conv", h_in, w_in, c_in, k, c_out) valid padding,
# ("pool", factor), ("dense", n_in, n_out).
REFERENCE_GAZE_CNN = (
    ("conv", 36, 60, 1, 5, 20),
    ("pool", 2),
    ("conv", 16, 28, 20, 5, 50),
    ("pool", 2),
    ("dense", 6 * 12 * 50, 500),
    ("dense", 500, 2),
)


def conv_forward_count(h_in, w_in, c_in, k, c_out) -> int:
    """Secret multiplications (one communicated value each) of a valid conv."""
    h_out, w_out = h_in - k + 1, w_in - k + 1
    if h_out < 1 or w_out < 1 or min(c_in, c_out) < 1:
        raise LeakprobeError("invalid convolution dimensions")
    return h_out * w_out * c_out * (k * k * c_in)


def conv_backward_count(h_in, w_in, c_in, k, c_out) -> int:
    # Weight gradients cost one forward's worth; input gradients are the
    # transposed convolution back to the full input volume.
    grad_weights = conv_forward_count(h_in, w_in, c_in, k, c_out)
    grad_input = h_in * w_in * c_in * (k * k * c_out)
    return grad_weights + grad_input


def estimate_generic_mpc_cost(layers, passes=("forward", "backward")) -> int:
    """Communicated 128-bit values for one training iteration of the spec."""
    total = 0
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, h, w, cin, k, cout = layer
            if "forward" in passes:
                total += conv_forward_count(h, w, cin, k, cout)
            if "backward" in passes:
                total += conv_backward_count(h, w, cin, k, cout)
        elif kind == "dense":
            _, n_in, n_out = layer
            if "forward" in passes:
                total += n_in * n_out
            if "backward" in passes:
                total += 2 * n_in * n_out
        elif kind == "pool":
            continue  # averaging is a public linear map, no secret products
        else:
            raise LeakprobeError(f"unknown layer kind {kind!r}")
    return total


# ---------------------------------------------------------------------------
# Table emission
# ---------------------------------------------------------------------------


def leakage_table(reports: dict) -> list:
    """Rows (scheme, mean MAE degrees, mean KL), fixed scheme order."""
    order = (SCHEME_DATACENTRE, SCHEME_ADAPTIVE_FL, SCHEME_PRIVATEYES, SCHEME_GENERIC_MPC)
    rows = []
    for scheme in order:
        if scheme in reports:
            rep = reports[scheme]
            rows.append((scheme, rep.mean_mae_deg, rep.mean_kl))
    return rows


def write_leakage_csv(reports: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write("scheme,mae_deg,kl\n")
        for scheme, mae, kl in leakage_table(reports):
            fh.write(f"{scheme},{mae:.6f},{kl:.6f}\n")
