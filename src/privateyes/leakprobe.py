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

from .aggregation import OPTIMIZER_MODES
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
RECON_SAMPLES = 400  # samples drawn around each reconstructed gaze mean


class LeakprobeError(ValueError):
    """Bad inputs to the leakage analysis."""


@dataclass
class LeakageTranscript:
    """Public knowledge plus the scheme-dependent leaked view."""

    scheme: str
    pub: dict  # om0, final OM, model/train config, mixing map, priors
    leak: dict  # "iu": {(j, k): vec}, "om": {k: vec}, "raw": (J, n, 2) gaze array


@dataclass(frozen=True)
class AttackConfig:
    alpha: float = 10.0
    beta: float = 6.0
    gamma: float = 4.0
    steps: int = 400
    seed: int = 0
    chain: bool = True
    rounds: tuple = None  # restrict to these round indices; None = all

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise LeakprobeError("attack weights alpha, beta, gamma must be >= 0")
        if self.steps < 1:
            raise LeakprobeError("attack steps must be >= 1")


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
        raw = population.gaze.reshape(population.num_clients, -1, GAZE_DIM)
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
    mode = config["optimizer_mode"]
    if mode not in OPTIMIZER_MODES:
        raise LeakprobeError(f"unknown optimizer mode {mode!r}")
    averages = {}
    m = np.zeros_like(om_history[0])
    v = np.zeros_like(om_history[0])
    for k in range(1, len(om_history)):
        prev, cur = om_history[k - 1], om_history[k]
        obs = cur - prev
        if mode == "fedavg":
            averages[k] = prev + obs / eta
            continue
        delta = _invert_adaptive_coordinates(obs, m, v, beta1, beta2, tau, eta)
        m = beta1 * m + (1.0 - beta1) * delta
        v = beta2 * v + (1.0 - beta2) * delta**2
        averages[k] = prev + delta
    return averages


def _invert_adaptive_coordinates(obs, m, v, beta1, beta2, tau, eta):
    a1 = (1.0 - beta2) / (1.0 - beta1) ** 2
    idle = -beta1 * m / (1.0 - beta1)  # the update of a coordinate that did not move
    m2 = np.array([x**2 for x in m.tolist()])  # libm pow per element, not x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        r = eta / obs
        qa = a1 - r * r
        qb = -2.0 * a1 * beta1 * m + 2.0 * tau * r
        qc = a1 * beta1**2 * m2 + beta2 * v - tau * tau
        disc = qb * qb - 4.0 * qa * qc
        s = np.sqrt(np.where(disc < 0.0, 0.0, disc))
        linear = np.abs(qa) < 1e-18  # then the one root -qc / qb, or none if qb == 0
        u0 = np.where(linear, -qc / qb, (-qb + s) / (2.0 * qa))
        u1 = (-qb - s) / (2.0 * qa)
        # Both quadratic roots can reproduce the observed step exactly, so
        # forward error alone cannot separate them; among near-exact roots
        # prefer the smaller update (the first on a tie), which is how real
        # deltas behave.
        d0, d1 = ((u - beta1 * m) / (1.0 - beta1) for u in (u0, u1))
        e0, e1 = (np.abs(eta * u / (np.sqrt(beta2 * v + (1.0 - beta2) * d * d) + tau) - obs)
                  for u, d in ((u0, d0), (u1, d1)))
    abs_obs = np.abs(obs)
    best = np.where(linear | ~(e1 < e0), e0, e1)
    floor = 1e-9 * np.where(abs_obs > 1.0, abs_obs, 1.0)
    tol = np.where(floor > 10.0 * best, floor, 10.0 * best)
    second = ~linear & (e1 <= tol) & (~(e0 <= tol) | (np.abs(d1) < np.abs(d0)))
    return np.where((abs_obs < 1e-15) | (linear & (qb == 0)), idle, np.where(second, d1, d0))


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
    ``w_prev``, ``grad_obs`` and ``prior_mean`` may carry a leading system
    axis, which M and y then carry too.
    """
    A = pub["mixing_map"]
    priors = pub["priors"]
    d_in = A.shape[0]
    lead = w_prev.shape[:-1]
    W = w_prev[..., : d_in * GAZE_DIM].reshape(*lead, d_in, GAZE_DIM)
    c = w_prev[..., d_in * GAZE_DIM :]
    g_c = grad_obs[..., d_in * GAZE_DIM :]
    g_W = grad_obs[..., : d_in * GAZE_DIM].reshape(*lead, d_in, GAZE_DIM)
    sg2 = priors["sigma_gaze"] ** 2
    sn2 = priors["sigma_noise"] ** 2

    dim = GAZE_DIM + d_in
    e_obs = g_c / 2.0  # mean residual, read off the bias gradient
    K = sg2 * (A @ A.T @ W - A) + sn2 * W

    # Rows in the order: bias gradient (l), weight gradient (i, l), prior (t).
    # Bias-gradient residual: 2[(W^T A - I) mu + W^T b + c] - g_c
    W_T = np.swapaxes(W, -1, -2)
    M_c = np.concatenate([2.0 * (W_T @ A - np.eye(GAZE_DIM)), 2.0 * W_T], axis=-1)
    # Weight-gradient residual: 2[(A mu + b) e_obs^T + K] - g_W
    two_e = 2.0 * e_obs
    M_w = np.zeros((*lead, d_in, GAZE_DIM, dim))
    M_w[..., :GAZE_DIM] = two_e[..., None, :, None] * A[:, None, :]
    M_w[..., np.arange(d_in), :, GAZE_DIM + np.arange(d_in)] = two_e
    # Prior pull toward the current prior mean.
    M_p = np.broadcast_to(np.diag(1.0 / prior_std), (*lead, dim, dim))
    weights = np.repeat(
        [np.sqrt(cfg.beta), np.sqrt(cfg.gamma),
         np.sqrt(cfg.alpha * prior_weight)],
        [GAZE_DIM, d_in * GAZE_DIM, dim],
    )
    M = np.concatenate([M_c, M_w.reshape(*lead, -1, dim), M_p], axis=-2) * weights[:, None]
    y = np.concatenate([g_c - 2.0 * c, (g_W - 2.0 * K).reshape(*lead, -1),
                        prior_mean / prior_std], axis=-1) * weights
    return M, y


def _solve_gd(M, y, theta0, steps):
    """Plain gradient descent on ||M theta - y||^2 with a safe fixed step,
    evaluated in closed form; a leading axis of M, y and theta0 solves a
    stack of systems.

    With H = M^T M = V diag(lam) V^T and step s = 1/(2 lam_max), iterate k is
    theta0 + V diag((1 - (1 - 2 s lam)^k) / lam) V^T (M^T y - H theta0); the
    factor tends to 2 s k as lam -> 0. ``converged`` tests the gradient at
    iterate k - 1, the last one the loop would have computed.
    """
    M_T = np.swapaxes(M, -1, -2)
    H = M_T @ M
    b = _matvec(M_T, y)
    lam, V = np.linalg.eigh(H)
    top = lam[..., -1]
    with np.errstate(divide="ignore"):
        step = np.where(top > 0, 1.0 / (2.0 * top), 0.0)
    w = _matvec(np.swapaxes(V, -1, -2), b - _matvec(H, theta0))
    theta = theta0 + _matvec(V, _gd_gain(lam, step, steps) * w)
    prev = theta0 + _matvec(V, _gd_gain(lam, step, steps - 1) * w)
    grad = 2.0 * (_matvec(H, prev) - b)
    rows = zip(grad.reshape(-1, grad.shape[-1]), b.reshape(-1, b.shape[-1]))
    converged = np.array([np.linalg.norm(g) <= 1e-6 * max(1.0, np.linalg.norm(r))
                          for g, r in rows]).reshape(top.shape)
    return theta, converged


def _matvec(A, x):
    """A @ x over the trailing axes, one BLAS matrix-vector product per row."""
    return (A @ x[..., None])[..., 0]


def _gd_gain(lam, step, k):
    """(1 - (1 - 2 step lam)^k) / lam per eigenvalue, 2 step k where lam <= 0;
    ``step`` holds one step per row of ``lam``."""
    if k == 0:
        return np.zeros_like(lam)
    two_step = np.broadcast_to((2.0 * step)[..., None], lam.shape)
    pos = lam > 0
    x = np.minimum(two_step[pos] * lam[pos], 1.0)  # 1 - x is the contraction factor
    gain = two_step * k
    with np.errstate(divide="ignore"):
        gain[pos] = -np.expm1(k * np.log1p(-x)) / lam[pos]
    return gain


def _prior_std(pub, d_in):
    # Floored so degenerate (homogeneous) priors stay solvable.
    std = np.concatenate(
        [np.full(GAZE_DIM, pub["priors"]["mu_std"]), np.full(d_in, pub["priors"]["b_std"])]
    )
    return np.maximum(std, 1e-6)


def _chain_estimates(leak: LeakageTranscript, cfg: AttackConfig, num_clients: int):
    """Per-client (theta (J, 2 + d_in), converged (J,)) from the leaked units.

    Each distinct unit sequence is one chain, and every chain advances one
    unit at a time: step s solves, in one stack, the chains that have more
    than s units. Round-s estimates seed round s+1's prior when chaining is
    enabled. Clients without a chain keep the zero estimate.
    """
    pub = leak.pub
    if (kind := pub["config"]["model_kind"]) != "linear":
        raise LeakprobeError(f"the attack inverts the linear model only, not {kind!r}")
    d_in = pub["mixing_map"].shape[0]
    prior_std = _prior_std(pub, d_in)
    chains = _attack_units(leak, cfg.rounds)
    owner = np.full(num_clients, len(chains))  # clients without a chain read the last row
    for g, (clients, _) in enumerate(chains):
        owner[list(clients)] = g
    theta = np.zeros((len(chains) + 1, GAZE_DIM + d_in))
    converged = np.ones(len(chains) + 1, dtype=bool)
    for s in range(max((len(units) for _, units in chains), default=0)):
        lanes = [g for g, (_, units) in enumerate(chains) if len(units) > s]
        # Chained prior: the round-s prior already summarizes s rounds
        # of evidence, so its weight grows like a Bayesian filter's.
        prior_mean = theta[lanes] if cfg.chain else np.zeros((len(lanes), theta.shape[1]))
        weight = float(1 + s) if cfg.chain else 1.0
        if cfg.beta == 0 and cfg.gamma == 0:
            theta[lanes] = prior_mean  # no gradient evidence: the prior stands
            continue
        w_prev = np.stack([chains[g][1][s][1] for g in lanes])
        update = np.stack([chains[g][1][s][2] for g in lanes])
        grad_obs = observed_gradient(w_prev, update, pub["config"])
        M, y = _expected_gradient_system(
            w_prev, grad_obs, pub, cfg, prior_mean, prior_std, weight
        )
        estimate, ok = _solve_gd(M, y, prior_mean, cfg.steps)
        # Project onto the prior's 3-sigma box: ill-conditioned rounds must not
        # walk the chained estimate out of the plausible parameter range.
        theta[lanes] = np.clip(estimate, -3.0 * prior_std, 3.0 * prior_std)
        converged[lanes] &= ok
    return theta[owner], converged[owner]


def dualview_lite_reconstruct(
    leak: LeakageTranscript, cfg: AttackConfig, population: Population
) -> ReconstructionReport:
    """Run the attack on every attackable unit and score against truth.

    ``population`` supplies ground truth for scoring only; the solver sees
    nothing beyond ``leak``. Only rounds in ``cfg.rounds`` are attacked (all
    when None). Each distinct unit sequence is solved once; clients sharing one
    (every client in secure mode) share its estimate. All clients are scored
    in one pass over client-indexed stacks.
    """
    pub = leak.pub
    num = population.num_clients
    truth = population.gaze.reshape(num, -1, GAZE_DIM)
    sigma = pub["priors"]["sigma_gaze"]
    theta, converged = None, np.ones(num, dtype=bool)
    if leak.scheme == SCHEME_DATACENTRE:
        # The raw data leaks; reconstruction is the data itself.
        samples = leak.leak["raw"]
        est_mu = samples.mean(axis=1)
    else:
        if leak.scheme == SCHEME_GENERIC_MPC:
            # Nothing leaks: the best estimate is the population prior.
            est_mu = np.zeros((num, GAZE_DIM))
        else:
            theta, converged = _chain_estimates(leak, cfg, num)
            est_mu = theta[:, :GAZE_DIM]
        rng = np.random.default_rng([cfg.seed, 0xA77AC4])
        samples = est_mu[:, None, :] + rng.normal(0.0, sigma, (num, RECON_SAMPLES, GAZE_DIM))
    kls = kde_kl_divergence(truth, samples)
    true_mu = truth.mean(axis=1)
    report = ReconstructionReport(scheme=leak.scheme)
    for j in range(num):
        report.per_client[j] = {
            "mu_hat": est_mu[j],
            "mae_deg": angular_error(est_mu[j], true_mu[j]),
            "kl": float(kls[j]),
            "converged": bool(converged[j]),
        }
        if theta is not None:
            report.per_client[j]["b_hat"] = theta[j, GAZE_DIM:]
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


# ---------------------------------------------------------------------------
# KDE / KL scoring
# ---------------------------------------------------------------------------


def kde_kl_divergence(samples_p, samples_q):
    """KL(p || q) between Gaussian-KDE densities on a shared grid.

    Both sample sets are densified with Scott's-rule kernels, evaluated on
    a fixed-resolution grid covering both supports, floored, normalized,
    and summed discretely. Equal sample sets give exactly 0. A sample set
    with a singular covariance (e.g. all samples equal) has no KDE and
    raises ``LeakprobeError``. Stacks (J, n, d) of sample sets give the J
    divergences of their rows as an array; one set, (n, d) or (n,) for
    d = 1, gives a float.
    """
    P = np.asarray(samples_p, dtype=float)
    Q = np.asarray(samples_q, dtype=float)
    single = P.ndim < 3
    if P.ndim == 1:
        P = P[:, None]
    if Q.ndim == 1:
        Q = Q[:, None]
    if single:
        P, Q = P[None], Q[None]
    if P.shape[1] < 10 or Q.shape[1] < 10:
        raise LeakprobeError("need at least 10 samples per side")
    if P.shape[::2] != Q.shape[::2]:
        raise LeakprobeError("sample stack or dimensionality mismatch")
    both = np.concatenate([P, Q], axis=1)
    lo = both.min(axis=1)
    hi = both.max(axis=1)
    pad = 0.5 * (hi - lo) + 1e-6
    axes = np.linspace(lo - pad, hi + pad, GRID_BINS, axis=-1)
    kls = np.zeros(len(P))
    rows = [j for j in range(len(P)) if not np.array_equal(P[j], Q[j])]
    # The kernels of all rows come from one stacked call per side, and the
    # (G, n) work runs row by row; the (2, G^d) densities of a row are
    # floored, normalized and summed with all rows at once.
    kp, kq = (list(zip(*_kde_kernel(X[rows]))) for X in (P, Q))
    dens = np.empty((len(rows), 2, GRID_BINS ** P.shape[2]))
    for i, j in enumerate(rows):
        dens[i] = grid_kde_density(P[j], axes[j], kp[i]), grid_kde_density(Q[j], axes[j], kq[i])
    np.maximum(dens, DENSITY_FLOOR, out=dens)
    dens /= dens.sum(axis=-1, keepdims=True)
    p, q = dens[:, 0], dens[:, 1]
    kls[rows] = np.sum(p * np.log(p / q), axis=-1)
    return float(kls[0]) if single else kls


def _kde_kernel(data):
    """(centre, L, norm) of the Scott's-rule KDE of ``data`` (n, d), or of each
    set of a stack (..., n, d), byte-equal to its one-set call.

    The kernel covariance is the data covariance times n^(-2/(d+4)), as in
    ``scipy.stats.gaussian_kde``. L is the upper Cholesky factor of the
    inverse kernel covariance (the transposed inverse of the covariance's
    lower factor), so the kernel exponent is -||(x - x_i) L||^2 / 2 around
    the data mean ``centre``; ``norm`` is the kernel's normalizer over n.
    """
    n, d = data.shape[-2:]
    # The covariance in np.cov(data, rowvar=False, aweights=w)'s operations,
    # with w uniform: weighted that way it rounds like scipy's, and the KDE
    # differs from scipy's by up to 2e-12 relative at rho = 0.99 without it.
    w = np.full(n, 1.0 / n)
    w_sum = w.sum()
    X = data - (data * w[:, None]).sum(axis=-2, keepdims=True) / w_sum
    data_cov = np.swapaxes(X, -1, -2) @ (X * w[:, None])
    data_cov *= np.true_divide(1, w_sum - np.sum(w * w) / w_sum)
    try:
        lower = np.linalg.cholesky(data_cov)
    except np.linalg.LinAlgError as exc:
        raise LeakprobeError("KDE sample covariance is singular") from exc
    L = np.swapaxes(np.linalg.inv(lower * float(n) ** (-1.0 / (d + 4))), -1, -2)
    norm = np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1) / ((2.0 * np.pi) ** (d / 2.0) * n)
    return data.mean(axis=-2), L, norm


def gaussian_kde_density(data, points, kernel) -> np.ndarray:
    """Scott's-rule Gaussian KDE of ``data`` (n, d), with ``kernel`` its
    ``_kde_kernel``, evaluated at ``points`` (m, d).

    Both sets are centred on the data mean and whitened by the kernel's L
    (see ``_kde_kernel``), so every exponent -||(x - x_i) L||^2 / 2 comes out
    of one matmul of augmented rows [z, -|z|^2/2, 1] . [z_i, 1, -|z_i|^2/2].
    Points are evaluated KDE_BLOCK at a time to bound the temporary.
    """
    n = data.shape[0]
    centre, L, norm = kernel
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


def grid_kde_density(data, axes, kernel) -> np.ndarray:
    """The KDE of ``data`` (n, d), with ``kernel`` its ``_kde_kernel``, on the
    tensor grid of ``axes`` (d 1-D arrays), in ``np.meshgrid(*axes,
    indexing="ij")`` ravel order.

    Every kernel shares one precision matrix S = L L^T, so for 2-D data the
    exponent at grid point (a_u, b_v) and sample i (all centred on the data
    mean) splits into per-axis pieces plus a sample-free cross term:

        -(S00 da^2 + 2 S01 da db + S11 db^2) / 2 = A[u, i] + B[v, i] + C[u, v]
        A = -S00 (a_u - x_i0)^2 / 2 + S01 x_i1 (a_u - x_i0)
        B = -S11 (b_v - x_i1)^2 / 2 + S01 x_i0 b_v
        C = -S01 a_u b_v

    With mA, mB the row maxima of A and B and Phi = mA_u + mB_v + C_uv, the
    density is norm exp(Phi) (exp(A - mA) @ exp(B - mB)^T): 2 G n exps and
    one matmul for G grid points per axis, instead of G^2 n exps.

    Two guards send a grid to ``gaussian_kde_density`` instead; neither is
    tunable, both follow from float64:

    * max Phi <= 600. Each exponent e = Phi + (A - mA) + (B - mB) is at most
      0 and both brackets are at most 0, so a term lost to underflow (or
      rounded as a subnormal) has e - Phi < -708. With Phi <= 600 such a
      term is below e^-108 (~1e-47), and all of them together carry less
      than e^-108 n norm, where n norm is the largest value the KDE can
      take: far below DENSITY_FLOOR. And exp(Phi) <= e^600 cannot overflow.
    * max |C| <= 1000. A, B and C cancel to e, so e carries the rounding of
      its largest piece, a few ulps of |C|: 1000 * 2^-52 ~ 2e-13, relative,
      in the density. That keeps the split within 1e-12 of scipy; strongly
      correlated samples on a wide grid, where |C| grows like |S01 a b|,
      reached 1.3e-12 without this bound.

    Gaze reconstructions of a ``privateyes report`` stay far inside both
    (max Phi ~ 18, max |C| ~ 120 over seeds 0-19 and 901-910). For d = 1 (a
    grid of G points: G n exps either way) and d >= 3 the grid points go
    through ``gaussian_kde_density`` directly.
    """
    if data.shape[1] != 2:
        return gaussian_kde_density(data, _mesh_points(axes), kernel)
    centre, L, norm = kernel
    S = L @ L.T
    x0, x1 = np.ascontiguousarray((data - centre).T)
    a = (axes[0] - centre[0])[:, None]
    b = (axes[1] - centre[1])[:, None]
    # A and B in four (G, n) buffers, each term in the order the formulas
    # above give: da and db end up holding the second terms.
    da = a - x0
    db = b - x1
    A = np.multiply(-0.5 * S[0, 0], da)
    A *= da
    A += np.multiply(S[0, 1] * x1, da, out=da)
    B = np.multiply(-0.5 * S[1, 1], db)
    B *= db
    B += np.multiply(S[0, 1] * x0, b, out=db)
    mA = A.max(axis=1, keepdims=True)
    mB = B.max(axis=1, keepdims=True)
    C = -S[0, 1] * (a * b.T)
    phi = mA + mB.T + C
    if phi.max() > 600.0 or np.abs(C).max() > 1000.0:
        return gaussian_kde_density(data, _mesh_points(axes), kernel)
    np.subtract(A, mA, out=A)
    np.subtract(B, mB, out=B)
    dens = np.exp(A, out=A) @ np.exp(B, out=B).T
    dens *= np.exp(phi)
    return dens.ravel() * norm


def _mesh_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


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


def estimate_generic_mpc_cost(layers) -> int:
    """Communicated 128-bit values for one training iteration of the spec."""
    total = 0
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, h, w, cin, k, cout = layer
            total += conv_forward_count(h, w, cin, k, cout)
            total += conv_backward_count(h, w, cin, k, cout)
        elif kind == "dense":
            _, n_in, n_out = layer
            total += n_in * n_out  # forward
            total += 2 * n_in * n_out  # backward: weight and input gradients
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
