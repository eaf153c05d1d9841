import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gaussian_kde

from privateyes import cli, leakprobe
from privateyes.fedcore import ModelSpec, TrainConfig, gen_synthetic_population
from privateyes.field import FixedPointCodec
from privateyes.leakprobe import (
    DENSITY_FLOOR,
    REFERENCE_GAZE_CNN,
    SCHEME_GENERIC_MPC,
    AttackConfig,
    LeakprobeError,
    _expected_gradient_system,
    _invert_adaptive_coordinates,
    _kde_kernel,
    _solve_gd,
    build_leak_set,
    conv_forward_count,
    dualview_lite_reconstruct,
    estimate_generic_mpc_cost,
    gaussian_kde_density,
    grid_kde_density,
    invert_optimizer_history,
    kde_kl_divergence,
    observed_gradient,
    write_leakage_csv,
)
from privateyes.protocol import run_training


def _run(pop, scheme, seed, rounds=10, **cfg_kwargs):
    cfg = TrainConfig(rounds=rounds, **cfg_kwargs)
    return run_training(pop, cfg, ModelSpec(), scheme, seed=seed,
                        codec=FixedPointCodec())


def test_leak_set_counts():
    pop = gen_synthetic_population(15, seed=0)
    afl = _run(pop, "adaptive_fl", 0)
    pe = _run(pop, "privateyes", 0)
    leak_afl = build_leak_set("adaptive_fl", afl.transcript, pop)
    assert len(leak_afl.leak["iu"]) == 150
    assert len(leak_afl.leak["om"]) == 10
    leak_pe = build_leak_set("privateyes", pe.transcript, pop)
    assert len(leak_pe.leak["om"]) == 10
    assert "iu" not in leak_pe.leak
    leak_mpc = build_leak_set(SCHEME_GENERIC_MPC, pe.transcript, pop)
    assert leak_mpc.leak == {}
    assert set(leak_mpc.pub) == {"config", "om0", "mixing_map", "priors"}
    with pytest.raises(LeakprobeError):
        build_leak_set("unknown", pe.transcript, pop)


@pytest.mark.parametrize("scheme", ["adaptive_fl", "privateyes"])
def test_mlp_transcript_is_a_leakprobe_error(scheme):
    """The attack inverts the linear model; an MLP transcript is refused
    before any system is built."""
    pop = gen_synthetic_population(3, seed=1, rounds=2)
    result = run_training(pop, TrainConfig(rounds=2), ModelSpec(kind="mlp"), scheme, seed=1,
                          codec=FixedPointCodec())
    leak = build_leak_set(scheme, result.transcript, pop)
    with pytest.raises(LeakprobeError, match="linear model only, not 'mlp'"):
        dualview_lite_reconstruct(leak, AttackConfig(steps=10), pop)


def test_zero_local_steps_is_a_leakprobe_error():
    """An update of zero epochs implies no gradient: the attack refuses it
    instead of dividing by zero steps."""
    pop = gen_synthetic_population(3, seed=1, rounds=2)
    result = _run(pop, "adaptive_fl", 1, rounds=2, epochs=0)
    leak = build_leak_set("adaptive_fl", result.transcript, pop)
    with pytest.raises(LeakprobeError, match="zero local steps"):
        observed_gradient(leak.pub["om0"], leak.leak["iu"][(0, 1)], leak.pub["config"])
    with pytest.raises(LeakprobeError, match="zero local steps"):
        dualview_lite_reconstruct(leak, AttackConfig(steps=10), pop)


def test_privateyes_leak_rejects_iu_contamination():
    pop = gen_synthetic_population(3, seed=1, rounds=2)
    afl = _run(pop, "adaptive_fl", 1, rounds=2)
    with pytest.raises(LeakprobeError):
        build_leak_set("privateyes", afl.transcript, pop)


def test_invert_optimizer_history_recovers_averages():
    pop = gen_synthetic_population(10, seed=2)
    pe = _run(pop, "privateyes", 2)
    tr = pe.transcript
    averages = invert_optimizer_history(tr.om_history, tr.config)
    for k in range(1, 11):
        true_avg = np.mean([tr.ground_truth_iu[(j, k)] for j in range(10)], axis=0)
        assert np.abs(averages[k] - true_avg).max() < 1e-3


def test_invert_fedavg_history():
    pop = gen_synthetic_population(4, seed=3, rounds=3)
    cfg = TrainConfig(rounds=3)
    res = run_training(pop, cfg, ModelSpec(), "privateyes", seed=3,
                       codec=FixedPointCodec(), optimizer_mode="fedavg")
    tr = res.transcript
    tr.config["optimizer_mode"] = "fedavg"
    averages = invert_optimizer_history(tr.om_history, tr.config)
    for k in range(1, 4):
        true_avg = np.mean([tr.ground_truth_iu[(j, k)] for j in range(4)], axis=0)
        assert np.abs(averages[k] - true_avg).max() < 1e-3


def _invert_reference(obs, m, v, beta1, beta2, tau, eta):
    """The per-coordinate loop the vectorised inversion replaced."""
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


def _assert_inversions_equal(obs, m, v, *hyper):
    got = _invert_adaptive_coordinates(obs, m, v, *hyper)
    assert got.tobytes() == _invert_reference(obs, m, v, *hyper).tobytes()
    return got


@pytest.mark.parametrize("seed", range(5))
def test_vectorised_inversion_matches_the_loop_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    size = 2000
    scale = np.exp(rng.uniform(-20, 5, (3, size)))
    obs, m = rng.standard_normal((2, size)) * scale[:2]
    v = np.abs(rng.standard_normal(size)) * scale[2]
    # Forward steps of known deltas too: both roots then often fit exactly.
    hyper = (0.9, 0.99, 1e-3, 0.1)
    beta1, beta2, tau, eta = hyper
    delta = rng.standard_normal(size) * scale[0]
    u = beta1 * m + (1.0 - beta1) * delta
    exact = eta * u / (np.sqrt(beta2 * v + (1.0 - beta2) * delta**2) + tau)
    _assert_inversions_equal(np.concatenate([obs, exact]), np.tile(m, 2), np.tile(v, 2), *hyper)


def test_vectorised_inversion_matches_the_loop_on_its_branches():
    # beta1 = 1/2, beta2 = 3/4 make a1 = 1 exactly, so obs = eta gives qa = 0.
    beta1, beta2, tau, eta = 0.5, 0.75, 0.25, 0.1
    m = np.array([0.3, -0.2, 0.5, 0.7, 0.1, 0.2, 0.0, 0.4])
    v = np.array([0.01, 0.02, 0.03, 0.04, 0.0, 1e-4, 0.5, 2.0])
    obs = np.array([
        0.0,        # |o| < 1e-15
        -1e-16,     # |o| < 1e-15, negative
        eta,        # qa == 0 and qb == -m + 2 tau == 0: no root
        eta,        # qa == 0, qb != 0: the one root -qc / qb
        -0.05,      # two roots
        1e-3,       # two roots
        3.0,        # |o| > 1 scales the tolerance floor, and the discriminant
        -7.5,       # is negative, so it is clamped to 0: one double root
    ])
    got = _assert_inversions_equal(obs, m, v, beta1, beta2, tau, eta)
    idle = -beta1 * m / (1.0 - beta1)
    assert got[[0, 1, 2]].tolist() == idle[[0, 1, 2]].tolist()
    assert got[3] != idle[3]
    # tau = 0 and m = 0 make qb = 0: the roots are +-u with the same |d|,
    # both within the floor for a tiny step, and the tie goes to the first
    # root, (-qb + s) / (2 qa), negative as qa < 0.
    obs = np.array([1e-12, -1e-12, 3e-13])
    zeros = np.zeros(3)
    got = _assert_inversions_equal(obs, zeros, np.array([1e-6, 2e-6, 3e-6]), 0.9, 0.99, 0.0, 0.1)
    assert (got < 0).all()


def test_invert_rejects_unknown_optimizer_mode():
    history = [np.zeros(3), np.full(3, 0.1)]
    config = {"beta1": 0.9, "beta2": 0.99, "tau": 1e-3, "eta": 0.1, "optimizer_mode": "plain"}
    with pytest.raises(LeakprobeError, match="optimizer mode"):
        invert_optimizer_history(history, config)


def test_gd_solution_matches_normal_equations():
    """The gradient-descent solve agrees with the closed-form least-squares
    inversion of a single full-batch linear update to < 1e-3 relative."""
    pop = gen_synthetic_population(4, seed=4, rounds=1)
    res = _run(pop, "adaptive_fl", 4, rounds=1)
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    cfg = AttackConfig(seed=4)
    pub = leak.pub
    prior_std = np.concatenate([np.full(2, pub["priors"]["mu_std"]),
                                np.full(8, pub["priors"]["b_std"])])
    for j in range(4):
        iu = leak.leak["iu"][(j, 1)]
        grad_obs = observed_gradient(pub["om0"], iu, pub["config"])
        M, y = _expected_gradient_system(
            pub["om0"], grad_obs, pub, cfg, np.zeros(10), prior_std, 1.0
        )
        closed, *_ = np.linalg.lstsq(M, y, rcond=None)
        from privateyes.leakprobe import _solve_gd

        theta, converged = _solve_gd(M, y, np.zeros(10), 5000)
        assert converged
        rel = np.linalg.norm(theta - closed) / max(np.linalg.norm(closed), 1e-12)
        assert rel < 1e-3


def test_degenerate_loss_returns_prior():
    pop = gen_synthetic_population(3, seed=5, rounds=2)
    res = _run(pop, "adaptive_fl", 5, rounds=2)
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    cfg = AttackConfig(beta=0.0, gamma=0.0, seed=5, chain=False)
    report = dualview_lite_reconstruct(leak, cfg, pop)
    for entry in report.per_client.values():
        assert np.allclose(entry["mu_hat"], 0.0)


def test_homogeneous_population_collapses_to_common_estimate():
    pop = gen_synthetic_population(5, seed=6, heterogeneity=0.0)
    res = _run(pop, "privateyes", 6)
    leak = build_leak_set("privateyes", res.transcript, pop)
    report = dualview_lite_reconstruct(leak, AttackConfig(seed=6), pop)
    mus = [entry["mu_hat"] for entry in report.per_client.values()]
    for mu in mus[1:]:
        assert np.array_equal(mu, mus[0])


def test_datacentre_reconstruction_is_perfect():
    pop = gen_synthetic_population(3, seed=7, rounds=2)
    res = _run(pop, "datacentre", 7, rounds=2)
    leak = build_leak_set("datacentre", res.transcript, pop)
    report = dualview_lite_reconstruct(leak, AttackConfig(seed=7), pop)
    assert report.mean_mae_deg == 0.0
    assert abs(report.mean_kl) < 1e-6


def test_attack_config_validation():
    with pytest.raises(LeakprobeError):
        AttackConfig(alpha=-1.0)
    with pytest.raises(LeakprobeError):
        AttackConfig(steps=0)


def _kl(p, q):
    """KL of one pair of sample sets, (n,) or (n, d), as a one-row stack."""
    return kde_kl_divergence(*(np.reshape(x, (1, len(x), -1)) for x in (p, q)))[0]


def test_kl_identical_samples_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (200, 2))
    assert abs(_kl(x, x)) < 1e-6


def test_kl_gaussian_shift_matches_analytic():
    rng = np.random.default_rng(1)
    kl = _kl(rng.normal(0, 1, 10000), rng.normal(1, 1, 10000))
    assert kl == pytest.approx(0.5, abs=0.05)


def test_kl_monotone_in_separation():
    rng = np.random.default_rng(2)
    base = rng.normal(0, 0.5, 2000)
    kls = [
        _kl(base, base + shift)
        for shift in (1.0, 2.0, 4.0)
    ]
    assert kls[0] < kls[1] < kls[2]
    assert kls[2] > 1.0


def test_kl_needs_samples():
    with pytest.raises(LeakprobeError):
        _kl(np.zeros(5), np.zeros(20))
    with pytest.raises(LeakprobeError):
        _kl(np.zeros((20, 2)), np.zeros((20, 3)))


@pytest.mark.parametrize("shape", [(20,), (20, 2), (1, 1, 20, 2)])
def test_kl_takes_stacks_only(shape):
    rng = np.random.default_rng(4)
    with pytest.raises(LeakprobeError, match="sample stacks"):
        kde_kl_divergence(rng.normal(size=shape), rng.normal(size=shape))


def test_conv_forward_count_example():
    # 36x60x1 input, 5x5 kernel, 20 channels, valid padding.
    assert conv_forward_count(36, 60, 1, 5, 20) == 32 * 56 * 20 * 25
    assert conv_forward_count(36, 60, 1, 5, 20) == 896_000
    assert conv_forward_count(1, 1, 1, 1, 1) == 1
    with pytest.raises(LeakprobeError):
        conv_forward_count(3, 3, 1, 5, 1)


def test_reference_cnn_total_in_band():
    total = estimate_generic_mpc_cost(REFERENCE_GAZE_CNN)
    assert 2.5e7 <= total <= 3.5e7
    with pytest.raises(LeakprobeError):
        estimate_generic_mpc_cost((("rnn", 1),))


def test_pooling_is_free():
    assert estimate_generic_mpc_cost((("pool", 2),)) == 0


def test_leakage_table_and_csv(tmp_path):
    pop = gen_synthetic_population(3, seed=8, rounds=2)
    res = _run(pop, "privateyes", 8, rounds=2)
    leak = build_leak_set(SCHEME_GENERIC_MPC, res.transcript, pop)
    report = dualview_lite_reconstruct(leak, AttackConfig(seed=8), pop)
    path = tmp_path / "leakage.csv"
    write_leakage_csv({"mpc": report}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,mae_deg,kl"
    assert lines[1].startswith("mpc,")


def _gd_loop(M, y, theta0, steps):
    """The literal gradient-descent loop that ``_solve_gd`` evaluates in closed form."""
    H = M.T @ M
    lam = float(np.linalg.eigvalsh(H)[-1])
    step = 1.0 / (2.0 * lam) if lam > 0 else 0.0
    theta = theta0.copy()
    grad = np.zeros_like(theta)
    for _ in range(steps):
        grad = 2.0 * (H @ theta - M.T @ y)
        theta = theta - step * grad
    converged = bool(np.linalg.norm(grad) <= 1e-6 * max(1.0, np.linalg.norm(M.T @ y)))
    return theta, converged


def _system(cond, seed, rows=28, dim=10):
    """A least-squares system whose normal matrix has condition number ``cond``."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(rows, dim)))
    V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    sv = np.logspace(0.0, -0.5 * np.log10(cond), dim) * rng.uniform(0.5, 20.0)
    M = (U * sv) @ V.T
    return M, rng.normal(size=rows) * 3.0, rng.normal(size=dim)


@pytest.mark.parametrize("steps", [1, 400, 5000])
@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10])
def test_closed_form_solve_matches_gd_loop(steps, cond):
    for seed in range(5):
        M, y, theta0 = _system(cond, seed)
        for start in (theta0, np.zeros_like(theta0)):
            theta, converged = _solve_gd(M, y, start, steps)
            ref, ref_converged = _gd_loop(M, y, start, steps)
            assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)
            assert converged == ref_converged


def test_closed_form_solve_on_attack_systems():
    """Every unit system of a small adaptive_fl attack (zero prior mean, the
    round-k prior weight): the closed form tracks the loop to 1e-12 relative."""
    pop = gen_synthetic_population(4, seed=11, rounds=3)
    res = _run(pop, "adaptive_fl", 11, rounds=3)
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    cfg = AttackConfig(seed=11)
    pub = leak.pub
    prior_std = np.concatenate([np.full(2, pub["priors"]["mu_std"]),
                                np.full(8, pub["priors"]["b_std"])])
    for (j, k), iu in leak.leak["iu"].items():
        w_prev = pub["om0"] if k == 1 else leak.leak["om"][k - 1]
        grad_obs = observed_gradient(w_prev, iu, pub["config"])
        M, y = _expected_gradient_system(w_prev, grad_obs, pub, cfg, np.zeros(10), prior_std, k)
        theta, converged = _solve_gd(M, y, np.zeros(10), cfg.steps)
        ref, ref_converged = _gd_loop(M, y, np.zeros(10), cfg.steps)
        assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)
        assert converged == ref_converged


@pytest.mark.parametrize("case", ["1d", "2d", "rho0.99"])
def test_numpy_kde_matches_scipy(case):
    rng = np.random.default_rng(21)
    data = {
        "1d": rng.normal(0.3, 1.2, (400, 1)),
        "2d": rng.normal(0.0, 0.15, (200, 2)),
        "rho0.99": rng.multivariate_normal([0.1, -0.2], [[1.0, 0.99], [0.99, 1.0]], 400),
    }[case]
    lo, hi = data.min(axis=0), data.max(axis=0)
    pad = 0.5 * (hi - lo)
    axes = [np.linspace(lo[t] - pad[t], hi[t] + pad[t], 64) for t in range(data.shape[1])]
    points = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    ref = gaussian_kde(data.T)(points.T)
    ours = gaussian_kde_density(data, points, _kde_kernel(data))
    above = ref > DENSITY_FLOOR
    assert above.sum() >= 40
    assert np.max(np.abs(ours[above] - ref[above]) / ref[above]) <= 1e-12
    assert np.all(ours[~above] <= 2 * DENSITY_FLOOR)


def test_kl_equal_arrays_is_exactly_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (50, 2))
    assert _kl(x, x.copy()) == 0.0


def _count_solves(monkeypatch):
    """One entry per solved system: a stacked call adds one per row of its M."""
    calls = []
    original = leakprobe._solve_gd

    def counted(M, y, theta0, steps):
        calls.extend(M.reshape(-1, *M.shape[-2:]))
        return original(M, y, theta0, steps)

    monkeypatch.setattr(leakprobe, "_solve_gd", counted)
    return calls


def test_secure_mode_solves_each_round_once(monkeypatch):
    pop = gen_synthetic_population(6, seed=12, rounds=4)
    res = _run(pop, "privateyes", 12, rounds=4)
    leak = build_leak_set("privateyes", res.transcript, pop)
    calls = _count_solves(monkeypatch)
    report = dualview_lite_reconstruct(leak, AttackConfig(seed=12), pop)
    assert len(calls) == 4  # rounds, not clients x rounds
    assert len(report.per_client) == 6
    calls.clear()
    dualview_lite_reconstruct(leak, AttackConfig(seed=12, rounds=(2, 4)), pop)
    assert len(calls) == 2


def test_rounds_restrict_adaptive_fl_units(monkeypatch):
    pop = gen_synthetic_population(3, seed=13, rounds=3)
    res = _run(pop, "adaptive_fl", 13, rounds=3)
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    calls = _count_solves(monkeypatch)
    full = dualview_lite_reconstruct(leak, AttackConfig(seed=13), pop)
    assert len(calls) == 9
    calls.clear()
    first = dualview_lite_reconstruct(leak, AttackConfig(seed=13, rounds=(1,)), pop)
    assert len(calls) == 3
    explicit = dualview_lite_reconstruct(leak, AttackConfig(seed=13, rounds=(1, 2, 3)), pop)
    assert explicit.mean_kl == full.mean_kl
    assert first.mean_kl != full.mean_kl


def _expected_gradient_system_loop(w_prev, grad_obs, pub, cfg, prior_mean, prior_std,
                                   prior_weight):
    """The row-by-row construction that ``_expected_gradient_system`` vectorises."""
    GAZE_DIM = 2
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
    e_obs = g_c / 2.0
    K = sg2 * (A @ A.T @ W - A) + sn2 * W

    rows, targets, weights = [], [], []
    M_c = np.hstack([2.0 * (W.T @ A - np.eye(GAZE_DIM)), 2.0 * W.T])
    for l in range(GAZE_DIM):
        rows.append(M_c[l])
        targets.append(g_c[l] - 2.0 * c[l])
        weights.append(np.sqrt(cfg.beta))
    for i in range(d_in):
        for l in range(GAZE_DIM):
            row = np.zeros(dim)
            row[:GAZE_DIM] = 2.0 * e_obs[l] * A[i]
            row[GAZE_DIM + i] = 2.0 * e_obs[l]
            rows.append(row)
            targets.append(g_W[i, l] - 2.0 * K[i, l])
            weights.append(np.sqrt(cfg.gamma))
    for t in range(dim):
        row = np.zeros(dim)
        row[t] = 1.0 / prior_std[t]
        rows.append(row)
        targets.append(prior_mean[t] / prior_std[t])
        weights.append(np.sqrt(cfg.alpha * prior_weight))
    M = np.array(rows) * np.array(weights)[:, None]
    y = np.array(targets) * np.array(weights)
    return M, y


@pytest.mark.parametrize("d_in", [1, 3, 8])
def test_vectorised_gradient_system_is_bit_identical(d_in):
    pop = gen_synthetic_population(3, seed=14, rounds=3, d_in=d_in)
    res = run_training(pop, TrainConfig(rounds=3), ModelSpec(d_in=d_in), "adaptive_fl",
                       seed=14, codec=FixedPointCodec())
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    pub = leak.pub
    rng = np.random.default_rng(d_in)
    prior_std = np.maximum(rng.uniform(0.0, 0.6, 2 + d_in), 1e-6)
    for cfg in (AttackConfig(), AttackConfig(alpha=0.3, beta=2.5, gamma=0.0),
                AttackConfig(alpha=0.7, beta=0.0, gamma=1.3)):
        for (j, k), iu in leak.leak["iu"].items():
            w_prev = pub["om0"] if k == 1 else leak.leak["om"][k - 1]
            grad_obs = observed_gradient(w_prev, iu, pub["config"])
            prior_mean = rng.normal(0.0, 0.3, 2 + d_in)
            for weight in (1.0, float(k), 7):
                args = (w_prev, grad_obs, pub, cfg, prior_mean, prior_std, weight)
                M, y = _expected_gradient_system(*args)
                M_ref, y_ref = _expected_gradient_system_loop(*args)
                assert M.shape == M_ref.shape and M.tobytes() == M_ref.tobytes()
                assert y.shape == y_ref.shape and y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("d_in", [1, 3, 8])
def test_stacked_systems_and_solves_match_one_system_calls(d_in):
    """A stack of systems (one row per leaked unit) builds and solves each row
    to the bytes of the one-system calls, on the traffic of the test above."""
    pop = gen_synthetic_population(3, seed=14, rounds=3, d_in=d_in)
    res = run_training(pop, TrainConfig(rounds=3), ModelSpec(d_in=d_in), "adaptive_fl",
                       seed=14, codec=FixedPointCodec())
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    pub = leak.pub
    rng = np.random.default_rng(d_in)
    prior_std = np.maximum(rng.uniform(0.0, 0.6, 2 + d_in), 1e-6)
    units = list(leak.leak["iu"].items())
    w_prev = np.stack([pub["om0"] if k == 1 else leak.leak["om"][k - 1] for (_, k), _ in units])
    grad_obs = np.stack([observed_gradient(w, iu, pub["config"])
                         for w, (_, iu) in zip(w_prev, units)])
    for cfg in (AttackConfig(), AttackConfig(alpha=0.3, beta=2.5, gamma=0.0),
                AttackConfig(alpha=0.7, beta=0.0, gamma=1.3)):
        prior_mean = rng.normal(0.0, 0.3, (len(units), 2 + d_in))
        for weight in (1.0, 2.0, 7):
            M, y = _expected_gradient_system(w_prev, grad_obs, pub, cfg, prior_mean,
                                             prior_std, weight)
            for steps in (1, cfg.steps):
                theta, converged = _solve_gd(M, y, prior_mean, steps)
                assert theta.shape == prior_mean.shape and converged.shape == (len(units),)
                for i in range(len(units)):
                    M_i, y_i = _expected_gradient_system(w_prev[i], grad_obs[i], pub, cfg,
                                                         prior_mean[i], prior_std, weight)
                    assert M[i].tobytes() == M_i.tobytes() and y[i].tobytes() == y_i.tobytes()
                    theta_i, converged_i = _solve_gd(M_i, y_i, prior_mean[i], steps)
                    assert theta[i].tobytes() == theta_i.tobytes()
                    assert converged[i] == converged_i


def _per_client_digest(reports):
    """sha256 over every client's kl, mae_deg, mu_hat and b_hat bytes, scheme by scheme."""
    digest = hashlib.sha256()
    for scheme in sorted(reports):
        for j in sorted(reports[scheme].per_client):
            entry = reports[scheme].per_client[j]
            for key in ("kl", "mae_deg", "mu_hat", "b_hat"):
                if key in entry:
                    digest.update(np.asarray(entry[key], dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("steps, digest, converged", [
    (70, "e5e77077aec63af1a7b46f6394d61d370b66540ab94e569bdec93de127949395",
     [False, False, True, True, True, True]),
    (400, "4996cd1ac3b2be931ef6bb0a35ef185ef829e663beddd7e8347de92ad1210445", [True] * 6),
])
def test_ragged_chains_are_pinned(steps, digest, converged):
    """With cohort_fraction = 0.5 the clients' chains run 2, 3, 0, 1, 2 and 4
    units long. Per-client kl, mae_deg, mu_hat and b_hat bytes and converged
    flags are pinned to the values of the one-client-at-a-time chain loop
    (BLAS on one thread, as conftest.py sets it: the KDE matmul rounds
    differently on more)."""
    pop = gen_synthetic_population(6, seed=14, rounds=4)
    res = _run(pop, "adaptive_fl", 14, rounds=4, cohort_fraction=0.5)
    leak = build_leak_set("adaptive_fl", res.transcript, pop)
    lengths = [sum(j == client for client, _ in leak.leak["iu"]) for j in range(6)]
    assert lengths == [2, 3, 0, 1, 2, 4]
    report = dualview_lite_reconstruct(leak, AttackConfig(seed=14, steps=steps), pop)
    assert _per_client_digest({"adaptive_fl": report}) == digest
    assert [entry["converged"] for entry in report.per_client.values()] == converged
    assert np.array_equal(report.per_client[2]["b_hat"], np.zeros(8))


def _grid_axes(data, other):
    """The grid ``kde_kl_divergence`` lays over two sample sets."""
    both = np.vstack([data, other])
    lo, hi = both.min(axis=0), both.max(axis=0)
    pad = 0.5 * (hi - lo) + 1e-6
    return [np.linspace(lo[t] - pad[t], hi[t] + pad[t], 64) for t in range(data.shape[1])]


def _count_fallbacks(monkeypatch):
    calls = []
    original = leakprobe.gaussian_kde_density

    def counted(data, points, kernel):
        calls.append(points.shape[0])
        return original(data, points, kernel)

    monkeypatch.setattr(leakprobe, "gaussian_kde_density", counted)
    return calls


def _assert_matches_scipy(data, axes, ours):
    points = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    ref = gaussian_kde(data.T)(points.T)
    above = ref > DENSITY_FLOOR
    assert np.max(np.abs(ours[above] - ref[above]) / ref[above]) <= 1e-12
    assert np.all(ours[~above] <= 2 * DENSITY_FLOOR)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rho=st.one_of(st.sampled_from([-0.99, 0.99]), st.floats(-0.99, 0.99)),
       n=st.one_of(st.integers(10, 40), st.integers(10, 2000)),
       log_scales=st.tuples(st.floats(-4.0, 1.5), st.floats(-4.0, 1.5)),
       shift=st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
       seed=st.integers(0, 2**32 - 1))
def test_grid_kde_matches_scipy(rho, n, log_scales, shift, seed):
    """The per-axis grid density (fast path or fallback) against scipy on the
    meshgrid, on the grid a displaced partner set widens."""
    rng = np.random.default_rng(seed)
    scale = np.exp(log_scales)
    cov = np.array([[1.0, rho], [rho, 1.0]]) * np.outer(scale, scale)
    data = rng.multivariate_normal([0.1, -0.2], cov, n)
    partner = data[: max(10, n // 4)] + np.array(shift) * scale
    axes = _grid_axes(data, partner)
    _assert_matches_scipy(data, axes, grid_kde_density(data, axes, _kde_kernel(data)))


def _guard_case(case):
    """(sample set, grid axes) on either side of the split's guard."""
    if case == "heavy-tail":
        # Student-t samples (3 degrees of freedom): far outliers drive Phi
        # over 600 while the cross term stays under 1000.
        rng = np.random.default_rng(102)
        z = rng.multivariate_normal([0.0, 0.0], [[1.0, 0.7], [0.7, 1.0]], 400)
        data = z / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        return data, _grid_axes(data, data[:10] + np.array([1.0, -1.0]))
    rho, shift, n, seed = case
    rng = np.random.default_rng(seed)
    data = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], n)
    return data, _grid_axes(data, data + np.array([shift, -shift]))


@pytest.mark.parametrize("case, fallback", [
    pytest.param((0.0, 3.0, 400, 31), False, id="gaze-like"),   # max|C| ~ 50, max Phi ~ 4
    pytest.param((0.5, 3.0, 400, 31), False, id="rho0.5"),      # ~ 680 and ~ 100
    pytest.param((0.3, 30.0, 20, 31), True, id="wide-grid"),    # |C| ~ 2300, Phi ~ 5
    pytest.param((0.9, 0.0, 400, 31), True, id="rho0.9"),       # |C| ~ 1600, Phi ~ 530
    # The split alone would be 2.0e-12 off scipy here.
    pytest.param((-0.99, 4.0, 12, 8), True, id="rho-0.99-n12"),
    pytest.param((0.99, 0.0, 400, 31), True, id="rho0.99"),     # ~ 17000 and ~ 2900
    pytest.param("heavy-tail", True, id="heavy-tail"),          # Phi ~ 800, |C| ~ 840
])
def test_grid_kde_guard_sides(monkeypatch, case, fallback):
    calls = _count_fallbacks(monkeypatch)
    data, axes = _guard_case(case)
    ours = grid_kde_density(data, axes, _kde_kernel(data))
    assert calls == ([4096] if fallback else [])
    _assert_matches_scipy(data, axes, ours)


def test_report_traffic_stays_on_the_fast_path(tmp_path, monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    grids = []
    original = leakprobe.grid_kde_density

    def counted(data, axes, kernel):
        grids.append(data.shape)
        return original(data, axes, kernel)

    monkeypatch.setattr(leakprobe, "grid_kde_density", counted)
    cfg = cli.ExperimentConfig(clients=4, rounds=3, steps=40, seed=4)
    assert cli.cmd_report(cfg, tmp_path) == 0
    assert len(grids) > 0 and all(d == 2 for _, d in grids)
    assert calls == []


def _np_cov_kernel(data):
    """The KDE kernel with its covariance from ``np.cov``."""
    n, d = data.shape
    data_cov = np.atleast_2d(np.cov(data, rowvar=False, aweights=np.full(n, 1.0 / n)))
    L = np.linalg.inv(np.linalg.cholesky(data_cov) * float(n) ** (-1.0 / (d + 4))).T
    return data.mean(axis=0), L, np.prod(np.diag(L)) / ((2.0 * np.pi) ** (d / 2.0) * n)


def _kl_per_row(P, Q):
    """KL(P || Q) of one pair of sample sets, with a linspace per grid axis."""
    axes = _grid_axes(P, Q)
    p = np.maximum(grid_kde_density(P, axes, _kde_kernel(P)), DENSITY_FLOOR)
    q = np.maximum(grid_kde_density(Q, axes, _kde_kernel(Q)), DENSITY_FLOOR)
    p /= p.sum()
    q /= q.sum()
    return np.sum(p * np.log(p / q))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rho=st.one_of(st.sampled_from([-0.99, 0.99]), st.floats(-0.99, 0.99)),
       n=st.one_of(st.integers(10, 40), st.integers(10, 2000)),
       m=st.integers(10, 600),
       log_scales=st.lists(st.tuples(st.floats(-4.0, 1.5), st.floats(-4.0, 1.5)),
                           min_size=1, max_size=3),
       equal_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_kls_match_per_row_calls(rho, n, m, log_scales, equal_row, seed):
    """Each row of a stacked KL equals, byte for byte, the one-set call and
    the per-row formula with its per-axis grid; every row's kernel equals the
    np.cov one and the row of a stacked kernel call. The rows differ in scale,
    may repeat P in Q, and the last row (rho = 0.99, Q shifted by twenty
    standard deviations) takes the fallback. A repeated row whose samples are
    all equal, so that it has no kernel, leaves the other rows as they were."""
    rng = np.random.default_rng(seed)
    m = n if equal_row else m
    P, Q = [], []
    for scale, r in [(np.exp(s), rho) for s in log_scales] + [(np.ones(2), 0.99)]:
        cov = np.array([[1.0, r], [r, 1.0]]) * np.outer(scale, scale)
        P.append(rng.multivariate_normal([0.1, -0.2], cov, n))
        Q.append(rng.multivariate_normal([0.3, 0.1], cov, m) * 1.5)
    Q[-1] = Q[-1] + 20.0
    if equal_row:
        Q[0] = P[0].copy()
    P, Q = np.array(P), np.array(Q)
    with mock.patch.object(leakprobe, "gaussian_kde_density",
                           wraps=leakprobe.gaussian_kde_density) as fallback:
        kls = kde_kl_divergence(P, Q)
    assert fallback.called
    assert kls.shape == (len(P),)
    for j in range(len(P)):
        for data in (P[j], Q[j]):
            ours, ref = _kde_kernel(data), _np_cov_kernel(data)
            assert all(a.tobytes() == np.asarray(b).tobytes() for a, b in zip(ours, ref))
        one = _kl(P[j], Q[j])
        assert kls[j].tobytes() == np.float64(one).tobytes()
        ref = 0.0 if equal_row and j == 0 else _kl_per_row(P[j], Q[j])
        assert kls[j].tobytes() == np.float64(ref).tobytes()
    for X in (P, Q):
        stacked = _kde_kernel(X)
        for j in range(len(X)):
            one = _kde_kernel(X[j])
            assert all(a[j].tobytes() == np.asarray(b).tobytes() for a, b in zip(stacked, one))
    if equal_row:
        P[0] = Q[0] = 0.3
        singular = kde_kl_divergence(P, Q)
        assert singular[0] == 0.0 and singular[1:].tobytes() == kls[1:].tobytes()


def test_attack_per_client_values_are_pinned(tmp_path, monkeypatch):
    """The CSVs round to 6 decimals; every scheme's per-client kl, mae_deg,
    mu_hat and b_hat bytes of a small attack are pinned here (BLAS on one
    thread, as in the test above)."""
    reports = {}
    original = cli.dualview_lite_reconstruct

    def recorded(leak, attack, population):
        reports[leak.scheme] = original(leak, attack, population)
        return reports[leak.scheme]

    monkeypatch.setattr(cli, "dualview_lite_reconstruct", recorded)
    cfg = cli.ExperimentConfig(clients=5, rounds=3, steps=60, seed=7)
    assert cli.cmd_attack(cfg, tmp_path) == 0
    assert sorted(reports) == ["adaptive_fl", "datacentre", "mpc", "privateyes"]
    assert _per_client_digest(reports) == (
        "1adc9584f7789617fe1710f21be8c2064503f25483077424cc49c177e5edee4a")


@pytest.mark.parametrize("shape", [(20,), (20, 2)])
def test_kl_singular_sample_set_raises(shape):
    rng = np.random.default_rng(9)
    with pytest.raises(LeakprobeError, match="singular"):
        _kl(np.full(shape, 0.3), rng.normal(size=shape))
