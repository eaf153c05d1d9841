import numpy as np
import pytest
from scipy.stats import gaussian_kde

from privateyes import leakprobe
from privateyes.fedcore import ModelSpec, TrainConfig, gen_synthetic_population
from privateyes.field import FixedPointCodec
from privateyes.leakprobe import (
    DENSITY_FLOOR,
    REFERENCE_GAZE_CNN,
    SCHEME_GENERIC_MPC,
    AttackConfig,
    LeakprobeError,
    _expected_gradient_system,
    _solve_gd,
    build_leak_set,
    conv_forward_count,
    dualview_lite_reconstruct,
    estimate_generic_mpc_cost,
    gaussian_kde_density,
    invert_optimizer_history,
    kde_kl_divergence,
    leakage_table,
    observed_gradient,
    write_leakage_csv,
)
from privateyes.protocol import run_training


def _run(pop, scheme, seed, rounds=10, **cfg_kwargs):
    cfg = TrainConfig(rounds=rounds, **cfg_kwargs)
    return run_training(pop, cfg, ModelSpec(), scheme, seed=seed,
                        codec=FixedPointCodec(), evaluate=False)


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
    assert "om_final" in leak_mpc.pub
    with pytest.raises(LeakprobeError):
        build_leak_set("unknown", pe.transcript, pop)


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
                       codec=FixedPointCodec(), optimizer_mode="fedavg", evaluate=False)
    tr = res.transcript
    tr.config["optimizer_mode"] = "fedavg"
    averages = invert_optimizer_history(tr.om_history, tr.config)
    for k in range(1, 4):
        true_avg = np.mean([tr.ground_truth_iu[(j, k)] for j in range(4)], axis=0)
        assert np.abs(averages[k] - true_avg).max() < 1e-3


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


def test_kl_identical_samples_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (200, 2))
    assert abs(kde_kl_divergence(x, x)) < 1e-6


def test_kl_gaussian_shift_matches_analytic():
    rng = np.random.default_rng(1)
    kl = kde_kl_divergence(rng.normal(0, 1, 10000), rng.normal(1, 1, 10000))
    assert kl == pytest.approx(0.5, abs=0.05)


def test_kl_monotone_in_separation():
    rng = np.random.default_rng(2)
    base = rng.normal(0, 0.5, 2000)
    kls = [
        kde_kl_divergence(base, base + shift, grid=[(-3, 9)])
        for shift in (1.0, 2.0, 4.0)
    ]
    assert kls[0] < kls[1] < kls[2]
    assert kls[2] > 1.0


def test_kl_needs_samples():
    with pytest.raises(LeakprobeError):
        kde_kl_divergence(np.zeros(5), np.zeros(20))
    with pytest.raises(LeakprobeError):
        kde_kl_divergence(np.zeros((20, 2)), np.zeros((20, 3)))


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
    fwd = estimate_generic_mpc_cost(REFERENCE_GAZE_CNN, passes=("forward",))
    assert fwd < total
    with pytest.raises(LeakprobeError):
        estimate_generic_mpc_cost((("rnn", 1),))


def test_pooling_is_free():
    assert estimate_generic_mpc_cost((("pool", 2),)) == 0


def test_leakage_table_and_csv(tmp_path):
    pop = gen_synthetic_population(3, seed=8, rounds=2)
    res = _run(pop, "privateyes", 8, rounds=2)
    leak = build_leak_set(SCHEME_GENERIC_MPC, res.transcript, pop)
    report = dualview_lite_reconstruct(leak, AttackConfig(seed=8), pop)
    rows = leakage_table({"mpc": report})
    assert rows[0][0] == "mpc"
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
    ours = gaussian_kde_density(data, points)
    above = ref > DENSITY_FLOOR
    assert above.sum() >= 40
    assert np.max(np.abs(ours[above] - ref[above]) / ref[above]) <= 1e-12
    assert np.all(ours[~above] <= 2 * DENSITY_FLOOR)


def test_kl_equal_arrays_is_exactly_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (50, 2))
    assert kde_kl_divergence(x, x.copy()) == 0.0


def _count_solves(monkeypatch):
    calls = []
    original = leakprobe._solve_gd

    def counted(*args):
        calls.append(args)
        return original(*args)

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
