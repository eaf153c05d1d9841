"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines live;
under default capture they appear in the captured output of failing tests.
"""

import time
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from privateyes.aggregation import (
    plaintext_adaptive_fl_oracle,
    plaintext_datacentre_oracle,
)
from privateyes.cli import main as cli_main
from privateyes.cli import measure_communication
from privateyes.fedcore import (
    ModelSpec,
    TrainConfig,
    evaluate_model,
    gen_synthetic_population,
    loss_and_grad,
)
from privateyes.field import FieldParams, FixedPointCodec, to_ints
from privateyes.leakprobe import (
    REFERENCE_GAZE_CNN,
    SCHEME_GENERIC_MPC,
    AttackConfig,
    build_leak_set,
    conv_forward_count,
    dualview_lite_reconstruct,
    estimate_generic_mpc_cost,
)
from privateyes.protocol import run_secure_aggregation, run_training
from privateyes.sharing import Dealer, forgery_succeeds, open_with_mac_check, share
from privateyes.simnet import AdversarySpec, overhead_ratio

P23 = FieldParams(q=23, f_bits=0)
BIG = FieldParams()
SPEC = ModelSpec()
CODEC = FixedPointCodec()


def _check(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_golden_vectors():
    t0 = time.time()
    res = run_secure_aggregation({0: [3], 1: [10], 2: [8]}, 3, P23, seed=0)
    opened = to_ints(res.opened)
    avg = FixedPointCodec(P23, signed=False).decode(opened[0]) / 3
    elapsed = time.time() - t0
    ok = opened == [21] and avg == 7.0 and elapsed < 1.0
    _check(1, "golden vectors", ok, f"sum={opened[0]} avg={avg} t={elapsed:.2f}s")


def test_criterion_02_parity_with_plaintext_oracle():
    t0 = time.time()
    pop = gen_synthetic_population(15, seed=1)
    cfg = TrainConfig(rounds=10)
    secure = run_training(pop, cfg, SPEC, "privateyes", seed=1, codec=CODEC)
    oracle = plaintext_adaptive_fl_oracle(pop, cfg, SPEC, CODEC, seed=1)
    bit_identical = len(secure.transcript.om_history) == len(oracle.om_history) and all(
        np.array_equal(a, b)
        for a, b in zip(secure.transcript.om_history, oracle.om_history)
    )
    err_secure = secure.round_metrics[-1]["test_mae_deg"]
    err_oracle, _ = evaluate_model(SPEC, oracle.om_history[-1], pop)
    elapsed = time.time() - t0
    ok = bit_identical and err_secure == err_oracle and elapsed < 60.0
    _check(
        2,
        "secure/plaintext parity",
        ok,
        f"bit_identical={bit_identical} mae {err_secure:.6f}=={err_oracle:.6f} t={elapsed:.1f}s",
    )


def _accuracy_pair(n_clients, seed):
    pop = gen_synthetic_population(n_clients, seed=seed)
    cfg = TrainConfig()
    fed = plaintext_adaptive_fl_oracle(pop, cfg, SPEC, CODEC, seed=seed)
    fed_err, _ = evaluate_model(SPEC, fed.om_history[-1], pop)
    dc_err, _ = evaluate_model(
        SPEC, plaintext_datacentre_oracle(pop, cfg, SPEC, seed=seed), pop
    )
    return fed_err, dc_err


def test_criterion_03_baseline_ordering_and_gap_trend():
    wins = 0
    for seed in range(20):
        fed_err, dc_err = _accuracy_pair(15, seed)
        wins += dc_err <= fed_err
    medians = []
    for n_clients in (15, 150, 1500):
        gaps = [np.subtract(*_accuracy_pair(n_clients, seed)) for seed in range(10)]
        medians.append(float(np.median(gaps)))
    monotone = medians[0] > medians[1] > medians[2]
    ok = wins >= 18 and monotone
    _check(
        3,
        "datacentre <= federated, shrinking gap",
        ok,
        f"wins={wins}/20 median gaps deg={['%.3f' % m for m in medians]}",
    )


DEVIATIONS = (
    "tamper-share",
    "tamper-epsilon",
    "forge-sigma",
    "equivocate-commit",
    "withhold",
)


def test_criterion_04_deviations_abort_no_false_aborts():
    aborts = 0
    trials = 0
    for behavior in DEVIATIONS:
        for seed in range(200):
            adv = AdversarySpec(corrupted_servers=frozenset({2}), behavior=behavior)
            res = run_secure_aggregation(
                {0: [3], 1: [10], 2: [8]}, 3, BIG, seed=seed, adversary=adv
            )
            trials += 1
            aborts += res.opened is None
    false_aborts = 0
    rng = Random(0)
    dealer = Dealer(3, rng, BIG)
    for _ in range(10_000):
        x = rng.randrange(BIG.q)
        vs = share(x, 3, rng, BIG).shares
        ms = share(dealer.mac_key * x % BIG.q, 3, rng, BIG).shares
        try:
            assert open_with_mac_check(vs, ms, dealer.key, rng) == x
        except Exception:
            false_aborts += 1
    ok = aborts == trials == 1000 and false_aborts == 0
    _check(
        4,
        "active deviations abort",
        ok,
        f"aborts={aborts}/{trials} false_aborts={false_aborts}/10000",
    )


def _forge_rate(params, trials, seed):
    rng = Random(seed)
    dealer = Dealer(3, rng, params)
    x = rng.randrange(params.q)
    vs = share(x, 3, rng, params).shares
    ms = share(dealer.mac_key * x % params.q, 3, rng, params).shares
    hits = 0
    for _ in range(trials):
        delta = rng.randrange(1, params.q)
        adj = rng.randrange(params.q)
        hits += forgery_succeeds(vs, ms, dealer.key, delta, adj)
    return hits / trials


def test_criterion_05_mac_soundness_rate():
    rate23 = _forge_rate(P23, 100_000, 5)
    rate_big = _forge_rate(BIG, 100_000, 5)
    ok = 0.035 <= rate23 <= 0.052 and rate_big == 0.0
    _check(5, "MAC soundness", ok, f"Z_23 rate={rate23:.4f} big-field rate={rate_big}")


def test_criterion_06_share_privacy():
    rng = Random(6)
    secret = 7
    counts = np.zeros(23 * 23, dtype=np.int64)
    for _ in range(100_000):
        s = share(secret, 3, rng, P23).shares
        counts[s[0] * 23 + s[1]] += 1
    p_value = chisquare(counts).pvalue
    # Any fixed pair of n-1 shares is consistent with every candidate secret.
    s0, s1 = 5, 17
    candidates = {(x - s0 - s1) % 23 for x in range(23)}
    consistent = len(candidates) == 23
    ok = p_value > 0.01 and consistent
    _check(6, "share privacy", ok, f"chi2 p={p_value:.3f} candidates={len(candidates)}")


@pytest.fixture(scope="module")
def leakage_stats():
    """20-seed DualView-lite sweep shared by criteria 7 and 8."""
    cfg = TrainConfig(rounds=10)
    rows = []
    for seed in range(20):
        pop = gen_synthetic_population(15, seed=seed)
        atk = AttackConfig(seed=seed)
        reports = {}
        runs = {}
        for scheme in ("adaptive_fl", "privateyes"):
            runs[scheme] = run_training(
                pop, cfg, SPEC, scheme, seed=seed, codec=CODEC, evaluate=False
            )
            leak = build_leak_set(scheme, runs[scheme].transcript, pop)
            reports[scheme] = dualview_lite_reconstruct(leak, atk, pop)
        leak_mpc = build_leak_set(
            SCHEME_GENERIC_MPC, runs["privateyes"].transcript, pop
        )
        reports["mpc"] = dualview_lite_reconstruct(leak_mpc, atk, pop)
        leak_afl = build_leak_set("adaptive_fl", runs["adaptive_fl"].transcript, pop)
        nochain = AttackConfig(seed=seed, chain=False)
        first = dualview_lite_reconstruct(leak_afl, replace(nochain, rounds=(1,)), pop)
        final = dualview_lite_reconstruct(leak_afl, replace(nochain, rounds=(10,)), pop)
        chained = dualview_lite_reconstruct(leak_afl, replace(atk, rounds=tuple(range(1, 11))), pop)
        rows.append(
            {
                "afl_kl": reports["adaptive_fl"].mean_kl,
                "pe_kl": reports["privateyes"].mean_kl,
                "mpc_kl": reports["mpc"].mean_kl,
                "afl_mae": reports["adaptive_fl"].mean_mae_deg,
                "pe_mae": reports["privateyes"].mean_mae_deg,
                "first_kl": first.mean_kl,
                "final_kl": final.mean_kl,
                "chained_kl": chained.mean_kl,
            }
        )
    return rows


def _sign_test_p(wins, trials):
    """One-sided binomial tail P[X >= wins] under p = 1/2."""
    from math import comb

    return sum(comb(trials, k) for k in range(wins, trials + 1)) / 2**trials


def test_criterion_07_leakage_differential(leakage_stats):
    rows = leakage_stats
    kl_wins = sum(r["afl_kl"] < r["pe_kl"] for r in rows)
    mae_wins = sum(r["afl_mae"] < r["pe_mae"] for r in rows)
    p_value = _sign_test_p(kl_wins, len(rows))
    pe_mean = np.mean([r["pe_kl"] for r in rows])
    mpc_mean = np.mean([r["mpc_kl"] for r in rows])
    rel_diff = abs(pe_mean - mpc_mean) / pe_mean
    ok = p_value < 0.05 and rel_diff <= 0.10 and mae_wins >= 18
    _check(
        7,
        "leakage ordering",
        ok,
        f"kl_wins={kl_wins}/20 p={p_value:.2e} |pe-mpc|/pe={rel_diff:.3f} mae_wins={mae_wins}/20",
    )


def test_criterion_08_convergence_effect(leakage_stats):
    rows = leakage_stats
    final_no_better = sum(r["final_kl"] >= r["first_kl"] for r in rows)
    chain_helps = sum(r["chained_kl"] < r["final_kl"] for r in rows)
    ok = final_no_better >= 14 and chain_helps >= 14
    _check(
        8,
        "convergence effect",
        ok,
        f"final>=first on {final_no_better}/20, chaining helps on {chain_helps}/20",
    )


def test_criterion_09_communication_ratio():
    ratios = {}
    for n in (2, 3, 5):
        secure, baseline = measure_communication(n, 1000)
        ratios[n] = overhead_ratio(secure, baseline)
    xs = np.array(sorted(ratios))
    ys = np.array([ratios[n] for n in xs])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = np.sum((ys - fit) ** 2)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    r_squared = 1 - ss_res / ss_tot
    ok = 6.0 <= ratios[3] <= 8.0 and r_squared > 0.99
    _check(
        9,
        "communication overhead",
        ok,
        f"ratio(n=3)={ratios[3]:.2f} R^2={r_squared:.5f}",
    )


def test_criterion_10_generic_mpc_cost():
    conv = conv_forward_count(36, 60, 1, 5, 20)
    total = estimate_generic_mpc_cost(REFERENCE_GAZE_CNN)
    ok = conv == 896_000 and 2.5e7 <= total <= 3.5e7
    _check(10, "generic MPC cost", ok, f"conv_fwd={conv} cnn_total={total}")


def test_criterion_11_gradient_check():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        spec = SPEC if rng.random() < 0.5 else ModelSpec(kind="mlp", d_in=4, hidden=3)
        X = rng.normal(0, 1, (6, spec.d_in))
        G = rng.normal(0, 0.3, (6, 2))
        w = rng.normal(0, 0.5, spec.dim)
        _, grad = loss_and_grad(spec, w, X, G)
        h = 1e-5
        numeric = np.empty(spec.dim)
        for t in range(spec.dim):
            e = np.zeros(spec.dim)
            e[t] = h
            lp, _ = loss_and_grad(spec, w + e, X, G)
            lm, _ = loss_and_grad(spec, w - e, X, G)
            numeric[t] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    ok = worst < 1e-5
    _check(11, "gradient check", ok, f"worst relative error={worst:.2e} over 100 points")


def test_criterion_12_deterministic_artifacts(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[experiment]\nseed = 12\nrounds = 3\nclients = 6\nservers = 3\n"
        "scheme = privateyes\n"
    )
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("round_metrics.csv", "report.json", "transcript.ndjson")
    )
    _check(12, "deterministic artifacts", identical, "csv/json/ndjson byte-identical")
