"""Experiment runner: INI config, scheme selection, artifact emission.

Subcommands: run (one scheme, metrics + transcript), attack (leakage
probe across schemes), report (comparison tables), bench (communication
scaling). Exit codes: 0 success, 2 protocol abort, 1 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random

from .aggregation import OptimizerState
from .fedcore import MODEL_KINDS, ModelSpec, TrainConfig, gen_synthetic_population
from .field import FieldError, FieldParams, FixedPointCodec, vector_to_bytes
from .leakprobe import (
    REFERENCE_GAZE_CNN,
    SCHEME_GENERIC_MPC,
    AttackConfig,
    build_leak_set,
    dualview_lite_reconstruct,
    estimate_generic_mpc_cost,
    write_leakage_csv,
)
from .protocol import (
    SCHEME_ADAPTIVE_FL,
    SCHEME_DATACENTRE,
    SCHEME_PRIVATEYES,
    run_secure_aggregation,
    run_training,
)
from .simnet import (
    EDGE_CLIENT_TO_SERVER,
    EDGE_DEALER,
    EDGE_SERVER_TO_CLIENT,
    EDGE_SERVER_TO_SERVER,
    BEHAVIORS,
    AdversarySpec,
    CommMetrics,
    MsgType,
    Network,
    WireMessage,
    overhead_ratio,
)
from .util import derive_seed

ENV_PREFIX = "PRIVATEYES_"
SCHEME_MPC_COST_ONLY = "mpc_cost_only"
VALID_SCHEMES = (SCHEME_DATACENTRE, SCHEME_ADAPTIVE_FL, SCHEME_PRIVATEYES, SCHEME_MPC_COST_ONLY)

EDGES = (EDGE_CLIENT_TO_SERVER, EDGE_SERVER_TO_CLIENT, EDGE_DEALER, EDGE_SERVER_TO_SERVER)

CSV_HEADER = (
    "round,test_mae_deg,fairness_deg,bytes_client_to_server,"
    "bytes_server_to_client,bytes_dealer,bytes_server_to_server,abort"
)


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass
class ExperimentConfig:
    # [experiment]
    seed: int = 0
    rounds: int = 10
    clients: int = 15
    cohort_fraction: float = 1.0
    servers: int = 3
    scheme: str = SCHEME_PRIVATEYES
    # [model]
    kind: str = "linear"
    d_in: int = 8
    hidden: int = 16
    # [field]
    f_bits: int = 16
    # [train]
    epochs: int = 1
    lr: float = 0.2
    batch: int = 256
    # [optimizer]
    eta: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3
    mode: str = "adaptive"
    # [adversary]
    corrupted_servers: int = 0
    corrupted_clients: int = 0
    behavior: str = "passive-record"
    target_round: int = 0  # 0 = every round
    # [attack]
    alpha: float = 10.0
    beta: float = 6.0
    gamma: float = 4.0
    steps: int = 400
    # [data]
    heterogeneity: float = 1.0
    samples_per_round: int = 20
    sigma_gaze: float = 0.15
    sigma_noise: float = 0.05

    def validate(self):
        if self.scheme not in VALID_SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.mode not in ("adaptive", "fedavg"):
            raise ConfigError(f"unknown optimizer mode {self.mode!r}")
        if self.clients < 1 or self.servers < 1 or self.rounds < 0:
            raise ConfigError("clients/servers/rounds out of range")
        if self.corrupted_servers and not 1 <= self.corrupted_servers <= self.servers - 1:
            raise ConfigError("corrupted server count must be in [1, n-1]")
        if not 0 < self.cohort_fraction <= 1:
            raise ConfigError("cohort_fraction must be in (0, 1]")
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.d_in < 1 or self.hidden < 1:
            raise ConfigError("d_in and hidden must be >= 1")
        try:
            FixedPointCodec(FieldParams(f_bits=self.f_bits))
        except FieldError as exc:
            raise ConfigError(f"bad f_bits {self.f_bits}: {exc}") from exc
        if self.epochs < 0 or self.lr <= 0 or self.batch < 1:
            raise ConfigError("epochs must be >= 0, lr > 0 and batch >= 1")
        if self.behavior not in BEHAVIORS:
            raise ConfigError(f"unknown adversary behavior {self.behavior!r}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("attack weights alpha, beta, gamma must be >= 0")
        if self.steps < 1:
            raise ConfigError("attack steps must be >= 1")
        if self.samples_per_round < 1:
            raise ConfigError("samples_per_round must be >= 1")
        return self


_SECTION_FIELDS = {
    "experiment": ("seed", "rounds", "clients", "cohort_fraction", "servers", "scheme"),
    "model": ("kind", "d_in", "hidden"),
    "field": ("f_bits",),
    "train": ("epochs", "lr", "batch"),
    "optimizer": ("eta", "beta1", "beta2", "tau", "mode"),
    "adversary": ("corrupted_servers", "corrupted_clients", "behavior", "target_round"),
    "attack": ("alpha", "beta", "gamma", "steps"),
    "data": ("heterogeneity", "samples_per_round", "sigma_gaze", "sigma_noise"),
}


def load_config(path, environ=None) -> ExperimentConfig:
    """INI file plus PRIVATEYES_<SECTION>_<KEY> environment overrides."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found")
    cfg = ExperimentConfig()
    for section, keys in _SECTION_FIELDS.items():
        if not parser.has_section(section):
            continue
        for key in parser[section]:
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
            _assign(cfg, key, parser[section][key])
    for name, value in (environ or os.environ).items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        section, _, key = rest.partition("_")
        if section in _SECTION_FIELDS and key in _SECTION_FIELDS[section]:
            _assign(cfg, key, value)
    return cfg.validate()


def _assign(cfg, key, raw):
    kind = type(getattr(cfg, key))
    try:
        setattr(cfg, key, kind(raw) if kind is not str else raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


# ---------------------------------------------------------------------------
# Experiment assembly
# ---------------------------------------------------------------------------


def _build(cfg: ExperimentConfig):
    population = gen_synthetic_population(
        cfg.clients,
        cfg.seed,
        heterogeneity=cfg.heterogeneity,
        samples_per_round=cfg.samples_per_round,
        rounds=max(cfg.rounds, 1),
        d_in=cfg.d_in,
        sigma_gaze=cfg.sigma_gaze,
        sigma_noise=cfg.sigma_noise,
    )
    train = TrainConfig(
        epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch,
        rounds=cfg.rounds, cohort_fraction=cfg.cohort_fraction,
    )
    spec = ModelSpec(kind=cfg.kind, d_in=cfg.d_in, hidden=cfg.hidden)
    codec = FixedPointCodec(FieldParams(f_bits=cfg.f_bits))
    optimizer = OptimizerState.zeros(
        spec.dim, eta=cfg.eta, beta1=cfg.beta1, beta2=cfg.beta2, tau=cfg.tau
    )
    adversary = None
    if cfg.corrupted_servers or cfg.corrupted_clients:
        adversary = AdversarySpec(
            corrupted_servers=frozenset(1 + i for i in range(cfg.corrupted_servers)),
            corrupted_clients=frozenset(
                1 + cfg.servers + j for j in range(cfg.corrupted_clients)
            ),
            behavior=cfg.behavior,
            target_round=cfg.target_round or None,
        )
    return population, train, spec, codec, optimizer, adversary


def _run_scheme(cfg, scheme):
    population, train, spec, codec, optimizer, adversary = _build(cfg)
    return population, run_training(
        population, train, spec, scheme,
        n_servers=cfg.servers, seed=cfg.seed, codec=codec,
        adversary=adversary, optimizer=optimizer, optimizer_mode=cfg.mode,
    )


def write_round_metrics_csv(round_metrics, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in round_metrics:
            b = row.get("bytes", {})
            if row["abort"]:
                mae = fair = ""
            else:
                mae = f"{row.get('test_mae_deg', float('nan')):.6f}"
                fair = f"{row.get('fairness_deg', float('nan')):.6f}"
            fh.write(
                f"{row['round']},{mae},{fair},"
                + ",".join(str(b.get(e, 0)) for e in EDGES)
                + f",{row['abort']}\n"
            )


def _report_payload(cfg, result):
    totals = {e: result.transcript.comm.totals.get(e, 0) for e in EDGES}
    payload = {
        "config": asdict(cfg),
        "scheme": result.transcript.scheme,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "bytes": totals,
        "rounds_completed": len(result.transcript.om_history) - 1,
    }
    if result.final_model is not None:
        payload["final_model"] = [round(v, 12) for v in result.final_model.tolist()]
        done = [r for r in result.round_metrics if not r["abort"]]
        if done and "test_mae_deg" in done[-1]:
            payload["test_mae_deg"] = round(done[-1]["test_mae_deg"], 6)
            payload["fairness_deg"] = round(done[-1]["fairness_deg"], 6)
    return payload


def cmd_run(cfg: ExperimentConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.scheme == SCHEME_MPC_COST_ONLY:
        payload = {
            "config": asdict(cfg),
            "scheme": cfg.scheme,
            "generic_mpc_values_per_iteration": estimate_generic_mpc_cost(REFERENCE_GAZE_CNN),
        }
        (outdir / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        write_round_metrics_csv([], outdir / "round_metrics.csv")
        return 0
    _, result = _run_scheme(cfg, cfg.scheme)
    write_round_metrics_csv(result.round_metrics, outdir / "round_metrics.csv")
    result.transcript.dump_ndjson(outdir / "transcript.ndjson")
    payload = _report_payload(cfg, result)
    (outdir / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 2 if result.aborted else 0


LEAKAGE_SCHEMES = (SCHEME_DATACENTRE, SCHEME_ADAPTIVE_FL, SCHEME_PRIVATEYES)


def _train_leakage_schemes(cfg: ExperimentConfig):
    """One run per scheme of the leakage table: {scheme: (population, result)},
    or None if a run aborted."""
    runs = {}
    for scheme in LEAKAGE_SCHEMES:
        runs[scheme] = _run_scheme(cfg, scheme)
        if runs[scheme][1].aborted:
            return None
    return runs


def cmd_attack(cfg: ExperimentConfig, outdir: Path, runs: dict = None) -> int:
    """Leakage table; ``runs`` reuses trainings from ``_train_leakage_schemes``."""
    outdir.mkdir(parents=True, exist_ok=True)
    if runs is None:
        runs = _train_leakage_schemes(cfg)
        if runs is None:
            return 2
    attack = AttackConfig(alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma,
                          steps=cfg.steps, seed=cfg.seed)
    reports = {}
    for scheme, (population, result) in runs.items():
        leak = build_leak_set(scheme, result.transcript, population)
        reports[scheme] = dualview_lite_reconstruct(leak, attack, population)
    # Generic MPC leaks nothing; score the prior against the same population.
    population, result = runs[SCHEME_PRIVATEYES]
    leak = build_leak_set(SCHEME_GENERIC_MPC, result.transcript, population)
    reports[SCHEME_GENERIC_MPC] = dualview_lite_reconstruct(leak, attack, population)
    write_leakage_csv(reports, outdir / "leakage.csv")
    payload = {
        scheme: {"mean_mae_deg": round(r.mean_mae_deg, 6), "mean_kl": round(r.mean_kl, 6)}
        for scheme, r in reports.items()
    }
    (outdir / "attack_report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    return 0


# ---------------------------------------------------------------------------
# Communication benchmark
# ---------------------------------------------------------------------------


def measure_communication(n_servers: int, d: int, params: FieldParams = None, seed: int = 0):
    """One secure aggregation round vs the single-server baseline, 1 client."""
    params = params or FieldParams()
    rng = Random(derive_seed(seed, "bench", n_servers, d))
    inputs = {0: [rng.randrange(params.q) for _ in range(d)]}
    secure = run_secure_aggregation(inputs, n_servers, params, seed=seed)
    if secure.opened is None:
        raise RuntimeError("benchmark round aborted")

    baseline_net = Network({0: "server", 1: "client"}, params)
    payload = vector_to_bytes(inputs[0])
    baseline_net.send(WireMessage(MsgType.BROADCAST_MODEL, 1, 0, 1, payload))
    baseline_net.send(WireMessage(MsgType.SHARE_UPLOAD, 1, 1, 0, payload))
    return secure.net.metrics, baseline_net.metrics


def cmd_bench(cfg: ExperimentConfig, outdir: Path, d: int = 1000, ns=(2, 3, 5)) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in ns:
        secure, baseline = measure_communication(n, d, seed=cfg.seed)
        ratio = overhead_ratio(secure, baseline)
        rows.append((n, secure.total_bytes(), baseline.total_bytes(), ratio))
    with open(outdir / "bench.csv", "w") as fh:
        fh.write("n_servers,secure_bytes,baseline_bytes,ratio\n")
        for n, s, b, r in rows:
            fh.write(f"{n},{s},{b},{r:.6f}\n")
    return 0


def cmd_report(cfg: ExperimentConfig, outdir: Path) -> int:
    """Accuracy, leakage, and communication comparison tables."""
    outdir.mkdir(parents=True, exist_ok=True)
    runs = _train_leakage_schemes(cfg)
    if runs is None:
        return 2
    with open(outdir / "accuracy.csv", "w") as fh:
        fh.write("scheme,test_mae_deg\n")
        for scheme, (_, result) in runs.items():
            done = [r for r in result.round_metrics if not r["abort"]]
            fh.write(f"{scheme},{done[-1]['test_mae_deg']:.6f}\n")
    status = cmd_attack(cfg, outdir, runs)
    if status:
        return status
    cmd_bench(cfg, outdir)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privateyes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "attack", "report", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out)
    command = {"run": cmd_run, "attack": cmd_attack, "report": cmd_report, "bench": cmd_bench}
    try:
        return command[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
