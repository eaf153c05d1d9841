"""Experiment runner: INI config, scheme selection, artifact emission.

Subcommands: run (one scheme, metrics + transcript), attack (leakage
probe across schemes), report (comparison tables), bench (communication
scaling). Exit codes: 0 success, 1 usage/config error, 2 protocol abort or
damaged frame, 3 numerical failure (diverged training, a value outside the
codec's range, a degenerate leakage-probe sample set), 4 out of memory or a
lost training worker.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from tempfile import TemporaryDirectory
from types import SimpleNamespace

import numpy as np

from .aggregation import OPTIMIZER_MODES, OptimizerState, TrainingWorkerLost, forked_worker
from .fedcore import (
    ModelSpec,
    TrainConfig,
    TrainingDivergence,
    gen_synthetic_population,
)
from .field import (
    DecodeOverflowError,
    EncodingRangeError,
    FieldError,
    FieldParams,
    FixedPointCodec,
    random_vector,
    vector_to_bytes,  # perfbench/spans.py wraps it here
)
from .leakprobe import (
    REFERENCE_GAZE_CNN,
    SCHEME_GENERIC_MPC,
    AttackConfig,
    LeakprobeError,
    build_leak_set,
    dualview_lite_reconstruct,
    estimate_generic_mpc_cost,
    write_leakage_csv,
)
from .protocol import (
    SCHEME_ADAPTIVE_FL,
    SCHEME_DATACENTRE,
    SCHEME_PRIVATEYES,
    KeyShareError,
    client_wire_id,
    run_secure_aggregation,
    run_single_server_round,
    run_training,
    scheme_servers,
    server_wire_id,
    start_run,
)
from .simnet import (
    EDGE_CLIENT_TO_SERVER,
    EDGE_DEALER,
    EDGE_SERVER_TO_CLIENT,
    EDGE_SERVER_TO_SERVER,
    AdversarySpec,
    FrameError,
    overhead_ratio,
)
from .util import derive_seed

ENV_PREFIX = "PRIVATEYES_"
SCHEME_MPC_COST_ONLY = "mpc_cost_only"
VALID_SCHEMES = (SCHEME_DATACENTRE, SCHEME_ADAPTIVE_FL, SCHEME_PRIVATEYES, SCHEME_MPC_COST_ONLY)

EDGES = (EDGE_CLIENT_TO_SERVER, EDGE_SERVER_TO_CLIENT, EDGE_DEALER, EDGE_SERVER_TO_SERVER)

BENCH_DIM = 1000  # vector length of the communication benchmark's round
BENCH_SERVERS = (2, 3, 5)  # server counts the benchmark compares

CSV_HEADER = (
    "round,test_mae_deg,fairness_deg,bytes_client_to_server,"
    "bytes_server_to_client,bytes_dealer,bytes_server_to_server,abort"
)


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


class ProtocolAbort(RuntimeError):
    """A run of ``attack``, ``report`` or ``bench`` aborted; ``main`` reports it
    as a protocol failure, with ``fields``."""

    def __init__(self, run: str, reason: str, phase: str, **fields):
        super().__init__(run, reason, phase)  # the args a pickle rebuilds it from
        self.fields = {"abort_reason": reason, "abort_phase": phase, **fields}

    def __str__(self):
        return "protocol abort: {0} aborted in {2}: {1}".format(*self.args)


# Valid configurations whose numbers break down during a run. Named one by one:
# ConfigError is a ValueError too, so catching a base class would mix the two.
NUMERICAL_FAILURES = (TrainingDivergence, EncodingRangeError, DecodeOverflowError,
                      LeakprobeError)


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
        for key, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, not {value}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.scheme not in VALID_SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.mode not in OPTIMIZER_MODES:
            raise ConfigError(f"unknown optimizer mode {self.mode!r}")
        if self.clients < 1 or self.servers < 1:
            raise ConfigError("clients/servers out of range")
        if self.corrupted_servers and not 1 <= self.corrupted_servers <= self.servers - 1:
            raise ConfigError("corrupted server count must be in [1, n-1]")
        if not 0 <= self.corrupted_clients <= self.clients:
            raise ConfigError("corrupted client count must be in [0, clients]")
        if self.samples_per_round < 1:
            raise ConfigError("samples_per_round must be >= 1")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, not {self.rounds}")
        if not 0 <= self.target_round <= self.rounds:
            raise ConfigError(f"target_round must be in [0, rounds = {self.rounds}] (0 = every "
                              f"round), not {self.target_round}")
        if min(self.heterogeneity, self.sigma_gaze, self.sigma_noise) < 0:
            raise ConfigError("heterogeneity, sigma_gaze and sigma_noise must be >= 0")
        self.build(self.servers)
        return self

    def build(self, n_servers: int) -> SimpleNamespace:
        """The objects a run with ``n_servers`` servers is made of: ``spec``,
        ``train``, ``codec``, ``optimizer``, ``adversary`` (None when no party
        is corrupted) and ``attack``. A value one of them rejects is a
        ConfigError."""
        try:
            spec = ModelSpec(kind=self.kind, d_in=self.d_in, hidden=self.hidden)
            codec = FixedPointCodec(FieldParams(f_bits=self.f_bits))
            codec.check_headroom(self.clients)
            adversary = AdversarySpec(
                corrupted_servers=frozenset(
                    map(server_wire_id, range(min(self.corrupted_servers, n_servers)))),
                corrupted_clients=frozenset(
                    client_wire_id(n_servers, j) for j in range(self.corrupted_clients)),
                behavior=self.behavior,
                target_round=self.target_round or None,
            )
            return SimpleNamespace(
                spec=spec,
                train=TrainConfig(epochs=self.epochs, lr=self.lr, batch_size=self.batch,
                                  rounds=self.rounds, cohort_fraction=self.cohort_fraction),
                codec=codec,
                optimizer=OptimizerState.zeros(spec.dim, eta=self.eta, beta1=self.beta1,
                                               beta2=self.beta2, tau=self.tau),
                adversary=adversary if self.corrupted_servers or self.corrupted_clients else None,
                attack=AttackConfig(alpha=self.alpha, beta=self.beta, gamma=self.gamma,
                                    steps=self.steps, seed=self.seed),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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


def _population(cfg: ExperimentConfig):
    return gen_synthetic_population(
        cfg.clients,
        cfg.seed,
        heterogeneity=cfg.heterogeneity,
        samples_per_round=cfg.samples_per_round,
        rounds=max(cfg.rounds, 1),
        d_in=cfg.d_in,
        sigma_gaze=cfg.sigma_gaze,
        sigma_noise=cfg.sigma_noise,
    )


def _run_scheme(cfg, scheme, population):
    """One training of ``scheme`` on ``population``, which it only reads."""
    run = cfg.build(scheme_servers(scheme, cfg.servers))
    return run_training(
        population, run.train, run.spec, scheme,
        n_servers=cfg.servers, seed=cfg.seed, codec=run.codec,
        adversary=run.adversary, optimizer=run.optimizer, optimizer_mode=cfg.mode,
    )


def write_round_metrics_csv(round_metrics, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in round_metrics:
            b = row.get("bytes", {})
            if row["abort"]:
                mae = fair = ""
            else:
                mae = f"{row['test_mae_deg']:.6f}"
                fair = f"{row['fairness_deg']:.6f}"
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
    if result.aborted:
        payload["abort_phase"] = result.abort_phase
    if result.final_model is not None:
        payload["final_model"] = [round(v, 12) for v in result.final_model.tolist()]
        done = [r for r in result.round_metrics if not r["abort"]]
        if done:
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
    result = _run_scheme(cfg, cfg.scheme, _population(cfg))
    write_round_metrics_csv(result.round_metrics, outdir / "round_metrics.csv")
    result.transcript.dump_ndjson(outdir / "transcript.ndjson")
    payload = _report_payload(cfg, result)
    (outdir / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 2 if result.aborted else 0


LEAKAGE_SCHEMES = (SCHEME_DATACENTRE, SCHEME_ADAPTIVE_FL, SCHEME_PRIVATEYES)
LEAKAGE_VIEWS = (*LEAKAGE_SCHEMES, SCHEME_GENERIC_MPC)


def _leakage_step(cfg: ExperimentConfig, population, runs: dict, table: str, name: str):
    """One step of the leakage tables: for "accuracy" the ``name`` scheme's
    run, kept in ``runs``, and its round metrics; for "leakage" the ``name``
    view's ReconstructionReport. A run that aborts raises ProtocolAbort."""
    if table == "accuracy":
        runs[name] = result = _run_scheme(cfg, name, population)
        if result.aborted:
            raise ProtocolAbort(f"the {name} run", result.abort_reason, result.abort_phase,
                                scheme=name)
        return result.round_metrics
    # Generic MPC leaks nothing; its prior is scored against the same population.
    run = runs.get(name) or runs[SCHEME_PRIVATEYES]
    leak = build_leak_set(name, run.transcript, population)
    return dualview_lite_reconstruct(leak, cfg.build(cfg.servers).attack, population)


def cmd_attack(cfg: ExperimentConfig, outdir: Path, report: bool = False) -> int:
    """Leakage table, and for ``report`` the accuracy and communication tables.
    A forked worker, if any, runs privateyes and scores its two views. Results
    are taken, and files written, in serial order: runs, views, benchmark."""
    if cfg.kind != "linear":
        raise ConfigError(f"the leakage probe attacks the linear model only, not {cfg.kind!r}")
    if cfg.epochs < 1:
        raise ConfigError("the leakage probe reads gradients off local steps: it needs epochs >= 1")
    if cfg.rounds * cfg.samples_per_round < 10:
        raise ConfigError("the leakage probe needs rounds x samples_per_round >= 10 samples, not "
                          f"{cfg.rounds} x {cfg.samples_per_round}")
    population = _population(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    step = partial(_leakage_step, cfg, population, {})
    with forked_worker(step) as worker, TemporaryDirectory(dir=outdir) as staging:
        remote = [("accuracy", SCHEME_PRIVATEYES), ("leakage", SCHEME_PRIVATEYES),
                  ("leakage", SCHEME_GENERIC_MPC)] if worker else []
        for request in remote:
            worker.submit(*request)

        def outcome(*request):
            return worker.result() if request in remote else step(*request)

        metrics = [outcome("accuracy", scheme) for scheme in LEAKAGE_SCHEMES]
        if report:
            with open(outdir / "accuracy.csv", "w") as fh:
                fh.write("scheme,test_mae_deg\n")
                for scheme, rounds in zip(LEAKAGE_SCHEMES, metrics):
                    done = [f"{r['test_mae_deg']:.6f}" for r in rounds if not r["abort"]]
                    fh.write(f"{scheme},{done[-1] if done else ''}\n")
        reports = {view: outcome("leakage", view) for view in LEAKAGE_VIEWS[:2]}
        try:  # beside the worker's views; its failure comes after theirs
            bench = report and cmd_bench(cfg, Path(staging))
        except Exception as exc:
            bench = exc
        reports.update((view, outcome("leakage", view)) for view in LEAKAGE_VIEWS[2:])
        write_leakage_csv(reports, outdir / "leakage.csv")
        payload = {
            scheme: {"mean_mae_deg": round(r.mean_mae_deg, 6), "mean_kl": round(r.mean_kl, 6)}
            for scheme, r in reports.items()
        }
        (outdir / "attack_report.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        if isinstance(bench, Exception):
            raise bench
        if report:
            os.replace(Path(staging) / "bench.csv", outdir / "bench.csv")
    return 0


# ---------------------------------------------------------------------------
# Communication benchmark
# ---------------------------------------------------------------------------


def measure_communication(n_servers: int, d: int, seed: int = 0):
    """One secure round of uniform random field inputs vs the single-server baseline, 1 client."""
    params = FieldParams()
    gen = np.random.default_rng(derive_seed(seed, "bench", n_servers, d))
    inputs = {0: random_vector(gen, (d,), params)}
    secure = run_secure_aggregation(inputs, n_servers, params, seed=seed)
    if secure.opened is None:
        raise ProtocolAbort(f"the n = {n_servers} benchmark round", secure.abort_reason,
                            secure.abort_phase)
    baseline, _ = start_run(SCHEME_ADAPTIVE_FL, 1, 1, params, seed)
    run_single_server_round(baseline, 1, [0], inputs[0][None], inputs[0])
    return secure.net.metrics, baseline.metrics


def cmd_bench(cfg: ExperimentConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in BENCH_SERVERS:
        secure, baseline = measure_communication(n, BENCH_DIM, seed=cfg.seed)
        ratio = overhead_ratio(secure, baseline)
        rows.append((n, secure.total_bytes(), baseline.total_bytes(), ratio))
    with open(outdir / "bench.csv", "w") as fh:
        fh.write("n_servers,secure_bytes,baseline_bytes,ratio\n")
        for n, s, b, r in rows:
            fh.write(f"{n},{s},{b},{r:.6f}\n")
    return 0


def cmd_report(cfg: ExperimentConfig, outdir: Path) -> int:
    """Accuracy, leakage, and communication comparison tables."""
    return cmd_attack(cfg, outdir, report=True)


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
    outdir = Path(args.out)
    command = {"run": cmd_run, "attack": cmd_attack, "report": cmd_report, "bench": cmd_bench}
    try:
        return command[args.command](load_config(args.config), outdir)
    except ConfigError as exc:
        return _fail(outdir, "config", f"config error: {exc}", 1)
    except ProtocolAbort as exc:
        return _fail(outdir, "protocol", str(exc), 2, **exc.fields)
    except NUMERICAL_FAILURES as exc:
        return _fail(outdir, "numerical", f"numerical failure: {type(exc).__name__}: {exc}", 3)
    except (FrameError, KeyShareError, FieldError) as exc:  # after the FieldErrors above
        return _fail(outdir, "protocol", f"protocol failure: {type(exc).__name__}: {exc}", 2)
    except MemoryError as exc:
        return _fail(outdir, "resource", f"resource failure: out of memory: {exc}", 4)
    except TrainingWorkerLost as exc:
        return _fail(outdir, "resource", f"resource failure: {exc}", 4)


def _fail(outdir: Path, failure_class: str, message: str, code: int, **fields) -> int:
    """Print the one-line message and record it, with ``fields``, in
    ``outdir/report.json``; the line on stderr is the report when the
    directory cannot be written."""
    print(message, file=sys.stderr)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {"failure_class": failure_class, "message": message, **fields}
        (outdir / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
