"""The benchmark's workloads: how each builds its inputs from a seed, what one
op is, and the correctness gate every op must pass.

Every workload is a closed loop in one process with one caller: an op starts
only after the previous one returned. All ops of a run use the run's seed,
so the gate can compare each op against a reference computed once.

The ``privateyes`` package is imported inside ``setup`` so that imports
count towards set-up time.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class TrainingWorkload:
    """One ``run_training(..., "privateyes")`` per op on a fixed population."""

    name: str
    clients: int
    kind: str
    d_in: int
    hidden: int
    rounds: int
    epochs: int
    batch_size: int
    samples_per_round: int
    servers: int = 3

    @property
    def updates_per_op(self) -> int:
        return self.clients * self.rounds

    def smoke(self):
        """A seconds-long variant with the same code paths, for tests."""
        return replace(self, clients=3, rounds=2, d_in=min(self.d_in, 4),
                       hidden=min(self.hidden, 4))

    def setup(self, seed: int, workdir: Path):
        from privateyes import aggregation, fedcore, field, protocol

        population = fedcore.gen_synthetic_population(
            self.clients, seed, samples_per_round=self.samples_per_round,
            rounds=self.rounds, d_in=self.d_in,
        )
        return {
            "seed": seed,
            "population": population,
            "train": fedcore.TrainConfig(epochs=self.epochs, lr=0.2,
                                         batch_size=self.batch_size, rounds=self.rounds),
            "spec": fedcore.ModelSpec(kind=self.kind, d_in=self.d_in, hidden=self.hidden),
            "codec": field.FixedPointCodec(),
            "protocol": protocol,
            "aggregation": aggregation,
        }

    def reference(self, ctx) -> str:
        """Hex of the plaintext single-server oracle's final model."""
        oracle = ctx["aggregation"].plaintext_adaptive_fl_oracle(
            ctx["population"], ctx["train"], ctx["spec"], ctx["codec"], ctx["seed"]
        )
        return oracle.om_history[-1].tobytes().hex()

    def op(self, ctx):
        # Looked up through the module at call time so a traced run sees the
        # wrapped callable.
        return ctx["protocol"].run_training(
            ctx["population"], ctx["train"], ctx["spec"], "privateyes",
            n_servers=self.servers, seed=ctx["seed"], codec=ctx["codec"],
        )

    def check(self, ctx, result, reference: str, first: dict) -> tuple:
        """Gate one op. Returns (failures, observed outputs)."""
        failures = []
        per_round = [dict(rec["bytes"]) for rec in result.transcript.round_records]
        if result.aborted:
            failures.append(f"run aborted: {result.abort_reason}")
        elif result.final_model is None or result.final_model.dtype.str != "<f8":
            failures.append("no float64 final model")
        elif result.final_model.tobytes().hex() != reference:
            failures.append("final model differs from the plaintext oracle")
        if len(per_round) != self.rounds:
            failures.append(f"{len(per_round)} rounds recorded, expected {self.rounds}")
        if first and per_round != first["per_round_bytes"]:
            failures.append("per-round edge byte counts differ from the first op")
        done = [r for r in result.round_metrics if not r["abort"]]
        outputs = {
            "per_round_bytes": per_round,
            "wire_bytes_per_round": sum(result.transcript.comm.totals.values()) / self.rounds,
            "test_mae_deg": done[-1]["test_mae_deg"] if done else float("nan"),
        }
        return failures, outputs

    def cleanup(self, result) -> None:
        pass


LEAKAGE_ORDER = ("datacentre", "adaptive_fl", "privateyes")
REPORT_FILES = ("accuracy.csv", "leakage.csv", "bench.csv")


@dataclass(frozen=True)
class ReportWorkload:
    """One ``cli.cmd_report`` per op: accuracy, leakage and communication tables."""

    name: str
    overrides: tuple = ()  # ExperimentConfig fields that differ from the CLI defaults

    @property
    def updates_per_op(self) -> int:
        # Client updates the report's tables rest on: one adaptive_fl and one
        # privateyes training, each J clients x rounds. Fixed by the report's
        # definition, so sharing redundant trainings reads as a speed-up.
        from privateyes.cli import ExperimentConfig

        cfg = ExperimentConfig(**dict(self.overrides))
        return 2 * cfg.clients * cfg.rounds

    def smoke(self):
        return replace(self, overrides=(("clients", 4), ("rounds", 3), ("steps", 40)))

    def setup(self, seed: int, workdir: Path):
        from privateyes import cli

        workdir.mkdir(parents=True, exist_ok=True)
        return {
            "cli": cli,
            "config": cli.ExperimentConfig(seed=seed, **dict(self.overrides)),
            "workdir": workdir,
        }

    def reference(self, ctx) -> str:
        # The reference is the first op's output; see ``check``.
        return ""

    def op(self, ctx):
        outdir = Path(tempfile.mkdtemp(prefix="report-", dir=ctx["workdir"]))
        status = ctx["cli"].cmd_report(ctx["config"], outdir)
        return status, outdir

    def check(self, ctx, result, reference: str, first: dict) -> tuple:
        status, outdir = result
        failures = []
        if status != 0:
            failures.append(f"cmd_report exited with status {status}")
        files = {}
        for name in REPORT_FILES:
            path = outdir / name
            files[name] = path.read_bytes() if path.is_file() else b""
            if not files[name]:
                failures.append(f"{name} missing or empty")
            elif first and files[name] != first["files"][name]:
                failures.append(f"{name} differs from the first op's")
        outputs = {"files": files, "wire_bytes_per_round": 0.0, "test_mae_deg": float("nan")}
        if failures:
            return failures, outputs
        kl = _csv_column(files["leakage.csv"], "kl")
        if not all(s in kl for s in LEAKAGE_ORDER):
            failures.append("leakage.csv lacks a scheme")
        elif not kl["datacentre"] < kl["adaptive_fl"] < kl["privateyes"]:
            failures.append(f"mean KL not ordered datacentre < adaptive_fl < privateyes: {kl}")
        accuracy = _csv_column(files["accuracy.csv"], "test_mae_deg")
        # The communication table's bytes for one secure round at n = 3.
        bench = _csv_column(files["bench.csv"], "secure_bytes")
        outputs["test_mae_deg"] = accuracy.get("privateyes", float("nan"))
        outputs["wire_bytes_per_round"] = bench.get("3", 0.0)
        return failures, outputs

    def cleanup(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


def _csv_column(data: bytes, column: str) -> dict:
    """First column -> float value of ``column`` for a small CSV table."""
    lines = data.decode().strip().splitlines()
    header = lines[0].split(",")
    at = header.index(column)
    return {row.split(",")[0]: float(row.split(",")[at]) for row in lines[1:]}


# Each workload is dominated by layers that another one barely touches; the
# full record of what each stresses and bypasses is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Few wide vectors (d = 2242): per-coordinate MPC work dominates.
        TrainingWorkload(name="secure-wide", clients=15, kind="mlp", d_in=32, hidden=64,
                         rounds=3, epochs=1, batch_size=256, samples_per_round=20),
        # Many tiny vectors (d = 18): local training and per-frame costs dominate.
        TrainingWorkload(name="secure-cohort", clients=600, kind="linear", d_in=8, hidden=16,
                         rounds=3, epochs=3, batch_size=32, samples_per_round=128),
        # The paper's tables at CLI defaults: the leakage probe dominates.
        ReportWorkload(name="leak-report"),
    )
}
