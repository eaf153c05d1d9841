"""The report's forked worker: ``attack`` and ``report`` write the same files
and fail the same way with and without it, and leave no process behind."""

import json
import os
import pickle
import signal

import pytest

from privateyes import aggregation, cli
from privateyes.aggregation import COHORT_BLOCK, TrainingWorkerLost
from privateyes.cli import NUMERICAL_FAILURES, ConfigError, ProtocolAbort, main
from privateyes.fedcore import TrainingDivergence
from privateyes.field import FieldError
from privateyes.leakprobe import LeakprobeError
from privateyes.sharing import KeyShareError
from privateyes.simnet import FrameError

SMALL = "[experiment]\nseed = 2\nclients = 4\nrounds = 3\n[attack]\nsteps = 40\n"


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _run(forks, capsys, tmp_path, command, text, cpus, forked):
    """``command`` through ``main`` on ``cpus`` CPUs: (status, stderr, files)."""
    config = tmp_path / "exp.ini"
    config.write_text(text)
    forks.cpus(cpus)
    before = len(forks)
    out = tmp_path / f"{command}-{cpus}"
    status = main([command, "--config", str(config), "--out", str(out)])
    assert len(forks) - before == forked
    _assert_no_child()
    return status, capsys.readouterr().err, _files(out)


def _with_and_without_worker(forks, capsys, tmp_path, command, text):
    forked = _run(forks, capsys, tmp_path, command, text, 2, 1)
    assert forked == _run(forks, capsys, tmp_path, command, text, 1, 0)
    return forked


@pytest.mark.parametrize("seed", [901, 902, 903])
@pytest.mark.parametrize("command", ["report", "attack"])
def test_tables_are_byte_identical_with_and_without_the_worker(forks, capsys, tmp_path,
                                                               command, seed):
    status, err, files = _with_and_without_worker(
        forks, capsys, tmp_path, command, f"[experiment]\nseed = {seed}\n")
    assert (status, err) == (0, "")
    tables = ["accuracy.csv", "bench.csv"] if command == "report" else []
    assert sorted(files) == sorted(["attack_report.json", "leakage.csv", *tables])


@pytest.mark.parametrize("command", ["report", "attack"])
def test_a_privateyes_abort_in_the_worker_exits_2_as_serial(forks, capsys, tmp_path, command):
    text = SMALL + "[adversary]\ncorrupted_servers = 1\nbehavior = tamper-share\n"
    status, err, files = _with_and_without_worker(forks, capsys, tmp_path, command, text)
    assert status == 2
    assert err.startswith("protocol abort: the privateyes run aborted in opening:")
    assert list(files) == ["report.json"]


def test_a_scoring_failure_exits_3_as_serial(forks, capsys, tmp_path):
    text = "[experiment]\nclients = 3\nrounds = 2\n[data]\nsigma_gaze = 0\n"
    status, err, files = _with_and_without_worker(forks, capsys, tmp_path, "report", text)
    assert status == 3
    assert err.startswith("numerical failure: LeakprobeError:")
    assert list(files) == ["accuracy.csv", "report.json"]


def _fail_at(monkeypatch, steps):
    """Make each step in ``steps`` ("train <scheme>", "score <view>" or
    "bench") raise an exception that names it, in whichever process runs it."""
    run_training, reconstruct = cli.run_training, cli.dualview_lite_reconstruct

    def training(*args, **kwargs):
        if f"train {args[3]}" in steps:
            raise TrainingDivergence(f"train {args[3]}")
        return run_training(*args, **kwargs)

    def scoring(leak, *args):
        if f"score {leak.scheme}" in steps:
            raise LeakprobeError(f"score {leak.scheme}")
        return reconstruct(leak, *args)

    def bench(*args):
        raise ProtocolAbort("the bench", "mac-failure", "opening")

    monkeypatch.setattr(cli, "run_training", training)
    monkeypatch.setattr(cli, "dualview_lite_reconstruct", scoring)
    if "bench" in steps:
        monkeypatch.setattr(cli, "cmd_bench", bench)


@pytest.mark.parametrize("steps,first,files", [
    # One failure on each side: this process's, then the worker's.
    (("train adaptive_fl", "train privateyes"), "train adaptive_fl", []),
    (("score datacentre", "train privateyes"), "train privateyes", []),
    (("score adaptive_fl", "score privateyes"), "score adaptive_fl", ["accuracy.csv"]),
    (("bench", "score mpc"), "score mpc", ["accuracy.csv"]),
    (("score privateyes",), "score privateyes", ["accuracy.csv"]),
    (("bench",), "bench", ["accuracy.csv", "attack_report.json", "leakage.csv"]),
])
def test_the_first_failure_in_serial_order_wins(monkeypatch, forks, capsys, tmp_path, steps,
                                                first, files):
    _fail_at(monkeypatch, steps)
    status, err, written = _with_and_without_worker(forks, capsys, tmp_path, "report", SMALL)
    assert status == (2 if first == "bench" else 3)
    assert first in err
    assert sorted(written) == sorted([*files, "report.json"])


def test_a_killed_worker_exits_4_as_a_resource_failure(monkeypatch, forks, capsys, tmp_path):
    def serve(fn, requests, replies):
        requests.recv()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(aggregation, "serve", serve)
    status, err, files = _run(forks, capsys, tmp_path, "report", SMALL, 2, 1)
    assert status == 4
    assert err == ("resource failure: the training worker was killed by signal 9 "
                   "before it replied\n")
    assert list(files) == ["report.json"]
    assert json.loads(files["report.json"])["failure_class"] == "resource"


def test_a_failed_fork_runs_the_report_serially(monkeypatch, forks, capsys, tmp_path):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    serial = _run(forks, capsys, tmp_path, "report", SMALL, 1, 0)
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert _run(forks, capsys, tmp_path, "report", SMALL, 2, 0) == serial
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_report_with_a_large_cohort_forks_one_process(monkeypatch, forks, tmp_path):
    """Neither the worker nor this process, while the worker lives, forks a
    cohort worker, though the cohort holds two blocks of clients."""
    log, fork = tmp_path / "forks", os.fork

    def logged():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    cfg = cli.ExperimentConfig(clients=2 * COHORT_BLOCK, rounds=1, samples_per_round=10,
                               steps=5, seed=7)
    assert cli.cmd_report(cfg, tmp_path / "r") == 0
    assert log.read_text() == f"{os.getpid()}\n"
    _assert_no_child()


@pytest.mark.parametrize("exc", [
    ConfigError("seed must be >= 0"),
    ProtocolAbort("the privateyes run", "mac-failure", "opening", scheme="privateyes"),
    *(cls("a message") for cls in NUMERICAL_FAILURES),
    FrameError("truncated frame"),
    KeyShareError("bad key share"),
    FieldError("not a field element"),
    TrainingWorkerLost("the training worker exited with status 1 before it replied"),
], ids=lambda exc: type(exc).__name__)
def test_every_failure_main_classifies_survives_a_pickle(exc):
    """A failure in the worker reaches ``main`` as a pickle."""
    copy = pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert vars(copy) == vars(exc)
