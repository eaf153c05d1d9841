"""The forked training worker: byte-identical runs, failures that keep their
class, and no process left behind."""

import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from privateyes import aggregation
from privateyes.aggregation import (
    COHORT_BLOCK,
    cohort_worker,
    plaintext_adaptive_fl_oracle,
    train_cohort_updates,
)
from privateyes.cli import main
from privateyes.fedcore import (
    ModelSpec,
    TrainConfig,
    TrainingDivergence,
    gen_synthetic_population,
    init_weights,
    select_cohort,
)
from privateyes.field import FixedPointCodec
from privateyes.protocol import run_training, server_wire_id
from privateyes.sharing import ABORT_MAC_FAILURE
from privateyes.simnet import AdversarySpec
from privateyes.util import derive_seed

J = 300  # two blocks of clients and more: the worker runs
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_and_without_worker(forks, run):
    """run() with the worker, then on the serial path (one CPU)."""
    results = []
    for cpus, forked in ((2, 1), (1, 0)):
        forks.cpus(cpus)
        before = len(forks)
        results.append(run())
        assert len(forks) - before == forked
        _assert_no_child()
    return results


def _assert_same_run(a, b, tmp_path):
    assert [om.tobytes() for om in a.transcript.om_history] == \
        [om.tobytes() for om in b.transcript.om_history]
    assert [r["bytes"] for r in a.transcript.round_records] == \
        [r["bytes"] for r in b.transcript.round_records]
    a.transcript.dump_ndjson(tmp_path / "a.ndjson")
    b.transcript.dump_ndjson(tmp_path / "b.ndjson")
    assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()


@pytest.mark.parametrize("scheme,fraction", [
    ("privateyes", 1.0), ("adaptive_fl", 1.0),
    ("privateyes", 0.855),  # 257 clients: the halves differ in size
])
def test_worker_runs_are_byte_identical_to_serial(forks, tmp_path, scheme, fraction):
    pop = gen_synthetic_population(J, seed=31, rounds=2)
    cfg = TrainConfig(rounds=2, epochs=2, batch_size=8, cohort_fraction=fraction)
    cohort = select_cohort(J, fraction, 1, 31)
    assert len(cohort) >= 2 * COHORT_BLOCK and (fraction == 1.0 or len(cohort) % 2)
    forked, serial = _with_and_without_worker(
        forks, lambda: run_training(pop, cfg, ModelSpec(), scheme, seed=31))
    assert not forked.aborted and len(forked.transcript.om_history) == 3
    _assert_same_run(forked, serial, tmp_path)


def test_secure_cohort_shape_matches_the_serial_oracle(forks, tmp_path):
    pop = gen_synthetic_population(600, seed=901, samples_per_round=128, rounds=1, d_in=8)
    cfg = TrainConfig(epochs=3, lr=0.2, batch_size=32, rounds=1)
    spec = ModelSpec(kind="linear", d_in=8)
    codec = FixedPointCodec()
    forked, serial = _with_and_without_worker(
        forks, lambda: run_training(pop, cfg, spec, "privateyes", seed=901, codec=codec))
    _assert_same_run(forked, serial, tmp_path)
    forks.cpus(2)
    oracle = plaintext_adaptive_fl_oracle(pop, cfg, spec, codec, 901)
    assert len(forks) == 1  # the oracle stays serial
    assert [om.tobytes() for om in oracle.om_history] == \
        [om.tobytes() for om in forked.transcript.om_history]


def test_serial_below_two_blocks_on_one_cpu_or_beside_threads(forks):
    pop = gen_synthetic_population(3, seed=1, rounds=1)
    with cohort_worker(pop, 2 * COHORT_BLOCK - 1) as worker:
        assert worker is None
    idle = threading.Event()
    thread = threading.Thread(target=idle.wait)
    thread.start()
    try:
        with cohort_worker(pop, 2 * COHORT_BLOCK) as worker:
            assert worker is None
    finally:
        idle.set()
        thread.join()
    forks.cpus(1)
    with cohort_worker(pop, 2 * COHORT_BLOCK) as worker:
        assert worker is None
    assert not forks


def test_serial_beside_a_blas_thread_pool():
    """Two processes' BLAS pools on two CPUs would run many times slower."""
    code = ("import os, numpy as np\n"
            "from privateyes.aggregation import forked_worker\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "np.ones((512, 512)) @ np.ones((512, 512))  # starts a lazy pool\n"
            "with forked_worker(print) as worker:\n"
            "    print(worker is not None)\n")
    src = str(Path(aggregation.__file__).parents[1])
    for threads, forked in (("2", "False"), ("1", "True")):
        env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(BLAS_THREADS, threads)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.stdout == f"{forked}\n", done.stderr


def test_a_failed_fork_trains_in_one_process(monkeypatch, forks):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    pop = gen_synthetic_population(J, seed=2, rounds=1)
    cfg = TrainConfig(rounds=1)
    forks.cpus(1)
    serial = run_training(pop, cfg, ModelSpec(), "privateyes", seed=2)
    forks.cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    res = run_training(pop, cfg, ModelSpec(), "privateyes", seed=2)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert res.final_model.tobytes() == serial.final_model.tobytes()


def test_the_first_halfs_failure_comes_first(monkeypatch, forks):
    """Both halves fail: the worker's, which holds the first half, is raised,
    as the serial path raises the first block's."""
    def local_train(w, X, G, cfg, spec, seeds):
        raise TrainingDivergence(f"pid {os.getpid()} seed {seeds[0]}")

    monkeypatch.setattr(aggregation, "local_train", local_train)
    pop = gen_synthetic_population(J, seed=4, rounds=1)
    cohort = list(range(J))
    args = (pop, TrainConfig(rounds=1), ModelSpec(), init_weights(ModelSpec(), 0), 1, cohort, 4)
    with pytest.raises(TrainingDivergence) as serial:
        train_cohort_updates(*args)
    with cohort_worker(pop, J) as worker:
        assert worker is not None
        with pytest.raises(TrainingDivergence) as forked:
            train_cohort_updates(*args, worker=worker)
    _assert_no_child()
    first = derive_seed(4, "train", 1, cohort[0])
    assert str(serial.value) == f"pid {os.getpid()} seed {first}"
    assert str(forked.value).endswith(f"seed {first}")
    assert str(forked.value) != str(serial.value)  # raised in the worker


def _config(tmp_path, text=""):
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\nclients = {J}\nrounds = 2\n" + text)
    return path


def _report(out):
    return json.loads((out / "report.json").read_text())


def test_diverged_training_in_the_worker_exits_3(forks, tmp_path, capsys):
    config = _config(tmp_path, "[train]\nlr = 1e100\nepochs = 5\n")
    errs = []
    for cpus in (2, 1):
        forks.cpus(cpus)
        with np.errstate(over="ignore", invalid="ignore"):
            out = tmp_path / f"o{cpus}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 3
            assert len(forks) == 1
        errs.append(capsys.readouterr().err)
        assert _report(out)["failure_class"] == "numerical"
    assert errs[0] == errs[1] == "numerical failure: TrainingDivergence: non-finite loss inf\n"


def test_out_of_memory_in_the_worker_exits_4(monkeypatch, forks, tmp_path, capsys):
    message = "Unable to allocate 1.16 TiB for an array with shape (100000000, 10, 20, 8)"
    parent, local_train = os.getpid(), aggregation.local_train

    def allocation(*args):
        if os.getpid() != parent:
            raise MemoryError(message)
        return local_train(*args)

    monkeypatch.setattr(aggregation, "local_train", allocation)
    out = tmp_path / "o"
    assert main(["run", "--config", str(_config(tmp_path)), "--out", str(out)]) == 4
    assert forks
    assert capsys.readouterr().err == f"resource failure: out of memory: {message}\n"
    assert _report(out)["failure_class"] == "resource"
    _assert_no_child()


@pytest.mark.parametrize("death,how", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
])
def test_a_worker_that_dies_without_replying_is_a_resource_failure(monkeypatch, forks,
                                                                   tmp_path, capsys, death, how):
    def serve(fn, requests, replies):
        aggregation._receive(requests)
        death()

    monkeypatch.setattr(aggregation, "serve", serve)
    out = tmp_path / "o"
    assert main(["run", "--config", str(_config(tmp_path)), "--out", str(out)]) == 4
    assert forks
    err = capsys.readouterr().err
    assert err == f"resource failure: the training worker {how} before it replied\n"
    assert _report(out) == {"failure_class": "resource", "message": err.rstrip("\n")}
    _assert_no_child()


def test_no_process_outlives_a_run_that_returns_raises_or_aborts(forks):
    pop = gen_synthetic_population(J, seed=5, rounds=2)
    cfg = TrainConfig(rounds=2)
    assert not run_training(pop, cfg, ModelSpec(), "privateyes", seed=5).aborted
    _assert_no_child()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergence):
        run_training(pop, replace(cfg, lr=1e100, epochs=5), ModelSpec(), "privateyes", seed=5)
    _assert_no_child()
    adv = AdversarySpec(corrupted_servers=frozenset({server_wire_id(2)}),
                        behavior="tamper-share", target_round=1)
    res = run_training(pop, cfg, ModelSpec(), "privateyes", seed=5, adversary=adv)
    assert res.aborted and res.abort_reason == ABORT_MAC_FAILURE
    _assert_no_child()
    assert len(forks) == 3


def test_a_parent_that_fails_its_half_closes_the_pipes_and_reaps(monkeypatch, forks):
    parent, local_train = os.getpid(), aggregation.local_train

    def fails_here(*args):
        if os.getpid() == parent:
            raise TrainingDivergence("the parent's half")
        return local_train(*args)

    monkeypatch.setattr(aggregation, "local_train", fails_here)
    pop = gen_synthetic_population(J, seed=6, rounds=1)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(TrainingDivergence, match="the parent's half"):
        run_training(pop, TrainConfig(rounds=1), ModelSpec(), "privateyes", seed=6)
    assert forks
    assert sorted(os.listdir("/proc/self/fd")) == fds
    _assert_no_child()
