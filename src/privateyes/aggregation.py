"""Secure summation of shared updates, client-side averaging, and the
adaptive server optimizer, plus the plaintext baseline pipelines.

The optimizer runs on the publicly revealed per-round aggregate: the
aggregate is revealed to every client each round anyway, so post-processing
it in the clear leaks nothing extra and keeps the shared computation purely
linear. The plaintext single-server pipeline quantizes updates through the
same codec so its output is bit-identical to the secure path.
"""

from __future__ import annotations

import os
import pickle
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .field import FieldParams, FixedPointCodec, as_limbs, to_ints
from .fedcore import (
    GAZE_DIM,
    ModelSpec,
    Population,
    TrainConfig,
    init_weights,
    local_train,
    select_cohort,
)
from .util import derive_seed, derive_seeds

COHORT_BLOCK = 128  # clients trained per stacked local_train call
_TASKS = "/proc/self/task"  # one entry per thread of this process
OPTIMIZER_MODES = ("adaptive", "fedavg")


@dataclass(frozen=True)
class OptimizerState:
    """First/second moment state of the server-side adaptive update."""

    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3
    eta: float = 0.1
    round_index: int = 0

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta parameters must lie in [0, 1)")
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        if np.any(self.v < 0):
            raise ValueError("second moment must be non-negative")

    @classmethod
    def zeros(cls, dim: int, **kwargs) -> "OptimizerState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), **kwargs)


def adaptive_step(w_prev: np.ndarray, delta: np.ndarray, state: OptimizerState):
    """Moment-based server update: m,v track delta; w moves by eta*m/(sqrt(v)+tau)."""
    if not (np.all(np.isfinite(w_prev)) and np.all(np.isfinite(delta))):
        raise ValueError("non-finite optimizer input")
    m = state.beta1 * state.m + (1.0 - state.beta1) * delta
    v = state.beta2 * state.v + (1.0 - state.beta2) * delta**2
    w = w_prev + state.eta * m / (np.sqrt(v) + state.tau)
    return w, replace(state, m=m, v=v, round_index=state.round_index + 1)


def update_global_model(om_prev, average, state: OptimizerState, mode: str):
    """One server-side round update in one of the OPTIMIZER_MODES."""
    if mode not in OPTIMIZER_MODES:
        raise ValueError(f"unknown optimizer mode {mode!r}")
    if mode == "adaptive":
        return adaptive_step(om_prev, average - om_prev, state)
    w = om_prev + state.eta * (average - om_prev)
    return w, replace(state, round_index=state.round_index + 1)


def client_average(opened, cohort_size: int, codec: FixedPointCodec) -> np.ndarray:
    """Decode the opened sum (a limb vector or ints) and divide by the
    cohort size in the reals."""
    if cohort_size < 1:
        raise ValueError("cohort size must be positive")
    return codec.decode_vector(opened) / cohort_size


# ---------------------------------------------------------------------------
# Plaintext baselines / parity oracles
# ---------------------------------------------------------------------------


@dataclass
class OracleRun:
    om_history: list  # om_0 .. om_t (quantized)
    individual_updates: dict  # (client_id, round) -> quantized update vector


def train_cohort_updates(
    population: Population,
    cfg: TrainConfig,
    spec: ModelSpec,
    om_prev: np.ndarray,
    round_index: int,
    cohort: list,
    seed: int,
    worker: "ForkedWorker" = None,
) -> np.ndarray:
    """Local training for one round's cohort with per-(round, client) seeds.

    Returns the (len(cohort), dim) updates in cohort order. Clients train
    stacked, COHORT_BLOCK at a time: one block's data and temporaries stay
    small and in cache, where the whole cohort at once would not. With a
    ``worker`` (a ``cohort_worker``) it trains the first half of the cohort
    while this process trains the second; every row is the same either way,
    as ``local_train`` gives each client the same row in any block.
    """
    if worker is not None:
        half = len(cohort) // 2
        worker.submit(cfg, spec, om_prev, round_index, cohort[:half], seed)
        try:
            rest = train_cohort_updates(population, cfg, spec, om_prev, round_index,
                                        cohort[half:], seed)
        except Exception:
            worker.result()  # the first half's failure comes first, as in one process
            raise
        return np.concatenate([worker.result(), rest])
    k = round_index - 1
    updates = np.empty((len(cohort), spec.dim))
    for lo in range(0, len(cohort), COHORT_BLOCK):
        block = cohort[lo : lo + COHORT_BLOCK]
        updates[lo : lo + len(block)] = local_train(
            om_prev, population.features[block, k], population.gaze[block, k], cfg, spec,
            derive_seeds((seed, "train", round_index), block),
        )
    return updates


# ---------------------------------------------------------------------------
# The forked worker
# ---------------------------------------------------------------------------


class TrainingWorkerLost(RuntimeError):
    """A forked worker ended without replying (e.g. killed for memory)."""


class ForkedWorker:
    """A forked process that answers each request with ``fn(*request)``.

    ``fn`` is bound before the fork, so the worker inherits what it reads
    (the population, say) and only requests and replies are pickled: the
    result, or the exception raised, as length-prefixed pickles on two
    pipes. The worker exits when its request pipe closes. ``live`` is true
    in a worker and in a process with one alive, which then forks no other.
    """

    live = False

    def __init__(self, fn):
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        ForkedWorker.live = True
        try:
            self.pid = os.fork()
        except OSError:
            ForkedWorker.live = False
            for fd in (requests, self._requests, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._requests)
                os.close(self._replies)
                serve(fn, requests, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)

    def submit(self, *request) -> None:
        try:
            _send(self._requests, request)
        except BrokenPipeError:
            self._lost()

    def result(self):
        reply = _receive(self._replies)
        if reply is None:
            self._lost()
        value, error = reply
        if error is not None:
            raise error
        return value

    def stop(self) -> None:
        """Close the request pipe: the worker exits after its last reply."""
        if self._requests is not None:
            os.close(self._requests)
            self._requests = None

    def close(self) -> None:
        """Stop and reap the worker; ``status`` is then its wait status."""
        self.stop()
        if self._replies is not None:
            os.close(self._replies)
            self._replies = None
        if self.pid:
            self.status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            ForkedWorker.live = False

    def _lost(self):
        self.close()
        code = os.waitstatus_to_exitcode(self.status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise TrainingWorkerLost(f"the training worker {how} before it replied")


def serve(fn, requests: int, replies: int) -> None:
    """The worker's loop: answer each request until end of file."""
    while (request := _receive(requests)) is not None:
        try:
            reply = (fn(*request), None)
        except Exception as exc:  # re-raised in the parent, with its class
            reply = (None, exc)
        _send(replies, reply)


def _send(fd: int, message) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(struct.pack("<Q", len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int):
    """The next message on ``fd``, or None at end of file."""
    head = bytearray(8)
    if not _read_into(fd, head):
        return None
    body = bytearray(struct.unpack("<Q", head)[0])
    return pickle.loads(body) if _read_into(fd, body) else None


def _read_into(fd: int, buf: bytearray) -> bool:
    """Fill ``buf`` from ``fd``; False if the file ends first."""
    view, got = memoryview(buf), 0
    while got < len(buf) and (n := os.readv(fd, [view[got:]])):
        got += n
    return got == len(buf)


@contextmanager
def forked_worker(fn, wanted: bool = True):
    """A ForkedWorker answering with ``fn``, reaped on exit; None when not
    ``wanted``, without fork, on one CPU, in or beside a live worker, beside
    another thread, a BLAS pool's too (the child could inherit a lock it
    holds, and two processes' pools on two CPUs run many times slower), or
    where the fork fails (no process or memory to spare): the caller then
    does all the work in this process."""
    worker = None
    if (wanted and not ForkedWorker.live and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and os.path.isdir(_TASKS) and len(os.listdir(_TASKS)) == 1):
        try:
            worker = ForkedWorker(fn)
        except OSError:
            pass
    try:
        yield worker
    finally:
        if worker is not None:
            worker.close()


def cohort_worker(population: Population, cohort_clients: int):
    """A forked_worker training cohorts of ``population``, wanted from two
    blocks of clients on: below that a second process cannot gain."""
    return forked_worker(partial(train_cohort_updates, population),
                         cohort_clients >= 2 * COHORT_BLOCK)


def aggregate_encoded(encoded_updates: list, params: FieldParams) -> list:
    """Field sum of encoded update vectors (the plaintext twin of sharing),
    in Python ints so it stays independent of the limb kernels."""
    vectors = [to_ints(as_limbs(vec)) for vec in encoded_updates]
    dim = len(vectors[0])
    return [sum(vec[i] for vec in vectors) % params.q for i in range(dim)]


def plaintext_adaptive_fl_oracle(
    population: Population,
    cfg: TrainConfig,
    spec: ModelSpec,
    codec: FixedPointCodec,
    seed: int,
) -> OracleRun:
    """Single-server adaptive pipeline, numerically identical to the secure path."""
    state = OptimizerState.zeros(spec.dim)
    om = codec.quantize(init_weights(spec, derive_seed(seed, "init")))
    history = [om]
    ius = {}
    for k in range(1, cfg.rounds + 1):
        cohort = select_cohort(population.num_clients, cfg.cohort_fraction, k, seed)
        updates = train_cohort_updates(population, cfg, spec, om, k, cohort, seed)
        encoded = codec.encode_vector(updates)
        for j, iu in zip(cohort, codec.decode_vector(encoded)):
            ius[(j, k)] = iu
        total = aggregate_encoded(encoded, codec.params)
        average = client_average(total, len(cohort), codec)
        raw, state = update_global_model(om, average, state, "adaptive")
        om = codec.quantize(raw)
        history.append(om)
    return OracleRun(om_history=history, individual_updates=ius)


def plaintext_datacentre_oracle(
    population: Population,
    cfg: TrainConfig,
    spec: ModelSpec,
    seed: int,
) -> np.ndarray:
    """Pooled-data training run; the accuracy upper-line baseline."""
    X = population.features.reshape(1, -1, population.d_in)
    G = population.gaze.reshape(1, -1, GAZE_DIM)
    pooled_cfg = replace(cfg, epochs=cfg.epochs * cfg.rounds)
    w0 = init_weights(spec, derive_seed(seed, "init"))
    return local_train(w0, X, G, pooled_cfg, spec, [derive_seed(seed, "datacentre")])[0]
