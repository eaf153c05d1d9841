"""Round orchestration for the full multi-round training.

One deterministic engine drives all parties; every inter-party byte goes
through the simulated network so accounting, adversary injection, and
party views are faithful. Abort is terminal for the whole run: no output
model is ever produced for an aborted round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from random import Random
from types import SimpleNamespace

import numpy as np

from .aggregation import (
    OPTIMIZER_MODES,
    OptimizerState,
    aggregate_encoded,  # perfbench/spans.py wraps it here
    client_average,
    cohort_worker,
    plaintext_datacentre_oracle,
    train_cohort_updates,
    update_global_model,
)
from .fedcore import (
    ModelSpec,
    Population,
    TrainConfig,
    cohort_size,
    evaluate_model,
    fairness_spread,
    init_weights,
    select_cohort,
)
from .field import (
    ELEMENT_BYTES,
    FieldError,
    FieldParams,
    FixedPointCodec,
    as_limbs,
    from_ints,
    to_ints,
    vec_add,
    vec_mul,
    vec_sub,
    vec_sum,
    vector_from_bytes,
    vector_to_bytes,
)
from .sharing import (
    ABORT_EQUIVOCATION,
    ABORT_MAC_FAILURE,
    ABORT_TIMEOUT,
    Dealer,
    KeyShareError,
    batch_coefficients,
    check_openings,
    commit,
    public_coin,
    verify_commit,
)
from .simnet import (SIGMA_COMMITTED, SIGMA_REVEALED, AdversarySpec, CommMetrics, FrameError,
                     MsgType, Network, WireMessage)
from .util import derive_seed

DEALER_ID = 0

SCHEME_PRIVATEYES = "privateyes"
SCHEME_ADAPTIVE_FL = "adaptive_fl"
SCHEME_DATACENTRE = "datacentre"
SCHEMES = (SCHEME_PRIVATEYES, SCHEME_ADAPTIVE_FL, SCHEME_DATACENTRE)

_COIN_TAG = b"pe-nonce-commit"
_SIGMA_TAG = b"pe-sigma-commit"


def server_wire_id(i: int) -> int:
    return 1 + i


def client_wire_id(n_servers: int, j: int) -> int:
    return 1 + n_servers + j


def scheme_servers(scheme: str, n_servers: int) -> int:
    """Servers a run of ``scheme`` has: all ``n_servers`` in secure mode, one otherwise."""
    return n_servers if scheme == SCHEME_PRIVATEYES else 1


@dataclass
class Transcript:
    """Everything exchanged in a run plus the ground-truth section.

    Individual updates appear only in ``ground_truth_iu`` (never in any
    party's view) except in single-server mode, where the aggregating
    server's view is recorded in ``server_view_iu``.
    """

    scheme: str
    config: dict
    om_history: list = dc_field(default_factory=list)
    round_records: list = dc_field(default_factory=list)
    ground_truth_iu: dict = dc_field(default_factory=dict)
    server_view_iu: dict = dc_field(default_factory=dict)
    comm: CommMetrics = dc_field(default_factory=CommMetrics)
    adversary_view: list = dc_field(default_factory=list)
    events: list = dc_field(default_factory=list)

    def dump_ndjson(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "config", **self.config}, sort_keys=True) + "\n")
            for k, om in enumerate(self.om_history):
                fh.write(
                    json.dumps(
                        {"record": "output_model", "round": k, "weights": om.tolist()},
                        sort_keys=True,
                    )
                    + "\n"
                )
            for rec in self.round_records:
                fh.write(json.dumps({"record": "round", **rec}, sort_keys=True) + "\n")
            for (j, k), iu in sorted(self.ground_truth_iu.items()):
                fh.write(
                    json.dumps(
                        {
                            "record": "ground_truth_iu",
                            "client": j,
                            "round": k,
                            "weights": iu.tolist(),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            for ev in self.events:
                fh.write(json.dumps({"record": "event", **ev}, sort_keys=True) + "\n")


@dataclass
class RunResult:
    final_model: np.ndarray
    transcript: Transcript
    aborted: bool
    abort_reason: str
    round_metrics: list
    abort_phase: str = None


# ---------------------------------------------------------------------------
# The secure aggregation round (masked input -> local sum -> checked opening)
# ---------------------------------------------------------------------------


def _recv_vectors(net: Network, msg_type: MsgType, round_index: int, receivers, senders,
                  length: int):
    """Receive one frame per (receivers[f], senders[f]) edge as an (edges,
    length, 2) limb array; None if a frame is missing. Honest frames arrive
    as stacked rows; payloads that arrive as bytes (hooked, injected or
    out-of-order frames) must each hold ``length`` field elements."""
    got = net.recv_many(msg_type, round_index, receivers, senders)
    if isinstance(got, list):
        if set(map(len, got)) - {length * ELEMENT_BYTES}:
            raise FieldError(f"payload is not a vector of {length} field elements")
        got = vector_from_bytes(b"".join(got)).reshape(len(got), length, 2)
    return got


def _send_masks(net, dealer, round_index, clients, servers, d):
    """The dealer's frames: each client's r vector, then every server's
    shares of it, as rows of the two mask arrays."""
    masks = dealer.issue_masks(clients, d)
    J, n = len(clients), len(servers)
    # Server i's shares of client j's r: row j*n + i here, row J + j*n + i of
    # the pair (masks.r, shares).
    shares = masks.server_shares.reshape(J * n, 2 * d, 2)
    rows = np.column_stack([np.arange(J), J + np.arange(J * n).reshape(J, n)])
    receivers = np.column_stack([clients, np.tile(servers, (J, 1))])
    net.send_many(MsgType.MASK_DELIVERY, round_index, np.full(J * (n + 1), DEALER_ID),
                  receivers.ravel(), (masks.r, shares), rows.ravel())


def run_secure_aggregation_round(
    net: Network,
    dealer,
    round_index: int,
    cohort: list,
    inputs: np.ndarray,
    seed: int,
):
    """One dealer-assisted aggregation of the clients' field vectors.

    ``inputs`` (len(cohort), d, 2) holds population client cohort[i]'s
    encoded vector in row i. Returns a namespace with the opened sum (or None
    plus an abort reason), the per-server aggregate value shares, and the
    per-client reconstructed sums from the share return, all limb vectors.
    """
    params = dealer.params
    n = dealer.n
    J, d = inputs.shape[:2]
    clients = client_wire_id(n, np.asarray(cohort, dtype=np.intp))
    servers = [server_wire_id(i) for i in range(n)]
    kappa_shares = from_ints(dealer.key_shares)

    _send_masks(net, dealer, round_index, clients, servers, d)

    # Clients: publish epsilon = x - r to every server, the cohort at once.
    r = _recv_vectors(net, MsgType.MASK_DELIVERY, round_index, clients, np.full(J, DEALER_ID), d)
    if r is None:
        return _abort(net, round_index, n, clients, ABORT_TIMEOUT, "mask delivery")
    eps = vec_sub(inputs, r, params)
    net.send_many(MsgType.INPUT_OFFSET, round_index, np.repeat(clients, n), np.tile(servers, J),
                  eps, np.repeat(np.arange(J), n))

    # Servers: derive authenticated shares from the offsets, sum locally.
    # Both phases are taken client-major, in send order.
    to_servers = np.tile(servers, J)
    masks = _recv_vectors(net, MsgType.MASK_DELIVERY, round_index, to_servers,
                          np.full(n * J, DEALER_ID), 2 * d)
    offsets = _recv_vectors(net, MsgType.INPUT_OFFSET, round_index, to_servers,
                            np.repeat(clients, n), d)
    if masks is None or offsets is None:
        return _abort(net, round_index, n, clients, ABORT_TIMEOUT, "input phase")
    # Per server i: sum_j (r_j + kappa_i eps_j) = sum_j r_j + kappa_i sum_j eps_j,
    # with server 0 also absorbing sum_j eps_j into its value share.
    r_sums = vec_sum(masks.reshape(J, n, 2 * d, 2), params)
    eps_sums = vec_sum(offsets.reshape(J, n, d, 2), params)
    value_vecs = r_sums[:, :d].copy()
    value_vecs[0] = vec_add(value_vecs[0], eps_sums[0], params)
    mac_vecs = vec_add(r_sums[:, d:], vec_mul(kappa_shares[:, None], eps_sums, params), params)

    opened, reason = _open_among_servers(net, round_index, value_vecs, mac_vecs, kappa_shares,
                                         params, seed)
    if opened is None:
        return _abort(net, round_index, n, clients, reason, "opening")

    # Share return: every server sends its aggregate share to every client.
    net.send_many(MsgType.SHARE_UPLOAD, round_index, np.repeat(servers, J), np.tile(clients, n),
                  value_vecs, np.repeat(np.arange(n), J))
    returned = _recv_vectors(net, MsgType.SHARE_UPLOAD, round_index, np.tile(clients, n),
                             np.repeat(servers, J), d)
    if returned is None:
        return _abort(net, round_index, n, clients, ABORT_TIMEOUT, "share return")
    sums = vec_sum(returned.reshape(n, J, d, 2), params)

    return SimpleNamespace(
        opened=opened,
        abort_reason=None,
        abort_phase=None,
        per_server_value_shares=list(value_vecs),
        client_sums=dict(zip(cohort, sums)),
    )


def run_single_server_round(net: Network, round_index: int, cohort: list, inputs: np.ndarray,
                            model: np.ndarray):
    """The single-server round: the server broadcasts the encoded ``model``
    to the cohort, whose clients upload their encoded vectors ``inputs`` (as
    in ``run_secure_aggregation_round``) in the clear, and the server sums
    them. Returns a namespace as that round does, plus the uploads the
    server saw as ``received``."""
    _broadcast_model(net, 1, round_index, cohort, model)
    server = np.full(len(cohort), server_wire_id(0))
    clients = client_wire_id(1, np.asarray(cohort, dtype=np.intp))
    net.send_many(MsgType.SHARE_UPLOAD, round_index, clients, server, inputs, range(len(cohort)))
    received = _recv_vectors(net, MsgType.SHARE_UPLOAD, round_index, server, clients,
                             inputs.shape[1])
    return SimpleNamespace(opened=vec_sum(received, net.params), abort_reason=None,
                           abort_phase=None, received=received)


def _abort(net, round_index, n, clients, reason, phase):
    # Detecting party notifies everyone; the run is over.
    payload = reason.encode()
    sid = server_wire_id(0)
    receivers = [server_wire_id(i) for i in range(1, n)] + list(clients)
    net.send_many(MsgType.ABORT, round_index, [sid] * len(receivers), receivers,
                  [payload] * len(receivers))
    return SimpleNamespace(opened=None, abort_reason=reason, abort_phase=phase,
                           per_server_value_shares=None, client_sums=None)


def _open_among_servers(net, k, value_vecs, mac_vecs, kappa_shares, params, seed):
    """Broadcast shares, derive the public coin, commit-then-reveal sigmas."""
    q = params.q
    n = len(value_vecs)
    d = len(value_vecs[0])
    rngs = [Random(derive_seed(seed, "open", k, i)) for i in range(n)]
    servers = [server_wire_id(i) for i in range(n)]
    corrupted = net.corrupted_servers(k)
    # Every ordered pair of distinct servers, grouped by the first: frame f of
    # a broadcast goes from owners[f] = servers[own[f]] to peers[f], which take
    # them in send order; owners[g] takes from peers[g] the frame back[g].
    own = [i for i in range(n) for _ in range(n - 1)]
    owners = np.array([servers[i] for i in own], dtype=np.intp)
    peers = np.array([peer for sid in servers for peer in servers if peer != sid], dtype=np.intp)
    back = [p * (n - 1) + i - (i > p) for i in range(n) for p in range(n) if p != i]
    # Honest servers take and check their frames; corrupted ones take theirs.
    checked = np.array([peer not in corrupted for peer in peers.tolist()], dtype=bool)

    def exchange(tag, blinds, committed, revealed):
        """Server i commits to committed[i] under blinds[i] + tag, then reveals
        blinds[i] + revealed[i] to every other server. Every server takes its frames
        off the wire, so no later round reads them, and the honest ones check theirs.
        Returns the payloads revealed per frame (None at a corrupted owner) and None,
        or None and an abort reason."""
        digests = [commit(payload, blind + tag) for blind, payload in zip(blinds, committed)]
        net.send_many(MsgType.COMMIT, k, owners, peers, [digests[i] for i in own])
        net.send_many(MsgType.REVEAL, k, owners, peers, [blinds[i] + revealed[i] for i in own])
        for t in (MsgType.COMMIT, MsgType.REVEAL) if corrupted else ():
            net.recv_many(t, k, peers[~checked], owners[~checked])
        cms, rvs = (net.recv_many(t, k, peers[checked], owners[checked])
                    for t in (MsgType.COMMIT, MsgType.REVEAL))
        if cms is None or rvs is None:
            return None, ABORT_TIMEOUT
        opened = [None] * len(own)
        for f, cm, rv in zip(np.flatnonzero(checked).tolist(), cms, rvs):
            blind, payload = rv[:len(blinds[0])], rv[len(blinds[0]):]
            if not verify_commit(cm, payload, blind + tag):
                return None, ABORT_EQUIVOCATION
            opened[f] = payload
        return [opened[f] for f in back], None

    # Public coin: commit-then-reveal of per-server nonces.
    nonces = [rngs[i].randbytes(16) for i in range(n)]
    _, reason = exchange(_COIN_TAG, [b""] * n, nonces, nonces)
    if reason:
        return None, reason
    coin = public_coin(k, nonces)
    coeffs = batch_coefficients(coin, d, params)

    # Open the aggregate value shares.
    net.send_many(MsgType.OPEN_SHARE, k, owners, peers, value_vecs, own)
    others = _recv_vectors(net, MsgType.OPEN_SHARE, k, peers, owners, d)
    if others is None:
        return None, ABORT_TIMEOUT
    # Per server: its own share plus the n - 1 it received open its view of
    # the vector, and its sigma is checked against that view.
    others = others[back].reshape(n, n - 1, d, 2)
    views, sigmas = check_openings(np.concatenate([value_vecs[:, None], others], axis=1),
                                   mac_vecs, kappa_shares, coeffs, params)
    sigmas = to_ints(sigmas[np.arange(n), np.arange(n)])

    sigma_nonces = [rngs[i].randbytes(16) for i in range(n)]
    payloads = [net.value(SIGMA_COMMITTED, k, sid, int(s).to_bytes(32, "little"))
                for sid, s in zip(servers, sigmas)]
    revealed, reason = exchange(_SIGMA_TAG, sigma_nonces, payloads,
                                [net.value(SIGMA_REVEALED, k, sid, payloads[i])
                                 for i, sid in enumerate(servers)])
    if reason:
        return None, reason
    # Each honest server's own sigma and the n - 1 revealed to it sum to 0.
    honest = [i for i in range(n) if servers[i] not in corrupted]
    for i in honest:
        seen = revealed[i * (n - 1) : (i + 1) * (n - 1)]
        if (sigmas[i] + sum(int.from_bytes(s, "little") for s in seen)) % q:
            return None, ABORT_MAC_FAILURE

    # All honest servers accepted; honest views agree on the opened vector.
    return views[honest[0]], None


def run_secure_aggregation(
    inputs: dict,
    n_servers: int,
    params: FieldParams,
    seed: int = 0,
    adversary: AdversarySpec = None,
    dealer=None,
):
    """Standalone one-shot aggregation (no training), e.g. for golden vectors."""
    net, dealer = start_run(SCHEME_PRIVATEYES, n_servers, max(inputs) + 1, params, seed,
                            adversary, dealer)
    order = sorted(inputs)
    stacked = np.stack([as_limbs(inputs[j]) for j in order])
    result = run_secure_aggregation_round(net, dealer, 1, order, stacked, seed)
    result.net = net
    return result


def start_run(scheme: str, n_servers: int, num_clients: int, params: FieldParams, seed: int,
              adversary: AdversarySpec = None, dealer=None):
    """A run's Network over the dealer, the scheme's servers and
    ``num_clients`` clients, and its dealer: for privateyes ``dealer`` or
    one seeded from ``seed``, whose MAC key shares the servers have taken;
    None for a single server."""
    n = scheme_servers(scheme, n_servers)
    roles = {DEALER_ID: "dealer", **{server_wire_id(i): "server" for i in range(n)},
             **{client_wire_id(n, j): "client" for j in range(num_clients)}}
    net = Network(roles, params, adversary)
    if scheme != SCHEME_PRIVATEYES:
        return net, None
    if dealer is None:
        dealer = Dealer(n, Random(derive_seed(seed, "dealer")), params)
    _distribute_key_shares(net, dealer)
    return net, dealer


def _distribute_key_shares(net, dealer):
    for i in range(dealer.n):
        payload = vector_to_bytes([dealer.key_shares[i]])
        net.send(WireMessage(MsgType.MASK_DELIVERY, 0, DEALER_ID, server_wire_id(i), payload))
        # Each server consumes its key share immediately at setup.
        msg = net.recv(server_wire_id(i), MsgType.MASK_DELIVERY, DEALER_ID, 0)
        if msg is None or msg.payload != payload:
            raise KeyShareError(f"server {i} did not receive its MAC key share intact")


# ---------------------------------------------------------------------------
# Multi-round training
# ---------------------------------------------------------------------------


def run_training(
    population: Population,
    cfg: TrainConfig,
    spec: ModelSpec,
    scheme: str,
    *,
    n_servers: int = 3,
    seed: int = 0,
    codec: FixedPointCodec = None,
    adversary: AdversarySpec = None,
    optimizer: OptimizerState = None,
    optimizer_mode: str = "adaptive",
) -> RunResult:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if optimizer_mode not in OPTIMIZER_MODES:
        raise ValueError(f"unknown optimizer mode {optimizer_mode!r}")
    codec = codec or FixedPointCodec()
    codec.check_headroom(population.num_clients)
    config = _config_snapshot(population, cfg, spec, scheme, n_servers, seed, codec,
                              optimizer, optimizer_mode)

    if scheme == SCHEME_DATACENTRE:
        return _run_datacentre(population, cfg, spec, seed, config)

    net, dealer = start_run(scheme, n_servers, population.num_clients, codec.params, seed,
                            adversary)
    transcript = Transcript(scheme=scheme, config=config, comm=net.metrics)

    state = optimizer or OptimizerState.zeros(spec.dim)
    om = codec.quantize(init_weights(spec, derive_seed(seed, "init")))
    transcript.om_history.append(om)
    round_metrics = []
    aborted, reason, phase = False, None, None

    with cohort_worker(population, cohort_size(population.num_clients,
                                               cfg.cohort_fraction)) as worker:
        for k in range(1, cfg.rounds + 1):
            cohort = select_cohort(population.num_clients, cfg.cohort_fraction, k, seed)
            # Model delivery: the single-server round broadcasts it; with multiple
            # servers the share return of round k-1 already carried it, so only
            # the initial model needs a broadcast.
            if scheme == SCHEME_PRIVATEYES and k == 1:
                _broadcast_model(net, n_servers, k, range(population.num_clients),
                                 codec.encode_vector(om))

            updates = train_cohort_updates(population, cfg, spec, om, k, cohort, seed,
                                           worker=worker)
            if worker and k == cfg.rounds:
                worker.stop()  # its exit overlaps the last secure round
            stacked = codec.encode_vector(updates)
            for j, iu in zip(cohort, codec.quantize(updates)):
                transcript.ground_truth_iu[(j, k)] = iu

            if scheme == SCHEME_PRIVATEYES:
                result = run_secure_aggregation_round(net, dealer, k, cohort, stacked, seed)
            else:
                result = run_single_server_round(net, k, cohort, stacked,
                                                 codec.encode_vector(om))
                for j, iu in zip(cohort, codec.decode_vector(result.received)):
                    transcript.server_view_iu[(j, k)] = iu
            aborted, reason, phase = (result.opened is None, result.abort_reason,
                                      result.abort_phase)

            record = {"round": k, "cohort": list(cohort), "aborted": aborted,
                      "abort_reason": reason,
                      "bytes": dict(net.metrics.per_round[k])}
            transcript.round_records.append(record)
            if aborted:
                round_metrics.append({"round": k, "abort": 1})
                transcript.events.append({"event": "abort", "round": k, "reason": reason,
                                          "phase": phase})
                break

            average = client_average(result.opened, len(cohort), codec)
            raw, state = update_global_model(om, average, state, optimizer_mode)
            om = codec.quantize(raw)
            transcript.om_history.append(om)
            mean_err, per_client = evaluate_model(spec, om, population)
            round_metrics.append(
                {"round": k, "abort": 0, "test_mae_deg": mean_err,
                 "fairness_deg": fairness_spread(per_client),
                 "bytes": dict(net.metrics.per_round[k])}
            )

    transcript.adversary_view = net.adversary_view
    return RunResult(
        final_model=None if aborted else om,
        transcript=transcript,
        aborted=aborted,
        abort_reason=reason,
        round_metrics=round_metrics,
        abort_phase=phase,
    )


def _broadcast_model(net, n, k, client_indices, model):
    """Server 0 sends the encoded model to the clients, which take it off the
    wire and check it arrived intact."""
    payload = vector_to_bytes(model)
    sid = server_wire_id(0)
    clients = [client_wire_id(n, j) for j in client_indices]
    net.send_many(MsgType.BROADCAST_MODEL, k, [sid] * len(clients), clients,
                  [payload] * len(clients))
    received = net.recv_many(MsgType.BROADCAST_MODEL, k, clients, [sid] * len(clients))
    if received is None or any(got != payload for got in received):
        raise FrameError(f"a client did not receive the round {k} model intact")


def _run_datacentre(population, cfg, spec, seed, config):
    w = plaintext_datacentre_oracle(population, cfg, spec, seed)
    transcript = Transcript(scheme=SCHEME_DATACENTRE, config=config)
    transcript.om_history.append(w)
    mean_err, per_client = evaluate_model(spec, w, population)
    metrics = [{"round": cfg.rounds, "abort": 0, "test_mae_deg": mean_err,
                "fairness_deg": fairness_spread(per_client), "bytes": {}}]
    return RunResult(w, transcript, False, None, metrics)


def _config_snapshot(population, cfg, spec, scheme, n_servers, seed, codec,
                     optimizer, optimizer_mode):
    opt = optimizer or OptimizerState.zeros(spec.dim)
    return {
        "scheme": scheme,
        "seed": seed,
        "rounds": cfg.rounds,
        "num_clients": population.num_clients,
        "cohort_fraction": cfg.cohort_fraction,
        "n_servers": n_servers,
        "model_kind": spec.kind,
        "d_in": spec.d_in,
        "hidden": spec.hidden,
        "f_bits": codec.params.f_bits,
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "batch_size": cfg.batch_size,
        "eta": opt.eta,
        "beta1": opt.beta1,
        "beta2": opt.beta2,
        "tau": opt.tau,
        "optimizer_mode": optimizer_mode,
        "heterogeneity": population.heterogeneity,
        "samples_per_round": population.samples_per_round,
        "sigma_gaze": population.sigma_gaze,
        "sigma_noise": population.sigma_noise,
    }
