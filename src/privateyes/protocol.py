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
    OptimizerState,
    aggregate_encoded,
    client_average,
    plaintext_datacentre_oracle,
    train_cohort_updates,
    update_global_model,
)
from .fedcore import (
    ModelSpec,
    Population,
    TrainConfig,
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
    commit,
    mac_check_passes,
    mac_sigma,
    public_coin,
    verify_commit,
)
from .simnet import AdversarySpec, CommMetrics, MsgType, Network, WireMessage
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


# ---------------------------------------------------------------------------
# The secure aggregation round (masked input -> local sum -> checked opening)
# ---------------------------------------------------------------------------


def _corrupted_servers(adversary: AdversarySpec, round_index: int):
    """Corrupted server indices (AdversarySpec stores wire ids)."""
    if adversary is None or not adversary.active_in(round_index):
        return frozenset()
    return frozenset(wid - 1 for wid in adversary.corrupted_servers)


def _recv_vectors(net: Network, msg_type: MsgType, edges: list, length: int):
    """Receive one frame per (receiver, sender) edge and stack the payloads
    into a (len(edges), length, 2) limb array; None if a frame is missing.
    The frames themselves are dropped on return."""
    msgs = [net.recv(receiver, msg_type, sender=sender) for receiver, sender in edges]
    if any(m is None for m in msgs):
        return None
    if any(len(m.payload) != length * ELEMENT_BYTES for m in msgs):
        raise FieldError(f"payload is not a vector of {length} field elements")
    return vector_from_bytes(b"".join(m.payload for m in msgs)).reshape(len(msgs), length, 2)


def run_secure_aggregation_round(
    net: Network,
    dealer,
    round_index: int,
    inputs: dict,
    seed: int,
    adversary: AdversarySpec = None,
):
    """One dealer-assisted aggregation of the clients' field vectors.

    ``inputs`` maps population client index -> encoded vector (a limb vector
    or a sequence of ints). Returns a namespace with the opened sum (or None
    plus an abort reason), the per-server aggregate value shares, and the
    per-client reconstructed sums from the share return, all limb vectors.
    """
    params = dealer.params
    n = dealer.n
    d = len(next(iter(inputs.values())))
    order = sorted(inputs)
    kappa_shares = from_ints(dealer.key.key_shares)

    # Dealer: one r-vector frame per client, one share frame per server.
    for j in order:
        cid = client_wire_id(n, j)
        masks = dealer.issue_masks(cid, d)
        net.send(
            WireMessage(MsgType.MASK_DELIVERY, round_index, DEALER_ID, cid,
                        vector_to_bytes(masks.r))
        )
        for i in range(n):
            net.send(
                WireMessage(MsgType.MASK_DELIVERY, round_index, DEALER_ID,
                            server_wire_id(i), vector_to_bytes(masks.server_shares[i]))
            )

    # Clients: publish epsilon = x - r to every server, the cohort at once.
    r = _recv_vectors(net, MsgType.MASK_DELIVERY,
                      [(client_wire_id(n, j), DEALER_ID) for j in order], d)
    if r is None:
        return _abort(net, round_index, n, order, ABORT_TIMEOUT, "mask delivery")
    eps = vec_sub(np.stack([as_limbs(inputs[j]) for j in order]), r, params)
    for j, eps_j in zip(order, eps):
        payload = vector_to_bytes(eps_j)
        for i in range(n):
            net.send(
                WireMessage(MsgType.INPUT_OFFSET, round_index, client_wire_id(n, j),
                            server_wire_id(i), payload)
            )

    # Servers: derive authenticated shares from the offsets, sum locally.
    # Every dealer frame precedes every offset in a server's inbox, so taking
    # all masks first keeps each receive at the head of the inbox.
    servers = [server_wire_id(i) for i in range(n)]
    masks = _recv_vectors(net, MsgType.MASK_DELIVERY,
                          [(sid, DEALER_ID) for sid in servers for _ in order], 2 * d)
    offsets = _recv_vectors(net, MsgType.INPUT_OFFSET,
                            [(sid, client_wire_id(n, j)) for sid in servers for j in order], d)
    if masks is None or offsets is None:
        return _abort(net, round_index, n, order, ABORT_TIMEOUT, "input phase")
    # Per server i: sum_j (r_j + kappa_i eps_j) = sum_j r_j + kappa_i sum_j eps_j,
    # with server 0 also absorbing sum_j eps_j into its value share.
    r_sums = vec_sum(masks.reshape(n, len(order), 2 * d, 2), params, axis=1)
    eps_sums = vec_sum(offsets.reshape(n, len(order), d, 2), params, axis=1)
    value_vecs = r_sums[:, :d].copy()
    value_vecs[0] = vec_add(value_vecs[0], eps_sums[0], params)
    mac_vecs = vec_add(r_sums[:, d:], vec_mul(kappa_shares[:, None], eps_sums, params), params)

    opened, reason = _open_among_servers(
        net, round_index, value_vecs, mac_vecs, dealer.key.key_shares, params, seed, adversary
    )
    if opened is None:
        return _abort(net, round_index, n, order, reason, "opening")

    # Share return: every server sends its aggregate share to every client.
    for i in range(n):
        payload = vector_to_bytes(value_vecs[i])
        for j in order:
            net.send(
                WireMessage(MsgType.SHARE_UPLOAD, round_index, server_wire_id(i),
                            client_wire_id(n, j), payload)
            )
    returned = _recv_vectors(net, MsgType.SHARE_UPLOAD,
                             [(client_wire_id(n, j), server_wire_id(i))
                              for j in order for i in range(n)], d)
    if returned is None:
        return _abort(net, round_index, n, order, ABORT_TIMEOUT, "share return")
    sums = vec_sum(returned.reshape(len(order), n, d, 2), params, axis=1)

    return SimpleNamespace(
        opened=opened,
        abort_reason=None,
        per_server_value_shares=list(value_vecs),
        client_sums=dict(zip(order, sums)),
    )


def _abort(net, round_index, n, client_order, reason, where):
    # Detecting party notifies everyone; the run is over.
    payload = reason.encode()
    sid = server_wire_id(0)
    for i in range(1, n):
        net.send(WireMessage(MsgType.ABORT, round_index, sid, server_wire_id(i), payload))
    for j in client_order:
        net.send(WireMessage(MsgType.ABORT, round_index, sid, client_wire_id(n, j), payload))
    return SimpleNamespace(
        opened=None, abort_reason=reason, per_server_value_shares=None, client_sums=None
    )


def _open_among_servers(net, k, value_vecs, mac_vecs, kappa_shares, params, seed, adversary):
    """Broadcast shares, derive the public coin, commit-then-reveal sigmas."""
    q = params.q
    n = len(value_vecs)
    d = len(value_vecs[0])
    rngs = [Random(derive_seed(seed, "open", k, i)) for i in range(n)]
    corrupted = _corrupted_servers(adversary, k)
    behavior = adversary.behavior if adversary else "passive-record"

    def broadcast(i, msg_type, payload):
        for jj in range(n):
            if jj != i:
                net.send(WireMessage(msg_type, k, server_wire_id(i), server_wire_id(jj), payload))

    # Public coin: commit-then-reveal of per-server nonces.
    nonces = [rngs[i].randbytes(16) for i in range(n)]
    for i in range(n):
        broadcast(i, MsgType.COMMIT, commit(nonces[i], _COIN_TAG))
    for i in range(n):
        broadcast(i, MsgType.REVEAL, nonces[i])
    for jj in range(n):
        for i in range(n):
            if i == jj:
                continue
            cm = net.recv(server_wire_id(jj), MsgType.COMMIT, sender=server_wire_id(i))
            rv = net.recv(server_wire_id(jj), MsgType.REVEAL, sender=server_wire_id(i))
            if cm is None or rv is None:
                return None, ABORT_TIMEOUT
            if not verify_commit(cm.payload, rv.payload, _COIN_TAG):
                return None, ABORT_EQUIVOCATION
    coin = public_coin(k, nonces)
    coeffs = from_ints(batch_coefficients(coin, d, params))

    # Open the aggregate value shares (tamper/withhold hooks live in simnet).
    for i in range(n):
        broadcast(i, MsgType.OPEN_SHARE, vector_to_bytes(value_vecs[i]))
    others = _recv_vectors(net, MsgType.OPEN_SHARE,
                           [(server_wire_id(jj), server_wire_id(i))
                            for jj in range(n) for i in range(n) if i != jj], d)
    if others is None:
        return None, ABORT_TIMEOUT
    # Per server: its own share plus the n - 1 it received is its view of
    # the opened vector.
    others = others.reshape(n, n - 1, d, 2)
    views = vec_sum(np.concatenate([value_vecs[:, None], others], axis=1), params, axis=1)

    # Sigma on the random linear combination of the opened coordinates.
    combs = to_ints(vec_sum(vec_mul(coeffs, np.concatenate([views, mac_vecs]), params),
                            params, axis=1))
    sigmas = []
    for i in range(n):
        sigma = mac_sigma(combs[n + i], kappa_shares[i], combs[i], params)
        if i in corrupted and behavior == "forge-sigma":
            sigma = (sigma + Random(derive_seed(seed, "forge", k, i)).randrange(1, q)) % q
        sigmas.append(sigma)

    sigma_nonces = [rngs[i].randbytes(16) for i in range(n)]
    payloads = [int(s).to_bytes(32, "little") for s in sigmas]
    for i in range(n):
        broadcast(i, MsgType.COMMIT, commit(payloads[i], sigma_nonces[i] + _SIGMA_TAG))
    for i in range(n):
        revealed = payloads[i]
        if i in corrupted and behavior == "equivocate-commit":
            revealed = int((sigmas[i] + 1) % q).to_bytes(32, "little")
        broadcast(i, MsgType.REVEAL, sigma_nonces[i] + revealed)

    for jj in range(n):
        seen = list(sigmas[jj : jj + 1])
        for i in range(n):
            if i == jj:
                continue
            cm = net.recv(server_wire_id(jj), MsgType.COMMIT, sender=server_wire_id(i))
            rv = net.recv(server_wire_id(jj), MsgType.REVEAL, sender=server_wire_id(i))
            if jj in corrupted:
                # Corrupted servers take their frames off the wire (so no later
                # round reads them) but honest servers do the checking.
                continue
            if cm is None or rv is None:
                return None, ABORT_TIMEOUT
            nonce, payload = rv.payload[:16], rv.payload[16:]
            if not verify_commit(cm.payload, payload, nonce + _SIGMA_TAG):
                return None, ABORT_EQUIVOCATION
            seen.append(int.from_bytes(payload, "little") % q)
        if jj not in corrupted and not mac_check_passes(seen, params):
            return None, ABORT_MAC_FAILURE

    # All honest servers accepted; honest views agree on the opened vector.
    honest = [i for i in range(n) if i not in corrupted]
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
    num_clients = max(inputs) + 1
    roles = _build_roles(n_servers, num_clients)
    net = Network(roles, params, adversary)
    if dealer is None:
        dealer = Dealer(n_servers, Random(derive_seed(seed, "dealer")), params)
    _distribute_key_shares(net, dealer)
    result = run_secure_aggregation_round(net, dealer, 1, inputs, seed, adversary)
    result.net = net
    return result


def _build_roles(n_servers, num_clients):
    roles = {DEALER_ID: "dealer"}
    for i in range(n_servers):
        roles[server_wire_id(i)] = "server"
    for j in range(num_clients):
        roles[client_wire_id(n_servers, j)] = "client"
    return roles


def _distribute_key_shares(net, dealer):
    for i in range(dealer.n):
        payload = vector_to_bytes([dealer.key.key_shares[i]])
        net.send(WireMessage(MsgType.MASK_DELIVERY, 0, DEALER_ID, server_wire_id(i), payload))
        # Each server consumes its key share immediately at setup.
        msg = net.recv(server_wire_id(i), MsgType.MASK_DELIVERY, sender=DEALER_ID)
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
    evaluate: bool = True,
) -> RunResult:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    codec = codec or FixedPointCodec()
    config = _config_snapshot(population, cfg, spec, scheme, n_servers, seed, codec,
                              optimizer, optimizer_mode)

    if scheme == SCHEME_DATACENTRE:
        return _run_datacentre(population, cfg, spec, seed, config, evaluate)

    n = n_servers if scheme == SCHEME_PRIVATEYES else 1
    roles = _build_roles(n, population.num_clients)
    net = Network(roles, codec.params, adversary)
    transcript = Transcript(scheme=scheme, config=config, comm=net.metrics)
    dealer = None
    if scheme == SCHEME_PRIVATEYES:
        dealer = Dealer(n, Random(derive_seed(seed, "dealer")), codec.params)
        _distribute_key_shares(net, dealer)

    state = optimizer or OptimizerState.zeros(spec.dim)
    om = codec.quantize(init_weights(spec, derive_seed(seed, "init")))
    transcript.om_history.append(om)
    round_metrics = []
    aborted, reason = False, None

    for k in range(1, cfg.rounds + 1):
        cohort = select_cohort(population.num_clients, cfg.cohort_fraction, k, seed)
        # Model delivery: the single server broadcasts every round; with
        # multiple servers the share return of round k-1 already carried it,
        # so only the initial model needs a broadcast.
        if scheme == SCHEME_ADAPTIVE_FL:
            _broadcast_model(net, n, k, cohort, codec, om)
        elif k == 1:
            _broadcast_model(net, n, k, range(population.num_clients), codec, om)

        updates = train_cohort_updates(population, cfg, spec, om, k, cohort, seed)
        stacked = codec.encode_vector(np.stack([updates[j] for j in cohort]))
        encoded = dict(zip(cohort, stacked))
        for j, iu in zip(cohort, codec.decode_vector(stacked)):
            transcript.ground_truth_iu[(j, k)] = iu

        if scheme == SCHEME_PRIVATEYES:
            result = run_secure_aggregation_round(net, dealer, k, encoded, seed, adversary)
            if result.opened is None:
                aborted, reason = True, result.abort_reason
            else:
                average = client_average(result.opened, len(cohort), codec)
        else:
            for j in cohort:
                cid = client_wire_id(n, j)
                net.send(
                    WireMessage(MsgType.SHARE_UPLOAD, k, cid, server_wire_id(0),
                                vector_to_bytes(encoded[j]))
                )
            received = []
            for j in cohort:
                msg = net.recv(server_wire_id(0), MsgType.SHARE_UPLOAD,
                               sender=client_wire_id(n, j))
                ints = vector_from_bytes(msg.payload)
                transcript.server_view_iu[(j, k)] = codec.decode_vector(ints)
                received.append(ints)
            total = aggregate_encoded(received, codec.params)
            average = client_average(total, len(cohort), codec)

        record = {"round": k, "cohort": list(cohort), "aborted": aborted,
                  "abort_reason": reason,
                  "bytes": dict(net.metrics.per_round[k])}
        transcript.round_records.append(record)
        if aborted:
            round_metrics.append({"round": k, "abort": 1})
            transcript.events.append({"event": "abort", "round": k, "reason": reason})
            break

        raw, state = update_global_model(om, average, state, optimizer_mode)
        om = codec.quantize(raw)
        transcript.om_history.append(om)
        if evaluate:
            mean_err, per_client = evaluate_model(spec, om, population)
            round_metrics.append(
                {"round": k, "abort": 0, "test_mae_deg": mean_err,
                 "fairness_deg": fairness_spread(per_client),
                 "bytes": dict(net.metrics.per_round[k])}
            )
        else:
            round_metrics.append({"round": k, "abort": 0,
                                  "bytes": dict(net.metrics.per_round[k])})

    transcript.adversary_view = net.adversary_view
    return RunResult(
        final_model=None if aborted else om,
        transcript=transcript,
        aborted=aborted,
        abort_reason=reason,
        round_metrics=round_metrics,
    )


def _broadcast_model(net, n, k, client_indices, codec, om):
    payload = vector_to_bytes(codec.encode_vector(om))
    for j in client_indices:
        net.send(
            WireMessage(MsgType.BROADCAST_MODEL, k, server_wire_id(0),
                        client_wire_id(n, j), payload)
        )


def _run_datacentre(population, cfg, spec, seed, config, evaluate):
    w = plaintext_datacentre_oracle(population, cfg, spec, seed)
    transcript = Transcript(scheme=SCHEME_DATACENTRE, config=config)
    transcript.om_history.append(w)
    metrics = []
    if evaluate:
        mean_err, per_client = evaluate_model(spec, w, population)
        metrics.append({"round": cfg.rounds, "abort": 0, "test_mae_deg": mean_err,
                        "fairness_deg": fairness_spread(per_client), "bytes": {}})
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
