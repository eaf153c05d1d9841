"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces module-level callables of each ``privateyes`` layer with
wrappers that record one span per call (name, start, end, parent span, op id)
and bump counters. Every callable is wrapped at the name its caller looks up,
e.g. ``protocol.vector_to_bytes`` rather than only ``field.vector_to_bytes``,
and ``uninstall`` puts every original back. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from collections import Counter, defaultdict

# ---------------------------------------------------------------------------
# Counter hooks: (tracer, args, kwargs, result) -> None
# ---------------------------------------------------------------------------


def _count_elements(counter, element_bytes=None, arg=0):
    def hook(tr, args, kwargs, result):
        n = len(args[arg])
        tr.count(counter, n // element_bytes if element_bytes else n)
    return hook


def _issue_masks(tr, args, kwargs, result):
    tr.count("sharing.masks_issued", len(result))


def _secure_round(tr, args, kwargs, result):
    tr.count("protocol.aborts", int(result.opened is None))


def _training(tr, args, kwargs, result):
    tr.count("protocol.rounds", len(result.transcript.round_records))
    tr.count("protocol.aborts", int(result.aborted))


def _cli_training(tr, args, kwargs, result):
    _training(tr, args, kwargs, result)
    tr.count("cli.trainings")
    tr.distinct("cli.trainings", (args[3], kwargs.get("seed")))


def _send(tr, args, kwargs, result):
    tr.count("simnet.frames")
    tr.networks[id(args[0])] = args[0]


def _recv(tr, args, kwargs, result):
    tr.count("simnet.recv_timeouts", int(result is None))


def _local_train(tr, args, kwargs, result):
    X, cfg = args[1], args[3]
    tr.count("fedcore.local_train_calls")
    tr.count("fedcore.local_steps", cfg.epochs * math.ceil(X.shape[0] / cfg.batch_size))


def _kde(tr, args, kwargs, result):
    tr.count("leakprobe.kde_calls")


def _solve(tr, args, kwargs, result):
    M, y, theta0, steps = args
    tr.count("leakprobe.unit_solves")
    tr.distinct("leakprobe.unit_solves", (M.tobytes(), y.tobytes(), theta0.tobytes(), steps))


ELEMENT_BYTES = 16

# (span name, module under privateyes, attribute path, counter hook)
WRAPS = (
    ("field.wire", "protocol", "vector_to_bytes", _count_elements("field.wire_elements")),
    ("field.wire", "protocol", "vector_from_bytes",
     _count_elements("field.wire_elements", ELEMENT_BYTES)),
    ("field.wire", "cli", "vector_to_bytes", _count_elements("field.wire_elements")),
    ("field.codec", "field", "FixedPointCodec.encode_vector",
     _count_elements("field.codec_elements", arg=1)),
    ("field.codec", "field", "FixedPointCodec.decode_vector",
     _count_elements("field.codec_elements", arg=1)),
    ("field.codec", "field", "FixedPointCodec.quantize", None),
    ("sharing.issue_masks", "sharing", "Dealer.issue_masks", _issue_masks),
    ("sharing.coeffs", "protocol", "batch_coefficients", None),
    ("sharing.commit", "protocol", "commit", None),
    ("sharing.commit", "protocol", "verify_commit", None),
    ("sharing.commit", "protocol", "public_coin", None),
    ("protocol.secure_round", "protocol", "run_secure_aggregation_round", _secure_round),
    ("protocol.open", "protocol", "_open_among_servers", None),
    ("protocol.run_training", "protocol", "run_training", _training),
    ("protocol.run_training", "cli", "run_training", _cli_training),
    ("simnet.send", "simnet", "Network.send", _send),
    ("simnet.recv", "simnet", "Network.recv", _recv),
    ("aggregation.train_cohort", "protocol", "train_cohort_updates", None),
    ("fedcore.local_train", "aggregation", "local_train", _local_train),
    ("fedcore.evaluate", "protocol", "evaluate_model", None),
    ("aggregation.update", "protocol", "update_global_model", None),
    ("aggregation.client_average", "protocol", "client_average", None),
    ("aggregation.aggregate_encoded", "protocol", "aggregate_encoded", None),
    ("fedcore.population", "fedcore", "gen_synthetic_population", None),
    ("fedcore.population", "cli", "gen_synthetic_population", None),
    ("leakprobe.reconstruct", "cli", "dualview_lite_reconstruct", None),
    ("leakprobe.kde", "leakprobe", "kde_kl_divergence", _kde),
    ("leakprobe.solve", "leakprobe", "_solve_gd", _solve),
    ("leakprobe.invert", "leakprobe", "invert_optimizer_history", None),
    ("cli.bench", "cli", "cmd_bench", None),
)

OP_SPAN = "bench.op"
SETUP_OP = -1  # op id of spans recorded during set-up


class Tracer:
    """In-memory span store plus per-op counters."""

    def __init__(self):
        self.names = []  # span name id -> name
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack = []
        self.op = SETUP_OP
        self.counters = defaultdict(Counter)  # op -> counter name -> value
        self._distinct = defaultdict(set)  # (op, counter name) -> keys
        self.networks = {}  # Network objects that sent a frame in the current op
        self.network_totals = {}  # op -> (bytes per edge, log entries)
        self._installed = []  # (owner, attribute, original)
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, hook=None):
        nid = self._nid(name)
        start, end, parent, op_id, name_id, stack = (
            self.start, self.end, self.parent, self.op_id, self.name_id, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def count(self, name, n=1):
        self.counters[self.op][name] += n

    def distinct(self, name, key):
        self._distinct[(self.op, name)].add(hash(key))

    def run_op(self, op, fn, *args):
        """Run one op under a root span; returns (result, wall seconds)."""
        self.op = op
        self.networks = {}
        traced = self.wrap(fn, OP_SPAN)
        t = time.perf_counter()
        result = traced(*args)
        wall = time.perf_counter() - t
        self._close_networks(op)
        return result, wall

    def _close_networks(self, op):
        edges = Counter()
        log_entries = 0
        for net in self.networks.values():
            edges.update(net.metrics.totals)
            log_entries += len(net.log)
        self.network_totals[op] = (dict(edges), log_entries)
        self.networks = {}

    # -- installing wrappers -------------------------------------------------

    def install(self, wraps=WRAPS):
        """Wrap every listed name that exists; names missing are listed."""
        for name, module, path, hook in wraps:
            owner = importlib.import_module(f"privateyes.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if not callable(original):
                self.missing.append(f"{module}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))
        return self

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def spans(self):
        return {
            "names": list(self.names),
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op_id": self.op_id,
        }

    def distinct_ratio(self, op, name):
        attempts = self.counters[op][name]
        return len(self._distinct[(op, name)]) / attempts if attempts else 0.0


def self_times(start, end, parent):
    """Self time of every span: its duration minus the union of the parts of
    its interval that its child spans cover."""
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, reach = 0, lo_p
        for c in sorted(kids, key=lambda i: start[i]):
            lo, hi = max(start[c], reach), min(end[c], hi_p)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


def descendants_of(name_id, parent, root_nid):
    """Flags spans lying strictly under a span of the given name id.
    Relies on parents being recorded before their children."""
    under = [False] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            under[i] = under[p] or name_id[p] == root_nid
    return under


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------

# metric -> span name; times are self time unless the metric says "incl".
SELF_TIMES = {
    "sharing.issue_masks_s": "sharing.issue_masks",
    "field.wire_s": "field.wire",
    "field.codec_s": "field.codec",
    "protocol.secure_round_s": "protocol.secure_round",
    "protocol.open_s": "protocol.open",
    "protocol.run_training_s": "protocol.run_training",
    "sharing.coeffs_s": "sharing.coeffs",
    "sharing.commit_s": "sharing.commit",
    "simnet.send_s": "simnet.send",
    "simnet.recv_s": "simnet.recv",
    "fedcore.local_train_s": "fedcore.local_train",
    "aggregation.train_cohort_s": "aggregation.train_cohort",
    "fedcore.evaluate_s": "fedcore.evaluate",
    "aggregation.update_s": "aggregation.update",
    "aggregation.client_average_s": "aggregation.client_average",
    "aggregation.aggregate_encoded_s": "aggregation.aggregate_encoded",
    "leakprobe.kde_s": "leakprobe.kde",
    "leakprobe.solve_s": "leakprobe.solve",
    "leakprobe.invert_s": "leakprobe.invert",
    "cli.bench_s": "cli.bench",
}
INCL_TIMES = {
    "protocol.secure_round_incl_s": "protocol.secure_round",
    "leakprobe.reconstruct_incl_s": "leakprobe.reconstruct",
}
COUNTS = (
    "sharing.masks_issued", "field.wire_elements", "field.codec_elements",
    "protocol.rounds", "protocol.aborts", "simnet.frames", "simnet.recv_timeouts",
    "fedcore.local_train_calls", "fedcore.local_steps", "leakprobe.kde_calls",
    "leakprobe.unit_solves", "cli.trainings",
)
EDGES = ("client_to_server", "server_to_client", "dealer", "server_to_server")

PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIMES},
    **{m: "s" for m in INCL_TIMES},
    **{m: "count" for m in COUNTS},
    **{f"simnet.bytes.{e}": "bytes" for e in EDGES},
    "simnet.log_entries": "count",
    "fedcore.population_s": "s",
    "leakprobe.distinct_solve_ratio": "ratio",
    "cli.distinct_training_ratio": "ratio",
    "fedcore.test_mae_deg": "deg",
    "share.issue_masks_of_secure_round": "ratio",
    "share.wire_of_secure_round": "ratio",
    "share.kde_of_op": "ratio",
    "share.solve_of_op": "ratio",
    "trace.overhead_s": "s",
    "trace.spans_per_op": "count",
}


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def layer_metrics(tracer: Tracer, ops, op_walls, overhead_s, test_mae_deg):
    """Per-layer metrics: each is the median over the traced ops of its per-op
    value, so counts that repeat exactly read exactly. Times are wall times."""
    names, nid = tracer.names, tracer.name_id
    self_ns = self_times(tracer.start, tracer.end, tracer.parent)
    secure = tracer._name_ids.get("protocol.secure_round", -2)
    under_secure = descendants_of(nid, tracer.parent, secure)
    self_by = defaultdict(float)  # (op, span name) -> self seconds
    incl_by = defaultdict(float)
    secure_self_by = defaultdict(float)  # (op, span name) -> self seconds under a secure round
    spans_by = Counter()
    for i, op in enumerate(tracer.op_id):
        name = names[nid[i]]
        self_by[(op, name)] += self_ns[i] / 1e9
        incl_by[(op, name)] += (tracer.end[i] - tracer.start[i]) / 1e9
        if under_secure[i]:
            secure_self_by[(op, name)] += self_ns[i] / 1e9
        spans_by[op] += 1

    per_op = []
    for op, wall in zip(ops, op_walls):
        row = {m: self_by[(op, s)] for m, s in SELF_TIMES.items()}
        row.update({m: incl_by[(op, s)] for m, s in INCL_TIMES.items()})
        row.update({m: tracer.counters[op][m] for m in COUNTS})
        edges, log_entries = tracer.network_totals.get(op, ({}, 0))
        row.update({f"simnet.bytes.{e}": edges.get(e, 0) for e in EDGES})
        row["simnet.log_entries"] = log_entries
        row["fedcore.population_s"] = self_by[(op, "fedcore.population")]
        row["leakprobe.distinct_solve_ratio"] = tracer.distinct_ratio(op, "leakprobe.unit_solves")
        row["cli.distinct_training_ratio"] = tracer.distinct_ratio(op, "cli.trainings")
        round_incl = row["protocol.secure_round_incl_s"]
        row["share.issue_masks_of_secure_round"] = (
            row["sharing.issue_masks_s"] / round_incl if round_incl else 0.0)
        row["share.wire_of_secure_round"] = (
            secure_self_by[(op, "field.wire")] / round_incl if round_incl else 0.0)
        row["share.kde_of_op"] = row["leakprobe.kde_s"] / wall
        row["share.solve_of_op"] = row["leakprobe.solve_s"] / wall
        row["trace.spans_per_op"] = spans_by[op] - 1  # not counting the op span
        per_op.append(row)

    metrics = {m: _median([row[m] for row in per_op]) for m in per_op[0]}
    # Population built during set-up (training workloads) plus per op (report).
    metrics["fedcore.population_s"] += self_by[(SETUP_OP, "fedcore.population")]
    metrics["fedcore.test_mae_deg"] = test_mae_deg
    metrics["trace.overhead_s"] = overhead_s
    return {m: {"value": metrics[m], "unit": PER_LAYER_UNITS[m]} for m in PER_LAYER_UNITS}
