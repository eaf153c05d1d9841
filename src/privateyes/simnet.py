"""Deterministic simulated transport: bit-exact wire format, adversary
injection, and per-edge-class communication accounting.

All frames pass through a single Network instance, a phase's frames of one
type in one ``send_many`` call; delivery order is the send order, so
identical seeds give identical transcripts and byte counts. A frame's
metered size is its encoded length, ``FRAME_OVERHEAD + len(payload)``.

A ``send_many`` call is kept as one batch record; an honest vector frame
is a reference to one row of a stacked (frames, length, 2) limb array, and
a phase's ``recv_many`` takes a whole record, gathering its rows in one
step. A frame exists as a WireMessage with payload bytes only where bytes
are needed: in a hooked batch, whose frames ``_mutate`` sees one by one;
in the adversary view of a watched endpoint; in ``pending()``; and for the
small byte frames (coin, sigma, key share, abort, model broadcast).
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .field import ELEMENT_BYTES, FieldParams

MAGIC = b"PE"
VERSION = 1

# magic(2) version(1) type(1) round(4) sender(4) receiver(4) -> 16 bytes,
# followed by an 8-byte little-endian payload length.
_HEADER = struct.Struct("<2sBBIII")
_LENGTH = struct.Struct("<Q")
FRAME_OVERHEAD = _HEADER.size + _LENGTH.size  # 24


class MsgType(IntEnum):
    BROADCAST_MODEL = 0
    INPUT_OFFSET = 1
    SHARE_UPLOAD = 2
    OPEN_SHARE = 3
    COMMIT = 4
    REVEAL = 5
    ABORT = 6
    MASK_DELIVERY = 7


_MSG_TYPES = frozenset(int(t) for t in MsgType)


class FrameError(ValueError):
    """Malformed wire frame."""


class WireMessage(NamedTuple):
    msg_type: int
    round: int
    sender: int
    receiver: int
    payload: bytes


def encode_message(msg: WireMessage) -> bytes:
    if msg.msg_type not in _MSG_TYPES:
        raise FrameError(f"unknown message type {msg.msg_type}")
    header = _HEADER.pack(
        MAGIC, VERSION, msg.msg_type, msg.round, msg.sender, msg.receiver
    )
    return header + _LENGTH.pack(len(msg.payload)) + msg.payload


def decode_message(data: bytes) -> WireMessage:
    if len(data) < FRAME_OVERHEAD:
        raise FrameError("truncated frame header")
    magic, version, msg_type, rnd, sender, receiver = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    if msg_type not in _MSG_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    (length,) = _LENGTH.unpack_from(data, _HEADER.size)
    payload = data[FRAME_OVERHEAD:]
    if len(payload) != length:
        raise FrameError(f"length field {length} does not match payload {len(payload)}")
    return WireMessage(MsgType(msg_type), rnd, sender, receiver, payload)


# ---------------------------------------------------------------------------
# Adversary
# ---------------------------------------------------------------------------

# The adversary hook table: each behaviour's point and whether the corrupted
# server is the frame's sender (0) or receiver (1) there. A point is a message
# type, or a value point: a value a server computes and then sends, which the
# hook sees as a frame from that server. Every hook shifts the first field
# element by one, except withhold, which drops the frame.
SIGMA_COMMITTED = "sigma-committed"
SIGMA_REVEALED = "sigma-revealed"
_HOOKS = {
    "passive-record": None,
    "tamper-share": (MsgType.OPEN_SHARE, 0),
    # A corrupted server substituting the client's public offset.
    "tamper-epsilon": (MsgType.INPUT_OFFSET, 1),
    "equivocate-commit": (SIGMA_REVEALED, 0),
    "withhold": (MsgType.OPEN_SHARE, 0),
    "forge-sigma": (SIGMA_COMMITTED, 0),
}
BEHAVIORS = tuple(_HOOKS)


@dataclass(frozen=True)
class AdversarySpec:
    """Which parties are corrupted and how the corrupted servers misbehave."""

    corrupted_servers: frozenset = frozenset()
    corrupted_clients: frozenset = frozenset()
    behavior: str = "passive-record"
    target_round: int = None  # None = every round

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown adversary behavior {self.behavior!r}")

    def active_in(self, round_index: int) -> bool:
        return self.target_round is None or self.target_round == round_index


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

EDGE_CLIENT_TO_SERVER = "client_to_server"
EDGE_SERVER_TO_CLIENT = "server_to_client"
EDGE_DEALER = "dealer"
EDGE_SERVER_TO_SERVER = "server_to_server"


@dataclass
class CommMetrics:
    """Bytes and frame counts per round and edge class."""

    per_round: dict = dc_field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    totals: dict = dc_field(default_factory=lambda: defaultdict(int))
    message_counts: dict = dc_field(default_factory=lambda: defaultdict(int))

    def add(self, round_index: int, edge: str, nbytes: int, frames: int = 1) -> None:
        self.per_round[round_index][edge] += nbytes
        self.totals[edge] += nbytes
        self.message_counts[edge] += frames

    def total_bytes(self, edges=None) -> int:
        if edges is None:
            return sum(self.totals.values())
        return sum(self.totals[e] for e in edges)


def overhead_ratio(secure: CommMetrics, baseline: CommMetrics) -> float:
    """Client-visible plus dealer bytes of the secure run over the
    single-server baseline's total bytes (matched round counts)."""
    numerator = secure.total_bytes(
        [EDGE_CLIENT_TO_SERVER, EDGE_SERVER_TO_CLIENT, EDGE_DEALER]
    )
    denominator = baseline.total_bytes(
        [EDGE_CLIENT_TO_SERVER, EDGE_SERVER_TO_CLIENT]
    )
    return numerator / denominator


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

ROLE_DEALER = "dealer"
ROLE_SERVER = "server"
ROLE_CLIENT = "client"
_ROLES = (ROLE_DEALER, ROLE_SERVER, ROLE_CLIENT)  # a role pair's code is 3 * sender + receiver


def edge_class(sender_role: str, receiver_role: str) -> str:
    if sender_role == ROLE_DEALER or receiver_role == ROLE_DEALER:
        return EDGE_DEALER
    if sender_role == ROLE_CLIENT and receiver_role == ROLE_SERVER:
        return EDGE_CLIENT_TO_SERVER
    if sender_role == ROLE_SERVER and receiver_role == ROLE_CLIENT:
        return EDGE_SERVER_TO_CLIENT
    return EDGE_SERVER_TO_SERVER


@dataclass(slots=True, eq=False)
class _Batch:
    """Frames of one ``send_many`` call, of one type and round (the slot),
    in send order: frame f goes from ``keys[f] % width`` to ``keys[f] //
    width`` with the payload ``source[f]``, or row ``rows[f]`` of the array
    ``source``."""

    slot: tuple
    keys: np.ndarray
    source: object
    rows: np.ndarray
    taken: np.ndarray

    def payload(self, f) -> bytes:
        return self.source[f] if self.rows is None else self.source[self.rows[f]].tobytes()


class Network:
    """Single-threaded scheduler: batch records, live metering, adversary hooks.

    A ``send_many`` call is kept as a ``_Batch`` record until all its
    frames are taken. With ``log_frames`` set, ``log`` keeps one summary per
    delivered frame.
    """

    def __init__(self, roles: dict, params: FieldParams, adversary: AdversarySpec = None,
                 log_frames: bool = False):
        self.roles = dict(roles)
        self.params = params
        self.adversary = adversary
        self.log_frames = log_frames
        self.metrics = CommMetrics()
        self.log = []  # frame summaries, in delivery order
        self.adversary_view = []  # full frames visible to corrupted parties
        self.dropped = []
        self._watched = frozenset() if adversary is None else (
            adversary.corrupted_servers | adversary.corrupted_clients)
        self._batches = []  # records with untaken frames, in send order
        self._width = max(self.roles) + 1  # an edge's key is receiver * width + sender
        self._codes = np.array([_ROLES.index(self.roles[p]) for p in range(self._width)])

    def corrupted_servers(self, round_index: int) -> frozenset:
        """Wire ids of the servers the adversary controls in this round."""
        spec = self.adversary
        if spec is None or not spec.active_in(round_index):
            return frozenset()
        return spec.corrupted_servers

    def _hooked(self, point, round_index: int, endpoints) -> bool:
        """Whether the adversary's behaviour can touch a frame of a batch,
        given as its (senders, receivers) columns."""
        corrupted = self.corrupted_servers(round_index)
        hook = _HOOKS[self.adversary.behavior] if corrupted else None
        if hook is None or hook[0] != point:
            return False
        return any(party in corrupted for party in endpoints[hook[1]])

    def _mutate(self, msg: WireMessage):
        """The hook point, called per frame of a batch ``_hooked`` accepted;
        returns the delivered message or None."""
        spec = self.adversary
        if (msg.sender, msg.receiver)[_HOOKS[spec.behavior][1]] not in spec.corrupted_servers:
            return msg
        if spec.behavior == "withhold":
            return None
        return msg._replace(payload=_bump_first_element(msg.payload, self.params.q))

    def value(self, point: str, round_index: int, server: int, payload: bytes) -> bytes:
        """The encoded value ``server`` goes on to use at a value point."""
        if not self._hooked(point, round_index, ([server], [None])):
            return payload
        return self._mutate(WireMessage(point, round_index, server, None, payload)).payload

    def send(self, msg: WireMessage) -> None:
        self.send_many(msg.msg_type, msg.round, [msg.sender], [msg.receiver], [msg.payload])

    def send_many(self, msg_type: MsgType, round_index: int, senders, receivers, payloads,
                  rows=None) -> None:
        """Deliver a phase's frames of one type and round in order, given as
        columns: frame f goes from ``senders[f]`` to ``receivers[f]``. Its
        payload is the bytes ``payloads[f]``, or, with ``rows``, row
        ``rows[f]`` of ``payloads``: a stacked (frames, length, 2) limb array,
        or a tuple of them taken as concatenated. The record then references
        the row, so those arrays are made read-only.
        """
        if msg_type not in _MSG_TYPES:
            raise FrameError(f"unknown message type {msg_type}")
        senders = np.asarray(senders, dtype=np.intp)
        receivers = np.asarray(receivers, dtype=np.intp)
        hooked = self._hooked(msg_type, round_index, (senders, receivers))
        if rows is None:
            payloads = list(payloads)
        else:
            arrays = payloads if isinstance(payloads, tuple) else (payloads,)
            for a in arrays:
                a.flags.writeable = False
            starts = np.cumsum([0] + [len(a) for a in arrays])
            part = np.searchsorted(starts, rows, side="right") - 1
            rows = np.asarray(rows, dtype=np.intp) - starts[part]
            sizes = (np.array([a.shape[1] for a in arrays]) * ELEMENT_BYTES)[part]
        payload = payloads.__getitem__ if rows is None else (
            lambda f: arrays[part[f]][rows[f]].tobytes())
        if hooked:  # _mutate sees WireMessages; a changed row is a changed copy
            edges = list(zip(senders.tolist(), receivers.tolist()))
            outs = [self._mutate(WireMessage(msg_type, round_index, *edge, payload(f)))
                    for f, edge in enumerate(edges)]
            self.dropped += [{"round": round_index, "type": int(msg_type), "sender": sender,
                              "receiver": receiver}
                             for (sender, receiver), out in zip(edges, outs) if out is None]
            kept = [f for f, out in enumerate(outs) if out is not None]
            senders, receivers, rows = senders[kept], receivers[kept], None
            payloads = [outs[f].payload for f in kept]
            payload = payloads.__getitem__
        if rows is None:
            sizes = [len(p) for p in payloads]
        # Metering: one add per (sender role, receiver role) pair, in the order
        # of each pair's first frame.
        codes = self._codes[receivers]
        pairs = self._codes[senders] * 3 + codes
        counts, nbytes = np.bincount(pairs).tolist(), np.bincount(pairs, sizes).tolist()
        present = [pair for pair, count in enumerate(counts) if count]
        if len(present) > 1:
            present.sort(key=lambda pair: np.argmax(pairs == pair))
        for pair in present:
            self.metrics.add(round_index, edge_class(_ROLES[pair // 3], _ROLES[pair % 3]),
                             int(nbytes[pair]) + FRAME_OVERHEAD * counts[pair], counts[pair])
        roles, watched = self.roles, self._watched
        if self.log_frames or watched:
            for f, (sender, receiver) in enumerate(zip(senders.tolist(), receivers.tolist())):
                record = {"round": round_index, "type": int(msg_type), "sender": sender,
                          "receiver": receiver, "bytes": FRAME_OVERHEAD + int(sizes[f]),
                          "edge": edge_class(roles[sender], roles[receiver])}
                if self.log_frames:
                    self.log.append(record)
                if sender in watched or receiver in watched:
                    self.adversary_view.append({**record, "payload": payload(f)})
        # Rows of several arrays: one record per receiver role, in the order of
        # their first frames; a stable split, so each edge keeps its send order.
        # A record whose rows still span several arrays holds their bytes.
        keys = receivers * self._width + senders
        to_roles = list(dict.fromkeys(pair % 3 for pair in present))
        split = len(to_roles) > 1 and rows is not None and (part != part[0]).any()
        for role in to_roles if split else to_roles[:1]:
            at = np.flatnonzero(codes == role) if split else slice(None)
            if rows is None:
                source, at_rows = payloads, None
            elif len(arrays) == 1 or (part[at] == part[at][0]).all():
                source, at_rows = arrays[part[at][0]], rows[at]
            else:
                source, at_rows = [payload(f) for f in np.arange(len(keys))[at].tolist()], None
            self._batches.append(_Batch((msg_type, round_index), keys[at], source, at_rows,
                                        np.zeros(len(keys[at]), bool)))

    def recv(self, receiver: int, msg_type: MsgType, sender: int, round_index: int):
        """``recv_many`` of one edge: the first untaken frame of this type,
        sender, receiver and round, taken as a WireMessage, or None (timeout)."""
        got = self.recv_many(msg_type, round_index, (receiver,), (sender,))
        return None if got is None else WireMessage(msg_type, round_index, sender, receiver,
                                                    bytes(got[0]))

    def recv_many(self, msg_type: MsgType, round_index: int, receivers, senders):
        """Take one frame of this type and round per (receivers[f],
        senders[f]) edge: the frame ``recv`` would take, edge by edge.

        The edges of the first pending record, in its send order, take it
        whole: a row record's rows come back stacked into one writable
        (edges, length, 2) limb array. Any other request (a hooked, injected
        or out-of-order frame) gets the payload bytes, in edge order. None if
        a frame is missing; the frames that are there are taken all the same.
        """
        keys = (np.asarray(receivers, dtype=np.intp) * self._width
                + np.asarray(senders, dtype=np.intp))
        batches = [b for b in self._batches if b.slot == (msg_type, round_index)]
        if batches and len(batches[0].keys) == len(keys) and not batches[0].taken.any() and (
                batches[0].keys == keys).all():
            b = batches[0]
            self._batches.remove(b)
            return b.source if b.rows is None else b.source.take(b.rows, axis=0)
        payloads = []
        for key in keys.tolist():  # each edge's first untaken frame, in send order
            for b in batches:
                f = np.flatnonzero((b.keys == key) & ~b.taken)[:1]
                if len(f):
                    b.taken[f] = True
                    payloads.append(b.payload(f[0]))
                    break
            else:
                payloads.append(None)
        self._batches = [b for b in self._batches if not b.taken.all()]
        return None if None in payloads else payloads

    def pending(self) -> list:
        """Every frame sent and not yet taken, as a WireMessage; the frames of
        each edge in send order."""
        return [WireMessage(*b.slot, *divmod(int(b.keys[f]), self._width)[::-1], b.payload(f))
                for b in self._batches for f in np.flatnonzero(~b.taken).tolist()]


def _bump_first_element(payload: bytes, q: int) -> bytes:
    if len(payload) < ELEMENT_BYTES:
        return payload
    head = (int.from_bytes(payload[:ELEMENT_BYTES], "little") + 1) % q
    return head.to_bytes(ELEMENT_BYTES, "little") + payload[ELEMENT_BYTES:]
