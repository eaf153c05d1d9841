"""Deterministic simulated transport: bit-exact wire format, adversary
injection, and per-edge-class communication accounting.

All frames pass through a single Network instance, a phase's frames of one
type in one ``send_many`` call; delivery order is the send order, so
identical seeds give identical transcripts and byte counts. A frame's
metered size is its encoded length, ``FRAME_OVERHEAD + len(payload)``.

An honest vector frame is a reference to one row of a stacked
(frames, length, 2) limb array: the inbox holds (type, round, sender,
receiver, array, row), and ``recv_many`` gathers a phase's rows in one
step. A frame exists as a WireMessage with payload bytes only where bytes
are needed: in a hooked batch, whose frames ``_mutate`` sees one by one;
in the adversary view of a watched endpoint; and for the small byte
frames (coin, sigma, key share, abort, model broadcast).
"""

from __future__ import annotations

import struct
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from itertools import repeat
from operator import itemgetter
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


def edge_class(sender_role: str, receiver_role: str) -> str:
    if sender_role == ROLE_DEALER or receiver_role == ROLE_DEALER:
        return EDGE_DEALER
    if sender_role == ROLE_CLIENT and receiver_role == ROLE_SERVER:
        return EDGE_CLIENT_TO_SERVER
    if sender_role == ROLE_SERVER and receiver_role == ROLE_CLIENT:
        return EDGE_SERVER_TO_CLIENT
    return EDGE_SERVER_TO_SERVER


class Network:
    """Single-threaded scheduler: FIFO inboxes, live metering, adversary hooks.

    An inbox entry is a WireMessage or a row reference (see the module
    docstring); both hold the type, round and sender at positions 0-2. With
    ``log_frames`` set, ``log`` keeps one summary per delivered frame.
    """

    def __init__(self, roles: dict, params: FieldParams, adversary: AdversarySpec = None,
                 log_frames: bool = False):
        self.roles = dict(roles)
        self.params = params
        self.adversary = adversary
        self.log_frames = log_frames
        self.inboxes = defaultdict(deque)
        self.metrics = CommMetrics()
        self.log = []  # frame summaries, in delivery order
        self.adversary_view = []  # full frames visible to corrupted parties
        self.dropped = []
        self._watched = frozenset() if adversary is None else (
            adversary.corrupted_servers | adversary.corrupted_clients)

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
        or a tuple of them taken as concatenated. The inbox then references
        the row, so those arrays are made read-only.
        """
        if msg_type not in _MSG_TYPES:
            raise FrameError(f"unknown message type {msg_type}")
        senders = np.asarray(senders, dtype=np.intp).tolist()
        receivers = np.asarray(receivers, dtype=np.intp).tolist()
        hooked = self._hooked(msg_type, round_index, (senders, receivers))
        if rows is not None:
            arrays = payloads if isinstance(payloads, tuple) else (payloads,)
            for a in arrays:
                a.flags.writeable = False
            starts = np.cumsum([0] + [len(a) for a in arrays])
            part = np.searchsorted(starts, rows, side="right") - 1
            sources = list(map(arrays.__getitem__, part.tolist()))
            rows = (np.asarray(rows) - starts[part]).tolist()
            sizes = (np.array([a.shape[1] for a in arrays])[part] * ELEMENT_BYTES).tolist()
            if hooked:  # _mutate sees WireMessages; a changed row is a changed copy
                payloads = [source[row].tobytes() for source, row in zip(sources, rows)]
        if rows is None or hooked:
            entries = [WireMessage(msg_type, round_index, sender, receiver, payload)
                       for sender, receiver, payload in zip(senders, receivers, payloads)]
            if hooked:
                outs = [self._mutate(msg) for msg in entries]
                self.dropped += [{"round": round_index, "type": int(msg_type), "sender": msg.sender,
                                  "receiver": msg.receiver}
                                 for msg, out in zip(entries, outs) if out is None]
                kept = [f for f, out in enumerate(outs) if out is not None]
                senders, receivers = [senders[f] for f in kept], [receivers[f] for f in kept]
                entries = [outs[f] for f in kept]
            sizes = [len(msg.payload) for msg in entries]
        else:
            entries = list(zip(repeat(msg_type), repeat(round_index), senders, receivers, sources,
                               rows))
        self._meter(round_index, senders, receivers, sizes)
        roles, watched = self.roles, self._watched
        if self.log_frames or watched:
            for sender, receiver, size, entry in zip(senders, receivers, sizes, entries):
                record = {"round": round_index, "type": int(msg_type), "sender": sender,
                          "receiver": receiver, "bytes": FRAME_OVERHEAD + size,
                          "edge": edge_class(roles[sender], roles[receiver])}
                if self.log_frames:
                    self.log.append(record)
                if sender in watched or receiver in watched:
                    self.adversary_view.append({**record, "payload": _payload(entry)})
        inboxes = self.inboxes
        for receiver, entry in zip(receivers, entries):
            inboxes[receiver].append(entry)

    def _meter(self, round_index: int, senders, receivers, sizes) -> None:
        """One metrics add per (sender role, receiver role) pair of a batch's
        frames, in the order of each pair's first frame."""
        roles = self.roles.__getitem__
        metered = defaultdict(lambda: [0, 0])  # (sender role, receiver role) -> [frames, bytes]
        for (sender_role, receiver_role, size), count in Counter(
                zip(map(roles, senders), map(roles, receivers), sizes)).items():
            tally = metered[sender_role, receiver_role]
            tally[0] += count
            tally[1] += count * (FRAME_OVERHEAD + size)
        for pair, (count, size) in metered.items():
            self.metrics.add(round_index, edge_class(*pair), size, count)

    def recv(self, receiver: int, msg_type: MsgType, sender: int, round_index: int):
        """The receiver's first frame of this type, sender and round, taken
        out of its inbox as a WireMessage, or None (timeout)."""
        inbox = self.inboxes[receiver]
        for i, entry in enumerate(inbox):
            if entry[0] == msg_type and entry[2] == sender and entry[1] == round_index:
                del inbox[i]
                return entry if isinstance(entry, WireMessage) else WireMessage(
                    *entry[:4], _payload(entry))
        return None

    def recv_many(self, msg_type: MsgType, round_index: int, receivers, senders):
        """Take one frame of this type and round per (receivers[f],
        senders[f]) edge: the frame ``recv`` would take, found at the head of
        the inbox when the sends were in the same order.

        Returns the rows stacked into one (edges, length, 2) limb array,
        gathered in one step, when every frame is a row of one array taken at
        the head of its inbox; else (a hooked, injected or out-of-order
        frame) the payload bytes, in edge order; None if a frame is missing.
        """
        inboxes = self.inboxes
        taken = []
        for receiver, sender in zip(receivers, senders):
            inbox = inboxes[receiver]
            if inbox:
                head = inbox[0]
                if head[2] == sender and head[0] == msg_type and head[1] == round_index:
                    taken.append(inbox.popleft())
                    continue
            taken.append(self.recv(receiver, msg_type, sender, round_index))
        if None in taken:
            return None
        if taken and type(taken[0]) is tuple:  # a row entry; a WireMessage is not
            source = taken[0][4]
            if all(entry[4] is source for entry in taken):
                rows = np.fromiter(map(itemgetter(5), taken), np.intp, len(taken))
                return source.take(rows, axis=0)
        return [_payload(entry) for entry in taken]


def _payload(entry) -> bytes:
    """The payload of an inbox entry: a WireMessage's, or the bytes of the
    row a (type, round, sender, receiver, array, row) entry references."""
    return entry.payload if isinstance(entry, WireMessage) else entry[4][entry[5]].tobytes()


def _bump_first_element(payload: bytes, q: int) -> bytes:
    if len(payload) < ELEMENT_BYTES:
        return payload
    head = (int.from_bytes(payload[:ELEMENT_BYTES], "little") + 1) % q
    return head.to_bytes(ELEMENT_BYTES, "little") + payload[ELEMENT_BYTES:]
