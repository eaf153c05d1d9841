"""Deterministic simulated transport: bit-exact wire format, adversary
injection, and per-edge-class communication accounting.

All frames pass through a single Network instance; delivery order is the
send order, so identical seeds give identical transcripts and byte counts.
"""

from __future__ import annotations

import struct
from collections import defaultdict, deque
from dataclasses import dataclass, field as dc_field
from enum import IntEnum

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


@dataclass(frozen=True)
class WireMessage:
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

BEHAVIORS = (
    "passive-record",
    "tamper-share",
    "tamper-epsilon",
    "equivocate-commit",
    "withhold",
    "forge-sigma",
)


@dataclass(frozen=True)
class AdversarySpec:
    """Which parties are corrupted and how the corrupted servers misbehave."""

    corrupted_servers: frozenset = frozenset()
    corrupted_clients: frozenset = frozenset()
    behavior: str = "passive-record"
    delta: int = 1
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

    def add(self, round_index: int, edge: str, nbytes: int) -> None:
        self.per_round[round_index][edge] += nbytes
        self.totals[edge] += nbytes
        self.message_counts[edge] += 1

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
    """Single-threaded scheduler: FIFO inboxes, live metering, adversary hooks."""

    def __init__(self, roles: dict, params: FieldParams, adversary: AdversarySpec = None):
        self.roles = dict(roles)
        self.params = params
        self.adversary = adversary
        self.inboxes = defaultdict(deque)
        self.metrics = CommMetrics()
        self.log = []  # frame summaries, in delivery order
        self.adversary_view = []  # full frames visible to corrupted parties
        self.dropped = []

    def _corrupted(self, party: int) -> bool:
        if self.adversary is None:
            return False
        return (
            party in self.adversary.corrupted_servers
            or party in self.adversary.corrupted_clients
        )

    def _mutate(self, msg: WireMessage):
        """Wire-level adversary behaviors; returns the delivered message or None."""
        spec = self.adversary
        if spec is None or not spec.active_in(msg.round):
            return msg
        q = self.params.q
        if (
            spec.behavior == "tamper-share"
            and msg.msg_type == MsgType.OPEN_SHARE
            and msg.sender in spec.corrupted_servers
        ):
            return WireMessage(
                msg.msg_type, msg.round, msg.sender, msg.receiver,
                _bump_first_element(msg.payload, spec.delta, q),
            )
        if (
            spec.behavior == "tamper-epsilon"
            and msg.msg_type == MsgType.INPUT_OFFSET
            and msg.receiver in spec.corrupted_servers
        ):
            # A corrupted server substituting the client's public offset.
            return WireMessage(
                msg.msg_type, msg.round, msg.sender, msg.receiver,
                _bump_first_element(msg.payload, spec.delta, q),
            )
        if (
            spec.behavior == "withhold"
            and msg.msg_type == MsgType.OPEN_SHARE
            and msg.sender in spec.corrupted_servers
        ):
            return None
        return msg

    def send(self, msg: WireMessage) -> None:
        delivered = self._mutate(msg)
        if delivered is None:
            self.dropped.append(
                {"round": msg.round, "type": int(msg.msg_type), "sender": msg.sender,
                 "receiver": msg.receiver}
            )
            return
        frame = encode_message(delivered)
        edge = edge_class(self.roles[msg.sender], self.roles[msg.receiver])
        self.metrics.add(delivered.round, edge, len(frame))
        record = {
            "round": delivered.round,
            "type": int(delivered.msg_type),
            "sender": delivered.sender,
            "receiver": delivered.receiver,
            "bytes": len(frame),
            "edge": edge,
        }
        self.log.append(record)
        if self._corrupted(delivered.sender) or self._corrupted(delivered.receiver):
            self.adversary_view.append({**record, "payload": delivered.payload})
        self.inboxes[delivered.receiver].append(delivered)

    def recv(self, receiver: int, msg_type: MsgType = None, sender: int = None):
        """Next matching frame from the receiver's inbox, or None (timeout)."""
        inbox = self.inboxes[receiver]
        for i, msg in enumerate(inbox):
            if msg_type is not None and msg.msg_type != msg_type:
                continue
            if sender is not None and msg.sender != sender:
                continue
            del inbox[i]
            return msg
        return None


def _bump_first_element(payload: bytes, delta: int, q: int) -> bytes:
    if len(payload) < ELEMENT_BYTES:
        return payload
    head = int.from_bytes(payload[:ELEMENT_BYTES], "little")
    head = (head + delta) % q
    return head.to_bytes(ELEMENT_BYTES, "little") + payload[ELEMENT_BYTES:]
