"""Additive secret sharing with information-theoretic MACs.

A value x is split into n uniformly random summands; authentication uses a
global key kappa (itself additively shared, never reconstructed) and tags
kappa*x. Clients feed inputs in through single-use masks issued by a
trusted dealer that stands in for the cryptographic offline phase. Any
tampering with an opened value is caught by the sigma check except with
probability 1/q.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from random import Random

import numpy as np

from .field import FieldParams, from_ints, random_vector, vec_mul, vec_sub, vec_sum

COMMIT_NONCE_BYTES = 16
COMMIT_DIGEST_BYTES = 32
MASK_POOL_SIZE = 1 << 10  # masks per bulk draw; a draw's cost per mask flattens from here

ABORT_MAC_FAILURE = "mac-failure"
ABORT_EQUIVOCATION = "equivocation"
ABORT_TIMEOUT = "timeout"


class SharingError(ValueError):
    """Base class for sharing-layer errors."""


class IncompleteSharingError(SharingError):
    """A share is missing (a server withheld its output)."""


class KeyShareError(SharingError):
    """A server's MAC key share did not arrive intact at setup."""


class MaskReuseError(SharingError):
    """A single-use input mask was presented twice."""


class MaskOwnershipError(SharingError):
    """A client tried to consume a mask addressed to someone else."""


class ProtocolAbort(RuntimeError):
    """Terminal abort of the whole training run."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


@dataclass
class AdditiveSharing:
    """One share per server; entries may be None to model withholding."""

    params: FieldParams
    shares: list

    @property
    def n(self) -> int:
        return len(self.shares)


def share(x: int, n: int, rng: Random, params: FieldParams) -> AdditiveSharing:
    """Split x into n shares, the first n-1 uniform, the last the remainder."""
    if n < 1:
        raise SharingError("need at least one share")
    q = params.q
    x %= q
    shares = [rng.randrange(q) for _ in range(n - 1)]
    shares.append((x - sum(shares)) % q)
    return AdditiveSharing(params, shares)


def reconstruct(s: AdditiveSharing) -> int:
    if any(sh is None for sh in s.shares):
        raise IncompleteSharingError("missing share")
    return sum(s.shares) % s.params.q


@dataclass
class MacKeySharing:
    """Additive sharing of the global MAC key among the servers."""

    params: FieldParams
    key_shares: list

    @property
    def n(self) -> int:
        return len(self.key_shares)


@dataclass
class AuthShare:
    """One server's share of a value together with its tag share."""

    value_share: int
    mac_share: int


@dataclass
class InputMask:
    """Single-use authenticated mask; r goes to one client, shares to servers."""

    mask_id: int
    client_id: int
    r: int
    server_shares: list  # list[AuthShare], index = server
    consumed: bool = False


@dataclass
class MaskBatch:
    """``count`` single-use masks for one client, as limb arrays.

    ``r`` (count, 2) goes to the client; ``server_shares[i]`` (2 * count, 2)
    goes to server i: its value shares of r, then its MAC shares of kappa*r.
    """

    client_id: int
    r: np.ndarray
    server_shares: np.ndarray

    def __len__(self) -> int:
        return len(self.r)


class Dealer:
    """Trusted offline-phase stand-in issuing the key sharing and masks.

    The dealer keeps the plaintext key so tests can audit the MAC relation;
    servers only ever see their own shares.
    """

    def __init__(self, n: int, rng: Random, params: FieldParams):
        if n < 1:
            raise SharingError("need at least one server")
        self.n = n
        self.params = params
        self._rng = rng
        self.mac_key = rng.randrange(params.q)
        self.key = MacKeySharing(params, share(self.mac_key, n, rng, params).shares)
        self._next_id = 0
        self._pool = None  # (r, shares) of masks drawn but not yet issued

    def issue_mask(self, client_id: int) -> InputMask:
        q = self.params.q
        r = self._rng.randrange(q)
        value_shares = share(r, self.n, self._rng, self.params).shares
        mac_shares = share(self.mac_key * r % q, self.n, self._rng, self.params).shares
        mask = InputMask(
            mask_id=self._next_id,
            client_id=client_id,
            r=r,
            server_shares=[AuthShare(v, m) for v, m in zip(value_shares, mac_shares)],
        )
        self._next_id += 1
        return mask

    def issue_masks(self, client_id: int, count: int) -> MaskBatch:
        """``count`` masks cut from a pool drawn MASK_POOL_SIZE (or ``count``,
        if larger) at a time; what is left of a pool too small is dropped."""
        if self._pool is None or len(self._pool[0]) < count:
            self._refill(max(count, MASK_POOL_SIZE))
        r, shares = self._pool
        self._pool = (r[count:], shares[:, :, count:])
        return MaskBatch(client_id, r[:count], shares[:, :, :count].reshape(self.n, 2 * count, 2))

    def _refill(self, size: int) -> None:
        """Draw ``size`` masks: r and the first n-1 value and MAC shares
        uniform, the last share of each the remainder. The generator is
        seeded from the dealer's Random, so masks are deterministic per seed."""
        gen = np.random.default_rng(self._rng.getrandbits(128))
        params = self.params
        r = random_vector(gen, (size,), params)
        secrets = np.stack([r, vec_mul(r, from_ints([self.mac_key])[0], params)])
        head = random_vector(gen, (2, self.n - 1, size), params)
        last = vec_sub(secrets, vec_sum(head, params, axis=1), params)
        shares = np.concatenate([head, last[:, None]], axis=1)  # (value/MAC, server, mask)
        self._pool = (r, shares.transpose(1, 0, 2, 3))


def dealer_setup(n: int, num_masks: int, rng: Random, params: FieldParams = None, client_id: int = 0):
    """Fresh key sharing plus num_masks single-use masks for one client."""
    params = params or FieldParams()
    dealer = Dealer(n, rng, params)
    return dealer.key, [dealer.issue_mask(client_id) for _ in range(num_masks)]


def client_input(x: int, mask: InputMask, client_id: int, params: FieldParams) -> int:
    """Consume a mask and publish the offset epsilon = x - r."""
    if mask.client_id != client_id:
        raise MaskOwnershipError(f"mask {mask.mask_id} belongs to client {mask.client_id}")
    if mask.consumed:
        raise MaskReuseError(f"mask {mask.mask_id} already consumed")
    mask.consumed = True
    return (x - mask.r) % params.q


def derive_input_share(
    mask_share: AuthShare, epsilon: int, server_index: int, kappa_share: int, params: FieldParams
) -> AuthShare:
    """Server-local authenticated share of x from the public offset.

    Server 0 absorbs epsilon into the value share; every server folds
    kappa_i * epsilon into its tag share.
    """
    q = params.q
    value = (mask_share.value_share + (epsilon if server_index == 0 else 0)) % q
    mac = (mask_share.mac_share + kappa_share * epsilon) % q
    return AuthShare(value, mac)


def linear_combine_local(inputs: list, coeffs: list, params: FieldParams) -> AuthShare:
    """Public linear combination of one server's authenticated shares."""
    if len(inputs) != len(coeffs):
        raise SharingError("inputs and coefficients differ in length")
    q = params.q
    value = sum(c * s.value_share for c, s in zip(coeffs, inputs)) % q
    mac = sum(c * s.mac_share for c, s in zip(coeffs, inputs)) % q
    return AuthShare(value, mac)


# ---------------------------------------------------------------------------
# Commitments and the checked opening
# ---------------------------------------------------------------------------


def commit(payload: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(nonce + payload).digest()


def verify_commit(digest: bytes, payload: bytes, nonce: bytes) -> bool:
    return commit(payload, nonce) == digest


def public_coin(round_index: int, nonces: list) -> bytes:
    h = hashlib.sha256()
    h.update(b"pe-coin")
    h.update(int(round_index).to_bytes(4, "little"))
    for nonce in nonces:
        h.update(nonce)
    return h.digest()


def batch_coefficients(coin: bytes, count: int, params: FieldParams) -> list:
    """Public random coefficients for batching a vector into one MAC check."""
    coeffs = []
    for i in range(count):
        digest = hashlib.sha256(coin + i.to_bytes(4, "little")).digest()
        coeffs.append(int.from_bytes(digest, "little") % params.q)
    return coeffs


def mac_sigma(mac_share: int, kappa_share: int, opened: int, params: FieldParams) -> int:
    return (mac_share - kappa_share * opened) % params.q


def mac_check_passes(sigmas: list, params: FieldParams) -> bool:
    return sum(sigmas) % params.q == 0


def open_with_mac_check(
    value_shares: list,
    mac_shares: list,
    key: MacKeySharing,
    rng: Random,
    round_index: int = 0,
) -> int:
    """Honest local execution of the scalar opening with commit-then-reveal.

    Raises ProtocolAbort on a missing share or failed sigma check. The
    networked, adversary-exposed version of the same steps lives in the
    protocol engine.
    """
    params = key.params
    if any(v is None for v in value_shares) or any(m is None for m in mac_shares):
        raise ProtocolAbort(ABORT_TIMEOUT, "missing share at opening")
    y = sum(value_shares) % params.q
    sigmas = [
        mac_sigma(m, k, y, params) for m, k in zip(mac_shares, key.key_shares)
    ]
    # Commit-then-reveal so no server can choose sigma after seeing the others.
    nonces = [rng.randbytes(COMMIT_NONCE_BYTES) for _ in sigmas]
    payloads = [int(s).to_bytes(32, "little") for s in sigmas]
    digests = [commit(p, nc) for p, nc in zip(payloads, nonces)]
    for digest, payload, nonce in zip(digests, payloads, nonces):
        if not verify_commit(digest, payload, nonce):
            raise ProtocolAbort(ABORT_EQUIVOCATION, "sigma commitment mismatch")
    if not mac_check_passes(sigmas, params):
        raise ProtocolAbort(ABORT_MAC_FAILURE, f"round {round_index}")
    return y


def open_vector_with_mac_check(
    value_share_vectors: list,
    mac_share_vectors: list,
    key: MacKeySharing,
    rng: Random,
    round_index: int = 0,
) -> list:
    """Vector opening: one sigma check on a random public linear combination."""
    params = key.params
    q = params.q
    if any(v is None for v in value_share_vectors) or any(m is None for m in mac_share_vectors):
        raise ProtocolAbort(ABORT_TIMEOUT, "missing share vector at opening")
    dim = len(value_share_vectors[0])
    opened = [sum(vec[i] for vec in value_share_vectors) % q for i in range(dim)]
    nonces = [rng.randbytes(COMMIT_NONCE_BYTES) for _ in value_share_vectors]
    coin = public_coin(round_index, nonces)
    coeffs = batch_coefficients(coin, dim, params)
    y_comb = sum(c * y for c, y in zip(coeffs, opened)) % q
    sigmas = []
    for mac_vec, kappa_share in zip(mac_share_vectors, key.key_shares):
        mac_comb = sum(c * m for c, m in zip(coeffs, mac_vec)) % q
        sigmas.append(mac_sigma(mac_comb, kappa_share, y_comb, params))
    if not mac_check_passes(sigmas, params):
        raise ProtocolAbort(ABORT_MAC_FAILURE, f"round {round_index}")
    return opened


def forgery_succeeds(
    value_shares: list,
    mac_shares: list,
    key: MacKeySharing,
    delta: int,
    adjustment: int,
) -> bool:
    """Does tampering the opened value by delta plus a sigma adjustment pass?

    Models a corrupted first server that shifts its broadcast share by delta
    and its sigma contribution by the guess `adjustment`; succeeds iff the
    guess equals kappa * delta.
    """
    params = key.params
    q = params.q
    tampered = list(value_shares)
    tampered[0] = (tampered[0] + delta) % q
    y = sum(tampered) % q
    sigmas = [
        mac_sigma(m, k, y, params) for m, k in zip(mac_shares, key.key_shares)
    ]
    sigmas[0] = (sigmas[0] + adjustment) % q
    return mac_check_passes(sigmas, params)
