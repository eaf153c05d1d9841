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
from dataclasses import dataclass
from random import Random

import numpy as np

from .field import (DEFAULT_MODULUS, LIMB_DTYPE, FieldParams, _reduce32, from_ints, random_vector,
                    vec_dot, vec_mul, vec_sub, vec_sub_sum, vec_sum)

MASK_POOL_SIZE = 1 << 10  # masks per bulk draw; a draw's cost per mask flattens from here

ABORT_MAC_FAILURE = "mac-failure"
ABORT_EQUIVOCATION = "equivocation"
ABORT_TIMEOUT = "timeout"


class SharingError(ValueError):
    """Base class for sharing-layer errors."""


class KeyShareError(SharingError):
    """A server's MAC key share did not arrive intact at setup."""


def share(x: int, n: int, rng: Random, params: FieldParams) -> list:
    """Split x into a list of n shares, the first n-1 uniform, the last the
    remainder."""
    if n < 1:
        raise SharingError("need at least one share")
    q = params.q
    x %= q
    shares = [rng.randrange(q) for _ in range(n - 1)]
    shares.append((x - sum(shares)) % q)
    return shares


@dataclass
class MaskBatch:
    """``count`` single-use masks for each of a list of clients, as limb
    arrays; the leading axis runs over the clients.

    ``r[j]`` (count, 2) goes to client j; ``server_shares[j, i]``
    (2 * count, 2) goes to server i: its value shares of client j's r, then
    its MAC shares of kappa*r.
    """

    r: np.ndarray
    server_shares: np.ndarray

    def __len__(self) -> int:
        """Masks in the batch, over all its clients."""
        return self.r.size // 2


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
        self.key_shares = share(self.mac_key, n, rng, params)
        self._pool = None  # (r, shares) of masks drawn but not yet issued

    def issue_masks(self, client_id: list, count: int) -> MaskBatch:
        """``count`` masks for each client of a list in turn, cut from a pool
        drawn MASK_POOL_SIZE (or ``count``, if larger) at a time; what is left
        of a pool too small for a client is dropped.

        A list gets the masks that one call per client, in list order, would
        get, with one slice of the pool per refill instead of per client.
        """
        J, n = len(client_id), self.n
        # Filled pool slice by pool slice, so no more than one pool is alive.
        r = np.empty((J, count, 2), LIMB_DTYPE)
        shares = np.empty((J, n, 2, count, 2), LIMB_DTYPE)
        done = 0
        while done < J:
            if self._pool is None or len(self._pool[0]) < count:
                self._refill(max(count, MASK_POOL_SIZE))
            pool_r, pool_shares = self._pool
            served = min(J - done, len(pool_r) // count) if count else J - done
            take = served * count
            r[done : done + served] = pool_r[:take].reshape(served, count, 2)
            shares[done : done + served] = (
                pool_shares[:, :, :take].reshape(n, 2, served, count, 2).transpose(2, 0, 1, 3, 4))
            self._pool = (pool_r[take:], pool_shares[:, :, take:])
            done += served
        return MaskBatch(r, shares.reshape(J, n, 2 * count, 2))

    def _refill(self, size: int) -> None:
        """Draw ``size`` masks: r and the first n-1 value and MAC shares
        uniform, the last share of each the remainder. The generator is
        seeded from the dealer's Random, so masks are deterministic per seed."""
        gen = np.random.default_rng(self._rng.getrandbits(128))
        params = self.params
        r = random_vector(gen, (size,), params)
        head = random_vector(gen, (2, self.n - 1, size), params)
        # The last shares of r and of kappa*r, from one reduction.
        scale = from_ints([1, self.mac_key]).reshape(2, 1, 2)
        last = vec_sub_sum(r, head, params, axis=1, scale=scale)
        shares = np.concatenate([head, last[:, None]], axis=1)  # (value/MAC, server, mask)
        self._pool = (r, shares.transpose(1, 0, 2, 3))


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


def batch_coefficients(coin: bytes, count: int, params: FieldParams) -> np.ndarray:
    """Public coefficients (count, 2) for one batched MAC check: SHA-256(coin + i) mod q."""
    digests = b"".join(hashlib.sha256(coin + i.to_bytes(4, "little")).digest()
                       for i in range(count))
    if params.q == DEFAULT_MODULUS:
        s = np.frombuffer(digests, dtype="<u4").reshape(count, 8).astype(np.uint64)
        return _reduce32(s[:, :4] + (s[:, 4:] << np.uint64(1)))  # 2^128 = 2
    return from_ints([int.from_bytes(digests[k : k + 32], "little") % params.q
                      for k in range(0, len(digests), 32)])


def check_openings(value_shares, mac_shares, kappa_shares, coeffs, params: FieldParams):
    """The MAC check of stacked openings, on limb arrays.

    ``value_shares`` (..., n, d, 2) are n value shares of one opened vector
    and ``mac_shares`` (..., n, d, 2), broadcast against them, the n tag
    shares of kappa times it; leading axes stack independent openings.
    Returns the opened vectors (..., d, 2) and each server's sigma
    (..., n, 2) on the ``coeffs`` (d, 2) combination:
    sigma_i = <coeffs, mac_i> - kappa_i * <coeffs, opened>. The opening
    passes iff its sigmas sum to 0; a tampered value passes with
    probability 1/q.
    """
    opened = vec_sum(value_shares, params, axis=-3)
    combined = vec_dot(coeffs, opened, params)
    tags = vec_dot(coeffs, mac_shares, params)
    return opened, vec_sub(tags, vec_mul(kappa_shares, combined[..., None, :], params), params)
