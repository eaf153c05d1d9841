"""Exact arithmetic in the prime field Z_q and fixed-point encoding of reals.

Model weights are reals; everything that crosses a wire is an element of
Z_q. The codec maps reals onto a 2^-f_bits grid, with negative values in
the upper half of the field (two's-complement style) and a centered
representative on the way back. Vectors of field elements are numpy limb
arrays whose bytes are the wire encoding (see "Limb vectors" below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_MODULUS = 2**127 - 1  # Mersenne prime, fast reduction, ~2^127
DEFAULT_FRACTIONAL_BITS = 16
ELEMENT_BYTES = 16
MAGNITUDE_BITS = 40  # encodable reals satisfy |x| < 2^40

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(ValueError):
    """Base class for field and codec errors."""


class EncodingRangeError(FieldError):
    """Real value outside the encodable range."""


class DecodeOverflowError(FieldError):
    """Centered representative too large; signals aggregation wraparound."""


@lru_cache(maxsize=None)  # every FieldParams tests its modulus; most share one
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Modulus and fixed-point precision shared by all parties."""

    q: int = DEFAULT_MODULUS
    f_bits: int = DEFAULT_FRACTIONAL_BITS

    def __post_init__(self):
        if self.q < 2 or not is_prime(self.q):
            raise FieldError(f"modulus {self.q} is not prime")
        if self.q >= 2 ** (8 * ELEMENT_BYTES):
            raise FieldError("modulus does not fit the 16-byte wire encoding")
        if self.f_bits < 0:
            raise FieldError("f_bits must be non-negative")


@dataclass(frozen=True)
class FixedPointCodec:
    """Real <-> field bridge at resolution 2^-f_bits.

    ``signed=False`` gives plain unsigned residue semantics (integer mode,
    used by the worked small-field examples); the default signed mode maps
    negatives to the upper half of Z_q and decodes the centered
    representative.
    """

    params: FieldParams = FieldParams()
    signed: bool = True

    def __post_init__(self):
        self.check_headroom(1)

    def check_headroom(self, count: int) -> None:
        """Sums of ``count`` encoded values must never wrap:
        count * 2^(f_bits + 40) < q/2 in signed mode."""
        bound = count * 2 ** (self.params.f_bits + MAGNITUDE_BITS)
        if self.signed and bound >= self.params.q // 2:
            raise FieldError(f"modulus too small for the fixed-point headroom of "
                             f"sums of {count} values at f_bits = {self.params.f_bits}")

    @property
    def scale(self) -> int:
        return 2**self.params.f_bits

    def encode(self, x: float) -> int:
        if not np.isfinite(x) or abs(x) >= 2**MAGNITUDE_BITS:
            raise EncodingRangeError(f"value {x!r} outside encodable range")
        if not self.signed and x < 0:
            raise EncodingRangeError("unsigned codec cannot encode negatives")
        return round(x * self.scale) % self.params.q

    def decode(self, e: int) -> float:
        e %= self.params.q
        if not self.signed:
            return e / self.scale
        centered = e if e <= self.params.q // 2 else e - self.params.q
        if abs(centered) >= 2 ** (self.params.f_bits + MAGNITUDE_BITS):
            raise DecodeOverflowError(f"centered magnitude {centered} too large")
        return centered / self.scale

    @property
    def _vectorised(self) -> bool:
        # Limb kernels decode the centered representative through int64.
        return (
            self.signed
            and self.params.q == DEFAULT_MODULUS
            and self.params.f_bits + MAGNITUDE_BITS <= 63
        )

    def _in_range(self, xs) -> np.ndarray:
        """xs as float64, raising the error ``encode`` raises for its first bad x."""
        xs = np.asarray(xs, dtype=np.float64)
        bad = ~np.isfinite(xs) | (np.abs(xs) >= 2.0**MAGNITUDE_BITS)
        if not self.signed:
            bad |= xs < 0
        if bad.any():
            self.encode(float(xs.reshape(-1)[np.argmax(bad)]))
        return xs

    def encode_vector(self, xs) -> np.ndarray:
        """Limb array of ``encode(x)`` for every x of a real array of any
        shape, raising the error ``encode`` raises for the first bad x."""
        xs = self._in_range(xs)
        if not self._vectorised:
            ints = [self.encode(x) for x in xs.reshape(-1).tolist()]
            return from_ints(ints).reshape(xs.shape + (2,))
        # round() and rint() both round half to even; the product is exact.
        v = np.rint(xs * self.scale).astype(np.int64)
        out = np.empty(v.shape + (2,), dtype=LIMB_DTYPE)
        neg = v < 0
        # A negative v maps to q + v = (2^63 - 1) * 2^64 + (2^64 - 1 + v).
        out[..., 0] = np.where(neg, v - 1, v).astype(np.uint64)
        out[..., 1] = np.where(neg, _M63, 0)
        return out

    def decode_vector(self, es) -> np.ndarray:
        """``decode`` of every element of a limb array (or of a sequence of
        ints), raising ``DecodeOverflowError`` as ``decode`` does."""
        es = as_limbs(es)
        if not self._vectorised:
            flat = [self.decode(e) for e in to_ints(es.reshape(-1, 2))]
            return np.array(flat, dtype=np.float64).reshape(es.shape[:-1])
        es = _reduce32(_sublimbs(es, "<u4").astype(np.uint64))  # canonical, like e %= q
        lo, hi = es[..., 0], es[..., 1]
        bound = np.uint64(2 ** (self.params.f_bits + MAGNITUDE_BITS))
        magnitude = np.where(hi == 0, lo, ~lo)  # ~lo = q - e when hi = 2^63 - 1
        ok = ((hi == 0) | (hi == _M63)) & (magnitude < bound)
        if not ok.all():
            self.decode(to_ints(es.reshape(-1, 2))[np.argmin(ok)])
        magnitude = magnitude.astype(np.int64)
        return np.where(hi == 0, magnitude, -magnitude) / self.scale

    def quantize(self, xs) -> np.ndarray:
        """Snap a real vector onto the codec grid (encode then decode)."""
        # Exact from f_bits = 13 on, where x * scale near decode's bound is an
        # integer already; + 0.0 turns -0.0 into the 0.0 that decode gives.
        if not self._vectorised or self.params.f_bits + MAGNITUDE_BITS < 53:
            return self.decode_vector(self.encode_vector(xs))
        return (np.rint(self._in_range(xs) * self.scale) + 0.0) / self.scale


# ---------------------------------------------------------------------------
# Limb vectors: the one representation of field vectors
# ---------------------------------------------------------------------------
#
# A vector of d field elements is a C-contiguous (d, 2) array of little-endian
# uint64 limbs (lo, hi), so ``.tobytes()`` is the wire encoding: 16 bytes per
# element, little-endian. Leading axes stack vectors, e.g. (J, d, 2) for a
# cohort. For q = 2^127 - 1 the kernels below work on 32- and 16-bit sublimbs
# in uint64 and fold with 2^127 = 1 and 2^128 = 2 (mod q); for any other
# modulus the same functions fall back to Python-int arithmetic.
#
# A kernel adds up unreduced sublimbs and reduces once: a sum of at most 2^32
# sublimbs stays below 2^64 - 2^32, which ``_reduce_block`` takes, so a
# difference with a sum (``vec_sub_sum``, the dealer's last shares) is one
# reduction, not three. Past two blocks of _BLOCK elements the add, sub and
# sum kernels and the reduction run block by block along the leading axes,
# so their temporaries stay the size of a block whatever J and d are. Inputs
# may hold any 128-bit pattern (a tampered frame can carry limbs >= q); every
# result is canonical, so neither the blocks nor the order of reduction can
# change a bit.

LIMB_DTYPE = np.dtype("<u8")
_LOW64 = 2**64 - 1
_M16, _M32 = np.uint64(2**16 - 1), np.uint64(2**32 - 1)
_M63 = np.uint64(2**63 - 1)
_MAX = np.uint64(2**64 - 1)
_ONE, _S16, _S32, _S63 = (np.uint64(k) for k in (1, 16, 32, 63))


def from_ints(values) -> np.ndarray:
    """Limb vector of a sequence of ints in [0, 2^128)."""
    ints = [int(v) for v in values]
    out = np.empty((len(ints), 2), dtype=LIMB_DTYPE)
    out[:, 0] = [v & _LOW64 for v in ints]
    out[:, 1] = [v >> 64 for v in ints]
    return out


def to_ints(limbs) -> list:
    """Python ints of a (d, 2) limb vector."""
    return [lo | (hi << 64) for lo, hi in np.asarray(limbs).tolist()]


def as_limbs(values) -> np.ndarray:
    """A limb vector as is, or a sequence of ints converted to one."""
    if isinstance(values, np.ndarray) and values.dtype == LIMB_DTYPE:
        return np.ascontiguousarray(values)
    return from_ints(values)


def random_vector(gen: np.random.Generator, shape: tuple, params: FieldParams) -> np.ndarray:
    """Limb array of the given leading shape, uniform on [0, q).

    Each element is two raw 64-bit words of ``gen``'s bit generator (lo,
    then hi), masked to q.bit_length() bits; elements >= q are redrawn, in
    order, from further words. For PCG64 the words are the bytes
    ``gen.bytes`` would return, and for a non-empty shape the generator ends
    where ``gen.bytes`` would leave it.
    """
    q = params.q
    top = (1 << q.bit_length()) - 1
    q_lo, q_hi = np.uint64(q & _LOW64), np.uint64(q >> 64)

    def draw(count):
        words = gen.bit_generator.random_raw(2 * count).astype(LIMB_DTYPE, copy=False)
        words = words.reshape(count, 2)
        words[:, 1] &= np.uint64(top >> 64)
        if top < _LOW64:
            words[:, 0] &= np.uint64(top)
        return words

    out = draw(math.prod(shape))
    # One compare screens for elements >= q: for q = 2^127 - 1 only hi = q_hi can be.
    while (out[:, 1] >= q_hi).any():
        reject = (out[:, 1] > q_hi) | ((out[:, 1] == q_hi) & (out[:, 0] >= q_lo))
        redo = int(np.count_nonzero(reject))
        if not redo:
            break
        out[reject] = draw(redo)
    return out.reshape(shape + (2,))


def _sublimbs(a, width: str) -> np.ndarray:
    """Little-endian sublimbs of a limb array (a view where possible)."""
    a = np.asarray(a, dtype=LIMB_DTYPE)
    if a.strides[-1:] != (LIMB_DTYPE.itemsize,):
        a = np.ascontiguousarray(a)
    return a.view(width)


_BLOCK = 4096  # elements per block of a kernel whose result is larger than two blocks


def _blockwise(kernel, shape: tuple) -> np.ndarray:
    """The limb array of leading shape ``shape`` that ``kernel(index)``
    gives block by block: ``index`` is a tuple of slices over those axes,
    () for all of it. Up to two blocks it is one call; past that, blocks
    of at most _BLOCK elements (whole rows of the axes after the first
    where they fit), so no temporary of the kernel grows with the result."""
    if math.prod(shape) <= 2 * _BLOCK:
        return kernel(())
    out = np.empty(shape + (2,), LIMB_DTYPE)
    for index in _blocks(shape):
        out[index] = kernel(index)
    return out


def _blocks(shape: tuple, prefix: tuple = ()):
    inner = math.prod(shape[1:])
    if inner > _BLOCK:
        for i in range(shape[0]):
            yield from _blocks(shape[1:], prefix + (slice(i, i + 1),))
    else:
        step = _BLOCK // inner
        for i in range(0, shape[0], step):
            yield prefix + (slice(i, i + step),)


def _reduce_block(s):
    """Canonical limbs of sum_k s[..., k] * 2^(32k) mod 2^127 - 1, for each
    s[..., k] < 2^64 - 2^32 (a sum of at most 2^32 sublimbs)."""
    if s.ndim == 1:  # one element: the in-place steps below need arrays
        return _reduce_block(s[None])[0]
    # With carries t1 = s1 + (s0 >> 32), t2 = s2 + (t1 >> 32) and
    # t3 = s3 + (t2 >> 32): lo is s0 + s1 2^32 and hi is t2 + s3 2^32, both
    # mod 2^64, and t3 >> 32 counts multiples of 2^128 = 2.
    lo = s[..., 1] << _S32
    lo += s[..., 0]
    t = s[..., 0] >> _S32
    t += s[..., 1]
    t >>= _S32
    t += s[..., 2]
    hi = s[..., 3] << _S32
    hi += t
    t >>= _S32
    t += s[..., 3]
    t >>= _S32
    t <<= _ONE
    # Fold with 2^127 = 1: the addend t stays below 2^35, so lo carries at
    # most once; then hi <= 2^63, and hi = 2^63 only after that carry, so
    # lo + (hi >> 63) cannot carry.
    t += hi >> _S63
    hi &= _M63
    lo += t
    hi += lo < t
    out = np.empty(lo.shape + (2,), dtype=LIMB_DTYPE)
    np.right_shift(hi, _S63, out=t)
    np.bitwise_and(hi, _M63, out=out[..., 1])
    np.add(lo, t, out=out[..., 0])
    if (out[..., 1] == _M63).any():
        out[(out[..., 0] == _MAX) & (out[..., 1] == _M63)] = 0  # q itself
    return out


def _reduce32(s):
    """``_reduce_block`` of uint64 sublimb sums s (..., 4), block by block."""
    return _blockwise(lambda i: _reduce_block(s[i]), s.shape[:-1])


# 16-bit sublimb products a_i * b_j land on digit (i + j) mod 8, and digits
# past 2^128 come back doubled (2^128 = 2): digit m of a*b is
# sum_i a_i * b_{(m - i) mod 8} * (2 if i > m else 1).
_ROT = np.array([[(m - i) % 8 for m in range(8)] for i in range(8)])
_ROT_WEIGHT = np.array([[1 + (i > m) for m in range(8)] for i in range(8)], dtype=np.uint64)
# a - b = a + ~b + (q - 1) mod q, as ~b = 2^128 - 1 - b. In 32-bit sublimbs
# ~b is 2^32 - 1 - b, so a - b is a + _SUB_BIAS - b, with _SUB_BIAS the
# sublimbs of q - 1 plus 2^32 - 1 each; subtracting m terms takes m biases.
_SUB_BIAS = np.array([2**32 - 2, 2**32 - 1, 2**32 - 1, 2**31 - 1], dtype=np.uint64) + _M32


def _mul_sums(a, b):
    """Unreduced 32-bit sublimb sums (..., 4) of a * b, each below 2^53."""
    if np.size(a) < np.size(b):
        a, b = b, a  # b is expanded 16-fold below, so make it the smaller operand
    W = _sublimbs(b, "<u2").astype(np.uint64)[..., _ROT] * _ROT_WEIGHT
    # a @ W[..., k] is sublimb k of a*b, digit 2k + 2^16 digit 2k+1 (each < 2^36):
    # every partial sum is an integer < 2^53, exact in any float64 BLAS order.
    W = (W[..., 0::2] + (W[..., 1::2] << _S16)).astype(np.float64)
    A = _sublimbs(a, "<u2").astype(np.float64)
    if np.ndim(b) == 1 or np.shape(b)[-2] == 1:  # a scalar per vector: one matmul
        s = np.atleast_2d(A) @ W.reshape(np.shape(b)[:-2] + (8, 4))
    else:
        s = (A[..., None, :] @ W)[..., 0, :]
    return s.astype(np.uint64)


_DOT_BLOCK = 1 << 20  # coordinates per matmul: digit-pair sums < 2^52 are exact in float64


def _dot_mersenne(c, x):
    C = _sublimbs(c, "<u2").astype(np.float64)
    X = _sublimbs(x, "<u2").astype(np.float64)
    # M[v, i, j] = sum_e c_ei x_vej over the vectors v of x, each < d 2^32.
    M = (C.T @ X.reshape((np.prod(X.shape[:-2], dtype=int),) + X.shape[-2:])).astype(np.uint64)
    digits = (np.take_along_axis(M, _ROT[None], 2) * _ROT_WEIGHT).sum(axis=1)  # each < 2^56
    # Carry each digit's top above 16 bits into the next (digit 7's: 2^128 = 2).
    carry = digits >> _S16
    digits &= _M16
    digits[:, 1:] += carry[:, :7]
    digits[:, 0] += carry[:, 7] << _ONE
    return _reduce32(digits[:, 0::2] + (digits[:, 1::2] << _S16)).reshape(X.shape[:-2] + (2,))


def _as_objects(a) -> np.ndarray:
    a = np.asarray(a, dtype=LIMB_DTYPE)
    return a[..., 0].astype(object) + (a[..., 1].astype(object) << 64)


def _from_objects(values, q: int) -> np.ndarray:
    values = np.asarray(np.asarray(values, dtype=object) % q, dtype=object)
    out = np.empty(values.shape + (2,), dtype=LIMB_DTYPE)
    out[..., 0] = values & _LOW64
    out[..., 1] = values >> 64
    return out


def _broadcast32(a, b):
    """32-bit sublimb views of two broadcastable limb arrays and their
    broadcast vector shape; past two blocks both are broadcast to it (as
    views), so that one block index applies to each."""
    a, b = _sublimbs(a, "<u4"), _sublimbs(b, "<u4")
    if a.shape == b.shape:
        return a.shape[:-1], a, b
    shape = np.broadcast_shapes(a.shape, b.shape)
    if math.prod(shape[:-1]) > 2 * _BLOCK:
        a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    return shape[:-1], a, b


def _summed(s, axis: int, index: tuple):
    """uint64 sums of sublimbs s over ``axis`` at a block index of the result."""
    return s[index[:axis] + (slice(None),) + index[axis:]].sum(axis=axis, dtype=np.uint64)


def vec_add(a, b, params: FieldParams) -> np.ndarray:
    """Elementwise a + b mod q of broadcastable limb arrays."""
    if params.q == DEFAULT_MODULUS:
        shape, a, b = _broadcast32(a, b)
        return _blockwise(lambda i: _reduce_block(np.add(a[i], b[i], dtype=np.uint64)), shape)
    return _from_objects(_as_objects(a) + _as_objects(b), params.q)


def vec_sub(a, b, params: FieldParams) -> np.ndarray:
    """Elementwise a - b mod q of broadcastable limb arrays."""
    if params.q == DEFAULT_MODULUS:
        shape, a, b = _broadcast32(a, b)
        return _blockwise(lambda i: _reduce_block(np.add(a[i], _SUB_BIAS - b[i])), shape)
    return _from_objects(_as_objects(a) - _as_objects(b), params.q)


def vec_sum(a, params: FieldParams, axis: int = 0) -> np.ndarray:
    """Sum mod q over a leading (non-limb) axis; exact for up to 2^32 terms.
    A negative axis counts from the end of ``a``, limb axis included, so -2
    is the last vector axis."""
    axis = range(np.ndim(a))[axis]  # the fallback below drops the limb axis
    if params.q == DEFAULT_MODULUS:
        s = _sublimbs(a, "<u4")
        return _blockwise(lambda i: _reduce_block(_summed(s, axis, i)),
                          s.shape[:axis] + s.shape[axis + 1 : -1])
    return _from_objects(_as_objects(a).sum(axis=axis), params.q)


def vec_sub_sum(a, b, params: FieldParams, axis: int = 0, scale=None) -> np.ndarray:
    """a - (the sum of b over ``axis``) mod q, reduced once, where a has the
    shape of b without that axis; with ``scale`` (one element per vector, as
    ``vec_mul`` takes it), scale * a - sum, whose product has that shape.
    Exact for up to 2^30 terms; ``axis`` counts as in ``vec_sum``."""
    axis = range(np.ndim(b))[axis]
    if params.q != DEFAULT_MODULUS:
        if scale is not None:
            a = vec_mul(scale, a, params)
        return _from_objects(_as_objects(a) - _as_objects(b).sum(axis=axis), params.q)
    # Each sum stays below 2^53 + 2^30 * 2^33, the product's sums included.
    a = _sublimbs(a, "<u4") if scale is None else _mul_sums(scale, a)
    s = _sublimbs(b, "<u4")
    bias = s.shape[axis] * _SUB_BIAS

    def kernel(i):
        total = np.subtract(bias, _summed(s, axis, i))
        total += a[i]
        return _reduce_block(total)

    return _blockwise(kernel, a.shape[:-1])


def vec_mul(a, b, params: FieldParams) -> np.ndarray:
    """Elementwise a * b mod q of broadcastable limb arrays; a (2,) operand
    is a scalar."""
    if params.q == DEFAULT_MODULUS:
        out = _reduce32(_mul_sums(a, b))
        return out[0] if np.ndim(a) == np.ndim(b) == 1 else out
    return _from_objects(_as_objects(a) * _as_objects(b), params.q)


def vec_dot(c, x, params: FieldParams) -> np.ndarray:
    """Inner products sum_e c[e] * x[..., e] mod q of a (d, 2) limb vector
    with each vector of a (..., d, 2) stack, as a (..., 2) limb array."""
    if params.q != DEFAULT_MODULUS:
        return vec_sum(vec_mul(c, x, params), params, axis=-2)
    parts = [_dot_mersenne(c[k : k + _DOT_BLOCK], x[..., k : k + _DOT_BLOCK, :])
             for k in range(0, max(len(c), 1), _DOT_BLOCK)]
    return parts[0] if len(parts) == 1 else vec_sum(np.stack(parts), params)


# ---------------------------------------------------------------------------
# Wire encoding
# ---------------------------------------------------------------------------


def vector_to_bytes(values) -> bytes:
    """Wire bytes of a limb vector (or of a sequence of ints)."""
    return as_limbs(values).tobytes()


def vector_from_bytes(data: bytes) -> np.ndarray:
    """Read-only (len/16, 2) limb vector over the payload's bytes."""
    if len(data) % ELEMENT_BYTES != 0:
        raise FieldError("payload length is not a multiple of the element size")
    return np.frombuffer(data, dtype=LIMB_DTYPE).reshape(-1, 2)
