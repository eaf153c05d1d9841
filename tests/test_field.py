import math

import numpy as np
import pytest

from privateyes.field import (
    DEFAULT_MODULUS,
    ELEMENT_BYTES,
    DecodeOverflowError,
    EncodingRangeError,
    FieldError,
    FieldParams,
    FixedPointCodec,
    from_ints,
    is_prime,
    to_ints,
    vec_add,
    vec_mul,
    vec_sub,
    vector_from_bytes,
    vector_to_bytes,
)

P23 = FieldParams(q=23, f_bits=0)


def test_default_modulus_is_mersenne_prime():
    assert DEFAULT_MODULUS == 2**127 - 1
    assert is_prime(DEFAULT_MODULUS)


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 23, 97}
    for n in range(2, 100):
        assert is_prime(n) == (n in primes or all(n % p for p in range(2, n)))
    assert not is_prime(1)
    assert not is_prime(0)


def test_params_reject_composite():
    with pytest.raises(FieldError):
        FieldParams(q=21)
    with pytest.raises(FieldError):
        FieldParams(q=2**128)  # does not fit 16 bytes


def test_element_arithmetic_mod_23():
    a, b = from_ints([20]), from_ints([5])
    assert to_ints(vec_add(a, b, P23)) == [2]
    assert to_ints(vec_sub(a, b, P23)) == [15]
    assert to_ints(vec_mul(a, b, P23)) == [100 % 23]


def test_unsigned_codec_integer_mode():
    codec = FixedPointCodec(P23, signed=False)
    assert codec.encode(3) == 3
    assert codec.decode(21) == 21.0
    assert codec.decode(21) / 3 == 7.0
    with pytest.raises(EncodingRangeError):
        codec.encode(-1)


def test_signed_codec_roundtrip():
    codec = FixedPointCodec()
    for x in [0.0, 1.0, -1.0, 0.5, -123.456, 3.14159, -2**20 + 0.25]:
        assert codec.decode(codec.encode(x)) == pytest.approx(x, abs=2**-16)


def test_signed_codec_negative_goes_to_upper_half():
    codec = FixedPointCodec()
    e = codec.encode(-1.0)
    assert e > codec.params.q // 2
    assert codec.decode(e) == -1.0


def test_encode_sum_matches_field_sum():
    codec = FixedPointCodec()
    q = codec.params.q
    rng = np.random.default_rng(0)
    xs = rng.normal(0, 10, 50)
    total = sum(codec.encode(x) for x in xs) % q
    assert codec.decode(total) == pytest.approx(sum(codec.quantize(xs)), abs=1e-9)


def test_headroom_check_rejects_small_modulus_signed():
    with pytest.raises(FieldError):
        FixedPointCodec(P23)  # signed mode needs headroom
    FixedPointCodec(P23, signed=False)  # integer mode is fine


def test_encode_range_error():
    codec = FixedPointCodec()
    with pytest.raises(EncodingRangeError):
        codec.encode(2.0**41)
    with pytest.raises(EncodingRangeError):
        codec.encode(float("nan"))


def test_decode_overflow_error():
    codec = FixedPointCodec()
    with pytest.raises(DecodeOverflowError):
        codec.decode(2 ** (16 + 40) + 5)


def test_quantize_is_idempotent():
    codec = FixedPointCodec()
    xs = np.random.default_rng(1).normal(0, 1, 20)
    once = codec.quantize(xs)
    assert np.array_equal(codec.quantize(once), once)


def test_element_serialization_roundtrip():
    v = 2**126 + 12345
    data = vector_to_bytes([v])
    assert len(data) == ELEMENT_BYTES
    assert to_ints(vector_from_bytes(data)) == [v]
    with pytest.raises(FieldError):
        vector_from_bytes(b"\x00" * 7)


def test_vector_serialization_roundtrip():
    vec = [0, 1, 22, 2**100]
    data = vector_to_bytes(vec)
    assert len(data) == 4 * ELEMENT_BYTES
    assert to_ints(vector_from_bytes(data)) == vec
    with pytest.raises(FieldError):
        vector_from_bytes(data[:-1])


def test_scale():
    assert FixedPointCodec().scale == 2**16
    assert math.log2(FixedPointCodec(FieldParams(f_bits=8)).scale) == 8
