"""Property tests: the limb-vector kernels and the vectorised codec against
Python-int arithmetic and the scalar codec."""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privateyes.field import (
    ELEMENT_BYTES,
    DecodeOverflowError,
    EncodingRangeError,
    FieldParams,
    FixedPointCodec,
    from_ints,
    random_vector,
    to_ints,
    vec_add,
    vec_mul,
    vec_sub,
    vec_sum,
    vector_from_bytes,
    vector_to_bytes,
)

BIG = FieldParams()
Q = BIG.q
P23 = FieldParams(q=23, f_bits=0)
CODEC = FixedPointCodec()
SCALE = CODEC.scale
# The first examples pay numpy's warm-up; time is not what these tests check.
relaxed = settings(deadline=None)

# Elements of [0, q), weighted towards the limb and carry edges.
elements = st.one_of(
    st.integers(0, Q - 1),
    st.integers(Q - 2**16, Q - 1),
    st.integers(0, 2**16),
    st.sampled_from([0, 1, 2**32 - 1, 2**63, 2**64 - 1, 2**64, 2**126, Q - 2, Q - 1]),
)
# Any 128-bit pattern, as a frame off the wire may hold.
wire_values = st.one_of(elements, st.integers(Q, 2**128 - 1))


def pairs_of(values):
    return st.lists(values, min_size=1, max_size=24).flatmap(
        lambda a: st.tuples(st.just(a), st.lists(values, min_size=len(a), max_size=len(a)))
    )


@relaxed
@given(pairs_of(wire_values))
def test_add_sub_neg_match_python_ints(ab):
    a, b = ab
    A, B = from_ints(a), from_ints(b)
    assert to_ints(vec_add(A, B, BIG)) == [(x + y) % Q for x, y in zip(a, b)]
    assert to_ints(vec_sub(A, B, BIG)) == [(x - y) % Q for x, y in zip(a, b)]


@relaxed
@given(pairs_of(wire_values))
def test_elementwise_multiply_matches_python_ints(ab):
    a, b = ab
    assert to_ints(vec_mul(from_ints(a), from_ints(b), BIG)) == [
        x * y % Q for x, y in zip(a, b)
    ]


@relaxed
@given(st.one_of(st.sampled_from([0, 1, Q - 1]), st.integers(0, Q - 1)),
       st.lists(wire_values, min_size=1, max_size=24))
def test_scalar_multiply_matches_python_ints(kappa, b):
    k = from_ints([kappa])[0]
    assert to_ints(vec_mul(k, from_ints(b), BIG)) == [kappa * y % Q for y in b]
    assert to_ints(vec_mul(from_ints(b), k, BIG)) == [kappa * y % Q for y in b]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 6), st.integers(0, 2**32),
       st.sampled_from([BIG, P23]), st.booleans())
def test_cohort_sum_near_q_matches_python_ints(J, d, seed, params, negative_axis):
    rng = Random(seed)
    rows = [[Q - 1 - rng.randrange(2 ** rng.choice([1, 8, 64, 126])) for _ in range(d)]
            for _ in range(J)]
    stacked = np.stack([from_ints(row) for row in rows])
    expected = [sum(row[t] for row in rows) % params.q for t in range(d)]
    # A negative axis counts from the end of the limb array, on both the limb
    # kernels (q = 2^127 - 1) and the Python-int fallback.
    first, second = (-3, -3) if negative_axis else (0, 1)
    assert to_ints(vec_sum(stacked, params, axis=first)) == expected
    # Summing over a later axis gives the same vector.
    assert to_ints(vec_sum(stacked[None], params, axis=second)[0]) == expected


def test_sum_of_1000_maximal_words():
    # Every sublimb at its maximum: the widest accumulators the sum can see.
    stacked = np.full((1000, 3, 2), np.uint64(2**64 - 1))
    assert to_ints(vec_sum(stacked, BIG)) == [1000 * (2**128 - 1) % Q] * 3


@relaxed
@given(st.lists(wire_values, max_size=24))
def test_wire_bytes_are_the_int_encoding(values):
    data = vector_to_bytes(from_ints(values))
    assert data == b"".join(int(v).to_bytes(ELEMENT_BYTES, "little") for v in values)
    assert vector_to_bytes(values) == data
    assert to_ints(vector_from_bytes(data)) == values


@relaxed
@given(pairs_of(st.integers(0, 22)))
def test_small_field_fallback_matches_python_ints(ab):
    a, b = ab
    A, B = from_ints(a), from_ints(b)
    assert to_ints(vec_add(A, B, P23)) == [(x + y) % 23 for x, y in zip(a, b)]
    assert to_ints(vec_sub(A, B, P23)) == [(x - y) % 23 for x, y in zip(a, b)]
    assert to_ints(vec_mul(A, B, P23)) == [x * y % 23 for x, y in zip(a, b)]
    assert to_ints(vec_mul(A[0], B, P23)) == [a[0] * y % 23 for y in b]
    assert to_ints(vec_sum(np.stack([A, B, A]), P23)) == [
        (2 * x + y) % 23 for x, y in zip(a, b)
    ]


class _ScriptedBytes:
    """Generator stand-in returning scripted random bytes."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def bytes(self, n):
        chunk = self.chunks.pop(0)
        assert len(chunk) == n
        return chunk


def test_random_vector_rejects_q():
    # 2^128 - 1 masks to 2^127 - 1 = q, which is redrawn.
    gen = _ScriptedBytes(b"\xff" * 16 + b"\x01" + b"\x00" * 15, b"\x07" + b"\x00" * 15)
    assert to_ints(random_vector(gen, (2,), BIG)) == [7, 1]


def test_random_vector_small_field_uniform_range():
    values = to_ints(random_vector(np.random.default_rng(0), (2000,), P23))
    assert set(values) == set(range(23))


# ---------------------------------------------------------------------------
# Codec: vectorised against the scalar encode/decode
# ---------------------------------------------------------------------------

reals = st.one_of(
    st.floats(-(2.0**40), 2.0**40, exclude_max=True, exclude_min=True, allow_nan=False),
    st.integers(-(2**20), 2**20).map(lambda k: (k + 0.5) / SCALE),  # ties at .5
    st.sampled_from([0.0, -0.0, 2.0**-17, -(2.0**-17), np.nextafter(2.0**40, 0),
                     -np.nextafter(2.0**40, 0)]),
)


def _raised(fn, *args):
    try:
        fn(*args)
    except (EncodingRangeError, DecodeOverflowError) as exc:
        return type(exc), str(exc)
    return None


@relaxed
@given(st.lists(reals, max_size=24))
def test_encode_decode_quantize_match_scalar(xs):
    encoded = CODEC.encode_vector(xs)
    assert to_ints(encoded) == [CODEC.encode(x) for x in xs]
    decoded = CODEC.decode_vector(encoded)
    expected = np.array([CODEC.decode(CODEC.encode(x)) for x in xs], dtype=np.float64)
    assert decoded.tobytes() == expected.tobytes()
    assert CODEC.quantize(xs).tobytes() == expected.tobytes()


def test_encode_ties_round_half_to_even():
    xs = [0.5 / SCALE, 1.5 / SCALE, 2.5 / SCALE, -0.5 / SCALE, -1.5 / SCALE]
    assert to_ints(CODEC.encode_vector(xs)) == [0, 2, 2, 0, Q - 2]
    assert to_ints(CODEC.encode_vector([-0.0])) == [0]


@pytest.mark.parametrize("bad", [2.0**40, -(2.0**40), float("nan"), float("inf")])
def test_encode_range_errors_match_scalar(bad):
    xs = [1.0, bad, 2.0**41]
    assert _raised(CODEC.encode_vector, xs) == _raised(CODEC.encode, bad)
    assert _raised(CODEC.encode_vector, xs)[0] is EncodingRangeError


@relaxed
@given(st.lists(wire_values, min_size=1, max_size=24))
def test_decode_matches_scalar_including_overflow(es):
    expected = _raised(lambda: [CODEC.decode(e) for e in es])
    assert _raised(CODEC.decode_vector, from_ints(es)) == expected
    if expected is None:
        assert CODEC.decode_vector(from_ints(es)).tolist() == [CODEC.decode(e) for e in es]


def test_decode_overflow_at_range_edge():
    edge = 2 ** (16 + 40)
    ok = [edge - 1, Q - (edge - 1)]
    assert CODEC.decode_vector(ok).tolist() == [CODEC.decode(e) for e in ok]
    for e in (edge, Q - edge):
        assert _raised(CODEC.decode_vector, [0, e]) == _raised(CODEC.decode, e)
        assert _raised(CODEC.decode_vector, [0, e])[0] is DecodeOverflowError


@relaxed
@given(st.lists(st.integers(0, 40), max_size=12))
def test_small_field_codec_matches_scalar(xs):
    codec = FixedPointCodec(P23, signed=False)
    encoded = codec.encode_vector(xs)
    assert to_ints(encoded) == [codec.encode(x) for x in xs]
    assert codec.decode_vector(encoded).tolist() == [codec.decode(codec.encode(x)) for x in xs]
    assert _raised(codec.encode_vector, xs + [-1.0]) == _raised(codec.encode, -1.0)


def test_codec_stacks_vectors():
    xs = np.random.default_rng(4).normal(0, 50, (5, 7))
    encoded = CODEC.encode_vector(xs)
    assert encoded.shape == (5, 7, 2)
    for row, enc in zip(xs, encoded):
        assert to_ints(enc) == [CODEC.encode(x) for x in row]
    assert np.array_equal(CODEC.decode_vector(encoded), CODEC.quantize(xs))
