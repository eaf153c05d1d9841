"""Property tests: the limb-vector kernels and the vectorised codec against
Python-int arithmetic and the scalar codec."""

from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privateyes import field
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
    vec_dot,
    vec_mul,
    vec_sub,
    vec_sub_sum,
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


def _dot_reference(c, x, q):
    """sum_e c[e] * x[..., e] mod q in Python ints, for nested lists x."""
    if x and isinstance(x[0], list):
        return [_dot_reference(c, row, q) for row in x]
    return sum(a * b for a, b in zip(c, x)) % q


def _limbs(values) -> np.ndarray:
    """Limb array of a nested list of ints of any depth."""
    arr = np.array(values, dtype=object)
    return from_ints(arr.reshape(-1).tolist()).reshape(arr.shape + (2,))


def _ints(limbs) -> list:
    return np.array(to_ints(limbs.reshape(-1, 2)), dtype=object).reshape(limbs.shape[:-1]).tolist()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 1, 18, 1000, 2**11 + 1]), st.sampled_from([(), (3,), (2, 3)]),
       st.integers(0, 2**32), st.sampled_from(["random", "wire", "0xFFFF", "q-1"]))
def test_dot_matches_python_ints(d, lead, seed, fill):
    rng = Random(seed)
    draw = {"random": lambda: rng.randrange(Q), "wire": lambda: rng.randrange(2**128),
            "0xFFFF": lambda: 2**128 - 1, "q-1": lambda: Q - 1}[fill]
    c = [draw() for _ in range(d)]
    x = np.array([draw() for _ in range(int(np.prod(lead, dtype=int)) * d)],
                 dtype=object).reshape(lead + (d,)).tolist()
    got = vec_dot(from_ints(c), _limbs(x), BIG)
    assert got.shape == lead + (2,)
    assert _ints(got) == _dot_reference(c, x, Q)


@pytest.mark.parametrize("d", [5, 6, 7, 12, 13])
def test_dot_across_blocks_matches_python_ints(d, monkeypatch):
    # Blocks of 6 coordinates: d on both sides of one and two block edges.
    monkeypatch.setattr(field, "_DOT_BLOCK", 6)
    rng = Random(d)
    c = [rng.choice([Q - 1, 2**128 - 1, rng.randrange(Q)]) for _ in range(d)]
    x = [[rng.choice([Q - 1, 2**128 - 1, rng.randrange(Q)]) for _ in range(d)] for _ in range(3)]
    assert _ints(vec_dot(from_ints(c), _limbs(x), BIG)) == _dot_reference(c, x, Q)


@relaxed
@given(pairs_of(st.integers(0, 22)))
def test_dot_small_field_fallback_matches_python_ints(ab):
    a, b = ab
    x = [b, a, b]
    assert _ints(vec_dot(from_ints(a), _limbs(x), P23)) == _dot_reference(a, x, 23)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((), (7,)),          # (2,) x (d, 2): the dealer's kappa * r
    ((7,), ()),
    ((1,), ()),          # (1, 2) x (2,)
    ((), (1,)),          # (2,) x (1, 2): the broadcast keeps the vector axis
    ((), ()),
    ((3, 1), (3, 7)),    # (n, 1, 2) x (n, d, 2): kappa_i * sum of offsets
    ((3,), (3, 1)),      # (n, 2) x (n, 1, 2): kappa_i * <c, opened_k>
    ((3, 7), (3, 7)),    # elementwise, no scalar operand
    ((2, 1, 7), (3, 7)),
])
def test_scalar_products_broadcast_like_python_ints(a_shape, b_shape):
    rng = Random(str((a_shape, b_shape)))
    a = np.array([rng.choice([Q - 1, 2**128 - 1, rng.randrange(Q)])
                  for _ in range(int(np.prod(a_shape, dtype=int)))], dtype=object).reshape(a_shape)
    b = np.array([rng.choice([Q - 1, 2**128 - 1, rng.randrange(Q)])
                  for _ in range(int(np.prod(b_shape, dtype=int)))], dtype=object).reshape(b_shape)
    got = vec_mul(_limbs(a.tolist()), _limbs(b.tolist()), BIG)
    expected = np.asarray((a * b) % Q, dtype=object)
    assert got.shape == expected.shape + (2,)
    assert _ints(got) == expected.tolist()


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


# ---------------------------------------------------------------------------
# Blocked kernels: results past two blocks, against Python ints
# ---------------------------------------------------------------------------

# Vector lengths around one and two blocks of 4 (the block size in these
# tests): B - 1, B, B + 1 and 2B - 1, 2B, 2B + 1.
_EDGES = [3, 4, 5, 7, 8, 9]


def _draw(rng, shape, canonical):
    """Object array of ints: uniform below q, or any 128-bit pattern with
    the limb and carry edges, as a tampered frame may carry."""
    pick = (lambda: rng.randrange(Q)) if canonical else (
        lambda: rng.choice([rng.randrange(2**128), 2**128 - 1, Q, Q - 1, 2**127]))
    return np.array([pick() for _ in range(int(np.prod(shape, dtype=int)))],
                    dtype=object).reshape(shape)


def _limbs_of(values) -> np.ndarray:
    return from_ints(values.reshape(-1).tolist()).reshape(values.shape + (2,))


def _ints_of(limbs) -> np.ndarray:
    return np.array(to_ints(limbs.reshape(-1, 2)), dtype=object).reshape(limbs.shape[:-1])


# (a, b) leading shapes: equal, b broadcast along rows, a broadcast either way.
_PAIRS = st.sampled_from(_EDGES).flatmap(lambda length: st.sampled_from([
    ((length,), (length,)),
    ((3, length), (3, length)),
    ((3, length), (length,)),
    ((1, length), (3, length)),
    ((3, 1), (3, length)),
    ((2, 3, length), (3, 1)),
    ((length, 3), (length, 3)),
]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_PAIRS, st.booleans(), st.integers(0, 2**32))
def test_blocked_add_sub_match_python_ints(shapes, canonical, seed):
    rng = Random(seed)
    a, b = (_draw(rng, shape, canonical) for shape in shapes)
    with mock.patch.object(field, "_BLOCK", 4):
        added = vec_add(_limbs_of(a), _limbs_of(b), BIG)
        subtracted = vec_sub(_limbs_of(a), _limbs_of(b), BIG)
    assert _ints_of(added).tolist() == ((a + b) % Q).tolist()
    assert _ints_of(subtracted).tolist() == ((a - b) % Q).tolist()


# (shape, axis) of a sum: the summed axis first, between the result's
# axes, and last, with results on both sides of two blocks.
_SUMS = st.sampled_from(_EDGES).flatmap(lambda length: st.sampled_from([
    ((3, length), 0),
    ((5, 2, length), 0),
    ((2, 3, length), 1),
    ((length, 2, 3), -2),
    ((2, length, 3), -2),
    ((length, 3), -3),
    ((0, length), 0),
]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SUMS, st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_blocked_sums_match_python_ints(case, canonical, scaled, seed):
    (shape, axis), rng = case, Random(seed)
    b = _draw(rng, shape, canonical)
    sum_axis = range(len(shape))[axis if axis >= 0 else axis + 1]  # axis counts the limb axis
    rest = shape[:sum_axis] + shape[sum_axis + 1:]
    a = _draw(rng, rest, canonical)
    kappa = rng.choice([1, Q - 1, rng.randrange(2**128)])
    with mock.patch.object(field, "_BLOCK", 4):
        summed = vec_sum(_limbs_of(b), BIG, axis=axis)
        if scaled:
            last = vec_sub_sum(_limbs_of(a), _limbs_of(b), BIG, axis=axis,
                               scale=from_ints([kappa]))
        else:
            last = vec_sub_sum(_limbs_of(a), _limbs_of(b), BIG, axis=axis)
    total = b.sum(axis=sum_axis) if shape[sum_axis] else np.zeros(rest, dtype=object) + 0
    assert _ints_of(summed).tolist() == (total % Q).tolist()
    assert _ints_of(last).tolist() == (((kappa if scaled else 1) * a - total) % Q).tolist()


@pytest.mark.parametrize("length", [2 * field._BLOCK - 1, 2 * field._BLOCK,
                                    2 * field._BLOCK + 1])
def test_kernels_at_the_block_size_match_python_ints(length):
    # The module's own block size, around the two blocks past which it cuts.
    rng = Random(length)
    a, b = _draw(rng, (2, length), False), _draw(rng, (length,), False)
    A, B = _limbs_of(a), _limbs_of(b)
    assert _ints_of(vec_add(A, B, BIG)).tolist() == ((a + b) % Q).tolist()
    assert _ints_of(vec_sub(B, A, BIG)).tolist() == ((b - a) % Q).tolist()
    assert _ints_of(vec_sum(A, BIG)).tolist() == (a.sum(axis=0) % Q).tolist()
    assert _ints_of(vec_sub_sum(B, A, BIG)).tolist() == ((b - a.sum(axis=0)) % Q).tolist()
    assert _ints_of(vec_mul(A[0], B, BIG)).tolist() == ((a[0] * b) % Q).tolist()


@relaxed
@given(pairs_of(st.integers(0, 22)), st.booleans())
def test_sub_sum_small_field_fallback_matches_python_ints(ab, scaled):
    a, b = ab
    stack = np.stack([from_ints(b), from_ints(a)])
    scale = from_ints([5]) if scaled else None
    got = vec_sub_sum(from_ints(a), stack, P23, scale=scale)
    assert to_ints(got) == [((5 if scaled else 1) * x - x - y) % 23 for x, y in zip(a, b)]


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


class _ScriptedWords:
    """Generator stand-in whose bit generator returns scripted raw 64-bit words."""

    def __init__(self, *chunks):
        self.chunks = [np.array(chunk, dtype=np.uint64) for chunk in chunks]
        self.bit_generator = self

    def random_raw(self, size):
        chunk = self.chunks.pop(0)
        assert len(chunk) == size
        return chunk


def test_random_vector_rejects_q():
    # 2^128 - 1 masks to 2^127 - 1 = q, which is redrawn.
    gen = _ScriptedWords([2**64 - 1, 2**64 - 1, 1, 0], [7, 0])
    assert to_ints(random_vector(gen, (2,), BIG)) == [7, 1]


def _random_vector_from_bytes(gen, shape, params):
    """random_vector as drawn through ``gen.bytes``: 16 bytes per element,
    masked to q.bit_length() bits, elements >= q redrawn in order."""
    q = params.q
    top = (1 << q.bit_length()) - 1
    mask = np.array([top & (2**64 - 1), top >> 64], dtype=np.uint64)
    count = int(np.prod(shape, dtype=int))
    out = np.frombuffer(gen.bytes(ELEMENT_BYTES * count), dtype="<u8").reshape(count, 2) & mask
    q_lo, q_hi = np.uint64(q & (2**64 - 1)), np.uint64(q >> 64)
    while True:
        reject = (out[:, 1] > q_hi) | ((out[:, 1] == q_hi) & (out[:, 0] >= q_lo))
        redo = int(np.count_nonzero(reject))
        if not redo:
            return out.reshape(shape + (2,))
        redrawn = np.frombuffer(gen.bytes(ELEMENT_BYTES * redo), dtype="<u8")
        out[reject] = redrawn.reshape(redo, 2) & mask


def _same_stream_position(a, b):
    # gen.bytes may leave a spent half-word in the buffer; has_uint32 = 0 ignores it.
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa["state"], sa["has_uint32"]) == (sb["state"], sb["has_uint32"]) == (sb["state"], 0)


# Moduli that reject a quarter to a half of all draws force redraws.
_DRAW_FIELDS = [BIG, P23, FieldParams(q=2**126 + 7), FieldParams(q=2**64 - 59),
                FieldParams(q=2**64 + 13, f_bits=0), FieldParams(q=2**61 - 1, f_bits=0)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**128 - 1), st.sampled_from(_DRAW_FIELDS),
       st.sampled_from([(0,), (1,), (7,), (2, 3, 5), (1024,)]))
def test_random_vector_equals_the_bytes_path(seed, params, shape):
    raw, through_bytes = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_vector(raw, shape, params)
    assert got.dtype == field.LIMB_DTYPE
    assert got.tobytes() == _random_vector_from_bytes(through_bytes, shape, params).tobytes()
    assert all(v < params.q for v in to_ints(got.reshape(-1, 2)[:64]))
    # gen.bytes(0) draws half a word; no caller draws from a generator after
    # an empty vector (the dealer's n = 1 pool discards it).
    assert _same_stream_position(raw, through_bytes) or got.size == 0


def test_random_vector_redraws_like_the_bytes_path():
    # Half of all 127-bit draws are >= 2^126 + 7: the redraw loop runs.
    params = FieldParams(q=2**126 + 7)
    for seed in range(5):
        raw, through_bytes = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_vector(raw, (64,), params)
        assert got.tobytes() == _random_vector_from_bytes(through_bytes, (64,), params).tobytes()
        assert _same_stream_position(raw, through_bytes)


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


@relaxed
@given(st.lists(reals, max_size=24), st.sampled_from([0, 12, 13, 16, 23]),
       st.sampled_from([None, 2.0**40, -(2.0**40), float("nan"), float("-inf")]))
def test_quantize_is_decode_of_encode(xs, f_bits, bad):
    # quantize skips the field round trip from f_bits = 13 on; ties, +-0 and
    # the range edges must still come out as decode(encode(x)), bit for bit,
    # or raise what it raises (below 13, x near 2^40 rounds onto the bound).
    codec = FixedPointCodec(FieldParams(f_bits=f_bits))
    expected = _raised(lambda: codec.decode_vector(codec.encode_vector(xs)).tobytes())
    assert _raised(codec.quantize, xs) == expected
    if expected is None:
        expected = codec.decode_vector(codec.encode_vector(xs))
        assert codec.quantize(xs).tobytes() == expected.tobytes()
        assert codec.quantize(np.reshape(xs, (-1, 1))).tobytes() == expected.tobytes()
    if bad is not None:
        assert _raised(codec.quantize, xs + [bad]) == _raised(codec.encode_vector, xs + [bad])


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
