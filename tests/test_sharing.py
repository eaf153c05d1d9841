import hashlib
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privateyes import field
from privateyes.field import (LIMB_DTYPE, FieldParams, from_ints, random_vector, to_ints, vec_add,
                              vec_mul, vec_sub, vec_sum)
from privateyes.sharing import (
    MASK_POOL_SIZE,
    Dealer,
    batch_coefficients,
    check_openings,
    commit,
    public_coin,
    share,
    verify_commit,
)

P23 = FieldParams(q=23, f_bits=0)
BIG = FieldParams()


def _open(shares: list, params: FieldParams) -> int:
    """The value of a sharing, summed by vec_sum as the protocol opens it."""
    return to_ints(vec_sum(from_ints(shares)[:, None], params))[0]


def test_worked_sharing_of_three():
    # 5 + 17 + 4 = 26 = 3 mod 23
    assert _open([5, 17, 4], P23) == 3


def test_share_reconstruct_roundtrip():
    rng = Random(0)
    for x in range(23):
        assert _open(share(x, 3, rng, P23), P23) == x
    for _ in range(20):
        x = rng.randrange(BIG.q)
        assert _open(share(x, 5, rng, BIG), BIG) == x


def test_share_sum_example():
    # (1, 9, 11) in Z_23 opens to 21, and 21 / 3 = 7 client-side.
    s = [1, 9, 11]
    assert _open(s, P23) == 21
    assert _open(s, P23) / 3 == 7.0


def _check(value_shares, mac_shares, kappa_shares, coeffs, params):
    """check_openings of one opening given as int lists: the opened ints,
    the sigma ints and [sum of the sigmas]."""
    opened, sigmas = check_openings(
        *(np.stack([from_ints(v) for v in vs]) for vs in (value_shares, mac_shares)),
        from_ints(kappa_shares), from_ints(coeffs), params)
    return to_ints(opened), to_ints(sigmas), to_ints(vec_sum(sigmas, params)[None])


def test_mac_sigma_worked_example():
    # kappa = 5, y = 3 with value shares (5, 17, 4), mac shares (10, 2, 3),
    # key shares (2, 2, 1): sigma = (4, 19, 0), summing to 0 mod 23.
    key_shares = [2, 2, 1]
    opened, sigmas, total = _check([[5], [17], [4]], [[10], [2], [3]], key_shares, [1], P23)
    assert opened == [3]
    assert sigmas == [4, 19, 0]
    assert total == [0]


def test_mac_sigma_detects_tamper():
    key_shares = [2, 2, 1]
    # Opened value shifted from 3 to 4: sigma = (2, 17, 22), sum 18 != 0.
    opened, sigmas, total = _check([[6], [17], [4]], [[10], [2], [3]], key_shares, [1], P23)
    assert opened == [4]
    assert sigmas == [2, 17, 22]
    assert total == [18]


def test_open_with_mac_check_honest_and_tampered():
    # The honest opening (5, 17, 4) and the tampered one (6, 17, 4), stacked
    # in one call: the first passes (sigmas sum to 0), the second aborts.
    key_shares = [2, 2, 1]
    opened, sigmas = check_openings(from_ints([5, 17, 4, 6, 17, 4]).reshape(2, 3, 1, 2),
                                    from_ints([10, 2, 3])[:, None], from_ints(key_shares),
                                    from_ints([1]), P23)
    assert to_ints(opened.reshape(2, 2)) == [3, 4]
    assert to_ints(vec_sum(sigmas, P23, axis=-2)) == [0, 18]


def _reference_check(value_shares, mac_shares, kappa_shares, coeffs, q):
    """check_openings of one opening in Python ints."""
    opened = [sum(col) % q for col in zip(*value_shares)]
    combined = sum(c * y for c, y in zip(coeffs, opened))
    sigmas = [(sum(c * m for c, m in zip(coeffs, macs)) - k * combined) % q
              for macs, k in zip(mac_shares, kappa_shares)]
    return opened, sigmas


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([P23, BIG]), st.sampled_from([(), (1,), (2,), (2, 3)]),
       st.sampled_from([1, 3, 5]), st.sampled_from([1, 18]), st.integers(0, 2**32))
def test_check_openings_matches_python_ints(params, lead, n, d, seed):
    q = params.q
    rng = Random(seed)
    # A nonzero key and nonzero coefficients, so any one-element shift shows.
    kappa_shares = share(rng.randrange(1, q), n, rng, params)
    mac_key = sum(kappa_shares) % q
    coeffs = [rng.randrange(1, q) for _ in range(d)]
    count = int(np.prod(lead))
    value_shares, mac_shares = [], []
    for _ in range(count):
        xs = [rng.randrange(q) for _ in range(d)]
        per_t = [(share(x, n, rng, params), share(mac_key * x, n, rng, params))
                 for x in xs]
        value_shares.append([[v[i] for v, _ in per_t] for i in range(n)])
        mac_shares.append([[m[i] for _, m in per_t] for i in range(n)])

    def run(vs, ms):
        shape = lead + (n, d, 2)
        opened, sigmas = check_openings(
            np.stack([from_ints(v) for o in vs for v in o]).reshape(shape),
            np.stack([from_ints(m) for o in ms for m in o]).reshape(shape),
            from_ints(kappa_shares), from_ints(coeffs), params)
        assert opened.shape == lead + (d, 2) and sigmas.shape == lead + (n, 2)
        for o, (got_opened, got_sigmas) in enumerate(zip(opened.reshape(count, d, 2),
                                                         sigmas.reshape(count, n, 2))):
            assert (to_ints(got_opened), to_ints(got_sigmas)) == _reference_check(
                vs[o], ms[o], kappa_shares, coeffs, q)
        return to_ints(vec_sum(sigmas, params, axis=-2).reshape(count, 2))

    assert run(value_shares, mac_shares) == [0] * count
    # Shift one value share or one MAC share element of one opening.
    o, i, t = rng.randrange(count), rng.randrange(n), rng.randrange(d)
    for shifted in (value_shares, mac_shares):
        original = shifted[o][i][t]
        shifted[o][i][t] = (original + rng.randrange(1, q)) % q
        totals = run(value_shares, mac_shares)
        assert totals[o] != 0
        assert totals[:o] + totals[o + 1:] == [0] * (count - 1)
        shifted[o][i][t] = original


def test_dealer_key_and_mask_relations():
    rng = Random(7)
    dealer = Dealer(3, rng, BIG)
    assert sum(dealer.key_shares) % BIG.q == dealer.mac_key
    batch = dealer.issue_masks([42], 1)
    vals, macs = zip(*(to_ints(shares) for shares in batch.server_shares[0]))
    assert sum(vals) % BIG.q == to_ints(batch.r[0])[0]
    assert sum(macs) % BIG.q == dealer.mac_key * to_ints(batch.r[0])[0] % BIG.q


@pytest.mark.parametrize("params", [P23, BIG])
def test_bulk_masks_relations_and_determinism(params):
    q = params.q
    dealer = Dealer(3, Random(7), params)
    # The second request does not fit what is left of the first pool.
    batches = [dealer.issue_masks([40], 5), dealer.issue_masks([41], MASK_POOL_SIZE)]
    for batch, count in zip(batches, (5, MASK_POOL_SIZE)):
        assert len(batch) == count
        assert batch.server_shares.shape == (1, 3, 2 * count, 2)
        r = to_ints(batch.r[0])
        assert all(0 <= v < q for v in r)
        per_server = [to_ints(shares) for shares in batch.server_shares[0]]
        for t in range(0, count, 997):
            assert sum(s[t] for s in per_server) % q == r[t]
            assert sum(s[count + t] for s in per_server) % q == dealer.mac_key * r[t] % q
    again = Dealer(3, Random(7), params).issue_masks([40], 5)
    assert np.array_equal(again.r, batches[0].r)
    assert np.array_equal(again.server_shares, batches[0].server_shares)


def _composed_pool(gen, n, size, mac_key, params):
    """A pool's r and (server, value/MAC, mask) shares, the last shares by
    vec_mul, vec_sum and vec_sub, each reduced on its own."""
    r = random_vector(gen, (size,), params)
    secrets = np.stack([r, vec_mul(r, from_ints([mac_key])[0], params)])
    head = random_vector(gen, (2, n - 1, size), params)
    last = vec_sub(secrets, vec_sum(head, params, axis=1), params)
    return r, np.concatenate([head, last[:, None]], axis=1).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("params", [BIG, P23])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.integers(0, 2**64))
def test_pool_equals_the_composed_kernels(n, params, seed):
    """The pool's one reduction gives the bytes of the three-kernel
    composition, also past two blocks of the field kernels."""
    dealer = Dealer(n, Random(seed), params)
    for size in (1, 18, MASK_POOL_SIZE, 2 * field._BLOCK + 1):
        state = dealer._rng.getstate()
        dealer._refill(size)
        shadow = Random()
        shadow.setstate(state)
        gen = np.random.default_rng(shadow.getrandbits(128))
        r, shares = _composed_pool(gen, n, size, dealer.mac_key, params)
        assert dealer._pool[0].tobytes() == r.tobytes()
        assert dealer._pool[1].shape == shares.shape
        assert np.ascontiguousarray(dealer._pool[1]).tobytes() == shares.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3 * MASK_POOL_SIZE // 2)),
                min_size=1, max_size=8))
def test_mask_single_use(calls):
    """No r value and no server's share column is handed out twice, and
    every batch is the front of the pool it is cut from. This is what makes
    mask reuse unreachable: the dealer keeps no consumed-mask state."""
    dealer = Dealer(3, Random(0), BIG)
    rs, columns = [], []
    for cid, count in calls:
        before = dealer._pool
        batch = dealer.issue_masks([cid], count)
        after = dealer._pool[0]
        assert len(batch) == count
        if before is not None and len(before[0]) >= count:
            assert np.array_equal(batch.r[0], before[0][:count])
            assert np.array_equal(after, before[0][count:])
        else:  # refilled: the batch is the front of a fresh pool
            assert len(batch) + len(after) == max(count, MASK_POOL_SIZE)
        rs.append(batch.r[0])
        # One row per value-share column and per MAC-share column: (2 * count, 3 * 2).
        columns.append(batch.server_shares[0].transpose(1, 0, 2).reshape(2 * count, 6))
    # A reissued r or column would repeat its first limb; the fresh ones are
    # uniform on [0, q), so their first limbs all differ.
    for issued in (np.concatenate(rs), np.concatenate(columns)):
        assert len(np.unique(issued[:, 0])) == len(issued)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([1, 18, 1000]),
       st.lists(st.integers(1, 70), min_size=1, max_size=4))
# A pool of 1024 serves 56 clients of 18 masks and drops 16: a cohort that
# spans a refill, one that starts on 34 left (one client fits, then a
# refill), a refill per client, and single masks past the end of a pool.
@example(18, [57])
@example(18, [55, 3])
@example(1000, [3, 2])
@example(1, [1000, 30])
def test_cohort_masks_match_per_client_calls(count, cohorts):
    """One call for a list of clients hands out exactly what one call per
    client would, in order, across pool refills and dropped remainders."""
    cohort_dealer, client_dealer = Dealer(3, Random(3), BIG), Dealer(3, Random(3), BIG)
    first = 0
    for size in cohorts:
        ids = list(range(first, first + size))
        first += size
        batch = cohort_dealer.issue_masks(ids, count)
        assert len(batch) == size * count
        assert batch.r.shape == (size, count, 2)
        assert batch.server_shares.shape == (size, 3, 2 * count, 2)
        for j, cid in enumerate(ids):
            one = client_dealer.issue_masks([cid], count)
            assert np.array_equal(batch.r[j], one.r[0])
            assert np.array_equal(batch.server_shares[j], one.server_shares[0])
        for a, b in zip(cohort_dealer._pool, client_dealer._pool):
            assert np.array_equal(a, b)


def test_mask_ids_unique():
    # Ten single masks from one dealer are ten distinct masks.
    dealer = Dealer(3, Random(0), BIG)
    batches = [dealer.issue_masks([0], 1) for _ in range(10)]
    assert len({tuple(b.r[0, 0]) for b in batches}) == 10
    assert len({b.server_shares.tobytes() for b in batches}) == 10


def test_mask_ownership():
    # Two clients' batches share no mask.
    dealer = Dealer(3, Random(5), BIG)
    a, b = dealer.issue_masks([0], 4), dealer.issue_masks([1], 4)
    assert not {tuple(r) for r in a.r[0]} & {tuple(r) for r in b.r[0]}


def test_commitment_binding_and_hiding_shape():
    digest = commit(b"payload", b"nonce-0123456789")
    assert len(digest) == 32
    assert verify_commit(digest, b"payload", b"nonce-0123456789")
    assert not verify_commit(digest, b"payload2", b"nonce-0123456789")
    assert not verify_commit(digest, b"payload", b"nonce-0123456780")


def test_public_coin_depends_on_all_nonces():
    a = public_coin(1, [b"a" * 16, b"b" * 16])
    b = public_coin(1, [b"a" * 16, b"c" * 16])
    c = public_coin(2, [b"a" * 16, b"b" * 16])
    assert a != b and a != c
    assert a == public_coin(1, [b"a" * 16, b"b" * 16])


def test_batch_coefficients_deterministic_in_range():
    coin = public_coin(3, [b"x" * 16])
    coeffs = to_ints(batch_coefficients(coin, 100, P23))
    assert coeffs == to_ints(batch_coefficients(coin, 100, P23))
    assert all(0 <= c < 23 for c in coeffs)


@pytest.mark.parametrize("params", [BIG, P23, FieldParams(q=2**61 - 1, f_bits=0)],
                         ids=["default", "P23", "M61"])
@pytest.mark.parametrize("count", [0, 1, 100])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(coin=st.binary(min_size=32, max_size=32))
def test_batch_coefficients_match_int_reference(params, count, coin):
    """Limb coefficients equal int.from_bytes(sha256(coin + i)) mod q."""
    coeffs = batch_coefficients(coin, count, params)
    assert coeffs.dtype == LIMB_DTYPE and coeffs.shape == (count, 2)
    assert to_ints(coeffs) == [
        int.from_bytes(hashlib.sha256(coin + i.to_bytes(4, "little")).digest(), "little")
        % params.q for i in range(count)]


def test_open_vector_with_mac_check():
    rng = Random(13)
    dealer = Dealer(3, rng, BIG)
    xs = [rng.randrange(BIG.q) for _ in range(5)]
    value_vecs = [[None] * 5 for _ in range(3)]
    mac_vecs = [[None] * 5 for _ in range(3)]
    for t, x in enumerate(xs):
        vs = share(x, 3, rng, BIG)
        ms = share(dealer.mac_key * x % BIG.q, 3, rng, BIG)
        for i in range(3):
            value_vecs[i][t] = vs[i]
            mac_vecs[i][t] = ms[i]
    coeffs = to_ints(batch_coefficients(public_coin(0, [rng.randbytes(16)]), 5, BIG))
    opened, _, total = _check(value_vecs, mac_vecs, dealer.key_shares, coeffs, BIG)
    assert (opened, total) == (xs, [0])
    value_vecs[0][2] = (value_vecs[0][2] + 1) % BIG.q
    assert _check(value_vecs, mac_vecs, dealer.key_shares, coeffs, BIG)[2] != [0]


def test_forgery_succeeds_iff_adjustment_matches():
    """A corrupted first server shifts its opening share by delta and its
    sigma by a guess adj; the opening passes iff adj = kappa * delta."""
    rng = Random(17)
    dealer = Dealer(3, rng, P23)
    x = 7
    vs = share(x, 3, rng, P23)
    ms = share(dealer.mac_key * x % 23, 3, rng, P23)
    delta = 4
    opened, sigmas = check_openings(from_ints([(vs[0] + delta) % 23] + vs[1:])[:, None],
                                    from_ints(ms)[:, None], from_ints(dealer.key_shares),
                                    from_ints([1]), P23)
    assert to_ints(opened) == [(x + delta) % 23]
    forged = np.broadcast_to(sigmas, (23, 3, 2)).copy()
    forged[:, 0] = vec_add(forged[:, 0], from_ints(range(23)), P23)  # one guess per row
    passes = [total == 0 for total in to_ints(vec_sum(forged, P23, axis=-2))]
    assert passes == [adj == dealer.mac_key * delta % 23 for adj in range(23)]
