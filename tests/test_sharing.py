from random import Random

import numpy as np
import pytest

from privateyes.field import FieldParams, to_ints
from privateyes.sharing import (
    ABORT_MAC_FAILURE,
    ABORT_TIMEOUT,
    MASK_POOL_SIZE,
    AdditiveSharing,
    AuthShare,
    Dealer,
    IncompleteSharingError,
    MacKeySharing,
    MaskOwnershipError,
    MaskReuseError,
    ProtocolAbort,
    batch_coefficients,
    client_input,
    commit,
    dealer_setup,
    derive_input_share,
    forgery_succeeds,
    linear_combine_local,
    mac_check_passes,
    mac_sigma,
    open_vector_with_mac_check,
    open_with_mac_check,
    public_coin,
    reconstruct,
    share,
    verify_commit,
)

P23 = FieldParams(q=23, f_bits=0)
BIG = FieldParams()


def test_worked_sharing_of_three():
    # 5 + 17 + 4 = 26 = 3 mod 23
    s = AdditiveSharing(P23, [5, 17, 4])
    assert reconstruct(s) == 3


def test_share_reconstruct_roundtrip():
    rng = Random(0)
    for x in range(23):
        assert reconstruct(share(x, 3, rng, P23)) == x
    for _ in range(20):
        x = rng.randrange(BIG.q)
        assert reconstruct(share(x, 5, rng, BIG)) == x


def test_reconstruct_missing_share():
    s = AdditiveSharing(P23, [5, None, 4])
    with pytest.raises(IncompleteSharingError):
        reconstruct(s)


def test_share_sum_example():
    # (1, 9, 11) in Z_23 opens to 21, and 21 / 3 = 7 client-side.
    s = AdditiveSharing(P23, [1, 9, 11])
    assert reconstruct(s) == 21
    assert reconstruct(s) / 3 == 7.0


def test_mac_sigma_worked_example():
    # kappa = 5, y = 3 with value shares (5, 17, 4), mac shares (10, 2, 3),
    # key shares (2, 2, 1): sigma = (4, 19, 0), summing to 0 mod 23.
    key = MacKeySharing(P23, [2, 2, 1])
    y = 3
    sigmas = [mac_sigma(m, k, y, P23) for m, k in zip([10, 2, 3], key.key_shares)]
    assert sigmas == [4, 19, 0]
    assert mac_check_passes(sigmas, P23)


def test_mac_sigma_detects_tamper():
    key = MacKeySharing(P23, [2, 2, 1])
    # Opened value shifted from 3 to 4: sigma = (2, 17, 22), sum 18 != 0.
    sigmas = [mac_sigma(m, k, 4, P23) for m, k in zip([10, 2, 3], key.key_shares)]
    assert sigmas == [2, 17, 22]
    assert not mac_check_passes(sigmas, P23)


def test_open_with_mac_check_honest_and_tampered():
    key = MacKeySharing(P23, [2, 2, 1])
    rng = Random(1)
    assert open_with_mac_check([5, 17, 4], [10, 2, 3], key, rng) == 3
    with pytest.raises(ProtocolAbort) as exc:
        open_with_mac_check([6, 17, 4], [10, 2, 3], key, rng)
    assert exc.value.reason == ABORT_MAC_FAILURE


def test_open_with_missing_share_times_out():
    key = MacKeySharing(P23, [2, 2, 1])
    with pytest.raises(ProtocolAbort) as exc:
        open_with_mac_check([5, None, 4], [10, 2, 3], key, Random(0))
    assert exc.value.reason == ABORT_TIMEOUT


def test_dealer_key_and_mask_relations():
    rng = Random(7)
    dealer = Dealer(3, rng, BIG)
    assert sum(dealer.key.key_shares) % BIG.q == dealer.mac_key
    mask = dealer.issue_mask(client_id=42)
    assert mask.client_id == 42
    vals = [s.value_share for s in mask.server_shares]
    macs = [s.mac_share for s in mask.server_shares]
    assert sum(vals) % BIG.q == mask.r
    assert sum(macs) % BIG.q == dealer.mac_key * mask.r % BIG.q


@pytest.mark.parametrize("params", [P23, BIG])
def test_bulk_masks_relations_and_determinism(params):
    q = params.q
    dealer = Dealer(3, Random(7), params)
    # The second request does not fit what is left of the first pool.
    batches = [dealer.issue_masks(40, 5), dealer.issue_masks(41, MASK_POOL_SIZE)]
    for batch, count in zip(batches, (5, MASK_POOL_SIZE)):
        assert len(batch) == count
        assert batch.server_shares.shape == (3, 2 * count, 2)
        r = to_ints(batch.r)
        assert all(0 <= v < q for v in r)
        per_server = [to_ints(shares) for shares in batch.server_shares]
        for t in range(0, count, 997):
            assert sum(s[t] for s in per_server) % q == r[t]
            assert sum(s[count + t] for s in per_server) % q == dealer.mac_key * r[t] % q
    again = Dealer(3, Random(7), params).issue_masks(40, 5)
    assert np.array_equal(again.r, batches[0].r)
    assert np.array_equal(again.server_shares, batches[0].server_shares)


def test_mask_ids_unique():
    key, masks = dealer_setup(3, 10, Random(0), BIG)
    assert len({m.mask_id for m in masks}) == 10


def test_client_input_and_derive():
    rng = Random(3)
    dealer = Dealer(3, rng, BIG)
    mask = dealer.issue_mask(client_id=0)
    x = 123456789
    eps = client_input(x, mask, client_id=0, params=BIG)
    assert eps == (x - mask.r) % BIG.q
    shares = [
        derive_input_share(mask.server_shares[i], eps, i, dealer.key.key_shares[i], BIG)
        for i in range(3)
    ]
    assert sum(s.value_share for s in shares) % BIG.q == x
    assert sum(s.mac_share for s in shares) % BIG.q == dealer.mac_key * x % BIG.q


def test_mask_single_use():
    dealer = Dealer(3, Random(5), BIG)
    mask = dealer.issue_mask(client_id=0)
    client_input(1, mask, 0, BIG)
    with pytest.raises(MaskReuseError):
        client_input(2, mask, 0, BIG)


def test_mask_ownership():
    dealer = Dealer(3, Random(5), BIG)
    mask = dealer.issue_mask(client_id=0)
    with pytest.raises(MaskOwnershipError):
        client_input(1, mask, 1, BIG)


def test_linear_combine_local_preserves_mac():
    rng = Random(11)
    dealer = Dealer(3, rng, BIG)
    xs = [rng.randrange(BIG.q) for _ in range(4)]
    coeffs = [rng.randrange(BIG.q) for _ in range(4)]
    per_server = [[] for _ in range(3)]
    for x in xs:
        mask = dealer.issue_mask(0)
        eps = client_input(x, mask, 0, BIG)
        for i in range(3):
            per_server[i].append(
                derive_input_share(mask.server_shares[i], eps, i, dealer.key.key_shares[i], BIG)
            )
    combined = [linear_combine_local(per_server[i], coeffs, BIG) for i in range(3)]
    y = sum(s.value_share for s in combined) % BIG.q
    assert y == sum(c * x for c, x in zip(coeffs, xs)) % BIG.q
    assert sum(s.mac_share for s in combined) % BIG.q == dealer.mac_key * y % BIG.q


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
    coeffs = batch_coefficients(coin, 100, P23)
    assert coeffs == batch_coefficients(coin, 100, P23)
    assert all(0 <= c < 23 for c in coeffs)


def test_open_vector_with_mac_check():
    rng = Random(13)
    dealer = Dealer(3, rng, BIG)
    xs = [rng.randrange(BIG.q) for _ in range(5)]
    value_vecs = [[None] * 5 for _ in range(3)]
    mac_vecs = [[None] * 5 for _ in range(3)]
    for t, x in enumerate(xs):
        vs = share(x, 3, rng, BIG).shares
        ms = share(dealer.mac_key * x % BIG.q, 3, rng, BIG).shares
        for i in range(3):
            value_vecs[i][t] = vs[i]
            mac_vecs[i][t] = ms[i]
    assert open_vector_with_mac_check(value_vecs, mac_vecs, dealer.key, rng) == xs
    value_vecs[0][2] = (value_vecs[0][2] + 1) % BIG.q
    with pytest.raises(ProtocolAbort):
        open_vector_with_mac_check(value_vecs, mac_vecs, dealer.key, rng)


def test_forgery_succeeds_iff_adjustment_matches():
    rng = Random(17)
    dealer = Dealer(3, rng, P23)
    x = 7
    vs = share(x, 3, rng, P23).shares
    ms = share(dealer.mac_key * x % 23, 3, rng, P23).shares
    delta = 4
    for adj in range(23):
        expected = adj == dealer.mac_key * delta % 23
        assert forgery_succeeds(vs, ms, dealer.key, delta, adj) == expected


def test_authshare_is_plain_pair():
    s = AuthShare(3, 5)
    assert (s.value_share, s.mac_share) == (3, 5)
