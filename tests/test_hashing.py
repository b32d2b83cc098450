import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from unlearn.field import BN254_SCALAR_FIELD, VALUE_BITS, FixedPointOverflow, ScaleConfig
from unlearn.hashing import (
    LIMB_BITS,
    UID_BITS,
    DataPoint,
    EmptyModelError,
    HashConfig,
    MembershipPath,
    NotMemberError,
    _compress,
    absorb,
    compute_tree_path,
    empty_root,
    hash2,
    hash_data,
    hash_data_point,
    hash_model_weights,
    hash_unlearn,
    point_layout,
    verify_tree_path,
)
from unlearn.hashing import TAG_EMPTY, TAG_MODEL, TAG_NODE, TAG_POINT

H = HashConfig()
P = BN254_SCALAR_FIELD

# Golden values recorded from this implementation's first run, then pinned:
# any change to the permutation, tags, round constants or the absorb must
# show up here.
GOLDEN_POINT = 0x0F2A02D2E2C4CC27896449D51103CD0362A33A5C5DF25A082D23B7746C88B75C
GOLDEN_MODEL = 0x21C6747C72B7B873FC42D17CD6EEA2BFF62430D8C27BF2F505B7D913EF7FCB9A
GOLDEN_EMPTY_ROOT = 0x1C5CE00E415B68CA73E3320657C52E0A5B8B6E0BF58ECB18897976CA3F2CB5B2


def test_golden_values_pinned():
    assert hash_data_point(DataPoint(1, (50000,), 100000), H) == GOLDEN_POINT
    assert hash_model_weights([11, 22], H) == GOLDEN_MODEL
    assert empty_root(H) == GOLDEN_EMPTY_ROOT


def test_determinism():
    assert hash2(12, 34, H) == hash2(12, 34, H)
    assert hash_model_weights([5], H) == hash_model_weights([5], H)


def test_non_commutative_and_domain_separated():
    assert hash2(1, 2, H) != hash2(2, 1, H)
    assert hash_model_weights([0], H) != empty_root(H)
    assert len({TAG_POINT, TAG_MODEL, TAG_NODE, TAG_EMPTY}) == 4


@pytest.mark.parametrize("x", [(), (3,), (3, 4)])
def test_point_digest_is_domain_separated(x):
    # A point digest is neither a node hash over its leading elements nor
    # a model hash over the same sequence of elements.
    d = DataPoint(7, x, 9)
    elements = (d.uid, *d.x, d.y)
    digest = hash_data_point(d, H)
    assert digest != hash2(elements[0], elements[1], H)
    nodes = elements[0]
    for v in elements[1:]:
        nodes = hash2(nodes, v, H)
    assert digest != nodes
    assert digest != hash_model_weights(elements, H)


def test_collision_smoke():
    rng = random.Random(0xC0FFEE)
    seen = {}
    for _ in range(10**4):
        pair = (rng.randrange(P), rng.randrange(P))
        digest = hash2(*pair, H)
        assert seen.setdefault(digest, pair) == pair, "collision"
        seen[digest] = pair


def test_rounds_change_digest():
    assert hash_model_weights([1], HashConfig(rounds=4)) != hash_model_weights([1], H)


# -- structure hashes ----------------------------------------------------------


def test_hash_data_point_unrolled():
    # The uid, then each value plus 2^B in B + 1 bits, packed into limbs
    # and absorbed one compression per limb under the point tag.
    t, B = TAG_POINT, VALUE_BITS
    assert B == ScaleConfig().value_bits == 37
    assert hash_data_point(DataPoint(7, (), 0), H) == _compress(t, 7 + (2**B << 64), H)
    d = DataPoint(1, (50000,), 100000)  # two encoded values inside the bound
    limb = 1 + ((50000 + 2**B) << 64) + ((100000 + 2**B) << (64 + B + 1))
    assert hash_data_point(d, H) == _compress(t, limb, H)
    assert point_layout(1) == (((0, 0), (1, 64), (2, 64 + B + 1)),)
    # Negative values wrap mod p and pack as their offset below 2^B.
    neg = DataPoint(1, (-50000 % P,), 0)
    limb = 1 + ((2**B - 50000) << 64) + (2**B << (64 + B + 1))
    assert hash_data_point(neg, H) == _compress(t, limb, H)
    # Arity 4 fills a 216-bit limb with the uid and the features; the
    # label goes into a second limb, absorbed after the first.
    wide = DataPoint(3, (1, 2, 3, 4), 5)
    first = 3 + sum((v + 2**B) << (64 + (B + 1) * j) for j, v in enumerate(wide.x))
    assert LIMB_BITS == 253 and point_layout(4)[1] == ((5, 0),)
    assert hash_data_point(wide, H) == absorb(t, (first, 5 + 2**B), H)


def test_point_packing_is_injective_at_the_bounds():
    # At one arity (the compiled config fixes it), uid and values at their
    # extremes give distinct digests, and a value outside [-2^B, 2^B) has
    # none.
    B = VALUE_BITS
    uids, values = (0, 2**64 - 1), (-(2**B) % P, 0, 2**B - 1)
    for arity in (1, 2, 4):
        points = [
            DataPoint(u, xs, y)
            for u in uids
            for xs in itertools.product(values, repeat=arity)
            for y in values
        ]
        assert len({hash_data_point(d, H) for d in points}) == len(points)
    for bad in (2**B, -(2**B) - 1, P // 2):
        with pytest.raises(FixedPointOverflow, match="37-bit value bound"):
            hash_data_point(DataPoint(1, (bad % P,), 0), H)
        with pytest.raises(FixedPointOverflow, match="37-bit value bound"):
            hash_data_point(DataPoint(1, (0,), bad % P), H)


def test_limbs_must_hold_the_packed_elements():
    # The packing never wraps only if a limb holds a 64-bit uid and a
    # (B+1)-bit value: fixed by the constants, pinned here.
    assert LIMB_BITS == 253 and VALUE_BITS == 37
    assert max(UID_BITS, VALUE_BITS + 1) <= LIMB_BITS
    assert 2**LIMB_BITS <= P


def test_hash_data_point_feature_order_matters():
    a = hash_data_point(DataPoint(1, (3, 4), 0), H)
    b = hash_data_point(DataPoint(1, (4, 3), 0), H)
    assert a != b


def test_uid_range():
    with pytest.raises(ValueError):
        DataPoint(2**64, (), 0)


def test_hash_model():
    t = TAG_MODEL
    assert hash_model_weights([11], H) == _compress(t, 11, H)
    assert hash_model_weights([11, 22], H) == _compress((_compress(t, 11, H) + t) % P, 22, H)
    # Elements are reduced into the field before they are absorbed.
    assert hash_model_weights([11 - P, 22 + P], H) == hash_model_weights([11, 22], H)
    assert hash_model_weights([11, 22], H) != hash_model_weights([22, 11], H)
    with pytest.raises(EmptyModelError):
        hash_model_weights([], H)


def test_hash_data_examples():
    a, b, c, d = (hash_data_point(p, H) for p in _points(4))
    assert hash_data([], H) == empty_root(H)
    assert hash_data([a], H) == a
    assert hash_data([a, b], H) == hash2(a, b, H)
    # Odd trailing node is carried up unhashed.
    assert hash_data([a, b, c], H) == hash2(hash2(a, b, H), c, H)
    assert hash_data([a, b, c, d], H) == hash2(hash2(a, b, H), hash2(c, d, H), H)
    five = hash_data([a, b, c, d, a], H)
    assert five == hash2(hash2(hash2(a, b, H), hash2(c, d, H), H), a, H)


def test_hash_unlearn_examples():
    base = empty_root(H)
    h1, h2_ = (hash_data_point(p, H) for p in _points(2))
    assert hash_unlearn([], H) == base
    assert hash_unlearn([h1], H) == hash2(base, h1, H)
    assert hash_unlearn([h1, h2_], H) == hash2(hash2(base, h1, H), h2_, H)


digests = st.lists(st.integers(min_value=0, max_value=P - 1), max_size=12)


@given(hu=digests, extra=st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=60, deadline=None)
def test_append_only_law(hu, extra):
    assert hash_unlearn(hu + [extra], H) == hash2(hash_unlearn(hu, H), extra, H)


# -- membership paths ------------------------------------------------------------


def _points(n):
    return [DataPoint(uid=i, x=(i * 7 % 1000,), y=i % 2) for i in range(n)]


def test_path_roundtrip_all_members():
    for n in (1, 2, 3, 5, 8, 16, 33, 64):
        pts = _points(n)
        hu = [hash_data_point(p, H) for p in pts]
        root = hash_unlearn(hu, H)
        for p, h in zip(pts, hu):
            path = compute_tree_path(h, hu, H)
            assert verify_tree_path(p, root, path, H)
            assert len(path.nodes) == 1 + (n - 1 - pts.index(p))


def test_path_prefix_and_suffix_shape():
    pts = _points(3)
    hu = [hash_data_point(p, H) for p in pts]
    path = compute_tree_path(hu[1], hu, H)
    assert path.nodes[0] == hash_unlearn(hu[:1], H)
    assert path.nodes[1:] == (hu[2],)
    solo = compute_tree_path(hu[0], hu[:1], H)
    assert solo.nodes == (empty_root(H),)


def test_non_member_rejected():
    pts = _points(4)
    hu = [hash_data_point(p, H) for p in pts[:3]]
    with pytest.raises(NotMemberError):
        compute_tree_path(hash_data_point(pts[3], H), hu, H)


def test_wrong_root_rejected():
    pts = _points(4)
    hu = [hash_data_point(p, H) for p in pts]
    path = compute_tree_path(hu[2], hu, H)
    assert not verify_tree_path(pts[2], hash_unlearn(hu[:3], H), path, H)


def test_all_single_node_mutations_rejected():
    pts = _points(16)
    hu = [hash_data_point(p, H) for p in pts]
    root = hash_unlearn(hu, H)
    for p, h in zip(pts, hu):
        path = compute_tree_path(h, hu, H)
        for i in range(len(path.nodes)):
            mutated = list(path.nodes)
            mutated[i] = (mutated[i] + 1) % P
            assert not verify_tree_path(p, root, MembershipPath(tuple(mutated)), H)


def test_duplicate_digest_targets_first_occurrence():
    p = _points(1)[0]
    h = hash_data_point(p, H)
    hu = [hash2(5, 0, H), h, hash2(6, 0, H), h]
    path = compute_tree_path(h, hu, H)
    assert path.nodes[0] == hash_unlearn(hu[:1], H)
    assert len(path.nodes) == 3
    assert verify_tree_path(p, hash_unlearn(hu, H), path, H)


def test_membership_path_must_be_nonempty():
    with pytest.raises(ValueError):
        MembershipPath(())


def test_paths_extend_under_appends():
    # A path issued at size n verifies against the root at size n+k once
    # extended with the appended digests.
    pts = _points(6)
    hu = [hash_data_point(p, H) for p in pts[:4]]
    path = compute_tree_path(hu[1], hu, H)
    extra = [hash_data_point(p, H) for p in pts[4:]]
    extended = MembershipPath(path.nodes + tuple(extra))
    assert verify_tree_path(pts[1], hash_unlearn(hu + extra, H), extended, H)
