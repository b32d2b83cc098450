"""Collision-resistant hashing of data points, models, and hash sets.

The hash is an MiMC-style permutation (x -> x^5 over the scalar field,
Miyaguchi-Preneel compression) so the exact same computation can be
replayed inside an R1CS circuit.  Everything is built from the one
compression ``_compress(key, message)``:

* ``absorb``        -- a keyed Merkle-Damgard chain over field elements,
  h <- compress(h + tag, v) from h = 0, one compression per element.
  ``hash_model_weights`` absorbs the weights under the model tag;
  ``hash_data_point`` absorbs a point's limbs under the point tag;
* ``point_layout``  -- how a point (uid, x..., y) packs into limbs: the
  uid in ``UID_BITS`` bits, then each value v as v + 2^B in B + 1 bits
  (B = ``field.VALUE_BITS``, the fixed-point value bound), greedily
  into as few limbs of ``LIMB_BITS`` bits as fit.  Each limb
  lies below the modulus, so a point in range packs injectively; one limb
  holds a point up to arity 3.  The model circuit packs through the same
  layout, after range-checking what it packs.
  The arity and the weight count are fixed by the compiled config, so no
  length padding is needed; points of different arities can share a
  digest, which is why ``protocol.check_point`` refuses another arity;
* ``hash2``         -- the binary node hash, keyed by left + node tag;
* ``hash_data``     -- Merkle tree of ``hash2`` over the ordered
  training-set digests,
* ``hash_unlearn``  -- append-only ``hash2`` chain over the unlearnt-set
  digests, from ``empty_root``,
* ``compute_tree_path`` / ``verify_tree_path`` -- membership paths in the
  chain (path = intermediate root below the target plus every digest
  appended after it).

Distinct tag constants (``TAG_POINT``, ``TAG_MODEL``, ``TAG_NODE``,
``TAG_EMPTY``) offset the keys of the point chain, the model chain, the
node hash and the empty-chain base, so the same elements hash
differently in each role.  All functions are pure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .field import BN254_SCALAR_FIELD, VALUE_BITS, value_offset

UID_BITS = 64
MAX_UID = 2**UID_BITS - 1

# Every limb lies below 2^LIMB_BITS <= the modulus, so packing never
# wraps; tests/test_hashing.py pins that a limb holds a uid and a value.
LIMB_BITS = BN254_SCALAR_FIELD.bit_length() - 1

DEFAULT_ROUNDS = 110  # ceil(log5(2^254)) rounds for the x^5 round function


def _tag(label: str) -> int:
    digest = hashlib.sha256(b"unlearn.tag." + label.encode()).digest()
    return int.from_bytes(digest, "big") % BN254_SCALAR_FIELD


TAG_POINT = _tag("point")
TAG_MODEL = _tag("model")
TAG_NODE = _tag("hash2")
TAG_EMPTY = _tag("empty-chain-base")
# What the data circuit's disjointness product reads for an absent slot,
# per array (training, unlearnt): distinct tagged constants, so a pair
# with an absent slot differs unless its present digest is the other
# array's tag, which admission refuses (``protocol``).
ABSENT_TAGS = (_tag("absent-training-digest"), _tag("absent-unlearnt-digest"))


class NotMemberError(KeyError):
    """The data point's digest does not occur in the unlearnt set."""


class EmptyModelError(ValueError):
    """hash_model_weights requires at least one parameter."""


@dataclass(frozen=True)
class HashConfig:
    """The rounds of the permutation.  The tags are the ``TAG_*``
    constants, and the field and the value bound B (a point's features
    and label lie in [-2^B, 2^B)) are the fixed-point format's constants
    in ``field``."""

    rounds: int = DEFAULT_ROUNDS

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be positive")


@lru_cache(maxsize=None)
def round_constants(rounds: int) -> tuple[int, ...]:
    cs = [0]
    for i in range(1, rounds):
        digest = hashlib.sha256(b"unlearn.mimc.v1.%d" % i).digest()
        cs.append(int.from_bytes(digest, "big") % BN254_SCALAR_FIELD)
    return tuple(cs)


def mimc_permute(x: int, key: int, cfg: HashConfig) -> int:
    """Keyed permutation: rounds of t -> (t + key + c_i)^5, then t + key."""
    p = BN254_SCALAR_FIELD
    t = x % p
    key %= p
    for c in round_constants(cfg.rounds):
        u = (t + key + c) % p
        u2 = u * u % p
        t = u2 * u2 % p * u % p
    return (t + key) % p


def _compress(key: int, message: int, cfg: HashConfig) -> int:
    # Miyaguchi-Preneel: H = E_k(m) + k + m.
    return (mimc_permute(message, key, cfg) + key + message) % BN254_SCALAR_FIELD


def absorb(tag: int, items: Sequence[int], cfg: HashConfig) -> int:
    """Keyed chain over raw elements: h <- compress(h + tag, v), h = 0."""
    p = BN254_SCALAR_FIELD
    h = 0
    for v in items:
        h = _compress((h + tag) % p, v % p, cfg)
    return h


def hash2(l: int, r: int, cfg: HashConfig) -> int:
    p = BN254_SCALAR_FIELD
    return _compress((l + TAG_NODE) % p, r % p, cfg)


def empty_root(cfg: HashConfig) -> int:
    """hash of the designated empty sentinel: base of both structures."""
    return _compress(TAG_EMPTY, 0, cfg)


@dataclass(frozen=True)
class DataPoint:
    """d = (uid, x, y): a uniquely identified, fixed-point-encoded sample."""

    uid: int
    x: tuple[int, ...]
    y: int

    def __post_init__(self) -> None:
        if not 0 <= self.uid <= MAX_UID:
            raise ValueError("uid must fit in 64 bits")
        object.__setattr__(self, "x", tuple(self.x))


@lru_cache(maxsize=None)
def point_layout(arity: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per limb, the (element, bit offset) pairs it packs, for the
    elements (uid, x..., y) of a point of ``arity`` features: the uid
    takes UID_BITS bits and each value B + 1, in order, a limb taking
    elements while they fit in LIMB_BITS bits."""
    limbs, limb, used = [], [], 0
    for i, width in enumerate((UID_BITS,) + (VALUE_BITS + 1,) * (arity + 1)):
        if used + width > LIMB_BITS:
            limbs.append(tuple(limb))
            limb, used = [], 0
        limb.append((i, used))
        used += width
    limbs.append(tuple(limb))
    return tuple(limbs)


def hash_data_point(d: DataPoint, cfg: HashConfig) -> int:
    """Absorb the point's limbs (``point_layout``) under the point tag.
    Raises FixedPointOverflow for a feature or label outside [-2^B, 2^B)."""
    elements = (d.uid, *(value_offset(v, VALUE_BITS, BN254_SCALAR_FIELD) for v in (*d.x, d.y)))
    limbs = [sum(elements[i] << shift for i, shift in limb) for limb in point_layout(len(d.x))]
    return absorb(TAG_POINT, limbs, cfg)


def hash_model_weights(weights: Sequence[int], cfg: HashConfig) -> int:
    if not weights:
        raise EmptyModelError("model has no parameters")
    return absorb(TAG_MODEL, weights, cfg)


def hash_data(items: Sequence[int], cfg: HashConfig) -> int:
    """Merkle-tree root of an ordered digest list.

    Adjacent nodes pair left-to-right; an odd trailing node is carried up
    unhashed.  The empty list hashes to the empty-root constant.
    """
    if not items:
        return empty_root(cfg)
    level = [v % BN254_SCALAR_FIELD for v in items]
    while len(level) > 1:
        nxt = [hash2(level[i], level[i + 1], cfg) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def hash_unlearn(items: Sequence[int], cfg: HashConfig) -> int:
    """Append-only chain root: psi <- hash2(psi, h) folded over the list."""
    psi = empty_root(cfg)
    for h in items:
        psi = hash2(psi, h % BN254_SCALAR_FIELD, cfg)
    return psi


@dataclass(frozen=True)
class MembershipPath:
    """Chain membership proof: sub-root below the target, then the digests
    appended after it, in order."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("membership path must be non-empty")
        object.__setattr__(self, "nodes", tuple(self.nodes))


def compute_tree_path(d: DataPoint, hu: Sequence[int], cfg: HashConfig) -> MembershipPath:
    h_d = hash_data_point(d, cfg)
    try:
        idx = list(hu).index(h_d)
    except ValueError:
        raise NotMemberError(f"uid {d.uid} was never unlearnt") from None
    return MembershipPath((hash_unlearn(hu[:idx], cfg), *hu[idx + 1 :]))


def verify_tree_path(
    d: DataPoint, root: int, path: MembershipPath, cfg: HashConfig
) -> bool:
    psi = hash2(path.nodes[0], hash_data_point(d, cfg), cfg)
    for node in path.nodes[1:]:
        psi = hash2(psi, node, cfg)
    return psi == root
