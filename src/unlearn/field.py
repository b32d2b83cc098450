"""Prime-field arithmetic and the gamma-scaled fixed-point codec.

All field elements are plain Python ints, canonically reduced to [0, p).
A fixed-point value is a field element encoding the signed rational n/gamma
as n mod p (negatives wrap to p - |n|), with gamma = 2^16 and p the BN254
scalar field: one format, fixed by the module constants.  Encoding and
every product round half up, once: a product of two encoded values is
(a*b + gamma/2) >> k, the same shift the circuit's ``fx_mul`` decomposes.
Every operation here is pure, so values can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Union

# Scalar field of the ALT_BN128 / BN254 pairing curve; R1CS statements and
# the proving backend live over this field.
BN254_SCALAR_FIELD = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)

# The one fixed-point format: a value is n/GAMMA, GAMMA = 2^FRAC_BITS, and
# a raw (unscaled) training value stays below MAX_ABS in magnitude.  The
# value bound B = VALUE_BITS, the bit length of GAMMA * MAX_ABS (37):
# encoded training values lie in [-2^B, 2^B), rescaled products below 2^B.
GAMMA = 2**16
MAX_ABS = 2**20
FRAC_BITS = GAMMA.bit_length() - 1
VALUE_BITS = (GAMMA * MAX_ABS).bit_length()

# Cubic surrogate for the sigmoid: c0 + c1*z + c3*z^3, fitted against the
# true sigmoid on a 1001-point uniform grid over [-5, 5].  A plain
# least-squares fit peaks at 0.061 absolute error on that grid, which blows
# the 0.05 accuracy envelope, so the frozen coefficients come from the
# minimax (equioscillating) fit instead; see tests/test_field.py for the
# re-derivation.  Encoding rounds each to the nearest multiple of 1/gamma,
# which moves the surrogate by at most (1 + 5 + 125)/(2*gamma), 0.001, on
# [-5, 5].
SIGMOID_C0 = Fraction(50000, 100000)
SIGMOID_C1 = Fraction(19751, 100000)
SIGMOID_C3 = Fraction(-427, 100000)

Rational = Union[int, float, str, Fraction]


class ConfigError(ValueError):
    """Raised when a protocol config violates its own invariants."""


class FixedPointOverflow(OverflowError):
    """A training value or rescaled product leaves the value bound.

    ``uid`` names the data point being trained on when the bound was
    crossed, where one is known."""

    def __init__(self, message: str, uid: int | None = None):
        super().__init__(message)
        self.uid = uid


@dataclass(frozen=True)
class ScaleConfig:
    """The fixed-point format, read from the module constants: scale
    gamma = 2^k, the BN254 scalar field, and the value bound 2^B that
    native training and the model circuit both enforce on every feature,
    label and rescaled product.  It has no settable value; the constants
    are pinned in tests/test_field.py (p prime, p > 2 * gamma^2 *
    max_abs^2 so rescaled products never wrap, B = 37)."""

    @property
    def gamma(self) -> int:
        return GAMMA

    @property
    def modulus(self) -> int:
        return BN254_SCALAR_FIELD

    @property
    def half(self) -> int:
        return (BN254_SCALAR_FIELD - 1) // 2

    @property
    def encode_limit(self) -> int:
        # |round(gamma * r)| must stay below p / (2*gamma).
        return BN254_SCALAR_FIELD // (2 * GAMMA)

    @property
    def value_bits(self) -> int:
        return VALUE_BITS

    @property
    def frac_bits(self) -> int:
        return FRAC_BITS

    @property
    def byte_length(self) -> int:
        return (BN254_SCALAR_FIELD.bit_length() + 7) // 8


def signed_repr(v: int, cfg: ScaleConfig) -> int:
    """Map a field element to its signed representative in (-p/2, p/2]."""
    v %= cfg.modulus
    return v if v <= cfg.half else v - cfg.modulus


def fx_encode(r: Rational, cfg: ScaleConfig) -> int:
    """Encode a rational as floor(gamma * r + 1/2) mod p: rounded half up,
    as ``rescale`` rounds."""
    k = floor(Fraction(r) * cfg.gamma + Fraction(1, 2))
    if abs(k) >= cfg.encode_limit:
        raise OverflowError(f"{r} exceeds the fixed-point headroom")
    return k % cfg.modulus


def value_offset(v: int, value_bits: int, modulus: int) -> int:
    """v + 2^B, in [0, 2^(B+1)), for an encoded feature or label v in
    [-2^B, 2^B), B = value_bits: the (B+1)-bit form that the range check
    decomposes and a point digest packs.  Raises FixedPointOverflow for v
    outside that interval."""
    limit = 1 << value_bits
    u = (v + limit) % modulus
    if u >> (value_bits + 1):
        raise FixedPointOverflow(
            f"a feature or label lies outside the {value_bits}-bit value bound"
        )
    return u


def check_value_range(v: int, cfg: ScaleConfig) -> None:
    """Raise FixedPointOverflow unless an encoded feature or label lies in
    [-2^B, 2^B), B = cfg.value_bits."""
    value_offset(v, cfg.value_bits, cfg.modulus)


def rescale(prod: int, cfg: ScaleConfig) -> int:
    """A signed product over gamma, rounded half up: (prod + gamma/2) >> k.
    Raises FixedPointOverflow unless the result lies in [-2^B, 2^B), B =
    cfg.value_bits, the interval ``check_value_range`` enforces."""
    q = (prod + (cfg.gamma >> 1)) >> cfg.frac_bits
    if not -(1 << cfg.value_bits) <= q < 1 << cfg.value_bits:
        raise FixedPointOverflow(
            f"rescaled product {q} lies outside the {cfg.value_bits}-bit value bound"
        )
    return q


def fx_mul(a: int, b: int, cfg: ScaleConfig) -> int:
    """gamma-rescaled product of the signed representatives, rounded half
    up through ``rescale``, as the circuit's ``fx_mul`` rounds."""
    return rescale(signed_repr(a, cfg) * signed_repr(b, cfg), cfg) % cfg.modulus


class NativeOps:
    """Arithmetic interface shared with the circuit builder.

    Model training is written once against this interface; replaying it
    over circuit wires instead of ints yields a bit-identical computation.
    """

    def __init__(self, cfg: ScaleConfig):
        self.cfg = cfg

    def const(self, encoded: int) -> int:
        return encoded % self.cfg.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.cfg.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.cfg.modulus

    def mul(self, a: int, b: int) -> int:
        return fx_mul(a, b, self.cfg)


# The surrogate's coefficients c0, c1, c3 and 3*c3, encoded once.
_SIGMOID_C0, _SIGMOID_C1, _SIGMOID_C3, _SIGMOID_3C3 = (
    fx_encode(c, ScaleConfig()) for c in (SIGMOID_C0, SIGMOID_C1, SIGMOID_C3, 3 * SIGMOID_C3)
)


def sigmoid_poly(ops, z):
    """Evaluate the cubic sigmoid surrogate through an ops interface."""
    z2 = ops.mul(z, z)
    z3 = ops.mul(z2, z)
    c1z = ops.mul(ops.const(_SIGMOID_C1), z)
    return ops.add(ops.add(ops.const(_SIGMOID_C0), c1z), ops.mul(ops.const(_SIGMOID_C3), z3))


def sigmoid_deriv_poly(ops, z):
    """Analytic derivative of the surrogate: c1 + 3*c3*z^2."""
    z2 = ops.mul(z, z)
    return ops.add(ops.const(_SIGMOID_C1), ops.mul(ops.const(_SIGMOID_3C3), z2))


_HEX_DIGITS = frozenset("0123456789abcdef")


def to_hex(v: int, cfg: ScaleConfig) -> str:
    """Canonical serialization: lowercase big-endian hex, zero-padded."""
    if not 0 <= v < cfg.modulus:
        raise ValueError("field element out of range")
    return v.to_bytes(cfg.byte_length, "big").hex()


def from_hex(s: str, cfg: ScaleConfig) -> int:
    """Parse exactly the text ``to_hex`` writes: 2 * byte_length lowercase
    hex digits, so each element has one accepted encoding."""
    if len(s) != 2 * cfg.byte_length:
        raise ValueError("bad field element length")
    if not set(s) <= _HEX_DIGITS:
        raise ValueError("field element is not lowercase hex")
    v = int(s, 16)
    if v >= cfg.modulus:
        raise ValueError("field element out of range")
    return v
