import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fx_decode, sigmoid_approx
from unlearn.field import (
    BN254_SCALAR_FIELD,
    FRAC_BITS,
    GAMMA,
    MAX_ABS,
    SIGMOID_C0,
    SIGMOID_C1,
    SIGMOID_C3,
    NativeOps,
    VALUE_BITS,
    ScaleConfig,
    from_hex,
    fx_encode,
    fx_mul,
    signed_repr,
    to_hex,
)

CFG = ScaleConfig()
OPS = NativeOps(CFG)
P = BN254_SCALAR_FIELD
G = CFG.gamma


def enc(r):
    return fx_encode(r, CFG)


def test_encode_examples():
    assert enc(0.5) == G // 2
    assert enc(-0.5) == P - G // 2
    assert enc(1.5) == 3 * G // 2
    assert enc(0) == 0


def test_encode_rounds_half_up():
    # Python's round() would give 0, 0, 2 and -2: half to even.
    assert enc(Fraction(1, 2 * G)) == 1
    assert enc(Fraction(-1, 2 * G)) == 0
    assert enc(Fraction(3, 2 * G)) == 2
    assert enc(Fraction(-3, 2 * G)) == P - 1
    # Just off the tie rounds to the nearest grid point either way.
    assert enc(Fraction(G + 1, 2 * G * G)) == 1
    assert enc(Fraction(-G - 1, 2 * G * G)) == P - 1


def test_add_examples():
    assert OPS.add(enc(0.5), enc(0.25)) == enc(0.75) == 3 * G // 4
    assert OPS.add(enc(0.5), enc(-0.5)) == 0
    assert OPS.add(enc(1.5), enc(2.5)) == enc(4) == 4 * G


def test_mul_examples():
    assert fx_mul(enc(0.5), enc(0.5), CFG) == enc(0.25) == G // 4
    assert fx_mul(enc(2), enc(3), CFG) == enc(6) == 6 * G


def test_mul_rounds_half_up():
    # 1/gamma squared lies below half a grid step: it rounds to 0.
    tiny = enc(Fraction(1, G))
    assert signed_repr(tiny, CFG) == 1
    assert fx_mul(tiny, tiny, CFG) == 0
    assert fx_mul(P - 1, tiny, CFG) == 0
    # (1/gamma) * (1/2) is exactly half a step: ties round up, toward
    # +inf, so the negative tie rounds to 0 and not to -1/gamma.
    assert fx_mul(tiny, enc(0.5), CFG) == 1
    assert fx_mul(P - 1, enc(0.5), CFG) == 0
    assert fx_mul(tiny, enc(-0.5), CFG) == 0
    # Three halves of a step round to 2 steps, minus three halves to -1.
    assert fx_mul(3, enc(0.5), CFG) == 2
    assert fx_mul(P - 3, enc(0.5), CFG) == P - 1


def test_encode_overflow():
    with pytest.raises(OverflowError):
        fx_encode(Fraction(CFG.encode_limit + 5, G), CFG)


def test_mul_overflow():
    big = fx_encode(Fraction(CFG.encode_limit - 1, G), CFG)
    with pytest.raises(OverflowError):
        fx_mul(big, big, CFG)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below
    3 * 10^23: the reference check that the field modulus is prime."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


def test_reference_primality_check():
    assert [n for n in range(40) if _is_probable_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert _is_probable_prime(2**61 - 1) and _is_probable_prime(101)
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7.
    assert not _is_probable_prime(2**64) and not _is_probable_prime(3215031751)


def test_config_validation():
    # The fixed-point format is constant; what ScaleConfig once checked of
    # each instance is pinned here once.  gamma is a power of two:
    assert G == GAMMA == 2**16 and CFG.frac_bits == FRAC_BITS == 16
    assert CFG.gamma == 1 << CFG.frac_bits
    # The field is prime, and leaves rescaled products overflow headroom:
    assert CFG.modulus == P and _is_probable_prime(P)
    assert P > 2 * GAMMA**2 * MAX_ABS**2
    # The value bound B is the bit length of gamma * max_abs.
    assert CFG.value_bits == VALUE_BITS == (GAMMA * MAX_ABS).bit_length() == 37
    assert CFG.half == (P - 1) // 2 and CFG.encode_limit == P // (2 * GAMMA)
    assert CFG.byte_length == 32


small_scaled = st.integers(min_value=-4 * G, max_value=4 * G)


@given(k=st.integers(min_value=-(10**12), max_value=10**12))
def test_roundtrip_exact(k):
    assert fx_decode(fx_encode(Fraction(k, G), CFG), CFG) == Fraction(k, G)


@given(a=small_scaled, b=small_scaled, c=small_scaled)
def test_ring_laws(a, b, c):
    ea, eb, ec = a % P, b % P, c % P
    assert OPS.add(ea, eb) == OPS.add(eb, ea)
    assert OPS.add(OPS.add(ea, eb), ec) == OPS.add(ea, OPS.add(eb, ec))
    assert fx_mul(ea, eb, CFG) == fx_mul(eb, ea, CFG)
    # Distributivity up to half a unit of rounding error per multiply.
    lhs = fx_mul(ea, OPS.add(eb, ec), CFG)
    rhs = OPS.add(fx_mul(ea, eb, CFG), fx_mul(ea, ec, CFG))
    err = abs(fx_decode(OPS.sub(lhs, rhs), CFG))
    assert err <= Fraction(3, 2 * G)


def _random_expr(rng, depth, limit):
    """Expression tree evaluated three ways: exact rationals, fixed point,
    and an interval-style error bound (|a|*err_b + |b|*err_a + 1/(2 gamma)
    per multiply).  ``muls`` counts multiplications."""
    if depth == 0 or rng.random() < 0.3:
        v = Fraction(rng.randint(-limit * G, limit * G), G)
        return v, enc(v), Fraction(0), 0
    op = rng.choice(("add", "sub", "mul"))
    lv, le, lerr, lm = _random_expr(rng, depth - 1, limit)
    rv, re, rerr, rm = _random_expr(rng, depth - 1, limit)
    if op == "add" and abs(lv + rv) <= limit:
        return lv + rv, OPS.add(le, re), lerr + rerr, lm + rm
    if op == "sub" and abs(lv - rv) <= limit:
        return lv - rv, OPS.sub(le, re), lerr + rerr, lm + rm
    if abs(lv * rv) > limit:
        return lv, le, lerr, lm
    err = abs(lv) * rerr + abs(rv) * lerr + Fraction(1, 2 * G)
    return lv * rv, fx_mul(le, re, CFG), err, lm + rm + 1


def test_expression_tree_matches_rational_oracle():
    # Rounding errors amplify by the magnitude of the co-operand, so the
    # general bound is the propagated one; when every intermediate stays in
    # [-1, 1] it collapses to (number of multiplications)/(2 gamma).
    rng = random.Random(7)
    for _ in range(200):
        exact, encoded, bound, muls = _random_expr(rng, 8, limit=4)
        assert abs(fx_decode(encoded, CFG) - exact) <= bound
    for _ in range(200):
        exact, encoded, _, muls = _random_expr(rng, 8, limit=1)
        assert abs(fx_decode(encoded, CFG) - exact) <= Fraction(muls, 2 * G)


def test_negation():
    assert OPS.sub(0, enc(0.5)) == enc(-0.5)
    assert OPS.sub(0, 0) == 0


# -- sigmoid surrogate ---------------------------------------------------------


def test_sigmoid_at_zero_is_half():
    assert sigmoid_approx(0, CFG) == enc(SIGMOID_C0)
    assert SIGMOID_C0 == Fraction(1, 2)


def test_sigmoid_antisymmetry_exact():
    for v in (0.25, 1.0, 2.5, 4.75):
        z = enc(v)
        total = OPS.add(sigmoid_approx(z, CFG), sigmoid_approx(OPS.sub(0, z), CFG))
        assert total == OPS.add(enc(SIGMOID_C0), enc(SIGMOID_C0))


def test_sigmoid_near_true_sigmoid_at_two():
    got = fx_decode(sigmoid_approx(enc(2), CFG), CFG)
    assert abs(float(got) - 1 / (1 + math.exp(-2))) < 0.05


def test_sigmoid_within_envelope_on_grid():
    worst = 0.0
    for i in range(1001):
        z = -5 + i / 100
        got = float(fx_decode(sigmoid_approx(enc(round(z * G) / G), CFG), CFG))
        worst = max(worst, abs(got - 1 / (1 + math.exp(-z))))
    assert worst <= 0.05, f"max sigmoid error {worst}"


def test_sigmoid_monotone_on_grid():
    prev = None
    for i in range(601):
        z = Fraction(-3) + Fraction(i, 100)
        val = fx_decode(sigmoid_approx(enc(z), CFG), CFG)
        if prev is not None:
            assert val >= prev, f"decrease at z={float(z)}"
        prev = val


def test_sigmoid_coefficients_near_least_squares_fit():
    np = pytest.importorskip("numpy")
    z = np.linspace(-5.0, 5.0, 1001)
    y = 1.0 / (1.0 + np.exp(-z))
    X = np.stack([np.ones_like(z), z, z**3], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    frozen = [float(SIGMOID_C0), float(SIGMOID_C1), float(SIGMOID_C3)]
    # The frozen fit trades a little L2 for a bounded max error; it stays
    # within a hair of the plain least-squares solution.
    for got, ols in zip(frozen, coef):
        assert abs(got - ols) < 5e-3


# -- canonical hex ---------------------------------------------------------------


@given(v=st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=50)
def test_hex_roundtrip(v):
    s = to_hex(v, CFG)
    assert len(s) == 64 and s == s.lower()
    assert from_hex(s, CFG) == v


def test_hex_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_hex("ff" * 32, CFG)
    with pytest.raises(ValueError):
        from_hex("0b", CFG)
    # Text that int(s, 16) reads as the same element as the canonical
    # "00...0b", at the canonical length: one value has one encoding.
    canonical = to_hex(11, CFG)
    assert from_hex(canonical, CFG) == 11
    for other in ("0x" + canonical[2:], "+" + canonical[1:], " " + canonical[1:],
                  canonical[:-3] + "0_b", canonical[:-1] + "B"):
        assert len(other) == len(canonical) and int(other, 16) == 11
        with pytest.raises(ValueError, match="lowercase hex"):
            from_hex(other, CFG)
