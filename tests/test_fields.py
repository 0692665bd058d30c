import time
from fractions import Fraction

import pytest

from tannakit import GF, QQ, FieldError, InputError
from tannakit.fields import field_from_config


def test_rational_normalization():
    x = QQ.parse("4/6")
    assert (x.numerator, x.denominator) == (2, 3)
    y = QQ.parse("-3/-9")  # Fraction normalizes the sign into the numerator
    assert y == Fraction(1, 3) and y.denominator > 0
    assert QQ.format(QQ.parse("8/4")) == "2"
    assert QQ.format(Fraction(-5, 10)) == "-1/2"


def test_rational_zero_and_one_are_shared_constants():
    # so equal structural entries of two Q matrices compare by identity
    assert QQ.zero() is QQ.zero()
    assert QQ.one() is QQ.one()


def test_rational_division_by_zero():
    with pytest.raises(FieldError):
        QQ.inv(Fraction(0))


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.neg(1) == 4
    assert f5.format(7) == "2 mod 5"
    assert f5.parse("12 mod 5") == 2
    assert f5.parse("-1") == 4
    with pytest.raises(FieldError):
        f5.inv(0)
    with pytest.raises(FieldError):
        f5.parse("1 mod 7")


def test_field_error_is_an_input_error_with_its_own_message():
    with pytest.raises(FieldError, match="wrong modulus for F5") as info:
        GF(5).parse("1 mod 7")
    assert isinstance(info.value, InputError) and info.value.source == "field"


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        GF(6)


def trial_division_is_prime(n):
    """The primality oracle: no divisor in [2, √n]."""
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def is_field_modulus(p):
    try:
        GF(p)
    except FieldError:
        return False
    return True


def test_prime_moduli_match_trial_division():
    assert [p for p in range(10 ** 4) if is_field_modulus(p)] == \
        [p for p in range(10 ** 4) if trial_division_is_prime(p)]
    # Carmichael numbers and the least strong pseudoprime to base 2
    for n in (561, 1105, 1729, 2047):
        assert not is_field_modulus(n)


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    f = GF(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert f.mul(f.inv(12345), 12345) == 1
    assert not is_field_modulus(2 ** 61 + 1)


def test_modulus_beyond_the_proven_range_is_refused():
    # the least strong pseudoprime to the bases 2..41: composite, and the
    # first modulus the test could no longer decide
    psi13 = 3317044064679887385961981
    for p in (psi13, psi13 + 2, 2 ** 127 - 1):
        with pytest.raises(FieldError):
            GF(p)


def test_field_axioms_exact():
    f7 = GF(7)
    for a in f7.elements():
        for b in f7.elements():
            assert f7.add(a, b) == f7.add(b, a)
            assert f7.mul(a, b) == f7.mul(b, a)
            if b != 0:
                assert f7.mul(f7.mul(a, f7.inv(b)), b) == a


@pytest.mark.parametrize("field, scalars", [
    (QQ, [Fraction(0), Fraction(0, 5), Fraction(1), Fraction(2, 2), Fraction(-1),
          Fraction(1, 3)]),
    (GF(2), list(GF(2).elements())),
    (GF(7), list(GF(7).elements())),
], ids=["Q", "F2", "F7"])
def test_truth_value_and_int_one_decide_zero_and_one(field, scalars):
    # the scalar rule the matrix kernels of linalg rely on
    for x in scalars:
        assert bool(x) == (x != field.zero())
        assert (x == 1) == (x == field.one())
    assert {bool(x) for x in scalars} == {False, True}
    assert {x == 1 for x in scalars} == {False, True}


def test_field_config_codec():
    assert field_from_config("Q") == QQ
    assert field_from_config({"Fp": 3}) == GF(3)
    with pytest.raises(FieldError):
        field_from_config({"weird": 1})
    for modulus in ("x", "7", 7.0, True):
        with pytest.raises(FieldError):
            field_from_config({"Fp": modulus})


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("text", ["1/0", "abc", "1/2/3", "2 mod 5 mod 5", "",
                                  0, None, ["1"]])
def test_malformed_scalar_raises_field_error(field, text):
    with pytest.raises(FieldError):
        field.parse(text)
