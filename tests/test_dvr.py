from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrmod import Dvr, IdealO, INF
from congrmod.dvr import Field, is_prime, split_prime_power
from congrmod.errors import EngineError


def test_p_adic_valuations(O5):
    assert O5.val(Fraction(50)) == 2
    assert O5.val(Fraction(3, 2)) == 0
    assert O5.val(Fraction(1, 5)) == -1
    assert O5.val(Fraction(0)) is INF
    assert O5.val(Fraction(-3)) == 0
    assert O5.val(Fraction(7, 10)) < 0


def test_unit_part(O5):
    x = Fraction(150)  # 6 * 25
    assert O5.val(x) == 2
    assert O5.unit_part(x) * O5.pi_pow(2) == x


def test_prime_validation():
    with pytest.raises(EngineError):
        Dvr.p_adic(6)
    with pytest.raises(EngineError):
        Dvr.power_series(6)
    assert split_prime_power(1000000007) == (1000000007, 1)
    assert split_prime_power(3**13) == (3, 13)
    with pytest.raises(EngineError):
        split_prime_power(2 * 3**5)
    big = 2**61 - 1
    assert split_prime_power(big) == (big, 1)
    assert split_prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert split_prime_power(2**63) == (2, 63)
    with pytest.raises(EngineError):
        split_prime_power(big * 3)
    with pytest.raises(EngineError):
        Dvr.p_adic(2**64 + 13)
    with pytest.raises(EngineError):
        Dvr.power_series(2**64 + 13)


def test_is_prime_exact():
    """Trial division below 5000, and strong pseudoprimes to the bases
    2..7 and to every prime base up to 23."""
    trial = [n for n in range(5000)
             if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(5000) if is_prime(n)] == trial
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)



def _first_irreducible_by_trial_division(p, k):
    """The lexicographically first monic irreducible of degree k over F_p,
    found by trying every monic divisor of degree <= k/2 (the reference for
    Rabin's test)."""

    def candidates(deg):
        for code in range(p ** deg):
            yield [code // p ** i % p for i in range(deg)]

    def divides(d, f):
        rem, dd = list(f) + [1], list(d) + [1]
        while len(rem) >= len(dd):
            c = rem[-1]
            if c:
                shift = len(rem) - len(dd)
                for i, dc in enumerate(dd):
                    rem[shift + i] = (rem[shift + i] - c * dc) % p
            rem.pop()
        return not any(rem)

    for coeffs in candidates(k):
        if all(not divides(d, coeffs) for deg in range(1, k // 2 + 1)
               for d in candidates(deg)):
            return tuple(coeffs)


def test_find_irreducible_matches_trial_division():
    cases = [(p, k) for p in range(2, 32) if is_prime(p)
             for k in range(2, 11) if p ** k <= 1024]
    assert len(cases) == 26
    for p, k in cases:
        assert Field._find_irreducible(p, k) == \
            _first_irreducible_by_trial_division(p, k), (p, k)

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6).filter(lambda q: q != 0)


@given(a=nonzero_rationals, b=nonzero_rationals)
@settings(max_examples=150, deadline=None)
def test_valuation_ultrametric(a, b):
    O = Dvr.p_adic(3)
    va, vb = O.val(a), O.val(b)
    assert O.val(a * b) == va + vb
    if a + b:
        assert O.val(a + b) >= min(va, vb)
        if va != vb:
            assert O.val(a + b) == min(va, vb)


class TestPowerSeries:
    def test_prime_power_field(self):
        F4 = Field(4)
        one = F4.one()
        x = F4.from_int(1)
        assert F4.mul(one, one) == one
        # every nonzero element is invertible
        for code in range(1, 4):
            elt = (code % 2, code // 2)
            assert F4.mul(elt, F4.inv(elt)) == one

    def test_rf_arithmetic(self):
        O = Dvr.power_series(4)
        t = O.pi
        u = O.one + t
        assert O.val(t * t + t) == 1
        assert O.val(u) == 0
        assert u * (O.one / u) == O.one
        assert O.val(O.one / u) == 0
        assert (t + t) != t or True  # char 2: t + t = 0
        assert not (t + t)

    def test_rf_val_additive(self):
        O = Dvr.power_series(9)
        t = O.pi
        a = t ** 2 * (O.one + t)
        b = t * (O.from_int(2) + t ** 3)
        assert O.val(a) == 2 and O.val(b) == 1
        assert O.val(a * b) == 3
        assert O.val(a / b) == 1


class TestIdealO:
    def test_printing(self, O5):
        assert str(IdealO.unit(O5)) == "(1)"
        assert str(IdealO.zero(O5)) == "(0)"
        assert str(IdealO(O5, 1)) == "(pi)"
        assert str(IdealO(O5, 4)) == "(pi^4)"

    def test_arithmetic(self, O5):
        a, b = IdealO(O5, 2), IdealO(O5, 3)
        assert (a * b).exponent == 5
        assert (a + b).exponent == 2
        assert a.contains(b) and not b.contains(a)
        z = IdealO.zero(O5)
        assert (a * z).is_zero
        assert (a + z).exponent == 2
        assert z.colength is INF
