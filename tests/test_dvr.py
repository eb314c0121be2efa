from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrmod import Dvr, IdealO, INF
from congrmod.dvr import RF, Field, FqPoly, is_prime, split_prime_power
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


# ---------------------------------------------------------------------------
# the F_q[t] polynomials of the integer form, against RF arithmetic

def _field_elements(field):
    """Every element of a small field, as the field stores it."""
    if field.k == 1:
        return list(range(field.p))
    return [tuple(code // field.p ** i % field.p for i in range(field.k))
            for code in range(field.q)]


def _check_against_rf(field, a, b):
    """FqPoly's sum, product, exact quotient, remainder, gcd and t-order
    agree with the same computation on RFs (b nonzero)."""
    def rf(f, d=None):
        return RF(field, 0, f, d)

    assert rf(a + b) == rf(a) + rf(b) and rf(-a) == -rf(a)
    assert rf(a * b) == rf(a) * rf(b)
    assert (a * b) // b == a and (a * b) % b == 0
    q, r = divmod(a, b)
    assert len(r.c) < len(b.c) and rf(q) == (rf(a) - rf(r)) / rf(b)
    if not a:
        return
    g = b.gcd(a)
    assert g.c[g.order()] == field.one() and b % g == 0 and a % g == 0
    # RF keeps a/b in lowest terms: its denominator is b/g, t-free and
    # scaled to constant term 1
    head = b // g
    assert rf(a, b).den == (head >> head.order()).normal()
    # the order is the largest k with t^k dividing a
    k = a.order()
    t = [FqPoly(field, (field.zero(),) * e + (field.one(),)) for e in (k, k + 1)]
    assert a % t[0] == 0 and a % t[1] != 0
    assert (a * b).order() == k + b.order() and rf(a).shift == k


@pytest.mark.parametrize("q", [4, 9, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fq_polynomials_match_rf_arithmetic(q, data):
    field = Dvr.power_series(q).field
    coeffs = st.lists(st.sampled_from(_field_elements(field)), max_size=5)
    a = FqPoly(field, data.draw(coeffs))
    b = FqPoly(field, data.draw(coeffs.filter(lambda c: any(x != field.zero() for x in c))))
    _check_against_rf(field, a, b)
    _check_against_rf(field, a * b, b * b)  # a common factor for gcd


def test_fq_polynomials_match_rf_arithmetic_at_q_2_40():
    """One case over F_(2^40), whose elements are 40-tuples of bits."""
    field = Dvr.power_series(2 ** 40).field
    one, x = field.one(), (0, 1) + (0,) * 38
    xx = field.mul(x, x)
    a = FqPoly(field, (field.zero(), x, one, xx))
    b = FqPoly(field, (one, xx))
    _check_against_rf(field, a, b)
    _check_against_rf(field, a * b, b * b)


def _k_entries(dvr):
    """Entries of K, zero among them: over Z_(p) with p-free and p-power
    denominators, over F_q[[t]] t^e (a + b t) / (1 + c t) with poles."""
    if dvr.kind == "p_adic":
        return st.fractions(max_denominator=50)
    field = dvr.field
    elements = _field_elements(field)
    return st.builds(lambda e, a, b, c: RF(field, e, (a, b), (field.one(), c)),
                     st.integers(-2, 2), st.sampled_from(elements),
                     st.sampled_from(elements), st.sampled_from(elements))


@pytest.mark.parametrize("dvr", [Dvr.p_adic(3), Dvr.p_adic(5), Dvr.power_series(4),
                                 Dvr.power_series(9), Dvr.power_series(5)], ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_split_then_join_is_the_identity(dvr, data):
    """split gives numerators over one denominator in lowest terms, positive
    or with lowest coefficient 1, and join gives the nonzero entries back."""
    vec = data.draw(st.dictionaries(st.integers(0, 6), _k_entries(dvr), max_size=5))
    num, den = dvr.split(vec)
    assert dvr.join(num, den) == {i: x for i, x in vec.items() if x}
    assert dvr.gcd(den, *num.values()) == 1
    assert den > 0 if dvr.kind == "p_adic" else den.normal() == den
