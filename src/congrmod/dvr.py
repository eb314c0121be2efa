"""Exact arithmetic in the base discrete valuation ring.

Two base rings are supported: the localization of the integers at a prime p
(elements are rationals with p-free denominator) and the localization of
F_q[t] at (t) (elements are rational functions regular at t = 0).  Elements
of the fraction field are plain ``Fraction`` objects in the first case and
``RF`` objects in the second; both support the usual operators, so all
higher layers stay generic and only consult the ``Dvr`` object for
valuations and constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineError

INF = math.inf


# Miller-Rabin with these bases is exact below 2^64; p and q are kept below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PARAM_LIMIT = 2 ** 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 0 (Newton's method from above)."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def split_prime_power(q: int):
    """Return (p, k) with q = p**k and p prime, or raise.  p is the exact
    integer k-th root of q for the one k that gives a prime."""
    for k in range(1, q.bit_length() if q >= 2 else 0):
        p = _iroot(q, k)
        if p ** k == q and is_prime(p):
            return p, k
    raise EngineError(f"{q} is not a prime power")


class Field:
    """Finite field F_q, q = p^k.  Elements are ints for k = 1, else
    coefficient tuples of length k over F_p."""

    def __init__(self, q: int):
        p, k = split_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k > 1:
            self.modulus = self._find_irreducible(p, k)

    # -- k = 1 fast path uses ints mod p throughout --
    def zero(self):
        return 0 if self.k == 1 else (0,) * self.k

    def one(self):
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        if self.k == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._reduce(prod)

    def inv(self, a):
        if self.k == 1:
            return pow(a, -1, self.p)
        # a^(q-2) in the multiplicative group
        result = self.one()
        base = a
        e = self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a):
        return a == 0 if self.k == 1 else all(x == 0 for x in a)

    def _reduce(self, prod):
        p, k, mod = self.p, self.k, self.modulus
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return tuple(prod[:k])

    @staticmethod
    def _find_irreducible(p: int, k: int):
        """Lexicographically first monic irreducible of degree k over F_p,
        stored as the low coefficients (the x^k coefficient is implicit 1).

        Rabin's test: f of degree k is irreducible iff f divides
        x^(p^k) - x and is coprime to x^(p^(k/r)) - x for each prime r | k."""
        fp = Field(p)
        mul, mod = RF._polymul, RF._polymod
        minus_x = [0, p - 1]
        checks = {k // r for r in range(2, k + 1) if k % r == 0 and is_prime(r)}

        def frobenius(h, f):
            """h^p mod f, by repeated squaring."""
            out, base, e = [1], h, p
            while True:
                if e & 1:
                    out = mod(fp, mul(fp, out, base), f)
                e >>= 1
                if not e:
                    return out
                base = mod(fp, mul(fp, base, base), f)

        def irreducible(f):
            h = [0, 1]  # x^(p^j) mod f, for j = 0, 1, ..., k
            for j in range(1, k + 1):
                h = frobenius(h, f)
                if j in checks and len(RF._gcd(fp, f, RF._polyadd(fp, h, minus_x))) > 1:
                    return False
            return h == [0, 1]

        for code in range(p ** k):
            coeffs = [code // p ** i % p for i in range(k)]
            if coeffs[0] and irreducible(coeffs + [1]):
                return tuple(coeffs)
        raise EngineError("no irreducible polynomial found")


class RF:
    """Rational function in t over a finite field, normalized as
    t^shift * num/den with num(0) != 0, den(0) = 1."""

    __slots__ = ("field", "shift", "num", "den")

    def __init__(self, field, shift=0, num=None, den=None):
        self.field = field
        if num is None:
            num = ()
        num = tuple(num)
        den = (field.one(),) if den is None else tuple(den)
        if not num or all(field.is_zero(c) for c in num):
            self.shift, self.num, self.den = 0, (), (field.one(),)
            return
        shift, num, den = self._normalize(field, shift, num, den)
        self.shift, self.num, self.den = shift, num, den

    @staticmethod
    def _strip(field, coeffs):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        return coeffs

    @classmethod
    def _normalize(cls, field, shift, num, den):
        num = cls._strip(field, num)
        den = cls._strip(field, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        while field.is_zero(num[0]):
            num.pop(0)
            shift += 1
        while field.is_zero(den[0]):
            den.pop(0)
            shift -= 1
        g = cls._gcd(field, num, den)
        if len(g) > 1:
            num = cls._polydiv(field, num, g)
            den = cls._polydiv(field, den, g)
        c = field.inv(den[0])
        num = [field.mul(x, c) for x in num]
        den = [field.mul(x, c) for x in den]
        return shift, tuple(num), tuple(den)

    # -- dense polynomial helpers over the residue field --
    @staticmethod
    def _polyadd(field, a, b):
        n = max(len(a), len(b))
        out = []
        for i in range(n):
            x = a[i] if i < len(a) else field.zero()
            y = b[i] if i < len(b) else field.zero()
            out.append(field.add(x, y))
        return RF._strip(field, out)

    @staticmethod
    def _polymul(field, a, b):
        if not a or not b:
            return []
        out = [field.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not field.is_zero(x):
                for j, y in enumerate(b):
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
        return RF._strip(field, out)

    @staticmethod
    def _polydiv(field, a, b):
        """Exact quotient a / b (remainder must vanish)."""
        a = list(a)
        q = [field.zero()] * (len(a) - len(b) + 1)
        inv_lead = field.inv(b[-1])
        for i in range(len(a) - len(b), -1, -1):
            c = field.mul(a[i + len(b) - 1], inv_lead)
            q[i] = c
            if not field.is_zero(c):
                for j, bc in enumerate(b):
                    a[i + j] = field.add(a[i + j], field.neg(field.mul(c, bc)))
        if any(not field.is_zero(x) for x in a):
            raise EngineError("inexact polynomial division")
        return RF._strip(field, q)

    @staticmethod
    def _polymod(field, a, b):
        a = list(a)
        inv_lead = field.inv(b[-1])
        while len(a) >= len(b):
            c = field.mul(a[-1], inv_lead)
            if not field.is_zero(c):
                for j, bc in enumerate(b):
                    a[len(a) - len(b) + j] = field.add(
                        a[len(a) - len(b) + j], field.neg(field.mul(c, bc)))
            a.pop()
            a = RF._strip(field, a)
            if not a:
                break
        return a

    @staticmethod
    def _gcd(field, a, b):
        a, b = list(a), list(b)
        while b:
            a, b = b, RF._polymod(field, a, b)
        c = field.inv(a[-1])
        return [field.mul(x, c) for x in a]

    # -- arithmetic --
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.shift, self.num, self.den) == (other.shift, other.num, other.den)

    def __hash__(self):
        return hash((self.shift, self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, RF):
            return other
        if isinstance(other, int):
            return RF(self.field, 0, (self.field.from_int(other),))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        s = min(self.shift, other.shift)
        a = [f.zero()] * (self.shift - s) + list(self.num)
        b = [f.zero()] * (other.shift - s) + list(other.num)
        num = self._polyadd(f, self._polymul(f, a, other.den),
                            self._polymul(f, b, self.den))
        return RF(f, s, num, self._polymul(f, self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return RF(f, self.shift, tuple(f.neg(c) for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        if self.is_zero() or other.is_zero():
            return RF(f)
        return RF(f, self.shift + other.shift,
                  self._polymul(f, self.num, other.num),
                  self._polymul(f, self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError
        f = self.field
        if self.is_zero():
            return RF(f)
        return RF(f, self.shift - other.shift,
                  self._polymul(f, self.num, other.den),
                  self._polymul(f, self.den, other.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return RF(self.field, 0, (self.field.one(),)) / self ** (-e)
        out = RF(self.field, 0, (self.field.one(),))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __repr__(self):
        if self.is_zero():
            return "RF(0)"
        return f"RF(t^{self.shift}*{list(self.num)}/{list(self.den)})"


class Dvr:
    """The base ring O together with its fraction field K."""

    def __init__(self, kind: str, param: int):
        if param >= _PARAM_LIMIT:
            raise EngineError(f"p or q = {param} is not below 2^64")
        if kind == "p_adic":
            if not is_prime(param):
                raise EngineError(f"p = {param} is not prime")
            self.p = param
            self._zero = Fraction(0)
            self._one = Fraction(1)
            self._pi = Fraction(param)
        elif kind == "power_series":
            self.field = Field(param)
            self.q = param
            self._zero = RF(self.field)
            self._one = RF(self.field, 0, (self.field.one(),))
            self._pi = RF(self.field, 1, (self.field.one(),))
        else:
            raise EngineError(f"unknown DVR kind {kind!r}")
        self.kind = kind
        self.param = param
        self._cap_moduli = {}  # cap -> p^(cap + 1)

    @classmethod
    def p_adic(cls, p: int) -> "Dvr":
        return cls("p_adic", p)

    @classmethod
    def power_series(cls, q: int) -> "Dvr":
        return cls("power_series", q)

    def __eq__(self, other):
        return isinstance(other, Dvr) and (self.kind, self.param) == (other.kind, other.param)

    def __hash__(self):
        return hash((self.kind, self.param))

    def __repr__(self):
        if self.kind == "p_adic":
            return f"Z_({self.param})"
        return f"F_{self.param}[[t]]"

    # -- constants --
    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def pi(self):
        return self._pi

    def from_int(self, n: int):
        if self.kind == "p_adic":
            return Fraction(n)
        return RF(self.field, 0, (self.field.from_int(n),))

    def pi_pow(self, e: int):
        if self.kind == "p_adic":
            return Fraction(self.p) ** e
        return RF(self.field, e, (self.field.one(),))

    # -- valuations --
    def val(self, x):
        """Valuation in N ∪ {inf}; negative values flag K \\ O elements."""
        if self.kind == "p_adic":
            if not x:
                return INF
            v = 0
            num, den = x.numerator, x.denominator
            while num % self.p == 0:
                num //= self.p
                v += 1
            while den % self.p == 0:
                den //= self.p
                v -= 1
            return v
        if x.is_zero():
            return INF
        return x.shift

    def val_above(self, values, cap: int) -> bool:
        """Whether some value has valuation above cap, for a cap >= 0 (zero
        never does): over Z_(p) one divisibility of each numerator by
        p^(cap + 1).  Values may be Fractions in lowest terms or integer
        numerators (whose own denominator the caller adds to the cap)."""
        if self.kind == "p_adic":
            modulus = self._cap_moduli.get(cap)
            if modulus is None:
                modulus = self._cap_moduli[cap] = self.p ** (cap + 1)
            for x in values:
                n = x.numerator
                if n and n % modulus == 0:
                    return True
            return False
        return any(x and x.shift > cap for x in values)

    def split(self, vec):
        """A dict of entries in K as (numerators, one positive denominator),
        zeros dropped: over Z_(p) Python ints over the least common
        denominator, over F_q[[t]] the entries themselves over 1."""
        if self.kind != "p_adic":
            return {i: x for i, x in vec.items() if x}, 1
        den = 1
        for x in vec.values():
            d = x.denominator
            if den % d:
                den = den // math.gcd(den, d) * d
        return {i: x.numerator * (den // x.denominator)
                for i, x in vec.items() if x}, den

    def join(self, num, den):
        """The entries in K of numerators over one positive denominator, as
        split gives them."""
        if self.kind != "p_adic":
            return dict(num)
        if den == 1:
            return {i: Fraction(n) for i, n in num.items()}
        return {i: Fraction(n, den) for i, n in num.items()}

    def unit_part(self, x):
        """u with x = u * pi^val(x)."""
        v = self.val(x)
        if v is INF:
            raise ZeroDivisionError("unit part of zero")
        return x / self.pi_pow(v)

    def scalar_str(self, x) -> str:
        if self.kind == "p_adic":
            return str(x)
        if x.is_zero():
            return "0"
        v = x.shift
        body = f"t^{v}" if v else ""
        unit = "" if (len(x.num) == 1 and len(x.den) == 1 and x.num[0] == self.field.one()) else "u"
        return (body + ("*" if body and unit else "") + unit) or "1"


@dataclass(frozen=True)
class IdealO:
    """An ideal of O: (pi^exponent), with exponent inf for the zero ideal."""

    dvr: Dvr
    exponent: object  # int >= 0 or INF

    @classmethod
    def unit(cls, dvr):
        return cls(dvr, 0)

    @classmethod
    def zero(cls, dvr):
        return cls(dvr, INF)

    @property
    def is_unit(self):
        return self.exponent == 0

    @property
    def is_zero(self):
        return self.exponent is INF or self.exponent == INF

    def __mul__(self, other):
        if isinstance(other, IdealO):
            return IdealO(self.dvr, self.exponent + other.exponent)
        return NotImplemented

    def __add__(self, other):
        """Ideal sum: generated by both, i.e. the smaller exponent."""
        return IdealO(self.dvr, min(self.exponent, other.exponent))

    def contains(self, other: "IdealO") -> bool:
        return self.exponent <= other.exponent

    @property
    def colength(self):
        """length of O/(pi^e), i.e. e (inf for the zero ideal)."""
        return self.exponent

    def __str__(self):
        if self.is_zero:
            return "(0)"
        if self.exponent == 0:
            return "(1)"
        if self.exponent == 1:
            return "(pi)"
        return f"(pi^{self.exponent})"

    __repr__ = __str__
