"""Exact arithmetic in the base discrete valuation ring.

Two base rings are supported: the localization of the integers at a prime p
(elements are rationals with p-free denominator) and the localization of
F_q[t] at (t) (elements are rational functions regular at t = 0).  Elements
of the fraction field are plain ``Fraction`` objects in the first case and
``RF`` objects in the second; both support the usual operators, so all
higher layers stay generic and only consult the ``Dvr`` object for
valuations and constants.  Both bases also share one integer form, in which
the linear algebra over O computes: numerators over one denominator, Python
ints over a positive one or ``FqPoly`` polynomials over one whose lowest
coefficient is 1.  ``Dvr`` is the one place that asks which base it is: it
converts to and from that form and holds the numerator operations.
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
        self._zero, self._one = (0, 1) if k == 1 else \
            ((0,) * k, (1,) + (0,) * (k - 1))
        if k > 1:
            self.modulus = self._find_irreducible(p, k)

    # -- k = 1 fast path uses ints mod p throughout --
    def zero(self):
        return self._zero

    def one(self):
        return self._one

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
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):  # x^k = -sum mod[j] x^j
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * mod[j]
        return tuple([x % p for x in prod[:k]])

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

    @staticmethod
    def _find_irreducible(p: int, k: int):
        """Lexicographically first monic irreducible of degree k over F_p,
        stored as the low coefficients (the x^k coefficient is implicit 1).

        Rabin's test: f of degree k is irreducible iff f divides
        x^(p^k) - x and is coprime to x^(p^(k/r)) - x for each prime r | k."""
        fp = Field(p)
        x = FqPoly(fp, (0, 1))
        checks = {k // r for r in range(2, k + 1) if k % r == 0 and is_prime(r)}

        def frobenius(h, f):
            """h^p mod f, by repeated squaring."""
            out, base, e = FqPoly(fp, (1,)), h, p
            while True:
                if e & 1:
                    out = out * base % f
                e >>= 1
                if not e:
                    return out
                base = base * base % f

        def irreducible(f):
            h = x  # x^(p^j) mod f, for j = 0, 1, ..., k
            for j in range(1, k + 1):
                h = frobenius(h, f)
                if j in checks and (h == x or len(f.gcd(h - x).c) > 1):
                    return False
            return h == x

        for code in range(p ** k):
            coeffs = [code // p ** i % p for i in range(k)]
            if coeffs[0] and irreducible(FqPoly(fp, coeffs + [1])):
                return tuple(coeffs)
        raise EngineError("no irreducible polynomial found")


class FqPoly:
    """An immutable polynomial in t over a finite field: its coefficients,
    t^0 first, with no trailing zero (none for the zero polynomial).  It
    equals an int n when it is the constant n."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs):
        c, z = tuple(coeffs), field.zero()
        while c and c[-1] == z:
            c = c[:-1]
        self.field, self.c = field, c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ((self.field.from_int(other),) if other % self.field.p else ())
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def order(self):
        """The t-adic order of a nonzero polynomial."""
        z = self.field.zero()
        return next(i for i, x in enumerate(self.c) if x != z)

    def __lshift__(self, k):  # times t^k
        return FqPoly(self.field, (self.field.zero(),) * k + self.c) if k and self.c else self

    def __rshift__(self, k):  # the exact quotient by t^k
        return FqPoly(self.field, self.c[k:]) if k else self

    def __neg__(self):
        return FqPoly(self.field, map(self.field.neg, self.c))

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return FqPoly(self.field, tuple(map(self.field.add, a, b)) + a[len(b):])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        f = self.field
        a, b = self.c, other.c
        if b == (f.one(),) or not a:
            return self
        if a == (f.one(),) or not b:
            return other
        z, add, mul = f.zero(), f.add, f.mul
        out = [z] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != z:
                for j, y in enumerate(b):
                    out[i + j] = add(out[i + j], mul(x, y))
        return FqPoly(f, out)

    def __divmod__(self, other):
        f = self.field
        z, add, mul = f.zero(), f.add, f.mul
        b, r = other.c, list(self.c)
        n = len(b)
        if b == (f.one(),):
            return self, FqPoly(f, ())
        q = [z] * max(len(r) - n + 1, 0)
        minus = f.neg(f.inv(b[-1]))
        for i in range(len(r) - n, -1, -1):
            c = r[i + n - 1]
            if c != z:
                c = mul(c, minus)  # minus the quotient's coefficient
                q[i] = f.neg(c)
                for j, y in enumerate(b):
                    r[i + j] = add(r[i + j], mul(c, y))
        return FqPoly(f, q), FqPoly(f, r[:n - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def normal(self):
        """The unit multiple, of a nonzero one, with lowest coefficient 1."""
        f, s = self.field, self.c[self.order()]
        return self if s == f.one() else self * FqPoly(f, (f.inv(s),))

    def gcd(self, *others):
        """The gcd with the nonzero others, with lowest coefficient 1.  The
        powers of t are matched apart, and Euclid's algorithm (Knuth, TAOCP
        vol. 2, §4.6.1) runs on the t-free parts until one is constant."""
        g = self.normal()
        for other in others:
            if len(g.c) == 1:
                break
            k, m = g.order(), other.order()
            a, b = g >> k, other >> m
            while len(a.c) > 1 and len(b.c) > 1:
                a, b = b, a % b
            g = (a.normal() if not b else FqPoly(a.field, (a.field.one(),))) << min(k, m)
        return g


class RF:
    """Rational function in t over a finite field, normalized as
    t^shift * num/den with num(0) != 0, den(0) = 1 (FqPoly, or given as
    coefficient sequences, t^0 first)."""

    __slots__ = ("field", "shift", "num", "den")

    def __init__(self, field, shift=0, num=(), den=None):
        self.field = field
        one = FqPoly(field, (field.one(),))
        num = num if isinstance(num, FqPoly) else FqPoly(field, num)
        den = one if den is None else den if isinstance(den, FqPoly) else FqPoly(field, den)
        if not num:
            self.shift, self.num, self.den = 0, num, one
            return
        a = num.order()
        num = num >> a
        if den.c == one.c:  # already in lowest terms: no gcd to take
            self.shift, self.num, self.den = shift + a, num, den
            return
        if not den:
            raise ZeroDivisionError("zero denominator")
        b = den.order()
        den = den >> b
        g = den.gcd(num) * FqPoly(field, (den.c[0],))
        self.shift, self.num, self.den = shift + a - b, num // g, den // g

    # -- arithmetic --
    def __bool__(self):
        return bool(self.num)

    @property
    def numerator(self):  # in F_q[t], in lowest terms, as Fraction has it
        return self.num << max(self.shift, 0)

    @property
    def denominator(self):  # in lowest terms, with lowest coefficient 1
        return self.den << max(-self.shift, 0)

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.shift, self.num.c, self.den.c) == (other.shift, other.num.c, other.den.c)

    def __hash__(self):
        return hash((self.shift, self.num.c, self.den.c))

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
        if not self:
            return other
        if not other:
            return self
        num = self.numerator * other.denominator + other.numerator * self.denominator
        return RF(self.field, 0, num, self.denominator * other.denominator)

    __radd__ = __add__

    def __neg__(self):  # -num keeps num(0) != 0 and the lowest terms
        out = RF.__new__(RF)
        out.field, out.shift, out.num, out.den = self.field, self.shift, -self.num, self.den
        return out

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
        return RF(self.field, self.shift + other.shift, self.num * other.num,
                  self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError
        return RF(self.field, self.shift - other.shift, self.num * other.den,
                  self.den * other.num)

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
        if not self:
            return "RF(0)"
        return f"RF(t^{self.shift}*{list(self.num.c)}/{list(self.den.c)})"


class Dvr:
    """The base ring O together with its fraction field K, and the integer
    form of both (see above): split, join, int_one, gcd, int_val, lowest
    and settle."""

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
            self.int_one = 1
        elif kind == "power_series":
            self.field = Field(param)
            self._zero = RF(self.field)
            self._one = RF(self.field, 0, (self.field.one(),))
            self._pi = RF(self.field, 1, (self.field.one(),))
            self.int_one = FqPoly(self.field, (self.field.one(),))
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
        if not x:
            return INF
        if self.kind != "p_adic":
            return x.shift
        return self.int_val(x.numerator) - self.int_val(x.denominator)

    def val_above(self, values, cap: int) -> bool:
        """Whether some value has valuation above cap, for a cap >= 0 (zero
        never does): over Z_(p) one divisibility of each numerator by
        p^(cap + 1).  Values may be entries in K in lowest terms or
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
        return any(x and (x.shift if isinstance(x, RF) else x.order()) > cap
                   for x in values)

    def split(self, vec):
        """A dict of entries in K in the integer form, zeros dropped: the
        numerators over the least common denominator."""
        den = self.int_one
        for x in vec.values():
            d = x.denominator
            if den % d:
                den = den // self.gcd(den, d) * d
        return {i: x.numerator * (den // x.denominator)
                for i, x in vec.items() if x}, den

    def join(self, num, den):
        """The entries in K of numerators over one denominator, as split
        gives them."""
        if self.kind != "p_adic":
            return {i: RF(self.field, 0, n, den) for i, n in num.items()}
        if den == 1:
            return {i: Fraction(n) for i, n in num.items()}
        return {i: Fraction(n, den) for i, n in num.items()}

    # -- the integer form --
    def gcd(self, *values):
        """The gcd of numerators: positive, or with lowest coefficient 1."""
        return (math.gcd if self.kind == "p_adic" else FqPoly.gcd)(*values)

    def int_val(self, n):
        """Valuation of a nonzero numerator or denominator."""
        if self.kind != "p_adic":
            return n.order()
        p, v = self.p, 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    def lowest(self, num, den):
        """Divide the numerators (in place) and den by their gcd, and by a
        unit that makes den positive, or its lowest coefficient 1; returns
        the new den."""
        if self.kind == "p_adic":
            h = math.gcd(den, *num.values())
            h = -h if den < 0 else h
        else:
            h = den.gcd(*num.values()) * FqPoly(self.field, (den.c[den.order()],))
        if h != 1:
            for i in num:
                num[i] //= h
            den //= h
        return den

    def settle(self, col, den, b, r, rden):
        """After an elimination left b * (c_k - f * c_pj) in col over den and
        R's column alongside in r over rden (f = a/b in lowest terms),
        divide both in place: by b over F_q[[t]]; over Z_(p) by col's p-free
        content g/e (by b when col is zero), cancelling the powers of p col
        shares with den.  Returns the two new denominators."""
        if self.kind != "p_adic":
            return self.lowest(col, den * b), self.lowest(r, rden * b)
        p = self.p
        e, g = 1, b
        if col:
            g, s = math.gcd(*col.values()), 0
            while g % p == 0:
                g //= p
                s += 1
            e, t = den, 0
            while e % p == 0:
                e //= p
                t += 1
            m = min(s, t)
            q = g * p ** m
            if q != 1:
                for i in col:
                    col[i] //= q
            den = p ** (t - m)
        if e != 1:
            for i in r:
                r[i] *= e
        return den, self.lowest(r, rden * g)

    def unit_part(self, x):
        """u with x = u * pi^val(x)."""
        v = self.val(x)
        if v is INF:
            raise ZeroDivisionError("unit part of zero")
        return x / self.pi_pow(v)

    def scalar_str(self, x) -> str:
        if self.kind == "p_adic":
            return str(x)
        if not x:
            return "0"
        v = x.shift
        body = f"t^{v}" if v else ""
        unit = "" if x.num == 1 and x.den == 1 else "u"
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
