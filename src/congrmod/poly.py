"""Sparse multivariate polynomials over the base ring.

The uniformizer is a scalar, never a variable; coefficients live in the
fraction field and operations that require integrality validate valuations
at their boundary.  The text grammar here is the one shared with the CLI:
identifiers, ``pi``, ``+ - * ^``, integer literals and parentheses
(``/`` is admitted only when parsing K-scalars for lattice data).
"""

from __future__ import annotations

from .dvr import Dvr, INF
from .errors import DegreeBoundExceeded, InputError


class PolyRing:
    def __init__(self, dvr: Dvr, names):
        self.dvr = dvr
        self.names = tuple(names)
        self.nvars = len(self.names)
        self._zero_exp = (0,) * self.nvars

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (self.dvr, self.names) == (other.dvr, other.names)

    def __hash__(self):
        return hash((self.dvr, self.names))

    def __repr__(self):
        return f"PolyRing({self.dvr!r}, {list(self.names)})"

    @property
    def zero(self):
        return Poly(self, {})

    @property
    def one(self):
        return Poly(self, {self._zero_exp: self.dvr.one})

    def const(self, c):
        if not c:
            return self.zero
        return Poly(self, {self._zero_exp: c})

    def var(self, i) -> "Poly":
        if isinstance(i, str):
            i = self.names.index(i)
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.dvr.one})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get(self.ring._zero_exp, self.ring.dvr.zero)

    def degree(self):
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_coeff_val(self):
        dvr = self.ring.dvr
        return min((dvr.val(c) for c in self.terms.values()), default=INF)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return self.ring.const(self.ring.dvr.from_int(other))
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nv = out.get(e)
            nv = c if nv is None else nv + c
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int) or not isinstance(other, Poly):
            other = self._coerce(other)
        if not self.terms or not other.terms:
            return self.ring.zero
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                nv = out.get(e)
                nv = c if nv is None else nv + c
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return self.ring.zero
        return Poly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def evaluate(self, point):
        """Value at point (a full vector of K-scalars)."""
        dvr = self.ring.dvr
        acc = dvr.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * point[i] ** k
            acc = acc + v
        return acc

    def partial(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                coeff = c * self.ring.dvr.from_int(e[i])
                ne = tuple(ne)
                nv = out.get(ne)
                nv = coeff if nv is None else nv + coeff
                if nv:
                    out[ne] = nv
                else:
                    out.pop(ne, None)
        return Poly(self.ring, out)

    def substitute(self, target: PolyRing, images) -> "Poly":
        """Map variables to the given polynomials of the target ring."""
        acc = target.zero
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if k:
                    term = term * images[i] ** k
            acc = acc + term
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        dvr = self.ring.dvr
        names = self.ring.names
        parts = []
        for e in sorted(self.terms, key=lambda m: (-sum(m), m)):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k:
                    factors.append(f"{names[i]}^{k}")
            cs = dvr.scalar_str(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors and cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([cs] + factors) if factors else cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class MonomialOrder:
    """Total order on monomials; ``local`` means 1 > x_i for every i."""

    def __init__(self, kind: str):
        if kind not in ("local_degrevlex", "global_degrevlex"):
            raise InputError(f"unknown monomial order {kind!r}")
        self.kind = kind

    @property
    def is_local(self):
        return self.kind == "local_degrevlex"

    def key(self, exps):
        d = sum(exps)
        tail = tuple(-e for e in reversed(exps))
        return (-d, tail) if self.is_local else (d, tail)

    def leading(self, poly: Poly):
        """(exps, coeff) of the order-maximal term; None for 0."""
        if not poly.terms:
            return None
        e = max(poly.terms, key=self.key)
        return e, poly.terms[e]

    def __repr__(self):
        return self.kind


LOCAL = MonomialOrder("local_degrevlex")
GLOBAL = MonomialOrder("global_degrevlex")


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_up_to(nvars, degree):
    """All exponent tuples with total degree <= degree, degree order."""
    out = [()]
    for _ in range(nvars):
        out = [t + (k,) for t in out for k in range(degree + 1 - sum(t))]
    return sorted(out, key=lambda e: (sum(e), e))


def taylor_division(f: Poly, point):
    """f = sum g_i * (x_i - a_i) + r with r = f(a); expansion of x_1 first."""
    ring = f.ring
    gs = []
    h = f
    for i in range(ring.nvars):
        xi = ring.var(i)
        ai = ring.const(point[i])
        q = ring.zero
        while True:
            cand = [(e, c) for e, c in h.terms.items() if e[i] > 0]
            if not cand:
                break
            qstep = ring.zero
            for e, c in cand:
                ne = list(e)
                ne[i] -= 1
                qstep = qstep + Poly(ring, {tuple(ne): c})
            q = q + qstep
            h = h - qstep * (xi - ai)
        gs.append(q)
    return gs, h.constant_value()


# ---------------------------------------------------------------------------
# text grammar

def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            toks.append((ch, ch, i))
            i += 1
        else:
            raise InputError(f"unexpected character {ch!r} at position {i}")
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, ring, text, allow_div=False, config=None):
        self.ring = ring
        self.toks = _tokenize(text)
        self.pos = 0
        self.allow_div = allow_div
        self.config = config
        self.text = text

    def check_degree(self, degree):
        if self.config is not None and degree > self.config.degree_cap:
            raise DegreeBoundExceeded(
                f"degree {degree} in {self.text.strip()!r} above cap "
                f"{self.config.degree_cap}")

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise InputError(f"expected {kind} at position {tok[2]} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek()[0] != "end":
            tok = self.peek()
            raise InputError(f"trailing input at position {tok[2]} in {self.text!r}")
        self.check_degree(p.degree())
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            q = self.unary()
            if op == "*":
                p = p * q
            else:
                if not self.allow_div:
                    raise InputError("'/' is not part of the polynomial grammar")
                if not q.is_constant or q.is_zero:
                    raise InputError("division only by nonzero constants")
                p = p.scale(self.ring.dvr.one / q.constant_value())
        return p

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        p = self.atom()
        if self.peek()[0] == "^":
            self.take()
            e = self.take("num")[1]
            # both checks come before the power is built
            self.check_degree(p.degree() * e)
            if (self.config is not None and p.is_constant
                    and e > self.config.valuation_cap):
                raise DegreeBoundExceeded(
                    f"constant power ^{e} in {self.text.strip()!r} above "
                    f"valuation cap {self.config.valuation_cap}")
            p = p ** e
        return p

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return self.ring.const(self.ring.dvr.from_int(value))
        if kind == "name":
            self.take()
            if value == "pi":
                return self.ring.const(self.ring.dvr.pi)
            if value in self.ring.names:
                return self.ring.var(value)
            raise InputError(f"unknown variable {value!r} at position {pos}")
        if kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise InputError(f"unexpected token at position {pos} in {self.text!r}")


def parse_poly(ring: PolyRing, text: str, config=None) -> Poly:
    """Parse a polynomial.  With an EngineConfig, a polynomial above its
    degree_cap, or a constant raised to a power above its valuation_cap,
    raises DegreeBoundExceeded before any step evaluates or multiplies it."""
    return _Parser(ring, text, config=config).parse()


def parse_scalar(dvr: Dvr, text: str, config=None):
    """A K-scalar: the polynomial grammar with no variables plus '/'; the
    config caps powers as in parse_poly."""
    ring = PolyRing(dvr, ())
    p = _Parser(ring, text, allow_div=True, config=config).parse()
    return p.constant_value()
