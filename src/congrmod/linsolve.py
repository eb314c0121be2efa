"""Bounded-degree linear algebra over polynomial quotient rings.

One class, SpanSolver, holds a matrix over A = O[x]/I as an exact O-linear
system on monomial coefficient vectors, and answers its kernel, solves and
membership queries; a membership query is one forward pass through the
echelon's pivots.  A solver can grow: extend() appends the monomial
multiples of one more column to its echelon, so prune_generators keeps one
solver per call.  Quotient conditions are encoded either by explicit
ideal-multiple absorber columns, or, when every element of the global
standard basis has a unit leading coefficient (so strong normal forms are
O-linear), by reducing products to normal form first, through the basis's
table of monomial normal forms.  Columns are expanded straight into the
echelon's integer form: each table entry holds integer numerators over one
denominator (over Z_(p)), so a monomial multiple costs integer products and
sums, with no Poly or Fraction built.  Completeness holds only up to the
multiplier degree bound; callers supply bounds that are provably sufficient
for module-finite algebras and record a bounded certification status
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .config import DEFAULT_CONFIG
from .errors import DegreeBoundExceeded
from .omodule import _Echelon
from .poly import Poly, monomial_mul, monomials_up_to
from .stdbasis import _check_valuations


@dataclass(frozen=True)
class Cert:
    kind: str  # "certified" | "bounded" | "user_supplied_verified"
    degree: object = None

    def merge(self, other: "Cert") -> "Cert":
        order = {"certified": 0, "user_supplied_verified": 1, "bounded": 2}
        if order[self.kind] >= order[other.kind]:
            a, b = self, other
        else:
            a, b = other, self
        if a.kind == "bounded":
            degs = [c.degree for c in (self, other) if c.kind == "bounded"]
            return Cert("bounded", min(degs))
        return a

    def label(self) -> str:
        if self.kind == "bounded":
            return f"bounded_search(degree {self.degree})"
        return self.kind


CERTIFIED = Cert("certified")
USER_VERIFIED = Cert("user_supplied_verified")


def bounded(degree: int) -> Cert:
    return Cert("bounded", degree)


def _max_degree(columns):
    d = 0
    for col in columns:
        for p in col:
            d = max(d, p.degree())
    return d


class SpanSolver:
    """The A-span of a fixed column set, as one sparse O-linear system for
    sum_j a_j * col_j = target (mod I) with deg a_j <= the column's bound.

    The columns are expanded once, on construction, into the echelon's form
    (numerators by row over one positive denominator); the echelon is built
    on the first query and reused, so one instance answers kernel(), solve()
    and contains() for many targets.  The valuation cap holds for each
    column's coefficients and for every expanded entry; the degree cap is
    checked as the basis's table fills.  extend() adds a column; only the
    solver's owner calls it, never a solver shared by later readers.  The
    absorber degree defaults to deg_bound plus the largest column degree; a
    solver meant for a target of higher degree must pass a larger one, or
    that target reads as outside.
    """

    def __init__(self, ring, gb_global, columns, nrows, deg_bound,
                 absorb_degree=None, config=DEFAULT_CONFIG, per_bounds=None):
        self.columns = list(columns)
        self.ring = ring
        self.dvr = ring.dvr
        self.config = config
        self._echelon = None
        bounds = per_bounds if per_bounds is not None else \
            [deg_bound] * len(self.columns)
        self._check_bound(max(bounds, default=0))
        if absorb_degree is None:
            absorb_degree = deg_bound + _max_degree(self.columns)
        self.gb = gb_global
        self.linear = gb_global is not None and gb_global.linear
        self.row_index = {}
        self.sparse_cols = []
        self.meta = []  # ("var", j, exps) | ("abs", ...)
        for j, col in enumerate(self.columns):
            form = self._int_form(col)
            for u in monomials_up_to(ring.nvars, bounds[j]):
                self.sparse_cols.append(self._vector(form, u))
                self.meta.append(("var", j, u))
        if not self.linear and gb_global is not None:
            for i in range(nrows):
                for g in gb_global.gens:
                    lim = absorb_degree - g.degree()
                    if lim < 0:
                        continue
                    form = self._int_form((ring.zero,) * i + (g,))
                    for u in monomials_up_to(ring.nvars, lim):
                        self.sparse_cols.append(self._vector(form, u))
                        self.meta.append(("abs", i, u))

    def _check_bound(self, degree):
        if degree > self.config.degree_cap:
            raise DegreeBoundExceeded(
                f"multiplier degree {degree} above cap {self.config.degree_cap}")

    def extend(self, col, deg_bound):
        """Add col, with multipliers of degree <= deg_bound, to the columns.
        Only its multiples are expanded, and each is appended to the one
        echelon; the absorber degree stays as it was built."""
        self._check_bound(deg_bound)
        ech = self._ech()
        j = len(self.columns)
        self.columns.append(col)
        form = self._int_form(col)
        for u in monomials_up_to(self.ring.nvars, deg_bound):
            self.meta.append(("var", j, u))
            ech.extend(self._vector(form, u))

    def _int_form(self, col):
        """col in the echelon's integer form, once for all its multiples:
        (row, [(exps, numerator)]) for each nonzero entry, one positive
        denominator and its valuation.  The valuation cap on the
        coefficients is checked here, since a monomial multiplier leaves
        them as they are."""
        dvr = self.dvr
        flat = {(i, e): c for i, p in enumerate(col) for e, c in p.terms.items()}
        _check_valuations(dvr, flat.values(), self.config)
        num, den = dvr.split(flat)
        entries = {}
        for (i, e), n in num.items():
            entries.setdefault(i, []).append((e, n))
        return list(entries.items()), den, dvr.val(den) if den != 1 else 0

    def _vector(self, form, u=None):
        """u * col in the echelon's form, (numerators by row, denominator),
        from col's _int_form.  With a linear basis each term n * x^e adds n
        times the table entry of x^e * u, the table's denominators joining
        the common one, and every expanded entry is held to the valuation
        cap; otherwise x^e * u is its own entry, with the coefficient
        _int_form checked.  A target (u None) does not extend the row
        index: it gives None when it touches a monomial no column reaches,
        so that it lies outside the span.  Rows are numbered in the order
        the terms come: a one-term entry in its table order, a multi-term
        entry in the basis order, descending."""
        entries, cden, cval = form
        linear, gb, index = self.linear, self.gb, self.row_index
        vec, den = {}, 1  # den: the lcm of the table denominators met
        for i, row_terms in entries:
            acc = {}
            for e, n in row_terms:
                if u is not None:
                    e = monomial_mul(e, u)
                if not linear:
                    acc[e] = n
                    continue
                nf, d = gb.monomial_nf(e)
                if den % d:
                    m = d // gcd(den, d)
                    den *= m
                    for part in (vec, acc):
                        for k in part:
                            part[k] *= m
                if d != den:
                    n = n * (den // d)
                for e2, n2 in nf:
                    prev = acc.get(e2)
                    acc[e2] = n * n2 if prev is None else prev + n * n2
            if linear:
                _check_valuations(self.dvr, acc.values(), self.config, cval)
                if len(row_terms) > 1:
                    acc = {e: acc[e] for e in
                           sorted(acc, key=gb.order.key, reverse=True) if acc[e]}
            for e, c in acc.items():
                key = (i, e)
                rid = index.get(key)
                if rid is None:
                    if u is None:
                        return None
                    rid = index[key] = len(index)
                vec[rid] = c
        return vec, den * cden

    def _vector_to_polys(self, vec):
        polys = [dict() for _ in self.columns]
        for cid, c in vec.items():
            tag = self.meta[cid]
            if tag[0] != "var":
                continue
            _, j, u = tag
            polys[j][u] = c  # each echelon column has its own (j, u)
        return tuple(Poly(self.ring, {e: c for e, c in d.items() if c})
                     for d in polys)

    def _ech(self):
        if self._echelon is None:
            self._echelon = _Echelon(self.dvr, self.sparse_cols)
            self.sparse_cols = None  # the echelon takes them over
        return self._echelon

    def kernel(self):
        """Generators of {a : sum a_j col_j = 0 mod I}, without repeats."""
        out = []
        seen = set()
        for vec in self._ech().kernel():
            polys = self._vector_to_polys(vec)
            if all(p.is_zero for p in polys):
                continue
            key = tuple(tuple(sorted(p.terms.items())) for p in polys)
            if key in seen:
                continue
            seen.add(key)
            out.append(polys)
        return out

    def solve(self, target):
        """Multipliers a with sum a_j col_j = target mod I, or None."""
        rhs = self._vector(self._int_form(target))
        if rhs is None:
            return None
        sol = self._ech().solve(rhs)
        if sol is None:
            return None
        return self._vector_to_polys(sol)

    def contains(self, target):
        """Whether target lies in the span: the forward pass alone, with no
        multipliers built."""
        if all(p.is_zero for p in target):
            return True
        rhs = self._vector(self._int_form(target))
        return rhs is not None and self._ech().reduce(rhs) is not None


def prune_generators(ring, gb_global, vectors, deg_bound, config=DEFAULT_CONFIG):
    """Greedy removal of vectors lying in the span of the ones kept.  One
    solver serves the call: it is built on the first vector when the second
    is tested, and each later vector kept is appended to its echelon with
    SpanSolver.extend before the next candidate is tested.  Membership in
    an O-span does not depend on the echelon's basis, so the vectors kept
    are those a solver built afresh on the kept list would keep."""

    def sort_key(v):
        return (max((p.degree() for p in v), default=-1),
                sum(len(p.terms) for p in v),
                tuple(str(p) for p in v))

    vecs = sorted(vectors, key=sort_key)
    if not vecs:
        return []
    absorb = deg_bound + _max_degree(vecs)
    kept = vecs[:1]
    solver = None
    for v in vecs[1:]:
        if solver is None:
            solver = SpanSolver(ring, gb_global, kept, len(v), deg_bound,
                                absorb, config)
        elif len(solver.columns) < len(kept):
            solver.extend(kept[-1], deg_bound)
        if not solver.contains(v):
            kept.append(v)
    return kept
