"""Bounded-degree linear algebra over polynomial quotient rings.

One class, SpanSolver, holds a matrix over A = O[x]/I as an exact O-linear
system on monomial coefficient vectors, and answers its kernel, solves and
membership queries; a membership query is one forward pass through the
echelon's pivots.  A solver can grow: extend() appends the monomial
multiples of one more column to its echelon, so prune_generators keeps one
solver per call.  The global standard basis of I (the basis with no
generators when A = O[x]) expands each monomial multiple of a column
straight into the echelon's integer form: to its normal form, through the
basis's table, when normal forms are O-linear (every leading coefficient a
unit), and as it is otherwise, the quotient then encoded by ideal-multiple
absorber columns.  The solver numbers the rows and holds the system.
Completeness holds only up to the multiplier degree bound; callers supply
bounds that are provably sufficient for module-finite algebras and record
a bounded certification status otherwise.
"""

from __future__ import annotations

from .errors import DegreeBoundExceeded
from .omodule import _Echelon
from .poly import Poly, monomials_up_to


def _max_degree(columns):
    d = 0
    for col in columns:
        for p in col:
            d = max(d, p.degree())
    return d


class SpanSolver:
    """The A-span of a fixed column set, as one sparse O-linear system for
    sum_j a_j * col_j = target (mod I) with deg a_j <= the column's bound.
    gb is the global standard basis of I, and the solver reads its caps.

    The columns are expanded once, on construction, by gb (see
    StdBasis.expand); the echelon is built on the first query and reused,
    so one instance answers kernel(), solve() and contains() for many
    targets.  The valuation cap holds for each column's coefficients and
    for every expanded entry; the degree cap is checked as the basis's
    table fills.  extend() adds a column; only the solver's owner calls it,
    never a solver shared by later readers.  When gb's normal forms are not
    O-linear, the absorber columns g * e_i * u reach degree deg_bound plus
    the larger of target_degree and the largest column degree: a solver
    meant for a target of higher degree than its columns passes that
    degree, or the target reads as outside.
    """

    def __init__(self, ring, gb, columns, nrows, deg_bound, target_degree=0,
                 per_bounds=None):
        self.columns = list(columns)
        self.ring = ring
        self.dvr = ring.dvr
        self.gb = gb
        self._echelon = None
        bounds = per_bounds if per_bounds is not None else \
            [deg_bound] * len(self.columns)
        self._check_bound(max(bounds, default=0))
        self.row_index = {}
        self.sparse_cols = []
        self.meta = []  # ("var", j, exps) | ("abs", ...)
        for j, col in enumerate(self.columns):
            form = gb.int_form(col)
            for u in monomials_up_to(ring.nvars, bounds[j]):
                self.sparse_cols.append(self._vector(form, u))
                self.meta.append(("var", j, u))
        if not gb.linear:
            absorb = deg_bound + max(target_degree, _max_degree(self.columns))
            for i in range(nrows):
                for g in gb.gens:
                    lim = absorb - g.degree()
                    if lim < 0:
                        continue
                    form = gb.int_form((ring.zero,) * i + (g,))
                    for u in monomials_up_to(ring.nvars, lim):
                        self.sparse_cols.append(self._vector(form, u))
                        self.meta.append(("abs", i, u))

    def _check_bound(self, degree):
        cap = self.gb.config.degree_cap
        if degree > cap:
            raise DegreeBoundExceeded(f"multiplier degree {degree} above cap {cap}")

    def extend(self, col, deg_bound):
        """Add col, with multipliers of degree <= deg_bound, to the columns.
        Only its multiples are expanded, and each is appended to the one
        echelon; the absorber degree stays as it was built."""
        self._check_bound(deg_bound)
        ech = self._ech()
        j = len(self.columns)
        self.columns.append(col)
        form = self.gb.int_form(col)
        for u in monomials_up_to(self.ring.nvars, deg_bound):
            self.meta.append(("var", j, u))
            ech.extend(self._vector(form, u))

    def _vector(self, form, u=None):
        """u * col in the echelon's form, (numerators by row, denominator),
        from col's int_form.  Rows are numbered in the order the basis's
        expansion lists them.  A target (u None) does not extend the row
        index: it gives None when it touches a row no column reaches, so
        that it lies outside the span."""
        rows, den = self.gb.expand(form, u)
        index = self.row_index
        vec = {}
        for i, terms in rows:
            for e, c in terms.items():
                key = (i, e)
                rid = index.get(key)
                if rid is None:
                    if u is None:
                        return None
                    rid = index[key] = len(index)
                vec[rid] = c
        return vec, den

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
        rhs = self._vector(self.gb.int_form(target))
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
        rhs = self._vector(self.gb.int_form(target))
        return rhs is not None and self._ech().reduce(rhs) is not None


def prune_generators(ring, gb_global, vectors, deg_bound):
    """Greedy removal of vectors lying in the span of the ones kept.  One
    solver serves the call: it is built on the first vector when the second
    is tested, its absorbers reaching every candidate, and each later
    vector kept is appended to its echelon with SpanSolver.extend before
    the next candidate is tested.  Membership in an O-span does not depend
    on the echelon's basis, so the vectors kept are those a solver built
    afresh on the kept list would keep."""

    def sort_key(v):
        return (max((p.degree() for p in v), default=-1),
                sum(len(p.terms) for p in v),
                tuple(str(p) for p in v))

    vecs = sorted(vectors, key=sort_key)
    if not vecs:
        return []
    kept = vecs[:1]
    solver = None
    for v in vecs[1:]:
        if solver is None:
            solver = SpanSolver(ring, gb_global, kept, len(v), deg_bound,
                                _max_degree(vecs))
        elif len(solver.columns) < len(kept):
            solver.extend(kept[-1], deg_bound)
        if not solver.contains(v):
            kept.append(v)
    return kept
