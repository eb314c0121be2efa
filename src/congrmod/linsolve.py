"""Bounded-degree linear algebra over polynomial quotient rings.

One class, SpanSolver, holds a matrix over A = O[x]/I as an exact O-linear
system on monomial coefficient vectors, and answers its kernel, solves and
membership queries; a membership query is one forward pass through the
echelon's pivots.  The global standard basis of I (the basis with no
generators when A = O[x]) expands each monomial multiple of a column
straight into the echelon's integer form, which dvr.Dvr defines for both
bases alike: to its normal form, through the basis's table, when normal
forms are O-linear (every leading coefficient a unit), and as it is
otherwise, the quotient then encoded by ideal-multiple absorber columns.
The multipliers of degree <= D are StdBasis.multipliers: over such a linear
basis only the standard monomials, since any other x^u is an O-combination
of standard monomials of degree <= deg u modulo I, so that their multiples
span the same O-module, the multiples of degree <= D modulo I; over any
other basis, every monomial.  The solver numbers the rows and holds the
system.

Vectors over A stay in that integer form (StdBasis.int_form: rows of
numerators over one denominator) from the kernel to the membership test.
kernel_forms() cuts each kernel vector to its first n coordinates, brings it
to lowest terms and drops repeats on integer keys; prune_generators orders
such candidates and keeps each one outside the span of those kept before
it, in one solver grown with extend().  Polynomials are built
(StdBasis.polys) only for the vectors a caller keeps.  Completeness holds
only up to the multiplier degree bound; callers supply bounds that are
provably sufficient for module-finite algebras and record a bounded
certification status otherwise.
"""

from __future__ import annotations

from itertools import groupby

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
    Each column is multiplied by gb.multipliers(bound): when gb is linear,
    the standard monomials of degree <= bound, whose multiples reach every
    multiple of degree <= bound modulo I, and every monomial otherwise.

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
        columns = list(columns)
        self.ring = ring
        self.dvr = ring.dvr
        self.gb = gb
        self._echelon = None
        bounds = per_bounds if per_bounds is not None else \
            [deg_bound] * len(columns)
        self._check_bound(max(bounds, default=0))
        self.row_index = {}
        self.sparse_cols = []
        self.meta = []  # ("var", j, exps) | ("abs", i, exps) per echelon column
        self.ncols = 0
        for col, bound in zip(columns, bounds):
            self._add(gb.int_form(col), bound)
        if not gb.linear:
            absorb = deg_bound + max(target_degree, _max_degree(columns))
            for i in range(nrows):
                for g in gb.gens:
                    lim = absorb - g.degree()
                    if lim < 0:
                        continue
                    form = gb.int_form((ring.zero,) * i + (g,))
                    for u in monomials_up_to(ring.nvars, lim):
                        self.sparse_cols.append(
                            self._vector(*gb.expand(form, u), grow=True))
                        self.meta.append(("abs", i, u))

    def _check_bound(self, degree):
        cap = self.gb.config.degree_cap
        if degree > cap:
            raise DegreeBoundExceeded(f"multiplier degree {degree} above cap {cap}")

    def _add(self, form, bound):
        """Append the multiples of degree <= bound of one more column, given
        as its int_form, to the system (to the echelon once it is built)."""
        j = self.ncols
        self.ncols += 1
        ech = self._echelon
        for u in self.gb.multipliers(bound):
            self.meta.append(("var", j, u))
            vec = self._vector(*self.gb.expand(form, u), grow=True)
            if ech is None:
                self.sparse_cols.append(vec)
            else:
                ech.extend(vec)

    def extend(self, form, deg_bound):
        """Add a column, given as its int_form, with multipliers of degree
        <= deg_bound.  Only its multiples are expanded, and each is appended
        to the one echelon; the absorber degree stays as it was built."""
        self._check_bound(deg_bound)
        self._ech()
        self._add(form, deg_bound)

    def _vector(self, rows, den, grow=False):
        """An expansion by gb in the echelon's form, (numerators by row,
        denominator).  Rows are numbered in the order the expansion lists
        them; a target (not grow) does not extend the row index, and gives
        None when it touches a row no column reaches, so that it lies
        outside the span."""
        index = self.row_index
        vec = {}
        for i, terms in rows:
            for e, c in terms.items():
                key = (i, e)
                rid = index.get(key)
                if rid is None:
                    if not grow:
                        return None
                    rid = index[key] = len(index)
                vec[rid] = c
        return vec, den

    def _cut(self, vec, n):
        """The entries of an echelon vector on the multiples of the first n
        columns, as {j: {exps: entry}} in the vector's order; absorber
        entries are dropped."""
        meta = self.meta
        rows = {}
        for cid, x in vec.items():
            kind, j, u = meta[cid]
            if kind == "var" and j < n:
                rows.setdefault(j, {})[u] = x
        return rows

    def _ech(self):
        if self._echelon is None:
            self._echelon = _Echelon(self.dvr, self.sparse_cols)
            self.sparse_cols = None  # the echelon takes them over
        return self._echelon

    def _heads(self, n):
        """The kernel vectors cut to their first n coordinates, nonzero and
        without repeats, in the echelon's order: each as [(j, {exps:
        numerator})], rows in order, over one denominator in lowest terms,
        so that equal heads have equal keys."""
        gcd = self.dvr.gcd
        out, seen = [], set()
        for num, den in self._ech().kernel_split():
            rows = self._cut(num, n)
            if not rows:
                continue
            g = gcd(den, *(x for terms in rows.values() for x in terms.values()))
            if g != 1:
                den //= g
                for terms in rows.values():
                    for u in terms:
                        terms[u] //= g
            rows = sorted(rows.items())
            key = (den, tuple((j, frozenset(terms.items())) for j, terms in rows))
            if key not in seen:
                seen.add(key)
                out.append((rows, den))
        return out

    def kernel(self):
        """Generators of {a : sum a_j col_j = 0 mod I}, without repeats."""
        return [self.gb.polys(rows, den, self.ncols)
                for rows, den in self._heads(self.ncols)]

    def kernel_forms(self, n):
        """The kernel cut to its first n coordinates, nonzero and without
        repeats: the int_form of each as a column of length n, held to the
        valuation cap."""
        return [self.gb.form(rows, den) for rows, den in self._heads(n)]

    def solve(self, target):
        """Multipliers a with sum a_j col_j = target mod I, or None."""
        rhs = self._vector(*self.gb.expand(self.gb.int_form(target)))
        if rhs is None:
            return None
        sol = self._ech().solve(rhs)
        if sol is None:
            return None
        rows = self._cut(sol, self.ncols)
        return tuple(Poly(self.ring, rows.get(j, {})) for j in range(self.ncols))

    def contains(self, target):
        """Whether target lies in the span: the forward pass alone, with no
        multipliers built."""
        return self._holds(*self.gb.expand(self.gb.int_form(target)))

    def _holds(self, rows, den):
        """Whether an expansion by gb lies in the span.  An empty one (zero
        in A when gb is linear, the zero vector otherwise) always does."""
        if not any(terms for _, terms in rows):
            return True
        rhs = self._vector(rows, den)
        return rhs is not None and self._ech().reduce(rhs) is not None


def _render(ring, form, nrows):
    """The rows of a column, from its int_form, as Poly.__str__ renders
    them."""
    rows, den, _ = form
    text = ["0"] * nrows
    for i, terms in rows:
        text[i] = str(Poly(ring, ring.dvr.join(terms, den)))
    return tuple(text)


def prune_generators(gb, forms, nrows, deg_bound):
    """Greedy removal of the vectors that lie in the span of the ones kept,
    over the algebra of gb, the vectors given as the int_forms of columns
    of length nrows.  They are tested in the order of their degree, then
    their number of terms, then their rows as strings, which are rendered
    only inside ties of the first two; the sort is stable.  The first is
    kept.  Each later one is expanded by gb and kept unless its expansion
    is empty (zero in A) or lies in the span of the vectors kept.

    One solver serves the call: it is built when the second vector is
    tested, its absorbers reaching every vector, and each vector kept is
    appended to its echelon with SpanSolver.extend before the next one is
    tested.  Membership in an O-span does not depend on the echelon's
    basis, so the vectors kept are those a solver built afresh on the kept
    list would keep.  Returns (index in forms, rows, den) for each vector
    kept, in order, with its expansion: its normal form when gb is linear,
    the vector itself otherwise."""
    ring = gb.ring
    sizes = []
    for rows, _, _ in forms:
        exps = [e for _, terms in rows for e in terms]
        sizes.append((max(map(sum, exps), default=-1), len(exps)))
    order = []
    for _, run in groupby(sorted(range(len(forms)), key=sizes.__getitem__),
                          key=sizes.__getitem__):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda k: _render(ring, forms[k], nrows))
        order += run
    max_degree = max([0] + [d for d, _ in sizes])
    kept, solver = [], None
    for k in order:
        if kept:
            if solver is None:
                solver = SpanSolver(ring, gb, [], nrows, deg_bound, max_degree)
            for j, _, _ in kept[solver.ncols:]:
                solver.extend(forms[j], deg_bound)
        rows, den = gb.expand(forms[k])
        if kept and solver._holds(rows, den):
            continue
        kept.append((k, rows, den))
    return kept
