"""Bounded-degree linear algebra over polynomial quotient rings.

One class, SpanSolver, holds a matrix over A = O[x]/I as an exact O-linear
system on monomial coefficient vectors, and answers its kernel, solves and
membership queries; a membership query is one forward pass through the
echelon's pivots.  The global standard basis of I (the basis with no
generators when A = O[x]) expands each monomial multiple of a column
straight into the echelon's integer form, which dvr.Dvr defines for both
bases alike: to its normal form, through the basis's table, when normal
forms are O-linear (every leading coefficient a unit), and as it is
otherwise, the quotient then encoded by ideal-multiple absorber columns
that the solver adds as its columns and targets call for.  The
multipliers of degree <= D are StdBasis.multipliers: over such a linear
basis only the standard monomials, since any other x^u is an O-combination
of standard monomials of degree <= deg u modulo I, so that their multiples
span the same O-module, the multiples of degree <= D modulo I; over any
other basis, every monomial.  The solver numbers the rows and holds the
system.  Its echelon is built at its first read (a kernel, a solve, or a
target on rows some column reaches; a target that touches another row is
outside before any elimination), in one batch elimination of every column
added before it; a column added later is appended by the incremental
Hermite step.

Vectors over A stay in that integer form (StdBasis.int_form: rows of
numerators over one denominator) from the kernel to the membership test.
kernel_forms() cuts each kernel vector to a range of columns, brings it to
lowest terms and drops repeats on integer keys; kernel_constants() reads
those on columns of multiplier bound 0 as lists of constants in K, so it
drops the same repeats and raises at the same caps.  grow() is the one
pruning loop: it keeps each candidate outside the span so far and adds it
at once, through extend(), the one way a column enters the system.
prune_generators orders candidates and grows an empty solver by them, and
returns the candidates kept with that solver where its echelon is the one
a solver constructed on them builds (a linear basis, and every kept
column in the batch), so that the syzygy resolution reads the next kernel
off it, and with None otherwise; Ext grows its class solver by the
cocycles, modulo coboundaries; several vectors lie in a span exactly when
grow() keeps none of them.  Polynomials are built (StdBasis.polys) only
for the vectors a caller keeps.  Completeness holds only up to the
multiplier degree bound; callers supply bounds that are provably
sufficient for module-finite algebras and record a bounded certification
status otherwise.
"""

from __future__ import annotations

import threading
from itertools import groupby

from .errors import DegreeBoundExceeded
from .omodule import _Echelon
from .poly import Poly


class SpanSolver:
    """The A-span of a fixed column set, as one sparse O-linear system for
    sum_j a_j * col_j = target (mod I) with deg a_j <= the column's bound.
    gb is the global standard basis of I, and the solver reads its caps.
    Each column is multiplied by gb.multipliers(bound): when gb is linear,
    the standard monomials of degree <= bound, whose multiples reach every
    multiple of degree <= bound modulo I, and every monomial otherwise.

    The columns are expanded once, as they are added, by gb (see
    StdBasis.expand); the echelon is built at the first read that needs
    it, in one batch from every column added before it, and reused, so
    one instance answers kernel_forms() on any range of columns,
    kernel_constants() (kernel_forms on the columns of bound 0 from some
    index on, read in K), solve() and contains() for many targets.  A
    target that touches a row no column reaches is outside without an
    echelon.  The valuation cap holds for each column's coefficients and
    for every expanded entry; the degree cap is checked as the basis's
    table fills.  extend() adds a column at a multiplier bound of its own,
    and grow() keeps each of several that lies outside the span and adds
    it through extend() at once; a column added before the echelon is
    built joins its batch, one added after is appended to it, and
    _batched holds while no column was appended.  Only the solver's owner
    calls them, never a solver shared by later readers.
    When gb's normal forms are not O-linear, the solver adds the absorber
    columns g * e_i * u in every row a column or a target touches, to
    degree deg_bound plus the largest column or target degree seen (a
    column's at the next read, a target's once it reads as outside),
    so a solver extended by some columns before its first read holds what
    one constructed on them holds, in the same order.
    These suffice: a strong standard basis over a DVR, under a
    degree-compatible order, writes f in I of degree <= d as sum q_i g_i
    with deg(q_i g_i) <= d (Adams and Loustaunau, GSM 3, Ch. 4).
    """

    def __init__(self, ring, gb, columns, deg_bound):
        self.ring = ring
        self.dvr = ring.dvr
        self.gb = gb
        self.deg_bound = deg_bound
        self._echelon = None
        self._check_bound(deg_bound)
        self.row_index = {}
        self.sparse_cols = []  # the batch, until the echelon is built
        self.meta = []  # ("var", j, exps) | ("abs", i, exps) per echelon column
        self.ncols = 0  # columns in the system
        self._unabsorbed = []  # the rows of columns added, until absorbed
        self._absorbed, self._top = set(), 0  # absorbed rows; degree seen
        self._batched = True  # no column was appended to a built echelon
        self._lock = threading.Lock()  # a query may extend the echelon
        for col in columns:
            self.extend(gb.int_form(col), deg_bound)
        self._ready()

    def _check_bound(self, degree):
        cap = self.gb.config.degree_cap
        if degree > cap:
            raise DegreeBoundExceeded(f"multiplier degree {degree} above cap {cap}")

    def _absorb(self, rows):
        """Add the absorbers that the rows of a column or a target,
        [(row, {exps: numerator})], call for; whether there were any."""
        gb, old = self.gb, self._top
        if gb.linear:
            return False
        self._top = max([old] + [sum(e) for _, terms in rows for e in terms])
        new = {i for i, _ in rows} - self._absorbed
        if self._top == old and not new:
            return False
        self._absorbed |= new
        for i in sorted(self._absorbed):
            low = -1 if i in new else self.deg_bound + old
            for g in gb.gens:
                d = g.degree()
                us = gb.multipliers(self.deg_bound + self._top - d)
                meta = [("abs", i, u) for u in us if sum(u) + d > low]
                if meta:
                    self._put(gb.int_form((self.ring.zero,) * i + (g,)), meta)
        return True

    def _put(self, form, meta):
        """Append the multiples of an int_form that meta lists to the system."""
        self.meta += meta
        expand, vector = self.gb.expand, self._vector
        vecs = [vector(*expand(form, u), grow=True) for _, _, u in meta]
        if self._echelon is None:
            self.sparse_cols += vecs
        else:
            self._batched = False
            for vec in vecs:
                self._echelon.extend(vec)

    def extend(self, form, bound):
        """Add a column, given as its int_form, with multipliers of degree
        <= bound (at most deg_bound, which sizes the absorbers).  Only its
        multiples are expanded: they join the batch while the echelon is
        not built, and are appended to it after; the absorbers its rows
        call for are added at the next read."""
        j = self.ncols
        self.ncols += 1
        self._put(form, [("var", j, u) for u in self.gb.multipliers(bound)])
        if not self.gb.linear:
            self._unabsorbed += form[0]

    def grow(self, forms, bound):
        """Walk forms, int_forms of columns, in order, and keep each one
        whose expansion by gb lies outside the span of the solver's columns
        and of those kept before it; a vector zero in A lies in every span
        (its expansion is empty, or the absorbers cover it).  A kept column
        joins the solver at once, with multipliers of degree <= bound,
        through extend().  Returns (index in forms, rows, den) for each
        column kept, in order, with its expansion: its normal form when gb
        is linear, the column itself otherwise.  A candidate that touches a
        row no column reaches is kept without an echelon, so the kept
        columns join the batch until a candidate needs the echelon.
        Membership in an O-span does not depend on the echelon's basis or
        history, so the columns kept are those a solver built afresh on
        the ones before would keep."""
        kept = []
        for k, form in enumerate(forms):
            rows, den = self.gb.expand(form)
            if not self._holds(rows, den):
                self.extend(form, bound)
                kept.append((k, rows, den))
        return kept

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

    def _cut(self, vec, cols):
        """The entries of an echelon vector on the multiples of the columns
        in cols, a range, as {j - cols.start: {exps: entry}} in the
        vector's order; absorber entries are dropped."""
        meta = self.meta
        rows = {}
        for cid, x in vec.items():
            kind, j, u = meta[cid]
            if kind == "var" and j in cols:
                rows.setdefault(j - cols.start, {})[u] = x
        return rows

    def _ready(self):
        """Before a read: add the absorbers that the columns added call
        for."""
        rows, self._unabsorbed = self._unabsorbed, []
        self._absorb(rows)

    def _ech(self):
        """The echelon, built on first use from every column added before
        it, in one batch elimination."""
        self._ready()
        if self._echelon is None:
            self._echelon = _Echelon(self.dvr, self.sparse_cols)
            self.sparse_cols = None  # the echelon takes them over
        return self._echelon

    def kernel_constants(self, start):
        """The kernel's coordinates on the columns from start on, each of
        which entered with bound 0, so that its coordinate is a constant:
        kernel_forms on those columns, each read as a list in K, so nonzero,
        without repeats and held to the valuation cap."""
        dvr, width = self.dvr, self.ncols - start
        out = []
        for rows, den, _ in self.kernel_forms(range(start, self.ncols)):
            vec = dvr.join({j: x for j, terms in rows for x in terms.values()}, den)
            out.append([vec.get(j, dvr.zero) for j in range(width)])
        return out

    def kernel_forms(self, cols):
        """The kernel vectors cut to the columns in cols, a range, nonzero
        and without repeats, in the echelon's order: the int_form of each
        as a column of length len(cols), held to the valuation cap, its
        rows in order over one denominator in lowest terms, so that equal
        heads have equal keys."""
        gcd = self.dvr.gcd
        out, seen = [], set()
        for num, den in self._ech().kernel_split():
            rows = self._cut(num, cols)
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
                out.append(self.gb.form(rows, den))
        return out

    def solve(self, target):
        """Multipliers a with sum a_j col_j = target mod I, or None."""
        sol = self._query(_Echelon.solve, *self.gb.expand(self.gb.int_form(target)))
        if sol is None:
            return None
        rows = self._cut(sol, range(self.ncols))
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
        return self._query(_Echelon.reduce, rows, den) is not None

    def _query(self, query, rows, den):
        """query, _Echelon.solve or reduce, on an expansion by gb; None
        outside the span, once the absorbers it calls for are in.  A target
        that touches a row no column reaches is outside before any
        elimination, so the echelon is built only for a target on known
        rows."""
        with self._lock:
            while True:
                self._ready()  # the added columns' rows join the index
                rhs = self._vector(rows, den)
                out = None if rhs is None else query(self._ech(), rhs)
                if out is not None or not self._absorb(rows):
                    return out


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
    only inside ties of the first two; the sort is stable.  One solver,
    empty at first, grows by them (SpanSolver.grow): each is kept iff it
    lies outside the span of those kept before it, so a vector zero in A
    never is.  Returns what grow() returns, indices into forms, and that
    solver, whose columns are the vectors kept, in order, each at
    deg_bound, where its echelon is the one a solver constructed on them
    builds: the basis is linear (no absorbers) and every kept column
    entered the one batch elimination, since no candidate needed the
    echelon before the last keep.  Otherwise None comes back for it."""
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
    solver = SpanSolver(ring, gb, [], deg_bound)
    kept = solver.grow([forms[k] for k in order], deg_bound)
    if not (gb.linear and solver._batched):
        solver = None
    return [(order[i], rows, den) for i, rows, den in kept], solver
