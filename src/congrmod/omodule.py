"""Structure theory of finitely generated O-modules via Smith normal form.

A presentation over O is a list of relation columns, each with one entry
in K per generator, and the generator count comes with it, since a
presentation may have no relations; smith_form and
FinOModule.from_presentation take it so, and the echelon eliminates the
columns as given.  The dense witnesses L, L^-1 and R are lists of rows.

There is one elimination over O: the sparse column echelon, which visits
only the nonzero entries, tracks its column operations, answers every
kernel and solve, and can grow one column at a time.  It runs one code
path on both bases, in the integer form of dvr.Dvr: each column a dict of
numerators over one denominator (Python ints over Z_(p), polynomials in t
over F_q[[t]]), eliminating fraction-free; columns and targets enter it in
that form and entries leave it in K.  Its pivots come from heaps, never
from a scan of every column or every pivot.  The Smith form is that
echelon plus one pass of row operations, with full witnesses (L, L^-1, R)
so cokernels remember how to transport element coordinates into normal
form.  It answers rank, determinant valuation and inverse over K, and a
module's Fitting ideals are read off its invariants.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .dvr import Dvr, IdealO, INF
from .errors import DimensionMismatch, NonIntegralEntry


# ---------------------------------------------------------------------------
# generic dense helpers (entries in the fraction field K)

def _dot(dvr, a, b):
    """sum a_k * b_k, skipping the zero products."""
    acc = dvr.zero
    for x, y in zip(a, b):
        if x and y:
            acc = acc + x * y
    return acc


def mat_mul(dvr, a, b):
    bcols = list(zip(*b))
    return [[_dot(dvr, row, col) for col in bcols] for row in a]


# ---------------------------------------------------------------------------
# sparse column echelon: kernels and solves over O

def _sparse(dvr, vec):
    """A dense vector of entries in K in the echelon's form: numerators by
    index, zeros dropped, over one denominator."""
    return dvr.split(dict(enumerate(vec)))


def _combine(dst, dden, b, a, src, sden=1, gcd=None):
    """dst / dden <- b * dst / dden + a * src / sden, in place on the
    numerators dst, dropping the zeros; returns the new denominator (from
    the base's gcd).  With b = 1, only a * src is multiplied."""
    if dden != sden:
        lcm = dden // gcd(dden, sden) * sden
        b, a, dden = b * (lcm // dden), a * (lcm // sden), lcm
    if b != 1:
        for k in dst:
            dst[k] *= b
    for k, x in src.items():
        t = a * x
        y = dst.get(k)
        if y is None:
            dst[k] = t
        else:
            y = y + t
            if y:
                dst[k] = y
            else:
                del dst[k]
    return dden


class _Echelon:
    """Column echelon over O with tracked column operations: the current
    columns are the original ones times R, and R is invertible over O.
    Every column is either zero or a pivot column, and the column of pivot
    k is zero in the rows of pivots 1..k-1, so one forward pass over the
    pivots writes any vector on them.

    Each column, and each column of R, is a dict of numerators over one
    denominator, in the integer form of dvr.Dvr, whose numerator operations
    the echelon binds once.  Columns, extend() columns and reduce()/solve()
    targets come in that form, as a pair (numerators, denominator): the
    span solver expands them so, and callers holding entries in K convert
    them with Dvr.split or _sparse.  The echelon takes over the dicts of
    the columns it is given.

    An elimination by the pivot ratio f = a/b (in lowest terms) forms
    b*c_k - a*c_pj (Bareiss, Math. Comp. 22, 1968), and Dvr.settle divides
    it, and R with it, by b over F_q[[t]] and by its p-free content over
    Z_(p), so every entry equals the one that arithmetic in K (with the
    same unit scaling) gives, whatever denominator a column came in over.
    cols, R, kernel(), reduce() and solve() hand out entries in K, and
    kernel_split() the kernel in the integer form.

    The batch elimination takes each pivot, a minimal-valuation entry of
    the live columns (lowest row, then lowest column, among ties), from a
    heap of (valuation, row, column) entries; a column whose minimum moves
    pushes the new one and stale entries are skipped when popped.  A map
    from each row to the live columns with an entry in it names the columns
    a pivot clears.  extend() appends one column at a time by the
    incremental Hermite step over a DVR (Kannan and Bachem, SIAM J. Comput.
    8, 1979); it and reduce() walk only the pivots whose rows the vector
    touches, in pivot order, from a heap of pivot indices that takes the
    pivot of every row fill-in adds."""

    def __init__(self, dvr, columns):
        self.dvr = dvr
        self._v, self._gcd, self._lowest, self._settle = dvr.int_val, dvr.gcd, dvr.lowest, dvr.settle
        self._cols, self._den, self._R, self._Rden = [], [], [], []
        for column in columns:
            self._append(column)
        self.pivots = []  # (row, col) in retirement order
        self._pivot_at = {}  # pivot row -> its index in pivots
        self._run()

    # -- the integer representation --
    @property
    def cols(self):
        """The current columns, entries in K (a copy)."""
        return [self.dvr.join(c, d) for c, d in zip(self._cols, self._den)]

    @property
    def R(self):
        """The columns of R, entries in O (a copy)."""
        return [self.dvr.join(r, d) for r, d in zip(self._R, self._Rden)]

    def _append(self, column):
        j = len(self._cols)
        num, den = column
        self._cols.append(num)
        self._den.append(den)
        self._R.append({j: self.dvr.int_one})
        self._Rden.append(self.dvr.int_one)
        return j

    def _val(self, j, i):
        """Valuation of the entry of column j in row i."""
        den = self._den[j]
        return self._v(self._cols[j][i]) - (self._v(den) if den != 1 else 0)

    def _colmin(self, j):
        """(valuation, row) of column j's minimal-valuation entry, the
        lowest row among ties; None for a zero column."""
        col = self._cols[j]
        if not col:
            return None
        v, i = min((self._v(x), i) for i, x in col.items())
        den = self._den[j]
        return (v - self._v(den), i) if den != 1 else (v, i)

    def _ratio(self, x, dx, y, dy):
        """(a, b) with a/b = (x/dx) / (y/dy), in lowest terms."""
        num = {0: x * dy}
        b = self._lowest(num, y * dx)
        return num[0], b

    def _eliminate(self, k, pj, pi):
        """Column k -= f * column pj, with R alongside, f the ratio of their
        entries in row pi, which lies in O."""
        cols, den, R, Rden = self._cols, self._den, self._R, self._Rden
        ck, rk = cols[k], R[k]
        a, b = self._ratio(ck[pi], den[k], cols[pj][pi], den[pj])
        a = -a
        dk = _combine(ck, den[k], b, a, cols[pj], den[pj], self._gcd)
        rdk = _combine(rk, Rden[k], b, a, R[pj], Rden[pj], self._gcd)
        den[k], Rden[k] = self._settle(ck, dk, b, rk, rdk)

    # -- the elimination --
    def _run(self):
        cols = self._cols
        live = set(range(len(cols)))
        at_row = {}  # row -> a superset of the live columns with an entry in it
        for j, col in enumerate(cols):
            for i in col:
                at_row.setdefault(i, set()).add(j)
        low = {j: self._colmin(j) for j in live}
        heap = [(m[0], m[1], j) for j, m in low.items() if m]
        heapify(heap)
        while heap:
            v, pi, pj = heappop(heap)
            if pj not in live or low[pj] != (v, pi):
                continue
            live.discard(pj)
            pcol = cols[pj]
            for k in at_row.pop(pi):
                if k in live and pi in cols[k]:
                    self._eliminate(k, pj, pi)
                    for i in pcol:
                        if i != pi:
                            at_row[i].add(k)
                    m = self._colmin(k)
                    if m != low[k]:
                        low[k] = m
                        if m:
                            heappush(heap, (m[0], m[1], k))
            self._pivot_at[pi] = len(self.pivots)
            self.pivots.append((pi, pj))

    def _queue(self, heap, queued, rows):
        """Push the index of each pivot in one of rows, once per walk."""
        at = self._pivot_at
        for i in rows:
            k = at.get(i)
            if k is not None and k not in queued:
                queued.add(k)
                heappush(heap, k)

    def extend(self, column):
        """Append a column.  It walks the pivots in order: an entry in a
        pivot's row whose valuation is at least the pivot's is cleared by
        that pivot; an entry of lower valuation takes the pivot over, and
        the old pivot column, cleared by it, walks on in its place.  What
        is left nonzero at the end becomes the last pivot.  Every step is a
        column operation invertible over O, so R, kernel() and solve() stay
        valid."""
        cols, pivots = self._cols, self.pivots
        j = self._append(column)
        heap, queued = [], set()
        self._queue(heap, queued, cols[j])
        while heap:
            k = heappop(heap)
            pi, pj = pivots[k]
            if pi not in cols[j]:
                continue
            if self._val(j, pi) < self._val(pj, pi):
                pivots[k] = (pi, j)
                j, pj = pj, j
                self._queue(heap, queued, cols[j])
            self._eliminate(j, pj, pi)
            self._queue(heap, queued, cols[pj])
        if cols[j]:
            i = self._colmin(j)[1]
            self._pivot_at[i] = len(pivots)
            pivots.append((i, j))

    def kernel_split(self):
        """O-basis of the kernel of the column map, each vector in the
        integer form (a dict col-index -> numerator, over one denominator)
        in lowest terms; the dicts are the echelon's own."""
        pivot_cols = {j for _, j in self.pivots}
        return [(self._R[j], self._Rden[j]) for j, col in enumerate(self._cols)
                if j not in pivot_cols and not col]

    def kernel(self):
        """O-basis (as dicts col-index -> O) of the kernel of the column map."""
        return [self.dvr.join(num, den) for num, den in self.kernel_split()]

    def reduce(self, rhs):
        """The forward pass: (pivot column, y) pairs, y in O and nonzero,
        with rhs = sum y * column; None if rhs is outside the O-span.  rhs
        is (numerators, denominator) and is left as it is."""
        cols, den, pivots = self._cols, self._den, self.pivots
        b, d = rhs
        b = dict(b)
        heap, queued = [], set()
        self._queue(heap, queued, b)
        ys = []
        while heap:
            pi, pj = pivots[heappop(heap)]
            x = b.get(pi)
            if x is None:
                continue
            y, z = self._ratio(x, d, cols[pj][pi], den[pj])
            if self._v(z):  # y/z in lowest terms lies outside O
                return None
            ys.append((pj, self.dvr.join({pj: y}, z)[pj]))
            d = self._lowest(b, _combine(b, d, z, -y, cols[pj], den[pj], self._gcd) * z)
            self._queue(heap, queued, cols[pj])
        return None if b else ys

    def solve(self, rhs):
        """x (dict) with columns * x = rhs, entries in O; None if unsolvable."""
        ys = self.reduce(rhs)
        if ys is None:
            return None
        x = {}
        for pj, y in ys:
            _combine(x, 1, 1, y, self.dvr.join(self._R[pj], self._Rden[pj]))
        return x


# ---------------------------------------------------------------------------
# sparse Smith normal form over O with witnesses

class SmithForm:
    """L * A * R = D with L, R unimodular over O and D = diag(pi^v_1, ...).

    diag_vals are the pivot valuations, non-decreasing.  normal coordinates
    of a column vector x are L*x; Linv columns are representatives of the
    normal-form generators on the original ones.  L, Linv and R are dense
    lists of rows, built once when the elimination ends.  Only diag_vals is
    determined by the matrix: the witnesses are one valid choice among many.
    """

    def __init__(self, dvr, diag_vals, L, Linv, R):
        self.dvr = dvr
        self.diag_vals = diag_vals
        self.L = L
        self.Linv = Linv
        self.R = R

    @property
    def rank(self):
        return len(self.diag_vals)

    def inverse(self):
        """A^-1 = R * diag(pi^-v_i) * L, for A square of full rank."""
        scaled = []
        for v, row in zip(self.diag_vals, self.L):
            s = self.dvr.pi_pow(-v)
            scaled.append([x * s for x in row])
        return mat_mul(self.dvr, self.R, scaled)


def smith_form(dvr: Dvr, matrix, nrows) -> SmithForm:
    """Diagonalize over O the nrows x len(matrix) matrix whose columns are
    the relation columns in matrix: their column echelon, then one row
    pass.

    Each echelon pivot is a minimal-valuation entry of the columns still
    live, so pivot valuations never decrease and every entry of a pivot
    column is divisible by its pivot; and each pivot row is already zero in
    every later pivot column.  Taking the pivots in order, each pivot column
    is cleared by row operations with its own pivot row (recorded in L and
    L^-1), and the pivot is scaled to pi^v.  With the pivot rows and columns
    listed first, L * A * R = D, where R is the echelon's R.  Rows of L and
    the columns of L^-1 are sparse dicts until the end."""
    zero, one = dvr.zero, dvr.one
    ech = _Echelon(dvr, [_sparse(dvr, col) for col in matrix])
    ech_cols, ech_R = ech.cols, ech.R
    m, n = nrows, len(ech_cols)
    L = [{r: one} for r in range(m)]
    Linv = [{r: one} for r in range(m)]  # column r of L^-1
    diag = []
    for pr, pc in ech.pivots:
        col = ech_cols[pc]
        u = dvr.unit_part(col[pr])
        if u != one:
            uinv = one / u
            for vec, scale in ((L[pr], uinv), (Linv[pr], u)):
                for k in vec:
                    vec[k] = vec[k] * scale
        piv = col[pr] / u
        for r, x in col.items():
            if r != pr:
                f = x / piv
                _combine(L[r], 1, 1, -f, L[pr])
                _combine(Linv[pr], 1, 1, f, Linv[r])
        diag.append(dvr.val(piv))
    # the dense witnesses, pivot rows and columns first
    rows = [r for r, _ in ech.pivots]
    cols = [c for _, c in ech.pivots]
    rows += sorted(set(range(m)) - set(rows))
    cols += sorted(set(range(n)) - set(cols))
    dense_L = [[L[r].get(j, zero) for j in range(m)] for r in rows]
    dense_Linv = [[Linv[r].get(i, zero) for r in rows] for i in range(m)]
    dense_R = [[ech_R[c].get(i, zero) for c in cols] for i in range(n)]
    return SmithForm(dvr, diag, dense_L, dense_Linv, dense_R)


# ---------------------------------------------------------------------------
# finitely generated O-modules in invariant-factor normal form

class FinOModule:
    """A sum of O/(pi^e_i) and O^free_rank, with optional coordinate
    witnesses back to the presentation generators."""

    def __init__(self, dvr, torsion_exponents, free_rank, gens=None, smith=None):
        self.dvr = dvr
        self.torsion_exponents = tuple(sorted(torsion_exponents))
        self.free_rank = int(free_rank)
        self.gens = gens
        self.smith = smith

    # -- constructors --
    @classmethod
    def from_presentation(cls, dvr, columns, generators):
        """Cokernel of the span of the relation columns on the generators."""
        for col in columns:
            if len(col) != generators:
                raise DimensionMismatch(
                    f"relation column of length {len(col)} for {generators} generators")
        sf = smith_form(dvr, columns, generators)
        if sf.diag_vals and sf.diag_vals[0] < 0:
            # the first pivot has the minimal valuation of all entries; the
            # error names the first negative one in row order
            x = next(x for i in range(generators) for x in (col[i] for col in columns)
                     if x and dvr.val(x) < 0)
            raise NonIntegralEntry(f"entry {x!r} has negative valuation")
        tors = [v for v in sf.diag_vals if v]
        return cls(dvr, tors, generators - sf.rank, gens=generators, smith=sf)

    @classmethod
    def zero(cls, dvr):
        return cls(dvr, (), 0, gens=0)

    # -- structure --
    @property
    def signature(self):
        return (self.torsion_exponents, self.free_rank)

    @property
    def is_zero(self):
        return not self.torsion_exponents and self.free_rank == 0

    @property
    def torsion_length(self):
        return sum(self.torsion_exponents)

    def torsion_part(self):
        return FinOModule(self.dvr, self.torsion_exponents, 0)

    def fitting_ideal(self, k: int) -> IdealO:
        """Fitt_k: zero below the free rank f, otherwise pi to the sum of
        all but the k - f largest torsion exponents."""
        drop = k - self.free_rank
        if drop < 0:
            return IdealO.zero(self.dvr)
        tors = self.torsion_exponents
        return IdealO(self.dvr, sum(tors[:max(len(tors) - drop, 0)]))

    # -- coordinate transport (requires witnesses) --
    def _require_witness(self):
        if self.smith is None:
            raise DimensionMismatch("module carries no presentation witnesses")

    def free_indices(self):
        """The normal coordinates of the free summand: those past the
        Smith form's rank."""
        return range(self.smith.rank, self.gens)

    def free_coords(self, vec):
        """The free normal coordinates of a vector on the generators: the
        rows of L at the free indices, applied to it."""
        self._require_witness()
        if len(vec) != self.gens:
            raise DimensionMismatch(
                f"coordinate length {len(vec)} != generator count {self.gens}")
        L = self.smith.L
        return [_dot(self.dvr, L[i], vec) for i in self.free_indices()]

    def order_ideal(self, vec) -> IdealO:
        """{alpha(x) : alpha in Hom(U, O)} = (pi^min val of free coordinates);
        the zero ideal exactly when the class is torsion."""
        best = INF
        for x in self.free_coords(vec):
            if x:
                v = self.dvr.val(x)
                if v < best:
                    best = v
        return IdealO(self.dvr, best)

    def free_generator_reps(self):
        """Representatives (on the original generators) of the free
        normal-form generators: columns of L^-1."""
        self._require_witness()
        cols = []
        for i in self.free_indices():
            cols.append([self.smith.Linv[r][i] for r in range(self.gens)])
        return cols

    def dual_free_rows(self):
        """Functionals on the original generators dual to the free
        normal-form generators: rows of L at the free indices."""
        self._require_witness()
        return [list(self.smith.L[i]) for i in self.free_indices()]

    def __str__(self):
        parts = [f"O/pi^{e}" if e != 1 else "O/pi" for e in self.torsion_exponents]
        if self.free_rank == 1:
            parts.append("O")
        elif self.free_rank > 1:
            parts.append(f"O^{self.free_rank}")
        return " (+) ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FinOModule({self})"

