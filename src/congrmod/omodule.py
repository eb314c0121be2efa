"""Structure theory of finitely generated O-modules via Smith normal form.

All matrices are lists of rows unless a function says otherwise.  There is
one elimination over O: the sparse column echelon, which visits only the
nonzero entries, tracks its column operations, answers every kernel and
solve, and can grow one column at a time.  The Smith form is that echelon
plus one pass of row operations, with full witnesses (L, L^-1, R) so
cokernels remember how to transport element coordinates into normal form.
It answers rank, determinant valuation and inverse over K, and a module's
Fitting ideals are read off its invariants.
"""

from __future__ import annotations

from .dvr import Dvr, IdealO, INF
from .errors import DimensionMismatch, NonIntegralEntry


# ---------------------------------------------------------------------------
# generic dense helpers (entries in the fraction field K)

def mat_mul(dvr, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    zero = dvr.zero
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                if ai[k]:
                    acc = acc + ai[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(dvr, a, v):
    zero = dvr.zero
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# sparse column echelon: kernels and solves over O

def _unit_content_scale(dvr, col, extra):
    """Divide col (and extra, kept consistent) by a unit of O to tame
    coefficient growth.  Only implemented for the rational case."""
    if dvr.kind != "p_adic" or not col:
        return
    from math import gcd
    g = 0
    lden = 1
    for x in col.values():
        g = gcd(g, abs(x.numerator))
        lden = lden // gcd(lden, x.denominator) * x.denominator
    if g == 0:
        return
    p = dvr.p
    while g % p == 0:
        g //= p
    while lden % p == 0:
        lden //= p
    if g == lden:
        return
    from fractions import Fraction
    c = Fraction(g, lden)
    for k in list(col):
        col[k] = col[k] / c
    for k in list(extra):
        extra[k] = extra[k] / c


def _sparse(vec):
    """A dense vector as a dict index -> entry, zeros dropped."""
    return {i: x for i, x in enumerate(vec) if x}


def _axpy(dst, f, src, zero):
    """dst += f * src on sparse vectors (dicts), dropping the zeros."""
    for k, x in src.items():
        y = dst.get(k, zero) + f * x
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


class _Echelon:
    """Column echelon over O with tracked column operations: the current
    columns are the original ones times R, and R is invertible over O.
    Every column is either zero or a pivot column, and the column of pivot
    k is zero in the rows of pivots 1..k-1, so one forward pass over the
    pivots writes any vector on them.  The batch elimination picks each
    pivot as a minimal-valuation entry of the live columns, caching each
    column's minimum so the choice is linear in the number of columns;
    extend() appends one column at a time by the incremental Hermite step
    over a DVR (Kannan and Bachem, SIAM J. Comput. 8, 1979)."""

    def __init__(self, dvr, columns):
        self.dvr = dvr
        self.cols = [dict(c) for c in columns]
        self.R = [{j: dvr.one} for j in range(len(self.cols))]
        self.pivots = []  # (row, col) in retirement order
        self._run()

    def _colmin(self, col):
        val = self.dvr.val
        best = None
        for i, x in col.items():
            v = val(x)
            if best is None or (v, i) < best:
                best = (v, i)
        return best

    def _eliminate(self, k, pj, f):
        """Column k -= f * column pj, with R alongside; f lies in O."""
        zero = self.dvr.zero
        ck, rk = self.cols[k], self.R[k]
        _axpy(ck, -f, self.cols[pj], zero)
        _axpy(rk, -f, self.R[pj], zero)
        _unit_content_scale(self.dvr, ck, rk)

    def _run(self):
        remaining = set(range(len(self.cols)))
        colmin = {j: self._colmin(self.cols[j]) for j in remaining}
        while True:
            best = None
            for j in remaining:
                m = colmin[j]
                if m is not None and (best is None or (m[0], m[1], j) < best):
                    best = (m[0], m[1], j)
            if best is None:
                break
            _, pi, pj = best
            pval = self.cols[pj][pi]
            remaining.discard(pj)
            for k in remaining:
                ck = self.cols[k]
                if pi in ck:
                    self._eliminate(k, pj, ck[pi] / pval)
                    colmin[k] = self._colmin(ck)
            self.pivots.append((pi, pj))

    def extend(self, column):
        """Append a column.  It walks the pivots in order: an entry in a
        pivot's row whose valuation is at least the pivot's is cleared by
        that pivot; an entry of lower valuation takes the pivot over, and
        the old pivot column, cleared by it, walks on in its place.  What
        is left nonzero at the end becomes the last pivot.  Every step is a
        column operation invertible over O, so R, kernel() and solve() stay
        valid."""
        val = self.dvr.val
        j = len(self.cols)
        self.cols.append(dict(column))
        self.R.append({j: self.dvr.one})
        for k, (pi, pj) in enumerate(self.pivots):
            x = self.cols[j].get(pi)
            if x is None:
                continue
            pval = self.cols[pj][pi]
            if val(x) < val(pval):
                self.pivots[k] = (pi, j)
                j, pj, x, pval = pj, j, pval, x
            self._eliminate(j, pj, x / pval)
        if self.cols[j]:
            self.pivots.append((self._colmin(self.cols[j])[1], j))

    def kernel(self):
        """O-basis (as dicts col-index -> O) of the kernel of the column map."""
        pivot_cols = {j for _, j in self.pivots}
        out = []
        for j in range(len(self.cols)):
            if j not in pivot_cols and not self.cols[j]:
                out.append(self.R[j])
        return out

    def reduce(self, rhs):
        """The forward pass: (pivot column, y) pairs, y in O and nonzero,
        with rhs = sum y * column; None if rhs is outside the O-span."""
        dvr = self.dvr
        b = {i: x for i, x in rhs.items() if x}
        ys = []
        for (pi, pj) in self.pivots:
            if pi not in b:
                continue
            y = b[pi] / self.cols[pj][pi]
            if dvr.val(y) < 0:
                return None
            ys.append((pj, y))
            _axpy(b, -y, self.cols[pj], dvr.zero)
        return None if b else ys

    def solve(self, rhs):
        """x (dict) with columns * x = rhs, entries in O; None if unsolvable."""
        ys = self.reduce(rhs)
        if ys is None:
            return None
        x = {}
        for pj, y in ys:
            _axpy(x, y, self.R[pj], self.dvr.zero)
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

    def __init__(self, dvr, diag_vals, L, Linv, R, nrows, ncols):
        self.dvr = dvr
        self.diag_vals = diag_vals
        self.L = L
        self.Linv = Linv
        self.R = R
        self.nrows = nrows
        self.ncols = ncols

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


def smith_form(dvr: Dvr, matrix) -> SmithForm:
    """Diagonalize over O: the column echelon of the matrix, then one row
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
    ech = _Echelon(dvr, [_sparse(col) for col in zip(*matrix)])
    m, n = len(matrix), len(ech.cols)
    L = [{r: one} for r in range(m)]
    Linv = [{r: one} for r in range(m)]  # column r of L^-1
    diag = []
    for pr, pc in ech.pivots:
        col = ech.cols[pc]
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
                _axpy(L[r], -f, L[pr], zero)
                _axpy(Linv[pr], f, Linv[r], zero)
        diag.append(dvr.val(piv))
    # the dense witnesses, pivot rows and columns first
    rows = [r for r, _ in ech.pivots]
    cols = [c for _, c in ech.pivots]
    rows += sorted(set(range(m)) - set(rows))
    cols += sorted(set(range(n)) - set(cols))
    dense_L = [[L[r].get(j, zero) for j in range(m)] for r in rows]
    dense_Linv = [[Linv[r].get(i, zero) for r in rows] for i in range(m)]
    dense_R = [[ech.R[c].get(i, zero) for c in cols] for i in range(n)]
    return SmithForm(dvr, diag, dense_L, dense_Linv, dense_R, m, n)


# ---------------------------------------------------------------------------
# finitely generated O-modules in invariant-factor normal form

class FinOModule:
    """A sum of O/(pi^e_i) and O^free_rank, with optional coordinate
    witnesses back to the presentation generators."""

    def __init__(self, dvr, torsion_exponents, free_rank, gens=None, smith=None, kinds=None):
        self.dvr = dvr
        self.torsion_exponents = tuple(sorted(torsion_exponents))
        self.free_rank = int(free_rank)
        self.gens = gens
        self.smith = smith
        self.kinds = kinds  # aligned to normal coordinates: ('u',0)|('t',e)|('f',0)

    # -- constructors --
    @classmethod
    def from_presentation(cls, dvr, matrix, generators=None):
        """Cokernel of the column span; rows are generators."""
        m = len(matrix)
        if generators is None:
            generators = m
        if m != generators:
            raise DimensionMismatch(f"{m} rows for {generators} generators")
        sf = smith_form(dvr, matrix)
        if sf.diag_vals and sf.diag_vals[0] < 0:
            # the first pivot has the minimal valuation of all entries
            x = next(x for row in matrix for x in row if x and dvr.val(x) < 0)
            raise NonIntegralEntry(f"entry {x!r} has negative valuation")
        kinds = []
        tors = []
        for i in range(m):
            if i < sf.rank:
                v = sf.diag_vals[i]
                if v == 0:
                    kinds.append(("u", 0))
                else:
                    kinds.append(("t", v))
                    tors.append(v)
            else:
                kinds.append(("f", 0))
        return cls(dvr, tors, m - sf.rank, gens=m, smith=sf, kinds=kinds)

    @classmethod
    def zero(cls, dvr):
        return cls(dvr, (), 0, gens=0)

    @classmethod
    def free(cls, dvr, rank):
        return cls.from_presentation(dvr, [[] for _ in range(rank)])

    @classmethod
    def of_invariants(cls, dvr, exponents, free_rank):
        return cls(dvr, exponents, free_rank)

    # -- structure --
    @property
    def signature(self):
        return (self.torsion_exponents, self.free_rank)

    @property
    def is_zero(self):
        return not self.torsion_exponents and self.free_rank == 0

    @property
    def length(self):
        """Sum of torsion exponents, or inf when a free part is present."""
        if self.free_rank:
            return INF
        return sum(self.torsion_exponents)

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

    def normal_coords(self, vec):
        self._require_witness()
        if len(vec) != self.gens:
            raise DimensionMismatch(
                f"coordinate length {len(vec)} != generator count {self.gens}")
        return mat_vec(self.dvr, self.smith.L, vec)

    def free_indices(self):
        return [i for i, k in enumerate(self.kinds) if k[0] == "f"]

    def free_coords(self, vec):
        w = self.normal_coords(vec)
        return [w[i] for i in self.free_indices()]

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


def o_module_from_presentation(dvr, matrix, generators=None) -> FinOModule:
    return FinOModule.from_presentation(dvr, matrix, generators)


def fitting_ideal(dvr, matrix, k: int) -> IdealO:
    """Fitt_k of the cokernel of the column span: the ideal of all
    (n-k)-minors, n the number of generators (rows)."""
    if len(matrix) <= k:
        return IdealO.unit(dvr)
    return FinOModule.from_presentation(dvr, matrix).fitting_ideal(k)


def order_ideal(module: FinOModule, vec) -> IdealO:
    return module.order_ideal(vec)
