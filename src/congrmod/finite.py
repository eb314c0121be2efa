"""Exact O-module structure for module-finite quotient algebras.

A quotient O[x]/I is recognized as module-finite over O when, for every
variable, the global standard basis contains an element whose leading term
is a pure power with unit coefficient; the monomials outside the staircase
of unit-lead leading monomials then span the quotient over O, and every
kernel or torsion computation reduces to exact linear algebra over O with
provably sufficient degree bounds.
"""

from __future__ import annotations

from itertools import product

from .linsolve import SpanSolver
from .omodule import _Echelon, _sparse, FinOModule
from .poly import Poly, monomial_divides


class FiniteStructure:
    """Box basis of a module-finite algebra A = O[x]/I over O."""

    def __init__(self, ring, gb_global, box):
        self.ring = ring
        self.dvr = ring.dvr
        self.gb = gb_global
        self.box = box
        self.maxdeg = max((sum(e) for e in box), default=0)
        self._relations = None

    @classmethod
    def try_build(cls, ring, gb_global):
        unit_leads = gb_global.unit_leads
        bounds = []
        for i in range(ring.nvars):
            k = None
            for e in unit_leads:
                if e[i] and all(x == 0 for j, x in enumerate(e) if j != i):
                    k = e[i] if k is None else min(k, e[i])
            if k is None:
                return None
            bounds.append(k)
        box = []
        for e in product(*[range(k) for k in bounds]):
            if not any(monomial_divides(le, e) for le in unit_leads):
                box.append(e)
        box.sort(key=lambda e: (sum(e), e))
        return cls(ring, gb_global, box)

    @property
    def rank(self):
        return len(self.box)

    def to_poly(self, vec):
        return Poly(self.ring, {e: c for e, c in zip(self.box, vec) if c})

    def algebra_relations(self):
        """O-relations among the box monomials inside A (nonzero only when
        the quotient has O-torsion, e.g. a relation pi^m * x)."""
        if self._relations is None:
            cols = [(Poly(self.ring, {e: self.dvr.one}),) for e in self.box]
            solver = SpanSolver(self.ring, self.gb, cols, 0)
            self._relations = solver.kernel_constants(0)
        return self._relations

    def mult_matrix(self, poly: Poly):
        """Columns: the O-coordinates on the box monomials of the class of
        poly * m_k, for each box monomial m_k."""
        zero = self.dvr.zero
        cols = []
        for e in self.box:
            nf = self.gb.nf(poly * Poly(self.ring, {e: self.dvr.one})).terms
            cols.append([nf.get(b, zero) for b in self.box])
        return cols


class FiniteModule:
    """O-coordinates for a finitely presented module over a module-finite
    algebra: generator-major blocks of box coordinates."""

    def __init__(self, fstruct: FiniteStructure, gens: int, pres_columns):
        self.fs = fstruct
        self.dvr = fstruct.dvr
        self.gens = gens
        self.dim = fstruct.rank * gens
        rel = []
        arel = fstruct.algebra_relations()
        for l in range(gens):
            for r in arel:
                rel.append(self._block_vector(l, r))
        for col in pres_columns:
            mults = [fstruct.mult_matrix(p) for p in col]
            for k in range(fstruct.rank):
                rel.append([c for m in mults for c in m[k]])
        self.rel_cols = rel

    def _block_vector(self, l, coords):
        vec = [self.dvr.zero] * self.dim
        n = self.fs.rank
        for k, c in enumerate(coords):
            vec[l * n + k] = c
        return vec

    def as_module(self) -> FinOModule:
        return FinOModule.from_presentation(self.dvr, self.rel_cols, self.dim)

    def kernel_of_operators(self, op_polys):
        """O-generators of {x in M : q * x = 0 for every q}, as coordinate
        vectors on the box basis blocks."""
        fs = self.fs
        nops = len(op_polys)
        mults = [fs.mult_matrix(q) for q in op_polys]
        columns = []
        n = fs.rank
        for j in range(self.dim):
            l, k = divmod(j, n)
            col = {}
            for t in range(nops):
                mcol = mults[t][k]
                for i, c in enumerate(mcol):
                    if c:
                        col[t * self.dim + l * n + i] = c
            columns.append(self.dvr.split(col))
        for t in range(nops):
            for r in self.rel_cols:
                col = {}
                for i, c in enumerate(r):
                    if c:
                        col[t * self.dim + i] = -c
                columns.append(self.dvr.split(col))
        # keep the generators outside the span of the relations and of the
        # generators kept before them; one echelon grows with what is kept
        span = _Echelon(self.dvr, [_sparse(self.dvr, r) for r in self.rel_cols])
        kept = []
        for num, den in _Echelon(self.dvr, columns).kernel_split():
            col = ({j: n for j, n in num.items() if j < self.dim}, den)
            if col[0] and span.reduce(col) is None:
                vec = self.dvr.join(*col)
                kept.append([vec.get(j, self.dvr.zero) for j in range(self.dim)])
                span.extend(col)
        return kept

    def present_submodule(self, vectors) -> FinOModule:
        """The submodule generated by the vectors, in invariant-factor form."""
        if not vectors:
            return FinOModule.zero(self.dvr)
        cols = [_sparse(self.dvr, v) for v in list(vectors) + self.rel_cols]
        rels = []
        for vec in _Echelon(self.dvr, cols).kernel():
            w = [vec.get(j, self.dvr.zero) for j in range(len(vectors))]
            if any(w):
                rels.append(w)
        return FinOModule.from_presentation(self.dvr, rels, len(vectors))

    def quotient_module(self, extra_vectors) -> FinOModule:
        return FinOModule.from_presentation(
            self.dvr, self.rel_cols + list(extra_vectors), self.dim)
