"""Finitely presented modules over an augmented algebra and the O-module
data extracted from them."""

from __future__ import annotations

from .algebra import AugmentedAlgebra
from .errors import DimensionMismatch, InternalInvariantViolation, NotFiniteOverBase
from .finite import FiniteModule, FiniteStructure
from .omodule import FinOModule
from .poly import GLOBAL
from .stdbasis import std_basis


class FpModule:
    """Columns are relations on gens generators; entries are reduced against
    the parent ideal's standard basis."""

    def __init__(self, algebra: AugmentedAlgebra, gens: int, columns,
                 asserted_depth=None, asserted_mcm=False, name="M", is_O=False):
        self.algebra = algebra
        self.gens = gens
        cols = []
        for col in columns:
            if len(col) != gens:
                raise DimensionMismatch("presentation column length != generators")
            cols.append(tuple(algebra.nf(p) for p in col))
        self.columns = [c for c in cols if any(p.terms for p in c)]
        self.asserted_depth = asserted_depth
        self.asserted_mcm = asserted_mcm
        self.name = name
        self.is_O = is_O
        self._finite = None
        self._reduced = None

    @classmethod
    def ring_module(cls, algebra, name=None, asserted_depth=None, asserted_mcm=False):
        """M = A itself."""
        return cls(algebra, 1, [], name=name or algebra.name,
                   asserted_depth=asserted_depth, asserted_mcm=asserted_mcm)

    @classmethod
    def o_module(cls, algebra, name="O"):
        """M = O, presented as A/(x_1 - a_1, ..., x_n - a_n)."""
        cols = [(g,) for g in algebra.p_gens()]
        return cls(algebra, 1, cols, name=name, is_O=True)

    def direct_sum(self, other: "FpModule", name=None) -> "FpModule":
        if self.algebra is not other.algebra and self.algebra.ring != other.algebra.ring:
            raise DimensionMismatch("direct sum over different algebras")
        g = self.gens + other.gens
        zero = self.algebra.ring.zero
        cols = []
        for col in self.columns:
            cols.append(tuple(col) + (zero,) * other.gens)
        for col in other.columns:
            cols.append((zero,) * self.gens + tuple(col))
        return FpModule(self.algebra, g, cols,
                        name=name or f"{self.name}(+){other.name}")

    # -- O-module data --
    def lam_presentation(self):
        """The augmented relation columns over O."""
        A = self.algebra
        return [[A.lam(p) for p in col] for col in self.columns]

    def reduce_mod_p(self):
        """M/pM in normal form; mu is its free_rank.  Computed once per
        module: every call returns the same FinOModule."""
        if self._reduced is None:
            self._reduced = FinOModule.from_presentation(
                self.algebra.dvr, self.lam_presentation(), self.gens)
        return self._reduced

    def hom_to_O_generators(self):
        """An O-basis of Hom_O(tfree(M/pM), O) as functional rows on the
        generators; each row annihilates every presentation relation."""
        rows = self.reduce_mod_p().dual_free_rows()
        lam, zero = self.lam_presentation(), self.algebra.dvr.zero
        for row in rows:
            for col in lam:
                if sum((c * x for c, x in zip(row, col)), zero):
                    raise InternalInvariantViolation(
                        "functional fails to annihilate a presentation relation")
        return rows

    def finite_module(self) -> FiniteModule:
        """Exact O-structure; NotFiniteOverBase when no finite staircase."""
        if self._finite is None:
            A = self.algebra
            if A.is_module_finite:
                self._finite = FiniteModule(A.finite, self.gens, self.columns)
            elif self.gens == 1:
                combined = list(A.relations) + [c[0] for c in self.columns]
                combined = [p for p in combined if p.terms]
                fs = None
                if combined:
                    gb = std_basis(combined, GLOBAL, A.config)
                    fs = FiniteStructure.try_build(A.ring, gb)
                if fs is None:
                    raise NotFiniteOverBase(
                        f"module {self.name} is not finite over O (unbounded staircase)")
                self._finite = FiniteModule(fs, 1, [])
            else:
                raise NotFiniteOverBase(
                    f"module {self.name} is not finite over O (unbounded staircase)")
        return self._finite

    def torsion_submodule(self, J_gens) -> FinOModule:
        """M[J] = {x : J x = 0} as an O-module, for M finite over O."""
        fm = self.finite_module()
        vecs = fm.kernel_of_operators(list(J_gens))
        return fm.present_submodule(vecs)

    def torsion_submodule_vectors(self, J_gens):
        fm = self.finite_module()
        return fm.kernel_of_operators(list(J_gens))

    def __repr__(self):
        return f"FpModule({self.name}, gens={self.gens}, rels={len(self.columns)})"
