"""Augmented local O-algebras and their cotangent invariants.

An algebra is a polynomial presentation O[x_1..x_n]/(f_1..f_m) together
with an O-algebra augmentation x_i -> a_i (all a_i of positive valuation)
and a declared codimension c.  The declared c is never inferred; two
independent computations (cotangent rank and the vanishing of the
congruence ideal) corroborate or refute it.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

from .config import DEFAULT_CONFIG
from .dvr import IdealO
from .errors import (AugmentationNotWellDefined, DegreeBoundExceeded,
                     InconsistentCodim, NonIntegralEntry, NonLocalAugmentation)
from .finite import FiniteStructure
from .linsolve import SpanSolver
from .omodule import FinOModule
from .poly import GLOBAL, LOCAL, Poly, PolyRing, taylor_division
from .stdbasis import StdBasis, std_basis

_NOTSET = object()


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


class AugmentedAlgebra:
    def __init__(self, ring: PolyRing, relations, augmentation, codim,
                 claimed_ci=False, claimed_depth=None, claimed_mcm=False,
                 claimed_gorenstein=False, claimed_dim=None,
                 config=DEFAULT_CONFIG, name="A"):
        self.ring = ring
        self.dvr = ring.dvr
        self.relations = [r for r in relations if r.terms]
        self.augmentation = list(augmentation)
        self.codim = int(codim)
        self.claimed_ci = claimed_ci
        self.claimed_depth = claimed_depth
        self.claimed_mcm = claimed_mcm
        self.claimed_gorenstein = claimed_gorenstein
        self.claimed_dim = claimed_dim
        self.config = config
        self.name = name
        self._lock = threading.RLock()
        self._gb_global = None
        self._gb_local = None
        self._finite = _NOTSET
        self._cotangent = None
        self._resolutions = weakref.WeakValueDictionary()  # strategy -> res, see resolve_O
        self._ci_cert = _NOTSET  # see resolution._complete_intersection
        self._lam_table = {}  # exps -> lambda(x^exps) in integer form, see lam_int
        self._validate()

    def assertion_notes(self):
        """Heuristic cross-checks of the user assertions; recorded, never
        enforced."""
        notes = []
        if self.claimed_ci and self.claimed_dim is not None:
            expected = self.ring.nvars + 1 - self.claimed_dim
            if len(self.relations) != expected:
                notes.append(
                    f"ci assertion vs declared dim {self.claimed_dim}: "
                    f"{len(self.relations)} relations, a complete intersection "
                    f"presentation would have {expected}")
        return notes

    def _validate(self):
        if self.codim < 0:
            raise InconsistentCodim("negative codimension")
        if len(self.augmentation) != self.ring.nvars:
            raise AugmentationNotWellDefined("augmentation must assign every variable")
        for name, a in zip(self.ring.names, self.augmentation):
            v = self.dvr.val(a)
            if v < 0:
                raise NonIntegralEntry(f"augmentation value of {name} outside O")
            if v <= 0:
                raise NonLocalAugmentation(
                    f"augmentation value of {name} must have positive valuation")
        for f in self.relations:
            if f.min_coeff_val() < 0:
                raise NonIntegralEntry(f"relation {f} has a coefficient outside O")
            if self.lam(f):
                raise AugmentationNotWellDefined(
                    f"relation {f} does not vanish under the augmentation")

    # -- basic structure --
    @property
    def nvars(self):
        return self.ring.nvars

    def lam(self, poly: Poly):
        """The augmentation, applied to any representative polynomial."""
        return poly.evaluate(self.augmentation)

    def lam_int(self, forms, nrows):
        """The augmentation of the columns whose StdBasis.int_forms are
        given, exactly, as its nrows rows in the integer form of the
        O-echelon: ({column: numerator}, den), zeros dropped, every row
        over one denominator (the lcm of the columns' denominators times
        those of the values).  The engine's only lambda in that form; one
        table per algebra holds lambda(x^u) in it, None for a zero value."""
        dvr, table = self.dvr, self._lam_table
        parts, den = [], dvr.int_one
        for k, (rows, cden, _) in enumerate(forms):
            for i, terms in rows:
                for e, n in terms.items():
                    entry = table.get(e)
                    if entry is None:  # a racing thread stores an equal entry
                        num, d = dvr.split({0: self.lam(Poly(self.ring, {e: dvr.one}))})
                        entry = table[e] = num.get(0), d
                    x, d = entry
                    if x is not None:
                        d = d * cden
                        parts.append((i, k, n * x, d))
                        if den % d:
                            den = den // dvr.gcd(den, d) * d
        out = [{} for _ in range(nrows)]
        for i, k, x, d in parts:
            if d != den:
                x = x * (den // d)
            prev = out[i].get(k)
            out[i][k] = x if prev is None else prev + x
        return [({k: x for k, x in row.items() if x}, den) for row in out]

    def p_gens(self):
        return [self.ring.var(i) - self.ring.const(a)
                for i, a in enumerate(self.augmentation)]

    # -- cached bases and finiteness --
    @property
    def gb_global(self) -> StdBasis:
        with self._lock:
            if self._gb_global is None:
                if self.relations:
                    self._gb_global = std_basis(self.relations, GLOBAL, self.config)
                else:
                    self._gb_global = StdBasis(self.ring, GLOBAL, [], [], self.config)
            return self._gb_global

    @property
    def gb_local(self) -> StdBasis:
        with self._lock:
            if self._gb_local is None:
                if self.relations:
                    self._gb_local = std_basis(self.relations, LOCAL, self.config)
                else:
                    self._gb_local = StdBasis(self.ring, LOCAL, [], [], self.config)
            return self._gb_local

    @property
    def finite(self):
        with self._lock:
            if self._finite is _NOTSET:
                self._finite = FiniteStructure.try_build(self.ring, self.gb_global)
            return self._finite

    @property
    def is_module_finite(self):
        return self.finite is not None

    # -- reduction and membership --
    def nf(self, poly: Poly) -> Poly:
        """Global-order strong normal form: an irreducible remainder of
        poly, zero exactly when poly lies in I.  It is a canonical
        representative of the class of poly only when every leading
        coefficient of the basis is a unit: in O[x]/(5x, x^2) over Z_(5),
        nf(x) is x and nf(6*x) is 6*x, though 5x lies in I."""
        return self.gb_global.nf(poly)

    def in_ideal(self, poly: Poly) -> bool:
        """Membership in the localized ideal.  I lies inside it, so a global
        member is one; the local (Mora) basis is built only when the global
        test fails."""
        return self.gb_global.contains(poly) or self.gb_local.contains(poly)

    # -- bounded linear algebra over the quotient --
    @property
    def cert(self):
        """The certificate of every search over A: certified when A is
        module-finite, a bounded search at the configured degree otherwise."""
        if self.is_module_finite:
            return CERTIFIED
        return bounded(self.config.search_degree)

    @property
    def _search_bound(self):
        """The multiplier degree of every search over A: the staircase
        degree, which suffices, when A is module-finite."""
        if self.is_module_finite:
            return max(self.finite.maxdeg, 0)
        return self.config.search_degree

    def span_solver(self, columns):
        """The A-span of the columns, searched at the algebra's bound (its
        certificate is A.cert)."""
        return SpanSolver(self.ring, self.gb_global, columns, self._search_bound)

    # -- derived algebras --
    def quotient_by(self, f: Poly) -> "AugmentedAlgebra":
        return AugmentedAlgebra(
            self.ring, self.relations + [f], self.augmentation, self.codim - 1,
            claimed_ci=self.claimed_ci, config=self.config,
            name=self.name + "/(f)")

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relations) or "0"
        return f"O[{', '.join(self.ring.names)}]/({rels})"


def build_algebra(ring: PolyRing, relations, augmentation, codim,
                  **flags) -> AugmentedAlgebra:
    """Validate and build; lam(f_j) is checked exactly."""
    return AugmentedAlgebra(ring, relations, augmentation, codim, **flags)


@dataclass(frozen=True)
class CotangentData:
    cotangent: FinOModule
    phi: FinOModule
    fitt_c: IdealO


def jacobian_at_lambda(A: AugmentedAlgebra):
    """One column per relation, its partials evaluated at the augmentation;
    presents p/p^2 on the generators x_i - a_i."""
    return [[A.lam(f.partial(i)) for i in range(A.nvars)] for f in A.relations]


def cotangent_invariants(A: AugmentedAlgebra) -> CotangentData:
    with A._lock:
        if A._cotangent is None:
            cot = FinOModule.from_presentation(A.dvr, jacobian_at_lambda(A),
                                               A.nvars)
            phi = cot.torsion_part()
            fitt = cot.fitting_ideal(A.codim)
            A._cotangent = CotangentData(cot, phi, fitt)
        return A._cotangent


def cotangent_class_coords(A: AugmentedAlgebra, f: Poly):
    """Coordinates of [f] in p/p^2 on the generators x_i - a_i."""
    gs, _ = taylor_division(f, A.augmentation)
    return [A.lam(g) for g in gs]


def symbolic_power_test(A: AugmentedAlgebra, f: Poly) -> dict:
    """Membership of f in p and in the second symbolic power, the latter
    read off from the torsion of its cotangent class."""
    in_p = not A.lam(f)
    if not in_p:
        return {"in_p": False, "in_p2_symbolic": False, "ord_class": None}
    cot = cotangent_invariants(A).cotangent
    coords = cotangent_class_coords(A, f)
    ord_class = cot.order_ideal(coords)
    return {"in_p": True, "in_p2_symbolic": ord_class.is_zero,
            "ord_class": ord_class}


def regularity_at_lambda(A: AugmentedAlgebra, res=None) -> dict:
    """Two independent signals must agree: the torsion-free cotangent rank
    equals the declared c, and the congruence ideal of the ring is nonzero.
    The ideal is read off res (by default the auto resolution of O)."""
    from .congruence import eta_raw
    from .resolution import resolve_O

    cot = cotangent_invariants(A)
    rank = cot.cotangent.free_rank
    if rank < A.codim:
        raise InconsistentCodim(
            f"cotangent torsion-free rank {rank} is below declared codim {A.codim}")
    if res is None:
        res = resolve_O(A)
    eta, cert = eta_raw(A, None, A.codim, res)
    rank_test = rank == A.codim
    eta_test = not eta.is_zero
    if rank_test != eta_test:
        if rank_test and cert.kind == "bounded":  # a bounded eta lies inside the true one
            raise DegreeBoundExceeded(
                f"the bounded search at degree {cert.degree} found eta = 0 where the "
                f"cotangent rank is the declared codim {A.codim}; retry with a "
                f"larger --degree-bound")
        raise InconsistentCodim(
            f"cotangent rank test ({rank_test}) and eta test ({eta_test}) disagree "
            f"at declared codim {A.codim}")
    return {
        "regular_at_p": rank_test,
        "regular_global": rank_test and eta.is_unit,
        "evidence": {
            "cotangent_rank": rank,
            "declared_codim": A.codim,
            "eta": eta,
            "certification": cert.label(),
        },
    }
