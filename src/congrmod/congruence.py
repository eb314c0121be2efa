"""Congruence modules and congruence ideals through Ext over the algebra.

For O-valued coefficients the Hom complex of a resolution has augmented
differentials over O and cohomology is pure Smith-form linear algebra.  For
module coefficients, every Ext class is killed by the augmentation ideal,
so Ext needs O-generators modulo the coboundaries, not A-generators: the
cocycle heads come from one kernel solver over A (with the relations of M
as relation columns), and one bounded class solver on the coboundary and
relation columns keeps each head outside its span as a representative,
at multiplier bound 0.  The constant coordinates of the representatives
in that solver's kernel present Ext over O.  Both hand out and take back
cocycles in one form, vectors over A (see ExtModule), so the pairing,
the Kunneth map and the product lifts never ask which kind of Ext module
they read.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from math import comb

from .algebra import (AugmentedAlgebra, Cert, cotangent_invariants,
                      regularity_at_lambda, symbolic_power_test)
from .dvr import IdealO, INF
from .errors import (InSymbolicSquare, InputError,
                     InternalInvariantViolation, KappaNotInjective,
                     NotASurjection, NotRegularAtAugmentation, NotSameCodim,
                     ProductLiftFailed, ZeroDivisorSuspected)
from .fpmodule import FpModule
from .omodule import _Echelon, _sparse, FinOModule, smith_form
from .poly import Poly
from .resolution import FreeResolution, _apply_columns, _syzygies, resolve_O


class RegularityWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Ext modules

@dataclass
class ExtModule:
    """One Ext^i_A(O, M), kept on its resolution and holding no reference
    back; ext_module hands every caller the same one, read-only once built.
    Every Ext module has one cocycle form: a vector over A, g blocks of r_i
    polynomials for M with g generators.  reps are O-generators of the
    cocycles modulo the coboundaries, in that form: for M = O a basis of
    the cocycle lattice over O, as constant polynomials, and for any other
    M the cocycle heads that the class solver kept, in kernel order.
    _coords maps a cocycle over A to its coordinates on reps (None when it
    is out of their reach): for M = O it applies lambda, which is the map
    Hom_A(F_i, A) -> Hom_A(F_i, O), and solves on the cocycle echelon; for
    any other M it solves in the class solver; there is none when Ext is
    zero."""

    degree: int
    structure: FinOModule
    reps: list
    cert: Cert
    _coords: object = None

    def class_free_values(self, w):
        """Free (torsion-free quotient) coordinates of the class of w, a
        cocycle over A in the one form of every Ext module; for M = O,
        _coords applies lambda to it first."""
        if self._coords is None:  # Ext is zero
            return []
        y = self._coords(w)
        if y is None:
            raise InternalInvariantViolation(
                "cocycle not reachable from the computed generators")
        return self.structure.free_coords(y)

    def free_cocycles(self):
        """The cocycles over A of the free normal-form generators, in
        order: the reps combined by the columns of L^-1."""
        out = []
        for coords in self.structure.free_generator_reps():
            parts = [[p.scale(x) for p in rep]
                     for x, rep in zip(coords, self.reps) if x]
            out.append(tuple(sum(col[1:], col[0]) for col in zip(*parts)))
        return out


def ext_module(A: AugmentedAlgebra, M, i: int, res: FreeResolution) -> ExtModule:
    """Ext^i_A(O, M) with structure, representatives and witnesses.

    M=None (or any module with is_O) means M = O, and res must be over A.
    The result is computed once per (degree, module presentation) and kept
    on res, so every caller gets the same ExtModule: read it, never mutate it."""
    if res.algebra is not A:  # the memo keys name no algebra
        raise InputError(f"the resolution is over {res.algebra!r}, not {A!r}")
    general = isinstance(M, FpModule) and not M.is_O
    key = (i, M.gens, tuple(M.columns)) if general else (i, None)
    with A._lock:
        ext = res._ext.get(key)
    if ext is None:
        ext = _ext_general(A, M, i, res) if general else _ext_O(A, i, res)
        with A._lock:
            ext = res._ext.setdefault(key, ext)
    return ext


def _ext_O(A, i, res):
    """Ext^i(O, O) by linear algebra over O on the augmented differentials,
    whose rows the resolution keeps in the echelon's integer form, with
    one echelon of them (FreeResolution.lam, lam_echelon).  Its reps are
    the cocycle lattice's basis as constant polynomials; the coboundaries,
    rows of lambda(d_i), are solved as they are."""
    dvr = A.dvr
    r_i = res.rank(i)
    if r_i == 0:
        return ExtModule(i, FinOModule.zero(dvr), [], res.cert)
    # cocycles: the kernel of the map whose columns are the rows of
    # d_(i+1) (all of O^r_i when r_(i+1) = 0)
    cocycles = res.lam_echelon(i + 1).kernel_split()
    # one echelon of the cocycle lattice gives the coordinates of the
    # coboundaries here and of every later class
    echelon = _Echelon(dvr, [(dict(num), den) for num, den in cocycles])

    def solve(v):
        y = echelon.solve(v)
        return None if y is None else [y.get(j, dvr.zero)
                                       for j in range(len(cocycles))]

    im_coords = []
    if i > 0 and res.rank(i - 1):
        for row in res.lam(i):  # r_(i-1) x r_i
            if not row[0]:
                continue
            y = solve(row)
            if y is None:
                raise InternalInvariantViolation(
                    "coboundary escapes the cocycle lattice")
            im_coords.append(y)
    structure = FinOModule.from_presentation(dvr, im_coords, len(cocycles))
    reps = [tuple(A.ring.const(v.get(j, dvr.zero)) for j in range(r_i))
            for v in (dvr.join(num, den) for num, den in cocycles)]
    return ExtModule(i, structure, reps, res.cert,
                     lambda w: solve(_sparse(dvr, [A.lam(p) for p in w])))


def _hom_block(zero, g, d, rows):
    """Precomposition with d of each basis map e_k -> e_l into A^g, for l
    over the generators and k over the rows of d: slot (l, j) of the
    image holds entry k of column j of d."""
    width = len(d)
    out = []
    for l in range(g):
        for k in range(rows):
            vec = [zero] * (g * width)
            for j, col in enumerate(d):
                if col[k].terms:
                    vec[l * width + j] = col[k]
            out.append(tuple(vec))
    return out


def _relation_block(zero, M, width):
    """Each presentation column of M, placed in each of width slots."""
    out = []
    for j in range(width):
        for pcol in M.columns:
            vec = [zero] * (M.gens * width)
            for l, p in enumerate(pcol):
                if p.terms:
                    vec[l * width + j] = p
            out.append(tuple(vec))
    return out


def _ext_general(A, M, i, res):
    """Ext^i(O, M) on cocycles pruned over O, modulo the coboundaries, in
    one class solver.  The cocycle heads are the kernel over A of the
    precompositions with d_(i+1) and the relations of M (every vector of
    O^(g r_i) when r_(i+1) = 0).  The class solver holds the coboundary
    and relation columns at the algebra's bound and grows by each head
    outside its span with multiplier bound 0; those heads are the reps.
    The dropped heads lie in the O-span of the reps plus the coboundaries,
    so the module presented is the one every head would present.  p kills
    every class, so a rep's coordinates in the kernel, and in the
    coordinates of later classes, are constants."""
    ring = A.ring
    g = M.gens
    r_i = res.rank(i)
    r_n = res.rank(i + 1)
    dvr = A.dvr
    if r_i == 0:
        return ExtModule(i, FinOModule.zero(dvr), [], res.cert)
    zero = ring.zero
    cert = res.cert.merge(A.cert)
    gb = A.gb_global
    n = g * r_i

    # cocycle heads: psi with psi . d_(i+1) = 0 in M^(r_(i+1)); the kernel
    # solver is dropped once its kernel is read
    if r_n == 0:
        heads = [gb.int_form(tuple(ring.one if t == s else zero for t in range(n)))
                 for s in range(n)]
    else:
        heads = A.span_solver(
            _hom_block(zero, g, res.differential(i + 1), r_i)
            + _relation_block(zero, M, r_n)).kernel_forms(range(n))

    # coboundaries, then the relations of M in each of the r_i slots
    cob = []
    if i > 0 and res.rank(i - 1):
        cob = _hom_block(zero, g, res.differential(i), res.rank(i - 1))
    class_solver = A.span_solver(cob + _relation_block(zero, M, r_i))
    base = class_solver.ncols
    reps = []
    for _, rows, den in class_solver.grow(heads, 0):
        v = gb.polys(rows, den, n)
        reps.append(v if gb.linear else tuple(A.nf(p) for p in v))
    if not reps:
        return ExtModule(i, FinOModule.zero(dvr), [], cert)
    structure = FinOModule.from_presentation(
        dvr, class_solver.kernel_constants(base), len(reps))

    def coords(w):
        sol = class_solver.solve(w)
        return None if sol is None else [A.lam(x) for x in sol[base:]]

    return ExtModule(i, structure, reps, cert, coords)


# ---------------------------------------------------------------------------
# eta and psi

def _as_module(A, M):
    if M is None:
        return FpModule.ring_module(A, asserted_depth=A.claimed_depth,
                                    asserted_mcm=A.claimed_mcm)
    return M


def _push_values(A, ext_OO, r_c, rep, row):
    """Push an Ext^c(O,M) representative, a cocycle over A, through a
    functional row on M's generators: the cocycle w_k = sum_l rep[l r_c +
    k] row[l] over A, whose free values in Ext^c(O,O) are returned; r_c is
    the rank of F_c."""
    zero = A.ring.zero
    w = [sum((rep[l * r_c + k].scale(x) for l, x in enumerate(row)), zero)
         for k in range(r_c)]
    return ext_OO.class_free_values(w)


_Pairing = namedtuple("_Pairing", "cert rank mu quotient psi nonzero")


def _pairing(A, MA, c, res) -> _Pairing:
    """The pairing of Ext^c(O, MA) against the mu functionals on
    tfree(MA/pMA): cert is Ext^c(O, MA)'s, which covers the resolution's,
    rank is the free rank of Ext^c(O,O) and quotient is MA/pMA.  When rank
    is one, psi is the cokernel of the mu x s matrix of pairing values
    (representative s pushed through functional t); otherwise there is no
    psi.  nonzero says whether some value is nonzero.  Built once per
    (resolution, degree, module) and kept on res next to the Ext modules;
    read it, never mutate it.  res must be over A (ext_module checks it)."""
    ext_OO = ext_module(A, None, c, res)
    key = ("pairing", c, MA.is_O, MA.gens, tuple(MA.columns))
    with A._lock:
        pairing = res._ext.get(key)
    if pairing is None:
        ext_OM = ext_module(A, MA, c, res)
        rows = MA.hom_to_O_generators()
        r_c = res.rank(c)
        values = [[_push_values(A, ext_OO, r_c, rep, row) for row in rows]
                  for rep in ext_OM.reps]
        rank, mu = ext_OO.structure.free_rank, len(rows)
        psi = None
        if rank == 1:
            cols = [[vs[0] for vs in per_rep] for per_rep in values]
            psi = FinOModule.from_presentation(
                A.dvr, [col for col in cols if any(col)], mu)
        pairing = _Pairing(ext_OM.cert, rank, mu, MA.reduce_mod_p(), psi,
                           any(x for per_rep in values for vs in per_rep for x in vs))
        with A._lock:
            pairing = res._ext.setdefault(key, pairing)
    return pairing


def _require_rank(A, rank, c, expected=1, what="tfree Ext^c(O,O)"):
    """The free rank of an Ext module (or of the congruence module, which
    regularity makes torsion) must be the one regularity gives; when it is
    not, the cotangent rank tells a non-regular algebra from an engine
    fault."""
    if rank == expected:
        return
    cot_rank = cotangent_invariants(A).cotangent.free_rank
    if cot_rank != c:
        raise NotRegularAtAugmentation(
            f"not regular at the augmentation: {what} has rank "
            f"{rank} and the cotangent module free rank {cot_rank} at codim {c}")
    raise InternalInvariantViolation(
        f"{what} does not have rank {expected} at the declared codimension")


def require_cotangent_rank(A: AugmentedAlgebra):
    """Refuse, before any Ext module is built, an algebra whose cotangent
    module has free rank above its codimension: it is not regular at the
    augmentation.  A rank below the codimension is left to
    regularity_at_lambda, which calls it inconsistent."""
    rank = cotangent_invariants(A).cotangent.free_rank
    if rank > A.codim:
        raise NotRegularAtAugmentation(
            f"not regular at the augmentation: the cotangent module free rank "
            f"{rank} is above codim {A.codim}")


def eta_raw(A: AugmentedAlgebra, M, c: int, res: FreeResolution):
    """The congruence ideal of M (M=None is the ring A, not O as in
    ext_module): the ideal the pairing values generate, Fitt_(mu-1)(psi).
    No regularity gate, so a zero ideal is a possible (meaningful) outcome;
    the rank of Ext^c(O,O) is checked only when some value is nonzero."""
    pairing = _pairing(A, _as_module(A, M), c, res)
    if pairing.nonzero:
        _require_rank(A, pairing.rank, c)
    if pairing.psi is None:
        return IdealO.zero(A.dvr), pairing.cert
    return pairing.psi.fitting_ideal(pairing.mu - 1), pairing.cert


def psi_raw(A: AugmentedAlgebra, M, c: int, res: FreeResolution):
    """Cokernel of Ext^c(O,M) -> tfree Ext^c(O, M/pM), in normal form, with
    its cert and mu (M=None is the ring A, not O as in ext_module)."""
    pairing = _pairing(A, _as_module(A, M), c, res)
    _require_rank(A, pairing.rank, c)
    _require_rank(A, pairing.psi.free_rank, c, 0, "the congruence module")
    return pairing.psi, pairing.cert, pairing.mu


def eta(A: AugmentedAlgebra, M=None, res=None) -> IdealO:
    """Congruence ideal at the declared codimension; zero with a warning
    when the algebra is not regular at the augmentation."""
    if res is None:
        res = resolve_O(A)
    reg = regularity_at_lambda(A, res)
    value, _ = eta_raw(A, M, A.codim, res)
    if not reg["regular_at_p"]:
        warnings.warn(
            "algebra is not regular at the augmentation; the congruence "
            "ideal vanishes", RegularityWarning)
    return value


def psi(A: AugmentedAlgebra, M=None, res=None) -> FinOModule:
    if res is None:
        res = resolve_O(A)
    regularity_at_lambda(A, res)
    return psi_raw(A, M, A.codim, res)[0]


# ---------------------------------------------------------------------------
# codimension-zero oracles

def psi_direct_codim0(A: AugmentedAlgebra, M=None) -> FinOModule:
    """M/(M[p] + M[I]) with I = A[p]; the independent oracle at c = 0."""
    if A.codim != 0:
        raise InputError("the direct congruence module needs codimension 0")
    MA = _as_module(A, M)
    ring_mod = FpModule.ring_module(A)
    p_gens = A.p_gens()
    a_p_vecs = ring_mod.torsion_submodule_vectors(p_gens)
    fs = A.finite
    ideal_gens = [fs.to_poly(v) for v in a_p_vecs]
    fm = MA.finite_module()
    m_p = fm.kernel_of_operators(p_gens)
    m_i = fm.kernel_of_operators(ideal_gens) if ideal_gens else []
    return fm.quotient_module(m_p + m_i)


def eta_codim0_oracle(A: AugmentedAlgebra, M=None) -> IdealO:
    """Values of all functionals on the p-torsion of M: the image of the
    classical composition-pairing at c = 0."""
    if A.codim != 0:
        raise InputError("the pairing oracle needs codimension 0")
    MA = _as_module(A, M)
    fm = MA.finite_module()
    vecs = fm.kernel_of_operators(A.p_gens())
    rows = MA.hom_to_O_generators()
    fs = fm.fs
    lam_box = [Poly(A.ring, {e: A.dvr.one}).evaluate(A.augmentation)
               for e in fs.box]
    best = INF
    for v in vecs:
        for row in rows:
            acc = A.dvr.zero
            for l in range(MA.gens):
                for k in range(fs.rank):
                    c = v[l * fs.rank + k]
                    if c and lam_box[k]:
                        acc = acc + c * lam_box[k] * row[l]
            if acc:
                best = min(best, A.dvr.val(acc))
    return IdealO(A.dvr, best)


# ---------------------------------------------------------------------------
# defect formula

def kappa_defect(A: AugmentedAlgebra, M, res=None) -> dict:
    """The Kunneth comparison map on torsion-free parts, its cokernel
    annihilator, and the two defect identities (M=None is the ring A, not
    O as in ext_module).  Both of its rank checks tell a non-regular
    algebra (NotRegularAtAugmentation) from a fault."""
    c = A.codim
    if res is None:
        res = resolve_O(A)
    MA = _as_module(A, M)
    ext_OA = ext_module(A, FpModule.ring_module(A), c, res)
    dvr = A.dvr
    _require_rank(A, ext_OA.structure.free_rank, c, what="tfree Ext^c(O,A)")
    # the cocycle of the rank-one generator of tfree Ext^c(O,A)
    zeta = ext_OA.free_cocycles()[0]
    pairing = _pairing(A, MA, c, res)
    mu = pairing.mu
    if mu == 0:
        return {"kappa": [], "coker_ann": IdealO.unit(dvr),
                "diff_identity": True, "sequence_identity": True, "mu": 0}
    free_reps = pairing.quotient.free_generator_reps()  # vectors over O^gens
    ext_OM = ext_module(A, MA, c, res)
    _require_rank(A, ext_OM.structure.free_rank, c, mu, "tfree Ext^c(O,M)")
    kappa_cols = []
    for ms in free_reps:  # w = zeta (x) ms over A
        kappa_cols.append(ext_OM.class_free_values(
            tuple(p.scale(x) for x in ms for p in zeta)))
    sf = smith_form(dvr, kappa_cols, mu)
    if sf.rank < mu:
        raise KappaNotInjective("the Kunneth comparison map is not injective")
    coker_len = sum(sf.diag_vals)
    coker_ann = IdealO(dvr, max(sf.diag_vals) if sf.diag_vals else 0)
    eta_A, _ = eta_raw(A, None, c, res)
    eta_M, _ = eta_raw(A, MA, c, res)
    psi_A, _, _ = psi_raw(A, None, c, res)
    psi_M, _, _ = psi_raw(A, MA, c, res)
    diff_identity = eta_A.exponent == coker_ann.exponent + eta_M.exponent
    sequence_identity = (psi_M.torsion_length ==
                         mu * psi_A.torsion_length - coker_len)
    return {
        "kappa": [[col[i] for col in kappa_cols] for i in range(mu)],
        "coker_ann": coker_ann,
        "coker_length": coker_len,
        "diff_identity": diff_identity,
        "sequence_identity": sequence_identity,
        "mu": mu,
        "eta_A": eta_A,
        "eta_M": eta_M,
    }


# ---------------------------------------------------------------------------
# numerical criteria

def _depth_hypothesis(M: FpModule, c: int):
    if M.asserted_mcm:
        return True
    return M.asserted_depth is not None and M.asserted_depth >= c + 1


def numerical_criterion(A: AugmentedAlgebra, M=None, mode="defect0",
                        surjection=None, res=None) -> dict:
    """The complete-intersection-and-freeness test and its isomorphism
    variants.  Verdicts are "holds"/"fails"; missing depth or ring-theoretic
    assertions downgrade the status to hypothesis_unverified."""
    c = A.codim
    if mode == "wld" and c != 0:
        raise InputError("the classical criterion lives at codimension 0")
    if mode in ("defect0", "wld"):
        require_cotangent_rank(A)
        MA = _as_module(A, M)
        if res is None:
            res = resolve_O(A)
        cot = cotangent_invariants(A)
        eta_M, cert = eta_raw(A, MA, c, res)
        psi_M, _, mu = psi_raw(A, MA, c, res)
        ext_tfree = not ext_module(A, MA, c, res).structure.torsion_exponents
        phi_len = cot.phi.torsion_length
        cond2 = cot.fitt_c.exponent == eta_M.exponent
        cond3 = mu * phi_len == psi_M.torsion_length
        asserted = _depth_hypothesis(MA, c)
        status = "certified" if (asserted and ext_tfree) else "hypothesis_unverified"
        return {
            "mode": mode,
            "condition_2": cond2,
            "condition_3": cond3,
            "verdict": "holds" if (cond2 and cond3) else "fails",
            "status": status,
            "depth_asserted": asserted,
            "ext_torsion_free": ext_tfree,
            "certification": cert.label(),
            "data": {
                "fitt_c": cot.fitt_c,
                "eta": eta_M,
                "psi": psi_M,
                "phi_length": phi_len,
                "mu": mu,
            },
        }
    if mode in ("iso", "cotangent_iso"):
        if surjection is None:
            raise InputError(f"mode {mode} needs a surjection target")
        B, images = surjection
        section = check_surjection(A, B, images)
        phi_A = cotangent_invariants(A).phi.torsion_length
        if mode == "cotangent_iso":
            phi_B = cotangent_invariants(B).phi.torsion_length
            equal = phi_A == phi_B
            hyp = B.claimed_ci
            data = {"phi_A_length": phi_A, "phi_B_length": phi_B}
        else:
            if A.codim != B.codim:
                raise NotSameCodim("source and target declare different codims")
            N = module_over_source(A, B, images, section, None)
            if res is None:
                res = resolve_O(A)
            psi_N, _, _ = psi_raw(A, N, c, res)
            equal = phi_A == psi_N.torsion_length
            hyp = A.claimed_gorenstein and B.claimed_mcm
            data = {"phi_A_length": phi_A, "psi_B_length": psi_N.torsion_length}
        return {
            "mode": mode,
            "verdict": "holds" if equal else "fails",
            "status": "certified" if hyp else "hypothesis_unverified",
            "data": data,
        }
    raise InputError(f"unknown criterion mode {mode!r}")


# ---------------------------------------------------------------------------
# deformation

def deformation_step(A: AugmentedAlgebra, M, f: Poly) -> dict:
    """Cut by f in p outside the second symbolic power and compare the
    congruence ideals of M over A and of M/fM over A/(f) through the order
    ideal of the cotangent class of f."""
    if A.codim < 1:
        raise InputError("deformation needs declared codimension >= 1")
    sp = symbolic_power_test(A, f)
    if not sp["in_p"]:
        raise InputError("the element does not lie in the augmentation ideal")
    if sp["in_p2_symbolic"]:
        raise InSymbolicSquare(
            "the element lies in the second symbolic power; its cotangent "
            "class is torsion")
    MA = _as_module(A, M)
    # bounded annihilator search for zero divisors on M: the solver of the
    # relations keeps none of the heads a with f*a in the relations (when
    # M is free, the annihilators of f vanish locally)
    g = MA.gens
    zero = A.ring.zero
    cols = [tuple(f if k == l else zero for k in range(g)) for l in range(g)]
    cols_p = [tuple(col) for col in MA.columns]
    if cols_p:
        heads = A.span_solver(cols + cols_p).kernel_forms(range(g))
        ok = not A.span_solver(cols_p).grow(heads, 0)
    else:
        ok = all(A.in_ideal(p) for head in _syzygies(A, cols)[0] for p in head)
    if not ok:
        raise ZeroDivisorSuspected(
            "a bounded search found an annihilator of the element on M")
    B = A.quotient_by(f)
    N = FpModule(B, MA.gens, MA.columns, asserted_depth=MA.asserted_depth,
                 asserted_mcm=MA.asserted_mcm, name=MA.name + "/f")
    res_A = resolve_O(A)
    res_B = resolve_O(B)
    eta_A_M, c1 = eta_raw(A, MA, A.codim, res_A)
    eta_B_N, c2 = eta_raw(B, N, B.codim, res_B)
    ordf = sp["ord_class"]
    lhs = eta_B_N.colength
    rhs = eta_A_M.colength + ordf.colength
    return {
        "B": B,
        "N": N,
        "lhs": lhs,
        "rhs": rhs,
        "ord_f": ordf,
        "eta_A": eta_A_M,
        "eta_B": eta_B_N,
        "exact_sequence_holds": lhs == rhs,
        "certification": c1.merge(c2).merge(A.cert).label(),
    }


# ---------------------------------------------------------------------------
# Serre-type rank structure

def serre_check(A: AugmentedAlgebra, res=None, with_products=False) -> dict:
    """The free ranks of Ext^i_A(O, O), i <= c + 1 (within the matrices of
    a file resolution), against comb(c, i): r_i - rho_i - rho_(i+1), with
    rho_i = rk_K lambda(d_i) as the resolution gives it (lam_rank), so no
    Ext module is built unless products are asked for.  r_0..r_top are read
    first, so that only the top rho may find its step unbuilt; a syzygy
    resolution then reads it without building that step."""
    c = A.codim
    if res is None:
        res = resolve_O(A)
    top = min(res.length - 1, c + 1) if res.strategy == "file" else c + 1
    r = [res.rank(i) for i in range(top + 1)]
    rho = [0] + [res.lam_rank(i) for i in range(1, top + 2)]
    ranks = [r[i] - rho[i] - rho[i + 1] for i in range(top + 1)]
    expected = [comb(c, i) for i in range(top + 1)]
    out = {"ranks": ranks, "expected": expected,
           "verdict": "holds" if ranks == expected else "fails"}
    if with_products and ranks == expected and c >= 1:
        out["product_generates"] = _product_check(A, res, c)
        if not out["product_generates"]:
            out["verdict"] = "fails"
    return out


def _product_check(A, res, c):
    """Lift a basis of degree-one classes to chain self-maps and test that
    the c-fold composite generates the top torsion-free part."""
    gens = ext_module(A, None, 1, res).free_cocycles()
    if len(gens) != c:
        return False
    ring = A.ring
    # one solver of d_k per level k, shared by the generators lifted there
    solvers = [A.span_solver(res.differential(k)) for k in range(1, c)]
    # chain lift of each phi: u_k with d_k u_k = u_(k-1) d_(k+1); generator
    # t composes at level t (0-indexed), so only its u_t is kept
    lifts = []
    for t, w in enumerate(gens):
        u = [(x,) for x in w]  # columns of F_1 -> F_0
        for k in range(1, t + 1):
            cols = []
            for col in res.differential(k + 1):
                sol = solvers[k - 1].solve(_apply_columns(ring, u, col))
                if sol is None:
                    raise ProductLiftFailed(
                        f"chain lift at level {k} did not complete")
                cols.append(tuple(sol))
            u = cols
        lifts.append(u)
    # composite F_c -> F_0: u^(0)_0 o u^(1)_1 o ... o u^(c-1)_(c-1)
    composite = lifts[c - 1]
    for upper in reversed(lifts[:c - 1]):
        composite = [tuple(_apply_columns(ring, upper, col)) for col in composite]
    vals = ext_module(A, None, c, res).class_free_values(
        [col[0] for col in composite])
    return any(x and A.dvr.val(x) == 0 for x in vals)


# ---------------------------------------------------------------------------
# surjections and invariance of domain

def check_surjection(A: AugmentedAlgebra, B: AugmentedAlgebra, images):
    """Validate a surjection given by images of the source variables and
    return the section matching each target variable to a source variable."""
    if len(images) != A.nvars:
        raise InputError("one image polynomial per source variable")
    for i, img in enumerate(images):
        if B.lam(img) != A.augmentation[i]:
            raise InputError(
                "images do not commute with the augmentations")
    for fA in A.relations:
        if not B.in_ideal(fA.substitute(B.ring, images)):
            raise InputError("images do not carry the relations into the target")
    section = []
    for j, name in enumerate(B.ring.names):
        hit = None
        yj = B.ring.var(j)
        for i, img in enumerate(images):
            if B.nf(img - yj).is_zero:
                hit = i
                break
        if hit is None:
            raise NotASurjection(f"target generator {name} is not hit")
        section.append(hit)
    return section


def _pull_to_source(A, B, section, q: Poly) -> Poly:
    images = [A.ring.var(section[j]) for j in range(B.nvars)]
    return q.substitute(A.ring, images)


def kernel_generators(A, B, images, section):
    gens = []
    for h in B.relations:
        gens.append(_pull_to_source(A, B, section, h))
    for i in range(A.nvars):
        pulled = _pull_to_source(A, B, section, images[i])
        gens.append(A.ring.var(i) - pulled)
    return [A.nf(p) for p in gens if p.terms]


def module_over_source(A, B, images, section, N: FpModule | None) -> FpModule:
    """A B-module viewed over A through the surjection: same generators,
    pulled-back relations plus the kernel acting on each generator."""
    if N is None:
        N = FpModule.ring_module(B)
    g = N.gens
    zero = A.ring.zero
    cols = []
    for col in N.columns:
        cols.append(tuple(_pull_to_source(A, B, section, p) for p in col))
    for kgen in kernel_generators(A, B, images, section):
        for l in range(g):
            vec = [zero] * g
            vec[l] = kgen
            cols.append(tuple(vec))
    return FpModule(A, g, cols, asserted_depth=N.asserted_depth,
                    asserted_mcm=N.asserted_mcm, name=N.name + "|A")


def invariance_check(A: AugmentedAlgebra, B: AugmentedAlgebra, images,
                     N: FpModule | None = None) -> dict:
    """eta computed over the source and over the target of a surjection in
    the same declared codimension must agree."""
    if A.codim != B.codim:
        raise NotSameCodim(
            f"declared codimensions differ: {A.codim} vs {B.codim}")
    section = check_surjection(A, B, images)
    if N is None:
        N = FpModule.ring_module(B)
    NA = module_over_source(A, B, images, section, N)
    eta_B, c1 = eta_raw(B, N, B.codim, resolve_O(B))
    eta_A, c2 = eta_raw(A, NA, A.codim, resolve_O(A))
    return {
        "eta_source": eta_A,
        "eta_target": eta_B,
        "verdict": "holds" if eta_A.exponent == eta_B.exponent else "fails",
        "certification": c1.merge(c2).label(),
    }


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class CongruenceReport:
    algebra: str
    codim: int
    regularity: dict
    cotangent: dict
    resolution: dict
    serre: dict
    modules: dict

    def to_dict(self):
        return {
            "algebra": self.algebra,
            "codim": self.codim,
            "regularity": _plain(self.regularity),
            "cotangent": _plain(self.cotangent),
            "resolution": _plain(self.resolution),
            "serre": _plain(self.serre),
            "modules": _plain(self.modules),
        }


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (IdealO, FinOModule)):
        return str(value)
    if isinstance(value, float) and value == INF:
        return "inf"
    return value


def analyze(A: AugmentedAlgebra, modules=None, res=None) -> CongruenceReport:
    """Full report: regularity, cotangent invariants, Serre ranks, and the
    congruence data with criterion verdicts for each module."""
    require_cotangent_rank(A)
    if res is None:
        res = resolve_O(A)
    reg = regularity_at_lambda(A, res)
    cot = cotangent_invariants(A)
    serre = serre_check(A, res=res)
    module_map = {"ring": _as_module(A, None)}
    if modules:
        module_map.update(modules)
    eta_A, _ = eta_raw(A, None, A.codim, res)
    out_modules = {}
    for name, M in module_map.items():
        crit = numerical_criterion(
            A, M, mode="wld" if A.codim == 0 else "defect0", res=res)
        data = crit["data"]
        eta_M, psi_M = data["eta"], data["psi"]
        entry = {
            "eta": eta_M,
            "psi": psi_M,
            "psi_length": psi_M.torsion_length,
            "mu": data["mu"],
            "criterion": crit,
            "certification": crit["certification"],
        }
        if M.asserted_mcm and A.claimed_gorenstein:
            entry["splitting_verdict"] = (
                "holds" if eta_M.exponent == eta_A.exponent else "fails")
        else:
            entry["splitting_verdict"] = "hypothesis_unverified"
        kd = kappa_defect(A, M, res=res)
        entry["kappa"] = {
            "coker_ann": kd["coker_ann"],
            "diff_identity": kd["diff_identity"],
            "sequence_identity": kd["sequence_identity"],
        }
        out_modules[name] = entry
    notes = A.assertion_notes()
    if notes:
        reg = dict(reg)
        reg["assertion_notes"] = notes
    return CongruenceReport(
        algebra=repr(A),
        codim=A.codim,
        regularity=reg,
        cotangent={"cotangent": cot.cotangent, "phi": cot.phi,
                   "phi_length": cot.phi.torsion_length, "fitt_c": cot.fitt_c},
        resolution=res.describe(
            res.length if res.strategy == "file" else A.codim + 1),
        serre=serre,
        modules=out_modules,
    )
