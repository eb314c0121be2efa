"""Codimension-zero congruence modules of lattices in a K-vector space.

Everything is computed in lattice coordinates: the lattice is O^n there,
the two subspaces become column spans over K, and the three quotients
L^1/L_1, L/(L_1 + L_2), L^2/L_2 are formed independently and compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dvr import Dvr, IdealO
from .errors import (DegenerateLattice, DimensionMismatch,
                     InternalInvariantViolation, NotADirectSum, RankMismatch,
                     TorsionQuotient)
from .omodule import _dot, _Echelon, _sparse, FinOModule, mat_mul, smith_form


@dataclass
class LatticeSplit:
    dvr: Dvr
    lattice_basis: list  # n x n over K, columns span L
    v1: list             # n x d1 over K, columns span V1
    v2: list             # n x d2 over K, columns span V2

    @property
    def ambient_dim(self):
        return len(self.lattice_basis)

    def dims(self):
        return len(self.v1[0]) if self.v1 else 0, len(self.v2[0]) if self.v2 else 0


def _check_shapes(split):
    """The basis is n x n, and v1 and v2 are n x d matrices (an empty one
    is the zero subspace)."""
    n = split.ambient_dim
    if any(len(row) != n for row in split.lattice_basis):
        raise DimensionMismatch(f"lattice basis is not {n} x {n}")
    for name, v in (("v1", split.v1), ("v2", split.v2)):
        if v and len(v) != n:
            raise DimensionMismatch(f"{name} has {len(v)} rows, expected {n}")
        if len({len(row) for row in v}) > 1:
            raise DimensionMismatch(f"{name} has rows of unequal lengths")


def _columns(rows):
    return [list(c) for c in zip(*rows)] if rows else []


def _saturate_in_On(dvr, vectors, n):
    """Basis of span_K(vectors) ∩ O^n (a saturated sublattice of O^n)."""
    if not vectors:
        return []
    # clear valuations columnwise; the K-span is unchanged
    cleared = []
    for v in vectors:
        vals = [dvr.val(x) for x in v if x]
        if not vals:
            continue
        m = min(vals)
        scale = dvr.pi_pow(-m) if m < 0 else dvr.one
        cleared.append([x * scale for x in v])
    if not cleared:
        return []
    sf = smith_form(dvr, cleared, n)
    return [[sf.Linv[i][j] for i in range(n)] for j in range(sf.rank)]


def _lattice_basis_of_span(dvr, vectors, n):
    """O-basis of the O-span of the given K-vectors (not saturated)."""
    vals = [dvr.val(x) for v in vectors for x in v if x]
    if not vals:
        return []
    shift = min(min(vals), 0)
    scale = dvr.pi_pow(-shift)
    sf = smith_form(dvr, [[x * scale for x in v] for v in vectors], n)
    unscale = dvr.pi_pow(shift)
    out = []
    for j in range(sf.rank):
        d = dvr.pi_pow(sf.diag_vals[j])
        out.append([sf.Linv[i][j] * d * unscale for i in range(n)])
    return out


def _quotient_of_lattices(dvr, big, small):
    """small ⊆ big sublattices of K^n of equal rank: coker as FinOModule.
    The columns of big are independent, so an O-solution exists exactly
    when the unique K-solution is integral."""
    r = len(big)
    echelon = _Echelon(dvr, [_sparse(dvr, b) for b in big])
    coords = []
    for s in small:
        sol = echelon.solve(_sparse(dvr, s))
        if sol is None:
            raise InternalInvariantViolation("sublattice escapes the big lattice")
        coords.append(sol)
    return FinOModule.from_presentation(
        dvr, [[c.get(i, dvr.zero) for i in range(r)] for c in coords], r)


def split_and_congruence(split: LatticeSplit) -> dict:
    """The paper's three quotients, computed independently; they must agree
    in normal form and the common value is the congruence module."""
    _check_shapes(split)
    dvr = split.dvr
    n = split.ambient_dim
    B = split.lattice_basis
    sf = smith_form(dvr, _columns(B), n)  # B is given by its rows
    if sf.rank != n:
        raise DegenerateLattice("lattice basis is singular over K")
    Binv = sf.inverse()
    d1, d2 = split.dims()
    if d1 + d2 != n:
        raise NotADirectSum("subspace dimensions do not add up to the ambient")
    Y1 = mat_mul(dvr, Binv, split.v1)  # subspaces in lattice coordinates
    Y2 = mat_mul(dvr, Binv, split.v2)
    C1, C2 = _columns(Y1), _columns(Y2)
    sf = smith_form(dvr, C1 + C2, n)
    if sf.rank != n:
        raise NotADirectSum("the subspaces intersect nontrivially")
    Tinv = sf.inverse()

    L1 = _saturate_in_On(dvr, C1, n)
    L2 = _saturate_in_On(dvr, C2, n)
    if len(L1) != d1 or len(L2) != d2:
        raise InternalInvariantViolation("intersection lattice has wrong rank")
    # projections pi_i(L): columns of Y_i * (first rows of Tinv applied to e_j)
    proj1, proj2 = [], []
    for j in range(n):
        t = [Tinv[i][j] for i in range(n)]
        p1 = [_dot(dvr, Y1[i], t[:d1]) for i in range(n)]
        p2 = [_dot(dvr, Y2[i], t[d1:]) for i in range(n)]
        proj1.append(p1)
        proj2.append(p2)
    Lsup1 = _lattice_basis_of_span(dvr, proj1, n)
    Lsup2 = _lattice_basis_of_span(dvr, proj2, n)

    # torsion-freeness of L/L_i (holds for saturated intersections)
    for Li in (L1, L2):
        if FinOModule.from_presentation(dvr, Li, n).torsion_exponents:
            raise TorsionQuotient("L/L_i acquired torsion")

    q1 = _quotient_of_lattices(dvr, Lsup1, L1)
    q2 = _quotient_of_lattices(dvr, Lsup2, L2)
    qm = FinOModule.from_presentation(dvr, L1 + L2, n)
    if not (q1.signature == q2.signature == (qm.torsion_exponents, 0)):
        if qm.free_rank or not (q1.signature == q2.signature ==
                                (qm.torsion_exponents, qm.free_rank)):
            raise InternalInvariantViolation(
                f"the three congruence quotients disagree: "
                f"{q1.signature} / {qm.signature} / {q2.signature}")
    cong = qm.torsion_part()

    def back(vectors):
        return [[_dot(dvr, B[i], v) for v in vectors] for i in range(n)]

    return {
        "L1": back(L1), "L2": back(L2),
        "Lsup1": back(Lsup1), "Lsup2": back(Lsup2),
        "cong": cong,
        "coords": {"L1": L1, "L2": L2, "Lsup1": Lsup1, "Lsup2": Lsup2},
    }


def pairing_discriminant(split: LatticeSplit, pairing=None) -> IdealO:
    """(det <f_i, x_j>) for a basis x of L_1 and f of Hom(L/L_2, O); equals
    Fitt_0 of the congruence module.  The optional pairing matrix Q twists
    the canonical evaluation to <f, x> = f^T Q x in lattice coordinates."""
    return split_discriminant(split, split_and_congruence(split), pairing)


def split_discriminant(split: LatticeSplit, data, pairing=None) -> IdealO:
    """pairing_discriminant for a split whose split_and_congruence result
    is already known, so that the lattice is split once."""
    dvr = split.dvr
    n = split.ambient_dim
    if pairing is not None and (len(pairing) != n
                                or any(len(row) != n for row in pairing)):
        raise DimensionMismatch(f"pairing matrix is not {n} x {n}")
    L1 = data["coords"]["L1"]
    L2 = data["coords"]["L2"]
    d1 = len(L1)
    # functionals on O^n vanishing on L_2: kernel of the transpose
    if L2:
        # the columns of the d2 x n matrix with rows L2; kernel = Hom(L/L2, O)
        ker = _Echelon(dvr, [_sparse(dvr, col) for col in zip(*L2)]).kernel()
        fs = [[v.get(j, dvr.zero) for j in range(n)] for v in ker]
    else:
        fs = [[dvr.one if i == j else dvr.zero for i in range(n)]
              for j in range(n)]
    if len(fs) != d1:
        raise RankMismatch(
            f"Hom(L/L_2, O) has rank {len(fs)}, expected {d1}")
    if d1 == 0:
        return IdealO.unit(dvr)
    if pairing is not None:
        fs = [[_dot(dvr, f, [pairing[i][j] for i in range(n)])
               for j in range(n)] for f in fs]
    # the columns of the Gram matrix <f_i, x_j>, one per x_j
    sf = smith_form(dvr, [[_dot(dvr, f, x) for f in fs] for x in L1], len(fs))
    if sf.rank < d1:
        return IdealO.zero(dvr)
    return IdealO(dvr, sum(sf.diag_vals))
