from fractions import Fraction as F

import pytest

from congrmod import Dvr, FpModule, PolyRing, build_algebra
from congrmod.errors import NotFiniteOverBase
from conftest import make_An, make_ring_B, make_hypersurface_2var


class ProductRing:
    """Brute-force oracle: the congruence ring {(a, b) : a = b mod pi^n}
    realized inside O x O, with x acting as (0, pi^n)."""

    def __init__(self, p, n):
        self.p = F(p)
        self.n = n
        self.x = (F(0), self.p ** n)

    def mul(self, u, v):
        return (u[0] * v[0], u[1] * v[1])

    def elements_mod(self, k):
        """Enumerate lattice points (a, b) with a = b mod pi^n, coefficients
        bounded by pi^k."""
        span = self.p ** self.n
        out = []
        for a in range(-3, 4):
            for t in range(-3, 4):
                out.append((F(a), F(a) + span * t))
        return out


def test_reduce_mod_p_ring(O5):
    A = make_An(5, 2)
    M = FpModule.ring_module(A)
    out = M.reduce_mod_p()
    assert out.signature == ((), 1)
    assert out.free_rank == 1


def test_reduce_mod_p_direct_sum():
    A = make_An(5, 2)
    M = FpModule.ring_module(A)
    MM = M.direct_sum(M)
    assert MM.reduce_mod_p().free_rank == 2


def test_reduce_mod_p_O_module():
    A = make_An(5, 3)
    M = FpModule.o_module(A)
    out = M.reduce_mod_p()
    assert out.signature == ((), 1)
    assert out.free_rank == 1


def test_reduce_mod_p_once_per_module(monkeypatch):
    """Two hom_to_O_generators calls on one module run one Smith form, and
    reduce_mod_p hands back the same module."""
    from congrmod import omodule
    A = make_ring_B(5)
    M = FpModule.ring_module(A).direct_sum(FpModule.o_module(A))
    calls = []
    real = omodule.smith_form
    monkeypatch.setattr(omodule, "smith_form", lambda dvr, matrix, nrows:
                        calls.append(matrix) or real(dvr, matrix, nrows))
    first = M.hom_to_O_generators()
    assert M.hom_to_O_generators() == first
    assert len(calls) == 1
    assert M.reduce_mod_p() is M.reduce_mod_p()


def test_mu_additivity(rng):
    A = make_ring_B(5)
    mods = [FpModule.ring_module(A), FpModule.o_module(A)]
    for _ in range(10):
        m1, m2 = rng.choice(mods), rng.choice(mods)
        s = m1.direct_sum(m2)
        assert s.reduce_mod_p().free_rank == (
            m1.reduce_mod_p().free_rank + m2.reduce_mod_p().free_rank)


def test_hom_generators_annihilate_relations():
    A = make_An(5, 2)
    assert FpModule.ring_module(A).hom_to_O_generators() == [[F(1)]]
    MM = FpModule.ring_module(A).direct_sum(FpModule.ring_module(A))
    rows = MM.hom_to_O_generators()
    assert len(rows) == 2
    # pairwise dual to the free generators of (M/pM)^tf
    q = MM.reduce_mod_p()
    reps = q.free_generator_reps()
    for i, row in enumerate(rows):
        for j, rep in enumerate(reps):
            val = sum(a * b for a, b in zip(row, rep))
            assert val == (F(1) if i == j else F(0))


def test_hom_generators_torsion_contributes_none():
    # M with M/pM = O/pi (+) O: one functional row only
    A = make_An(5, 1)
    R = A.ring
    M = FpModule(A, 2, [(R.parse("pi"), R.zero)])
    rows = M.hom_to_O_generators()
    assert len(rows) == 1


class TestTorsionSubmodule:
    def test_a_p_is_rank_one(self):
        """A[p] = ann(x) = (x - pi^n)A, free of rank one over O; the
        product-ring oracle: (a, b) * (0, b') = 0 forces b = 0."""
        for n in (1, 2, 3):
            A = make_An(5, n)
            M = FpModule.ring_module(A)
            tors = M.torsion_submodule([A.ring.parse("x")])
            assert tors.signature == ((), 1)
            oracle = ProductRing(5, n)
            killed = [u for u in oracle.elements_mod(3)
                      if oracle.mul(u, oracle.x) == (F(0), F(0))]
            assert all(u[1] == 0 for u in killed)

    def test_ideal_torsion_is_p(self):
        """M[I] for I = A[p] = (pi^n e): isomorphic to p, free rank one."""
        n = 2
        A = make_An(5, n)
        M = FpModule.ring_module(A)
        tors = M.torsion_submodule([A.ring.parse(f"x - pi^{n}")])
        assert tors.signature == ((), 1)

    def test_zero_ideal_gives_everything(self):
        A = make_An(5, 2)
        M = FpModule.ring_module(A)
        assert M.torsion_submodule([A.ring.zero]).signature == ((), 2)

    def test_presentation_invariance_of_length(self):
        """Adding a redundant relation leaves length M[p] unchanged."""
        A = make_ring_B(5)
        R = A.ring
        M1 = FpModule.ring_module(A)
        M2 = FpModule(A, 1, [(R.parse("x*(x - pi)"),)])  # redundant over A
        t1 = M1.torsion_submodule([R.parse("x"), R.parse("y")])
        t2 = M2.torsion_submodule([R.parse("x"), R.parse("y")])
        assert t1.signature == t2.signature

    def test_not_finite_over_base(self):
        H = make_hypersurface_2var(5, 2)
        M = FpModule.ring_module(H)
        with pytest.raises(NotFiniteOverBase):
            M.torsion_submodule([H.ring.parse("x")])

    def test_combined_ideal_box_for_single_generator(self):
        """A quotient of a non-finite algebra can still be finite."""
        H = make_hypersurface_2var(5, 2)
        M = FpModule(H, 1, [(H.ring.parse("y"),)])
        tors = M.torsion_submodule([H.ring.parse("x")])
        assert tors.signature == ((), 1)


def test_o_torsion_in_module():
    """pi-torsion shows up in the O-structure (depth-zero example)."""
    p = 5
    O = Dvr.p_adic(p)
    R = PolyRing(O, ("x",))
    A = build_algebra(R, [R.parse("x*(x - pi)"), R.parse("pi^2*x")],
                      [O.zero], 0, name="T")
    M = FpModule.ring_module(A)
    full = M.finite_module().as_module()
    assert full.signature == ((2,), 1)  # O (+) O/pi^2 . x


def _kernel_of_operators_rebuilding(fm, op_polys):
    """The reference: kernel_of_operators as it was before it grew one
    echelon, with a fresh elimination for every candidate generator."""
    from congrmod.omodule import _Echelon

    def o_kernel(dvr, ncols, columns):
        return _Echelon(dvr, [dvr.split(c) for c in columns]).kernel()

    def o_solve(dvr, ncols, columns, rhs):
        return _Echelon(dvr, [dvr.split(c) for c in columns]).solve(dvr.split(rhs))

    def _in_relation_span(v, extra):
        cols = []
        for w in fm.rel_cols + extra:
            cols.append({i: c for i, c in enumerate(w) if c})
        rhs = {i: c for i, c in enumerate(v) if c}
        return o_solve(fm.dvr, len(cols), cols, rhs) is not None

    fs = fm.fs
    nops = len(op_polys)
    mults = [fs.mult_matrix(q) for q in op_polys]
    nrel = len(fm.rel_cols)
    ncols = fm.dim + nops * nrel
    columns = []
    n = fs.rank
    for j in range(fm.dim):
        l, k = divmod(j, n)
        col = {}
        for t in range(nops):
            mcol = mults[t][k]
            for i, c in enumerate(mcol):
                if c:
                    col[t * fm.dim + l * n + i] = c
        columns.append(col)
    for t in range(nops):
        for r in fm.rel_cols:
            col = {}
            for i, c in enumerate(r):
                if c:
                    col[t * fm.dim + i] = -c
            columns.append(col)
    out = []
    for vec in o_kernel(fm.dvr, ncols, columns):
        v = [vec.get(j, fm.dvr.zero) for j in range(fm.dim)]
        if any(v):
            out.append(v)
    # drop generators that are zero in M
    kept = []
    for v in out:
        if _in_relation_span(v, kept):
            continue
        kept.append(v)
    return kept


def _torsion_inputs():
    """(module, operators) pairs: TestTorsionSubmodule's inputs, direct sums
    of them, and the depth-zero ring with O-torsion."""
    out = []
    for n in (1, 2, 3):
        A = make_An(5, n)
        M = FpModule.ring_module(A)
        out += [(M, [A.ring.parse("x")]), (M.direct_sum(M), [A.ring.parse("x")])]
    A = make_An(5, 2)
    M = FpModule.ring_module(A)
    out += [(M, [A.ring.parse("x - pi^2")]), (M, [A.ring.zero]),
            (M.direct_sum(FpModule.o_module(A)), [A.ring.parse("x")])]
    B = make_ring_B(5)
    R = B.ring
    for M in (FpModule.ring_module(B), FpModule(B, 1, [(R.parse("x*(x - pi)"),)])):
        out.append((M, [R.parse("x"), R.parse("y")]))
    H = make_hypersurface_2var(5, 2)
    out.append((FpModule(H, 1, [(H.ring.parse("y"),)]), [H.ring.parse("x")]))
    O = Dvr.p_adic(5)
    RT = PolyRing(O, ("x",))
    T = build_algebra(RT, [RT.parse("x*(x - pi)"), RT.parse("pi^2*x")],
                      [O.zero], 0, name="T")
    MT = FpModule.ring_module(T)
    out += [(MT, [RT.parse("x")]), (MT, [RT.parse("pi")]),
            (MT.direct_sum(MT), [RT.parse("x - pi")])]
    return out


def test_grown_span_keeps_the_rebuilt_generators():
    """kernel_of_operators grows one echelon with the generators it keeps;
    it keeps the same vectors as the loop that rebuilt the elimination for
    every candidate."""
    for M, ops in _torsion_inputs():
        fm = M.finite_module()
        assert fm.kernel_of_operators(ops) == _kernel_of_operators_rebuilding(fm, ops)
