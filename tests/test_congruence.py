import random
import sys
import threading
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congrmod import (Dvr, FpModule, Poly, PolyRing, build_algebra,
                      cotangent_invariants, ext_module, eta, eta_codim0_oracle,
                      eta_raw, invariance_check, kappa_defect,
                      numerical_criterion, psi, psi_direct_codim0, psi_raw,
                      regularity_at_lambda, resolve_O, serre_check,
                      symbolic_power_test, deformation_step, analyze)
from congrmod.cli import random_grammar_algebra
from congrmod.config import EngineConfig
from congrmod.congruence import RegularityWarning
from congrmod import congruence, omodule
from congrmod.dvr import INF, IdealO
from congrmod.errors import (DegreeBoundExceeded, EngineError, InconsistentCodim, InputError,
                             InSymbolicSquare, InternalInvariantViolation,
                             NotRegularAtAugmentation,
                             NotSameCodim, ZeroDivisorSuspected)
from congrmod.linsolve import SpanSolver
from congrmod.probfile import load_problem
from congrmod.resolution import FreeResolution
from conftest import (make_An, make_depth_zero_example, make_hypersurface_2var,
                      make_ring_B, make_ring_C)
from test_cli import A2_FILE
from test_fuzz_front_end import FULL_FILE
from test_linsolve import kernel_vectors


def periodic_complex_cohomology(p, n, degree):
    """Independent oracle for Ext over the congruence ring: the augmented
    2-periodic complex O -> O -> O -> ... with maps 0 and -pi^n
    alternating."""
    q = F(p) ** n
    maps = [F(0) if i % 2 == 0 else -q for i in range(degree + 1)]
    # cohomology at degree d: ker(maps[d]) / im(maps[d-1])
    out = maps[degree]
    inc = maps[degree - 1] if degree >= 1 else None
    if out != 0:
        return ((), 0) if True else None  # kernel of injective map is 0
    if inc is None or inc == 0:
        return ((), 1)  # O itself
    return ((n,), 0)  # O / pi^n


class TestExtModules:
    def test_regular_rank_one(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [], [O5.zero], 1, name="O[x]")
        res = resolve_O(A, length=3)
        sigs = [ext_module(A, FpModule.o_module(A), i, res).structure.signature
                for i in range(3)]
        assert sigs == [((), 1), ((), 1), ((), 0)]

    def test_periodic_values_match_oracle(self):
        for n in (1, 2):
            A = make_An(5, n)
            res = resolve_O(A, length=4)
            for i in range(4):
                got = ext_module(A, FpModule.o_module(A), i, res).structure
                assert got.signature == periodic_complex_cohomology(5, n, i)

    def test_ext0_of_ring_is_p_torsion(self):
        """Ext^0(O, A) = A[p], compared against the torsion-submodule path."""
        A = make_An(5, 2)
        res = resolve_O(A)
        ext = ext_module(A, FpModule.ring_module(A), 0, res)
        direct = FpModule.ring_module(A).torsion_submodule(A.p_gens())
        assert ext.structure.signature == direct.signature == ((), 1)

    def test_rank_matches_mu(self):
        A = make_An(5, 2)
        res = resolve_O(A)
        M = FpModule.ring_module(A).direct_sum(FpModule.ring_module(A))
        ext = ext_module(A, M, 0, res)
        assert ext.structure.free_rank == M.reduce_mod_p().free_rank == 2


class TestExtMemo:
    """ext_module computes each (resolution, degree, module presentation)
    once and hands every caller the same ExtModule."""

    def test_same_key_same_object(self):
        A = make_An(5, 2)
        res = resolve_O(A)
        ring = ext_module(A, FpModule.ring_module(A), 0, res)
        assert ext_module(A, FpModule.ring_module(A, name="other"), 0, res) is ring
        o = ext_module(A, None, 0, res)
        assert ext_module(A, FpModule.o_module(A), 0, res) is o
        assert o is not ring

    def test_distinct_keys_distinct_entries(self):
        A = make_An(5, 2)
        res = resolve_O(A, strategy="matrix_factorization")
        x = A.ring.var(0)
        ring = ext_module(A, FpModule.ring_module(A), 0, res)
        cut = ext_module(A, FpModule(A, 1, [(x,)]), 0, res)
        both = FpModule.ring_module(A).direct_sum(FpModule.ring_module(A))
        summed = ext_module(A, both, 0, res)
        assert cut is not ring and summed is not ring and summed is not cut
        assert ext_module(A, FpModule.ring_module(A), 1, res) is not ring
        res2 = resolve_O(A, strategy="syzygy")
        assert res2 is not res
        other = ext_module(A, FpModule.ring_module(A), 0, res2)
        assert other is not ring
        assert other.structure.signature == ring.structure.signature

    def test_a_resolution_of_another_algebra_is_refused(self):
        """The memo keys name a module's presentation but not its algebra,
        so a resolution of another algebra would hand back that algebra's
        Ext modules and congruence ideal, before its memo is filled and
        after."""
        A1, A3 = make_An(5, 1), make_An(5, 3)
        res = resolve_O(A3)
        reads = (lambda: ext_module(A1, None, 0, res),
                 lambda: eta_raw(A1, None, 0, res),
                 lambda: psi_raw(A1, None, 0, res))
        for read in reads:
            with pytest.raises(InputError):
                read()
        assert str(eta_raw(A3, None, 0, res)[0]) == "(pi^3)"
        for read in reads:
            with pytest.raises(InputError):
                read()

    @staticmethod
    def _summary(A, M, kappa_first):
        res = resolve_O(A)
        c = A.codim

        def pairing():
            eta_M, cert = eta_raw(A, M, c, res)
            psi_M, cert2, mu = psi_raw(A, M, c, res)
            return (eta_M, cert, psi_M.signature, cert2, mu)

        if kappa_first:
            kd = kappa_defect(A, M, res=res)
            vals = pairing()
        else:
            vals = pairing()
            kd = kappa_defect(A, M, res=res)
        return vals, kd

    def test_order_independence(self):
        for make in (lambda: make_An(5, 2),
                     lambda: make_hypersurface_2var(5, 1)):
            for with_sum in (False, True):
                A1, A2 = make(), make()
                M1 = M2 = None
                if with_sum:
                    M1, M2 = (FpModule.ring_module(B).direct_sum(
                        FpModule.ring_module(B)) for B in (A1, A2))
                assert (self._summary(A1, M1, kappa_first=True) ==
                        self._summary(A2, M2, kappa_first=False))

    def test_threads_share_one_entry(self):
        """Threads racing on a fresh key all get the entry stored first."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                self._race()
        finally:
            sys.setswitchinterval(old)

    @staticmethod
    def _race():
        A = make_An(5, 2)
        res = resolve_O(A)
        M = FpModule.ring_module(A).direct_sum(FpModule.ring_module(A))
        got, errors = [], []
        start = threading.Barrier(6)

        def work():
            try:
                start.wait(timeout=60)
                got.append((ext_module(A, M, 0, res),
                            kappa_defect(A, M, res=res)["kappa"]))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(got) == 6
        assert all(ext is got[0][0] and kappa == got[0][1] for ext, kappa in got)


def test_pairing_built_once(monkeypatch):
    """analyze reads every eta and psi of a module off one Ext pairing, so
    the functionals of each (module, degree) are built and pushed once, and
    no caller puts the same matrix through the Smith form twice: psi and
    M/pM are each eliminated once per module."""
    problem = load_problem(A2_FILE + """
[module.N]
presentation = O

[module.M2]
presentation = [[x, 0], [0, x - pi^2]]
""")
    passes = Counter()
    real = FpModule.hom_to_O_generators

    def counted(self):
        passes[(self.gens, tuple(self.columns))] += 1
        return real(self)

    eliminations = Counter()
    real_smith = omodule.smith_form

    def counted_smith(dvr, matrix, nrows):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == omodule.__file__:
            frame = frame.f_back
        key = tuple(tuple(str(x) for x in col) for col in matrix), nrows
        eliminations[frame.f_code.co_name, key] += 1
        return real_smith(dvr, matrix, nrows)

    monkeypatch.setattr(FpModule, "hom_to_O_generators", counted)
    monkeypatch.setattr(omodule, "smith_form", counted_smith)
    monkeypatch.setattr(congruence, "smith_form", counted_smith)
    analyze(problem.algebra, problem.modules)
    # the ring, N and M2 at the one degree c = 0
    assert len(passes) == 3
    assert set(passes.values()) == {1}
    assert set(eliminations.values()) == {1}
    callers = Counter(caller for caller, _ in eliminations)
    assert callers["_pairing"] == callers["reduce_mod_p"] == 3


def _reference_eta(A, M, c, res):
    """The congruence ideal by its definition: the least valuation of a
    pairing value, over every representative of Ext^c(O, M) pushed through
    every functional on tfree(M/pM)."""
    ext_OO = ext_module(A, None, c, res)
    ext_OM = ext_OO if M.is_O else ext_module(A, M, c, res)
    rows = M.hom_to_O_generators()
    values = [x for rep in ext_OM.reps for row in rows
              for x in congruence._push_values(A, ext_OO, res.rank(c), rep, row)]
    return IdealO(A.dvr, min((A.dvr.val(x) for x in values if x), default=INF))


def _congruence_ring(base, k, shape):
    """x*(x - pi^k) at codim 0; x0*(x0 - pi^k) in two variables at codim 1;
    or x*(x - pi^k), x*y at codim 1, the README's ring when k = 2."""
    O = Dvr.p_adic(base[1]) if base[0] == "p_adic" else Dvr.power_series(base[1])
    if shape == "x":
        R = PolyRing(O, ("x",))
        rels, codim = [f"x*(x - pi^{k})"], 0
    elif shape == "x0":
        R = PolyRing(O, ("x0", "x1"))
        rels, codim = [f"x0*(x0 - pi^{k})"], 1
    else:
        R = PolyRing(O, ("x", "y"))
        rels, codim = [f"x*(x - pi^{k})", "x*y"], 1
    return build_algebra(R, [R.parse(f) for f in rels], [O.zero] * R.nvars,
                         codim, name=f"{shape}({k})")


@settings(max_examples=30, deadline=None)
@given(base=st.sampled_from([("p_adic", 3), ("p_adic", 5)]),
       k=st.integers(1, 3),
       shape=st.sampled_from(["x", "x0", "readme"]),
       summands=st.lists(st.sampled_from("AO"), min_size=1, max_size=3))
@example(base=("power_series", 4), k=2, shape="x", summands=["A", "O", "A"])
@example(base=("p_adic", 5), k=2, shape="readme", summands=["A", "O"])
def test_eta_is_fitting_ideal_of_psi(base, k, shape, summands):
    """eta is the ideal of the pairing's values, i.e. Fitt_(mu-1) of its
    cokernel psi, for every mu and not only mu = 1."""
    A = _congruence_ring(base, k, shape)
    res = resolve_O(A)
    parts = [FpModule.ring_module(A) if s == "A" else FpModule.o_module(A)
             for s in summands]
    M = parts[0]
    for part in parts[1:]:
        M = M.direct_sum(part)
    reference = _reference_eta(A, M, A.codim, res)
    value, _ = eta_raw(A, M, A.codim, res)
    module, _, mu = psi_raw(A, M, A.codim, res)
    assert mu == len(summands)
    assert value == reference == module.fitting_ideal(mu - 1)


class TestEta:
    def test_paper_value_both_branches(self):
        for p in (3, 5):
            for n in (1, 2, 3):
                for branch in (0, 1):
                    A = make_An(p, n, branch=branch)
                    value, cert = eta_raw(A, None, 0, resolve_O(A))
                    assert value.exponent == n
                    assert cert.label() == "certified"

    def test_regular_ring_unit_ideal(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [], [O5.zero], 1, name="O[x]")
        value, _ = eta_raw(A, None, 1, resolve_O(A))
        assert value.is_unit
        assert regularity_at_lambda(A)["regular_global"]

    def test_nonregular_warns_and_vanishes(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [], [O5.zero], 0, name="O[x]c0")
        with pytest.warns(RegularityWarning):
            value = eta(A)
        assert value.is_zero

    def test_oracle_equivalence_codim0(self):
        for maker in (lambda: make_An(5, 2), lambda: make_ring_B(5)):
            A = maker()
            pipeline, _ = eta_raw(A, None, 0, resolve_O(A))
            assert pipeline.exponent == eta_codim0_oracle(A).exponent

    def test_additivity(self):
        A = make_An(5, 3)
        res = resolve_O(A)
        MA = FpModule.ring_module(A)
        MO = FpModule.o_module(A)
        for m1, m2 in [(MA, MA), (MA, MO), (MO, MO)]:
            s = m1.direct_sum(m2)
            e1, _ = eta_raw(A, m1, 0, res)
            e2, _ = eta_raw(A, m2, 0, res)
            es, _ = eta_raw(A, s, 0, res)
            assert es.exponent == min(e1.exponent, e2.exponent)


class TestPsi:
    def test_An_psi(self):
        for n in (1, 2, 3):
            A = make_An(5, n)
            out, _, mu = psi_raw(A, None, 0, resolve_O(A))
            assert mu == 1
            assert out.signature == ((n,), 0)
            assert psi_direct_codim0(A).signature == ((n,), 0)

    def test_regular_psi_zero(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [], [O5.zero], 1, name="O[x]")
        out, _, _ = psi_raw(A, None, 1, resolve_O(A))
        assert out.is_zero

    def test_ring_B_psi_with_product_oracle(self):
        """Pipeline, engine oracle, and a hand product-ring computation."""
        B = make_ring_B(5)
        out, _, mu = psi_raw(B, None, 0, resolve_O(B))
        assert mu == 1 and out.signature == ((1,), 0)
        assert psi_direct_codim0(B).signature == ((1,), 0)
        # in O x O x O: B[p] + B[I] = pi(O^3); B / pi O^3 is the diagonal
        # mod pi, i.e. O/pi
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form
        p = 5
        lattice_B = Matrix([[1, 0, 0], [1, p, 0], [1, 0, p]]).T
        sub = Matrix([[p, 0, 0], [0, p, 0], [0, 0, p]]).T
        coords = lattice_B.inv() * sub
        d = smith_normal_form(coords.applyfunc(lambda x: int(x)), domain=ZZ)
        exps = []
        for i in range(3):
            e, v = int(d[i, i]), 0
            while e % p == 0:
                e //= p
                v += 1
            if v:
                exps.append(v)
        assert tuple(sorted(exps)) == (1,)

    def test_mu_one_e1_identity(self):
        for n in (1, 2, 3):
            A = make_An(5, n)
            res = resolve_O(A)
            e, _ = eta_raw(A, None, 0, res)
            m, _, mu = psi_raw(A, None, 0, res)
            assert mu == 1
            exps = m.torsion_exponents
            e1 = exps[0] if len(exps) == mu else 0
            assert e.exponent == e1

    def test_public_psi_gate(self):
        A = make_An(5, 2)
        assert psi(A).signature == ((2,), 0)


class TestKappa:
    def test_identity_for_ring(self):
        A = make_An(5, 2)
        out = kappa_defect(A, None)
        assert out["coker_ann"].is_unit
        assert out["diff_identity"] and out["sequence_identity"]

    def test_direct_sum_mu_two(self):
        A = make_An(5, 2)
        M = FpModule.ring_module(A).direct_sum(FpModule.ring_module(A))
        out = kappa_defect(A, M)
        assert out["mu"] == 2
        assert out["coker_ann"].is_unit
        assert out["diff_identity"] and out["sequence_identity"]

    def test_O_coefficients(self):
        for n in (1, 2):
            A = make_An(5, n)
            out = kappa_defect(A, FpModule.o_module(A))
            assert out["coker_ann"].exponent == n
            assert out["diff_identity"] and out["sequence_identity"]

    def test_node_is_not_regular(self, O5):
        """On the node O[x, y]/(x*y) in codimension 1, Ext^c(O,O) has rank
        two: kappa_defect says the algebra is not regular, as eta and psi
        do, for the ring and for O."""
        R = PolyRing(O5, ("x", "y"))
        node = build_algebra(R, [R.parse("x*y")], [O5.zero, O5.zero], 1,
                             name="node")
        for M in (None, FpModule.o_module(node)):
            with pytest.raises(NotRegularAtAugmentation):
                kappa_defect(node, M)


class TestRegularity:
    def test_An_regular_at_p_not_global(self):
        A = make_An(5, 2)
        out = regularity_at_lambda(A)
        assert out["regular_at_p"] and not out["regular_global"]

    def test_rank_below_codim_raises(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [R.parse("x*(x - pi^2)")], [O5.zero], 1, name="bad")
        with pytest.raises(InconsistentCodim):
            regularity_at_lambda(A)

    def test_embdim_matches_but_not_regular_raises(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [R.parse("x^2")], [O5.zero], 1, name="dual")
        with pytest.raises(InconsistentCodim):
            regularity_at_lambda(A)

    def test_zero_eta_of_a_bounded_search_is_a_shortfall(self):
        """Where the rank test passes, a bounded search that finds eta = 0
        has hit its degree bound, and says so: of 100 grammar rings per base
        Z_(2), Z_(3), Z_(5) at search degree 1, 29 end so, naming the
        degree, and none raises InconsistentCodim."""
        errors = []
        for p in (2, 3, 5):
            rng = random.Random(11 * p)
            for _ in range(100):
                A = random_grammar_algebra(Dvr.p_adic(p), rng,
                                           config=EngineConfig(search_degree=1))
                try:
                    regularity_at_lambda(A)
                except EngineError as exc:
                    errors.append(exc)
        assert len(errors) == 29
        for exc in errors:
            assert isinstance(exc, DegreeBoundExceeded)
            assert "search at degree 1 found eta = 0" in str(exc)
            assert "larger --degree-bound" in str(exc)

    def test_equivalence_on_random_family(self, rng):
        """th:regular-eta: eta(A) != 0 iff the cotangent rank matches the
        declared codimension, over the module-finite grammar, including
        deliberately misdeclared codimensions."""
        from congrmod.cli import random_grammar_algebra
        O = Dvr.p_adic(3)
        for _ in range(25):
            A = random_grammar_algebra(O, rng, finite_only=True)
            if rng.random() < 0.3:
                A = build_algebra(A.ring, A.relations, A.augmentation,
                                  A.codim + 1, name="misdeclared")
            rank = cotangent_invariants(A).cotangent.free_rank
            value, _ = eta_raw(A, None, A.codim, resolve_O(A))
            assert (rank == A.codim) == (not value.is_zero)


class TestSymbolicPower:
    def test_examples(self):
        H = make_hypersurface_2var(5, 2)
        R = H.ring
        out = symbolic_power_test(H, R.parse("y"))
        assert out["in_p"] and not out["in_p2_symbolic"]
        assert out["ord_class"].is_unit
        out2 = symbolic_power_test(H, R.parse("x^2"))
        assert out2["in_p"] and out2["in_p2_symbolic"]
        assert not symbolic_power_test(H, R.one)["in_p"]


class TestCriterion:
    def test_An_holds(self):
        A = make_An(5, 2)
        out = numerical_criterion(A, None, mode="wld")
        assert out["verdict"] == "holds"
        assert out["condition_2"] and out["condition_3"]
        assert out["status"] == "certified"

    def test_B_fails(self):
        B = make_ring_B(5)
        out = numerical_criterion(B, None, mode="wld")
        assert out["verdict"] == "fails"
        assert out["data"]["phi_length"] == 2
        assert out["data"]["psi"].torsion_length == 1
        # (2) and (3) agree even in failure
        assert out["condition_2"] == out["condition_3"] == False

    def test_depth_zero_hypothesis_unverified(self):
        D = make_depth_zero_example(5)
        out = numerical_criterion(D, None, mode="defect0")
        assert out["condition_2"]
        assert out["status"] == "hypothesis_unverified"
        assert not out["ext_torsion_free"]

    def test_ext_torsion_free_is_computed_for_O(self, O5):
        """For M = O the flag is read off Ext^c(O, O), not assumed: on
        O[x, y, z]/(x*y - pi^2*z) at codim 2, Ext^2(O, O) = O/pi^2 (+) O.
        The status stays as it was, since O carries no depth assertion."""
        R = PolyRing(O5, ("x", "y", "z"))
        A = build_algebra(R, [R.parse("x*y - pi^2*z")], [O5.zero] * 3, 2,
                          name="xy - pi^2 z")
        assert str(ext_module(A, None, 2, resolve_O(A)).structure) == "O/pi^2 (+) O"
        out = numerical_criterion(A, FpModule.o_module(A), mode="defect0")
        assert out["ext_torsion_free"] is False
        assert out["status"] == "hypothesis_unverified"

    def test_iso_mode(self):
        A = make_An(5, 2)
        out = numerical_criterion(A, None, mode="iso",
                                  surjection=(A, [A.ring.parse("x")]))
        assert out["verdict"] == "holds"
        assert out["status"] == "certified"  # gorenstein + mcm asserted
        O = A.dvr
        R = A.ring
        Bsmall = build_algebra(R, [R.parse("x")], [O.zero], 0,
                               claimed_mcm=True, name="O")
        out2 = numerical_criterion(A, None, mode="iso",
                                   surjection=(Bsmall, [R.parse("x")]))
        assert out2["verdict"] == "fails"

    def test_cotangent_iso_mode(self):
        A = make_An(5, 2)
        out = numerical_criterion(A, None, mode="cotangent_iso",
                                  surjection=(A, [A.ring.parse("x")]))
        assert out["verdict"] == "holds"
        O = A.dvr
        R = A.ring
        Bsmall = build_algebra(R, [R.parse("x")], [O.zero], 0,
                               claimed_ci=True, name="O")
        out2 = numerical_criterion(A, None, mode="cotangent_iso",
                                   surjection=(Bsmall, [R.parse("x")]))
        assert out2["verdict"] == "fails"


class TestDeformation:
    def test_cut_y(self):
        for n in (1, 2, 3):
            H = make_hypersurface_2var(5, n)
            out = deformation_step(H, None, H.ring.parse("y"))
            assert out["ord_f"].is_unit
            assert out["lhs"] == out["rhs"] == n
            assert out["exact_sequence_holds"]
            assert out["eta_A"].exponent == n  # codim-1 value
            assert out["eta_B"].exponent == n  # codim-0 value after cutting

    def test_regular_chain(self, O5):
        R = PolyRing(O5, ("y",))
        A = build_algebra(R, [], [O5.zero], 1, name="O[y]")
        out = deformation_step(A, None, R.parse("y"))
        assert out["lhs"] == out["rhs"] == 0

    def test_shifted_coordinates(self, O5):
        R = PolyRing(O5, ("x", "y"))
        A = build_algebra(R, [R.parse("x*(x - pi^2)")], [O5.zero, O5.pi], 1,
                          name="Hshift")
        out = deformation_step(A, None, R.parse("y - pi"))
        assert out["ord_f"].is_unit
        assert out["lhs"] == out["rhs"] == 2

    def test_symbolic_square_rejected(self):
        H = make_hypersurface_2var(5, 2)
        with pytest.raises(InSymbolicSquare):
            deformation_step(H, None, H.ring.parse("x^2"))

    def test_zero_divisor_on_the_ring(self, O5):
        """On the node O[x, y]/(x*y), y kills x."""
        R = PolyRing(O5, ("x", "y"))
        node = build_algebra(R, [R.parse("x*y")], [O5.zero, O5.zero], 1,
                             name="node")
        with pytest.raises(ZeroDivisorSuspected):
            deformation_step(node, None, R.parse("x"))

    def test_zero_divisor_on_a_module(self):
        """y kills the class of y in A/(y^2), though not in A."""
        H = make_hypersurface_2var(5, 2)
        M = FpModule(H, 1, [(H.ring.parse("y^2"),)])
        with pytest.raises(ZeroDivisorSuspected):
            deformation_step(H, M, H.ring.parse("y"))

    def test_regular_element_on_a_module(self):
        """y stays regular on A^2/((pi*x, 0)): the relation involves no y."""
        H = make_hypersurface_2var(5, 2)
        M = FpModule(H, 2, [(H.ring.parse("pi*x"), H.ring.zero)])
        out = deformation_step(H, M, H.ring.parse("y"))
        assert out["lhs"] == out["rhs"] == 1


def _readme(strategy):
    """The README example's algebra, strategy and [resolution] matrices."""
    problem = load_problem(FULL_FILE)
    return problem.algebra, strategy, problem.resolution_matrices


SERRE_CASES = {"A(1)": lambda: make_An(5, 1), "A(2)'": lambda: make_An(3, 2, branch=1),
               "B": lambda: make_ring_B(5), "D": lambda: make_depth_zero_example(5),
               "H(2)": lambda: make_hypersurface_2var(5, 2),
               "C(1,1,1)": lambda: make_ring_C(5, 1, 1, 1),
               "README": lambda: _readme("auto"), "README file": lambda: _readme("file")}


class TestSerre:
    def test_regular_exterior_algebra(self, O5):
        R = PolyRing(O5, ("x", "y", "z"))
        A = build_algebra(R, [], [O5.zero] * 3, 3, name="reg3")
        out = serre_check(A, with_products=True)
        assert out["verdict"] == "holds"
        assert out["ranks"] == [1, 3, 3, 1, 0]
        assert out["product_generates"]

    def test_hypersurface(self):
        H = make_hypersurface_2var(5, 2)
        out = serre_check(H, with_products=True)
        assert out["verdict"] == "holds"
        assert out["ranks"][:2] == [1, 1]
        assert out["product_generates"]

    def test_depth_zero_example(self):
        D = make_depth_zero_example(5)
        out = serre_check(D)
        assert out["ranks"][:2] == [1, 1]
        assert out["verdict"] == "holds"

    @pytest.mark.parametrize("name", list(SERRE_CASES))
    def test_ranks_are_the_free_ranks_of_ext(self, name, monkeypatch):
        """serre_check reads its ranks off the lambda-ranks of the
        differentials and builds no Ext module; they are the free ranks of
        the Ext^i(O, O) that ext_module builds, for every i <= c + 1."""
        case = SERRE_CASES[name]()
        A, strategy, matrices = case if isinstance(case, tuple) else (case, "auto", None)
        res = resolve_O(A, strategy=strategy, user_matrices=matrices)
        real_ext_module = congruence.ext_module

        def no_ext(*args):
            raise AssertionError("serre_check built an Ext module")

        monkeypatch.setattr(congruence, "ext_module", no_ext)
        ranks = serre_check(A, res=res)["ranks"]
        assert len(ranks) == A.codim + 2
        assert ranks == [real_ext_module(A, None, i, res).structure.free_rank
                         for i in range(len(ranks))]


def _top_rho_twice(A):
    """rho_(c+2) = rk_K lambda(d_(c+2)) of A's syzygy resolution twice:
    from res.lam_rank while d_(c+2) is not built, which reads the unpruned
    kernel heads of d_(c+1), and once res.differential(c + 2) has built
    the pruned step; with serre_check's output before and after the build."""
    res = resolve_O(A, strategy="syzygy")
    top = A.codim + 1
    before = serre_check(A, res=res)
    from_heads = res.lam_rank(top + 1)
    assert len(res._diffs) == top  # d_(c+2) is not built
    res.differential(top + 1)
    return from_heads, res.lam_rank(top + 1), before, serre_check(A, res=res)


@pytest.mark.parametrize("name", [n for n in SERRE_CASES if n != "README file"])
def test_top_rho_from_the_heads_is_that_of_the_pruned_step(name):
    """d_(c+2) is the pruned subset of the kernel heads of d_(c+1), so
    lambda gives both one K-rank, and serre_check, which reads the heads
    until d_(c+2) is built, reports the same before and after."""
    case = SERRE_CASES[name]()
    A = case[0] if isinstance(case, tuple) else case
    from_heads, from_step, before, after = _top_rho_twice(A)
    assert from_heads == from_step
    assert before == after


def test_serre_check_reads_each_kernel_once(monkeypatch):
    """serre_check reads r_0..r_(c+1) before any rho, so on C(1, 1, 1) at
    D = 2 it reads four kernels, those that build d_2, d_3 and d_4 and the
    heads of d_5, and builds four steps."""
    reads = []
    real = SpanSolver.kernel_forms
    monkeypatch.setattr(SpanSolver, "kernel_forms",
                        lambda self, cols: reads.append(cols) or real(self, cols))
    A = make_ring_C(5, 1, 1, 1)
    res = resolve_O(A, strategy="syzygy")
    assert serre_check(A, res=res)["verdict"] == "holds"
    assert len(reads) == 4 and len(res._diffs) == 4


def test_analyze_builds_lambda_of_each_differential_once(monkeypatch):
    """The resolution keeps lambda(d_i) and one echelon of it
    (FreeResolution.lam, lam_echelon), so serre_check's rho_i and
    Ext^i(O, O) share them: one analyze of the README example builds
    lam_rows(i) at most once for each i."""
    reads = Counter()
    real = FreeResolution.lam_rows

    def lam_rows(self, i):
        reads[i] += 1
        return real(self, i)

    monkeypatch.setattr(FreeResolution, "lam_rows", lam_rows)
    problem = load_problem(FULL_FILE)
    analyze(problem.algebra, problem.modules)
    assert reads and set(reads.values()) == {1}


_HEAD_BASES = [Dvr.p_adic(2), Dvr.p_adic(3), Dvr.p_adic(5), Dvr.power_series(4)]


@pytest.mark.parametrize("base", _HEAD_BASES, ids=repr)
def test_top_rho_from_the_heads_on_random_rings(base):
    """The same on eight random grammar algebras per base at search degree
    2, module-finite or not, codimension 0 to 2; the seeds of different
    bases differ, since the draws do not depend on the Dvr."""
    start = 8 * _HEAD_BASES.index(base)
    for seed in range(start, start + 8):
        A = random_grammar_algebra(base, random.Random(seed),
                                   config=EngineConfig(search_degree=2))
        from_heads, from_step, before, after = _top_rho_twice(A)
        assert from_heads == from_step, seed
        assert before == after, seed


@pytest.mark.parametrize("base", [Dvr.p_adic(5), Dvr.power_series(4)], ids=repr)
def test_lam_int_is_lambda_exactly(base):
    """Dvr.join of each row of A.lam_int on the integer forms of some
    columns is that row of lambda, as A.lam gives it entry by entry, on
    augmentation values with denominators."""
    O = base
    R = PolyRing(O, ("x", "y"))
    unit = O.one + O.pi
    aug = [O.pi / unit, O.pi_pow(2) / (unit * unit + O.pi)]
    A = build_algebra(R, [], aug, 2, name="free")
    rng = random.Random(3)
    for _ in range(40):
        cols = [tuple(Poly(R, {(rng.randint(0, 3), rng.randint(0, 2)):
                               O.pi_pow(rng.randint(0, 2)) / unit ** rng.randint(0, 2)
                               for _ in range(rng.randint(0, 3))})
                      for _ in range(3))
                for _ in range(rng.randint(0, 3))]
        rows = A.lam_int([A.gb_global.int_form(col) for col in cols], 3)
        want = [{k: A.lam(col[i]) for k, col in enumerate(cols) if A.lam(col[i])}
                for i in range(3)]
        assert [O.join(num, den) for num, den in rows] == want


@pytest.mark.parametrize("name", list(SERRE_CASES))
def test_lam_rows_are_lambda_of_the_differentials(name):
    """res.lam_rows(i), joined into K, is lambda(d_i) as A.lam gives it
    entry by entry, for every differential through c + 2 (through the
    last matrix of a file resolution)."""
    case = SERRE_CASES[name]()
    A, strategy, matrices = case if isinstance(case, tuple) else (case, "auto", None)
    res = resolve_O(A, strategy=strategy, user_matrices=matrices)
    for i in range(1, res.length + 1):
        cols = res.differential(i)
        want = [{k: A.lam(col[r]) for k, col in enumerate(cols) if A.lam(col[r])}
                for r in range(res.rank(i - 1))]
        assert [A.dvr.join(num, den) for num, den in res.lam_rows(i)] == want, i


def _common_form_case(name):
    """A SERRE_CASES algebra, its resolution and a presented module over
    it: the README's module M on the README example, A^2/((pi*x, 0)) on a
    fixture."""
    if name.startswith("README"):
        problem = load_problem(FULL_FILE)
        A = problem.algebra
        res = resolve_O(A, strategy="file" if name.endswith("file") else "auto",
                        user_matrices=problem.resolution_matrices)
        return A, res, problem.modules["M"]
    A = SERRE_CASES[name]()
    return A, resolve_O(A), FpModule(A, 2, [(A.ring.parse("pi*x"), A.ring.zero)])


@pytest.mark.parametrize("name", [n for n in SERRE_CASES if n != "C(1,1,1)"])
def test_every_ext_module_has_one_cocycle_form(name):
    """For M = O, the ring and a presented module, every Ext^i(O, M) with
    i <= c + 1 hands out its reps as cocycles over A, tuples of Poly, and
    takes such cocycles back: the class of its k-th free cocycle has the
    k-th unit vector as its free values."""
    A, res, presented = _common_form_case(name)
    modules = [FpModule.o_module(A), FpModule.ring_module(A), presented]
    for M in modules:
        for i in range(A.codim + 2):
            ext = ext_module(A, M, i, res)
            assert all(isinstance(rep, tuple) and all(isinstance(p, Poly) for p in rep)
                       for rep in ext.reps), (M.name, i)
            if not ext.structure.gens:
                continue
            rank = ext.structure.free_rank
            for k, w in enumerate(ext.free_cocycles()):
                assert len(w) == M.gens * res.rank(i)
                assert ext.class_free_values(w) == [int(t == k) for t in range(rank)]


class TestInvariance:
    def test_kill_variable(self, O5):
        R2 = PolyRing(O5, ("x", "y"))
        R1 = PolyRing(O5, ("x",))
        A = build_algebra(R2, [R2.parse("x*(x - pi^2)")], [O5.zero] * 2, 0,
                          name="big")
        B = make_An(5, 2)
        out = invariance_check(A, B, [R1.parse("x"), R1.parse("0")])
        assert out["verdict"] == "holds"
        assert out["eta_source"].exponent == out["eta_target"].exponent == 2

    def test_identity(self):
        A = make_An(5, 2)
        out = invariance_check(A, A, [A.ring.parse("x")])
        assert out["verdict"] == "holds"

    def test_mismatched_codim(self, O5):
        R1 = PolyRing(O5, ("x",))
        Ox = build_algebra(R1, [], [O5.zero], 1, name="O[x]")
        with pytest.raises(NotSameCodim):
            invariance_check(Ox, make_An(5, 2), [R1.parse("x")])

    def test_codim_one_surjection(self, O5):
        R2 = PolyRing(O5, ("x", "y"))
        A = build_algebra(R2, [R2.parse("x*(x - pi^2)")], [O5.zero] * 2, 1,
                          name="H")
        B = build_algebra(R2, [R2.parse("x*(x - pi^2)"), R2.parse("pi^3*x")],
                          [O5.zero] * 2, 1, name="Hq")
        out = invariance_check(A, B, [R2.parse("x"), R2.parse("y")])
        assert out["verdict"] == "holds"


class TestAnalyze:
    def test_report_consistency(self):
        A = make_An(5, 2)
        report = analyze(A)
        d = report.to_dict()
        ring = d["modules"]["ring"]
        assert ring["eta"] == "(pi^2)"
        assert ring["psi"] == "O/pi^2"
        assert ring["criterion"]["verdict"] == "holds"
        assert ring["splitting_verdict"] == "holds"
        assert d["regularity"]["regular_at_p"] is True
        assert d["serre"]["verdict"] == "holds"

    def test_fitting_annihilation_inequality(self, rng):
        """Fitt_c(p/p^2) kills the congruence module: its exponent bounds
        every invariant factor of psi."""
        from congrmod.cli import random_grammar_algebra
        O = Dvr.p_adic(3)
        count = 0
        while count < 20:
            A = random_grammar_algebra(O, rng, finite_only=True)
            if cotangent_invariants(A).cotangent.free_rank != A.codim:
                continue
            count += 1
            res = resolve_O(A)
            fitt = cotangent_invariants(A).fitt_c
            m, _, _ = psi_raw(A, None, A.codim, res)
            if m.torsion_exponents:
                assert fitt.exponent >= m.torsion_exponents[-1]
        # a codimension-one instance for coverage beyond the finite grammar
        H = make_hypersurface_2var(3, 2)
        fitt = cotangent_invariants(H).fitt_c
        m, _, _ = psi_raw(H, None, 1, resolve_O(H))
        if m.torsion_exponents:
            assert fitt.exponent >= m.torsion_exponents[-1]


def _codim0_power_series_shapes(O):
    """A(k) on both branches, B, and x1*(x1 - t^k), x2*(x2 - t^j), x1*x2."""
    R1 = PolyRing(O, ("x",))
    for k in (1, 2, 3):
        f = R1.parse(f"x*(x - pi^{k})")
        yield build_algebra(R1, [f], [O.zero], 0, name=f"A({k})")
        yield build_algebra(R1, [f], [O.pi_pow(k)], 0, name=f"A({k})'")
    R2 = PolyRing(O, ("x1", "x2"))
    for k, j in ((1, 1), (1, 2), (2, 1), (2, 3)):
        rels = [R2.parse(f"x1*(x1 - pi^{k})"), R2.parse(f"x2*(x2 - pi^{j})"),
                R2.parse("x1*x2")]
        yield build_algebra(R2, rels, [O.zero, O.zero], 0, name=f"B({k},{j})")


@pytest.mark.parametrize("q", [2, 4, 9])
def test_codim0_oracles_power_series(q):
    """Over F_q[[t]] the pipeline's eta and psi equal the codim-0 oracles,
    through the generic RF arithmetic of the Smith form and the echelon."""
    O = Dvr.power_series(q)
    for A in _codim0_power_series_shapes(O):
        res = resolve_O(A)
        eta_value, _ = eta_raw(A, None, 0, res)
        psi_value, _, _ = psi_raw(A, None, 0, res)
        assert eta_value.exponent == eta_codim0_oracle(A).exponent, A.name
        assert psi_value.signature == psi_direct_codim0(A).signature, A.name


@pytest.mark.parametrize("q", [2, 4, 9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_strategy_independence_power_series(q, n):
    """Over F_q[[t]], x0*(x0 - t^k) in n variables resolved by matrix
    factorization and by syzygies gives the same eta, psi and mu, for
    k = 1, 2, 3: the syzygy side runs the pruning echelon through the
    generic RF arithmetic."""
    O = Dvr.power_series(q)
    R = PolyRing(O, tuple(f"x{j}" for j in range(n)))
    for k in (1, 2, 3):
        f = R.var(0) * (R.var(0) - R.const(O.pi_pow(k)))
        A = build_algebra(R, [f], [O.zero] * n, n - 1, name=f"hyp({k})")
        values = []
        for strategy in ("matrix_factorization", "syzygy"):
            res = resolve_O(A, strategy=strategy)
            eta_value, _ = eta_raw(A, None, A.codim, res)
            m, _, mu = psi_raw(A, None, A.codim, res)
            values.append((eta_value.exponent, m.signature, mu))
        assert values[0] == values[1], (q, n, k)


_AGREEMENT_BASES = {"Z_(2)": lambda: Dvr.p_adic(2), "Z_(5)": lambda: Dvr.p_adic(5),
                    "F_4[[t]]": lambda: Dvr.power_series(4)}


def _agreement_seeds(base):
    """Twenty seeds of random_grammar_algebra for one base, disjoint from
    those of the other bases: its draws do not depend on the Dvr, so shared
    seeds would give each base the same ring shapes."""
    start = 20 * sorted(_AGREEMENT_BASES).index(base)
    return range(start, start + 20)


def _eta_psi(dvr, seed, degree):
    """(eta, psi) of the ring over itself, for the random grammar algebra
    of seed at search degree degree, or None when a cap or a refusal ends
    the run; and whether the algebra is module-finite."""
    config = EngineConfig(search_degree=degree)
    A = random_grammar_algebra(dvr, random.Random(seed), config=config)
    try:
        res = resolve_O(A)
        eta_value, _ = eta_raw(A, None, A.codim, res)
        psi_value, _, _ = psi_raw(A, None, A.codim, res)
    except EngineError:
        return None, A.is_module_finite
    return (eta_value.exponent, psi_value.signature), A.is_module_finite


@pytest.mark.parametrize("base", sorted(_AGREEMENT_BASES))
def test_eta_psi_agree_across_search_degrees(base):
    """The bounded regime has an oracle too: random grammar algebras drawn
    without finite_only give the same eta and psi at search degree 2 and 3
    wherever both complete, among them algebras that are not
    module-finite, whose searches are bounded_search."""
    dvr = _AGREEMENT_BASES[base]()
    compared = bounded = 0
    for seed in _agreement_seeds(base):
        (low, finite), (high, _) = (_eta_psi(dvr, seed, d) for d in (2, 3))
        if low is None or high is None:
            continue
        assert low == high, seed
        compared += 1
        bounded += not finite
    assert compared and bounded


def _every_head_ext(A, M, i, res):
    """Reference Ext^i(O, M): every distinct nonzero head of the bounded
    cocycle kernel (every unit vector when r_(i+1) = 0), neither pruned nor
    reduced, is a representative, entered with multiplier bound 0 next to
    the coboundary and relation columns; the presentation is read from the
    kernel's polynomials."""
    zero, g = A.ring.zero, M.gens
    n, r_n = g * res.rank(i), res.rank(i + 1)
    if r_n:
        solver = A.span_solver(
            congruence._hom_block(zero, g, res.differential(i + 1), res.rank(i))
            + congruence._relation_block(zero, M, r_n))
        reps = []
        for v in kernel_vectors(solver):
            head = tuple(v[:n])
            if any(not p.is_zero for p in head) and head not in reps:
                reps.append(head)
    else:
        reps = [tuple(A.ring.one if t == s else zero for t in range(n))
                for s in range(n)]
    cob = []
    if i > 0 and res.rank(i - 1):
        cob = congruence._hom_block(zero, g, res.differential(i), res.rank(i - 1))
    solver = A.span_solver(cob + congruence._relation_block(zero, M, res.rank(i)))
    base = solver.ncols
    for rep in reps:
        solver.extend(A.gb_global.int_form(rep), 0)
    coeffs = ([A.lam(x) for x in v[base:]] for v in kernel_vectors(solver))
    structure = omodule.FinOModule.from_presentation(
        A.dvr, [c for c in coeffs if any(c)], len(reps))

    def coords(w):
        sol = solver.solve(w)
        return None if sol is None else [A.lam(x) for x in sol[base:]]

    return congruence.ExtModule(i, structure, reps, res.cert.merge(A.cert), coords)


def _reference_grid():
    for p in (3, 5):
        for n in (1, 2, 3):
            yield lambda p=p, n=n: make_hypersurface_2var(p, n), ("AO", "A2")
    O = Dvr.power_series(4)
    R = PolyRing(O, ("x", "y"))
    yield (lambda: build_algebra(R, [R.parse("x*(x - pi^2)")], [O.zero, O.zero],
                                 1, name="H(2) over F_4[[t]]"), ("AO",))


def _grid_module(A, kind):
    ring = FpModule.ring_module(A)
    if kind == "A":
        return ring
    if kind == "AO":
        return ring.direct_sum(FpModule.o_module(A))
    return FpModule(A, 2, [(A.ring.parse("pi*x"), A.ring.zero)])


def _value_or_refusal(read, A, M, res):
    """The value that eta_raw or psi_raw reads, as a string, or the name
    of the refusal when the algebra is not regular at the augmentation."""
    try:
        return str(read(A, M, A.codim, res)[0])
    except NotRegularAtAugmentation as err:
        return type(err).__name__


def _ext_eta_psi(make, kind):
    """Ext^c(O, M), eta and psi of M, as strings, for a fresh algebra, and
    the number of representatives."""
    A = make()
    M = _grid_module(A, kind)
    res = resolve_O(A)
    ext = ext_module(A, M, A.codim, res)
    return (str(ext.structure), _value_or_refusal(eta_raw, A, M, res),
            _value_or_refusal(psi_raw, A, M, res)), len(ext.reps)


def test_pruned_cocycles_match_the_unpruned_search(monkeypatch):
    """Ext, eta and psi from the cocycles pruned over O modulo the
    coboundaries equal those from every head of the bounded kernel, with
    no more representatives, and fewer somewhere."""
    smaller = 0
    for make, kinds in _reference_grid():
        for kind in kinds:
            with monkeypatch.context() as patch:
                pruned, n_pruned = _ext_eta_psi(make, kind)
                patch.setattr(congruence, "_ext_general", _every_head_ext)
                reference, n_reference = _ext_eta_psi(make, kind)
            assert pruned == reference, (make().name, kind)
            assert n_pruned <= n_reference
            smaller += n_pruned < n_reference
    assert smaller


@pytest.mark.parametrize("base", sorted(_AGREEMENT_BASES))
def test_pruned_cocycles_match_the_reference_in_the_bounded_regime(base, monkeypatch):
    """The same oracle on random grammar algebras drawn without
    finite_only, among them algebras that are not module-finite, whose
    searches are bounded_search: with M = A and M = A (+) O, Ext^c(O, M),
    eta and psi (or the refusal of a ring that is not regular at the
    augmentation) equal those from every head of the bounded kernel,
    wherever no cap ends the run."""
    dvr = _AGREEMENT_BASES[base]()
    config = EngineConfig(search_degree=2)
    compared = bounded = 0
    for seed in _agreement_seeds(base):
        def make():
            return random_grammar_algebra(dvr, random.Random(seed), config=config)
        for kind in ("A", "AO"):
            try:
                with monkeypatch.context() as patch:
                    pruned, _ = _ext_eta_psi(make, kind)
                    patch.setattr(congruence, "_ext_general", _every_head_ext)
                    reference, _ = _ext_eta_psi(make, kind)
            except InternalInvariantViolation:
                raise
            except EngineError:  # a cap ends the run
                continue
            assert pruned == reference, (seed, kind, str(make()))
            compared += 1
            bounded += not make().is_module_finite
    assert compared and bounded
