import threading

import pytest

from congrmod import (Dvr, PolyRing, analyze, build_algebra,
                      cotangent_invariants, regularity_at_lambda, resolve_O,
                      symbolic_power_test)
from congrmod.congruence import eta_raw
from congrmod.errors import (AugmentationNotWellDefined, NonIntegralEntry,
                             NonLocalAugmentation)
from conftest import (make_An, make_depth_zero_example, make_hypersurface_2var,
                      make_ring_B)


class TestBuildAlgebra:
    def test_valid(self):
        A = make_An(5, 2)
        assert A.codim == 0
        assert A.is_module_finite

    def test_unit_augmentation_rejected(self, O5):
        R = PolyRing(O5, ("x",))
        with pytest.raises(NonLocalAugmentation):
            build_algebra(R, [R.parse("x*(x - pi^2)")], [O5.one], 0)

    def test_augmentation_must_kill_relations(self, O5):
        R = PolyRing(O5, ("x",))
        with pytest.raises(AugmentationNotWellDefined):
            build_algebra(R, [R.parse("x*(x - pi^2)")], [O5.pi], 0)

    def test_non_integral_relation(self, O5):
        R = PolyRing(O5, ("x",))
        from fractions import Fraction
        bad = R.parse("x").scale(Fraction(1, 5))
        with pytest.raises(NonIntegralEntry):
            build_algebra(R, [bad], [O5.zero], 0)


class TestCotangent:
    def test_An(self):
        for n in (1, 2, 3):
            cot = cotangent_invariants(make_An(5, n))
            assert cot.cotangent.signature == ((n,), 0)
            assert cot.phi.torsion_length == n
            assert cot.fitt_c.exponent == n

    def test_ring_B(self):
        cot = cotangent_invariants(make_ring_B(5))
        assert cot.cotangent.signature == ((1, 1), 0)
        assert cot.fitt_c.exponent == 2

    def test_depth_zero_example(self):
        cot = cotangent_invariants(make_depth_zero_example(5))
        assert cot.cotangent.signature == ((1,), 1)
        assert cot.fitt_c.exponent == 1  # Fitt_1 = (pi)

    def test_redundant_relation_invariance(self, O5):
        """An A-combination of existing relations changes nothing."""
        R = PolyRing(O5, ("x",))
        f = R.parse("x*(x - pi^2)")
        A1 = build_algebra(R, [f], [O5.zero], 0, name="A")
        A2 = build_algebra(R, [f, R.parse("x + pi") * f], [O5.zero], 0, name="A+")
        c1, c2 = cotangent_invariants(A1), cotangent_invariants(A2)
        assert c1.cotangent.signature == c2.cotangent.signature
        assert c1.fitt_c.exponent == c2.fitt_c.exponent
        r1, r2 = regularity_at_lambda(A1), regularity_at_lambda(A2)
        assert r1["regular_at_p"] == r2["regular_at_p"]
        e1, _ = eta_raw(A1, None, 0, resolve_O(A1))
        e2, _ = eta_raw(A2, None, 0, resolve_O(A2))
        assert e1.exponent == e2.exponent

    def test_rank_at_least_codim_when_accepted(self):
        for maker in (lambda: make_An(3, 1), lambda: make_ring_B(3),
                      lambda: make_depth_zero_example(3)):
            A = maker()
            out = regularity_at_lambda(A)
            assert out["evidence"]["cotangent_rank"] >= A.codim

    def test_regular_global_implies_trivial_invariants(self, O5):
        R = PolyRing(O5, ("x", "y"))
        A = build_algebra(R, [], [O5.zero] * 2, 2, name="free")
        out = regularity_at_lambda(A)
        assert out["regular_global"]
        cot = cotangent_invariants(A)
        assert cot.phi.is_zero
        assert cot.fitt_c.is_unit


def test_symbolic_power_membership_matches_torsion(O5):
    R = PolyRing(O5, ("x", "y"))
    A = build_algebra(R, [R.parse("x*(x - pi^2)")], [O5.zero] * 2, 1, name="H")
    out = symbolic_power_test(A, R.parse("x"))
    # the class of x is pi^2-torsion in the cotangent module
    assert out["in_p"] and out["in_p2_symbolic"]
    out2 = symbolic_power_test(A, R.parse("y + x"))
    assert out2["in_p"] and not out2["in_p2_symbolic"]


def test_global_members_build_no_local_basis():
    """I lies inside its localization, so in_ideal answers a global member
    without a local standard basis; on these rings no test needs one."""
    for A in (make_An(5, 2), make_hypersurface_2var(5, 2)):
        analyze(A)
        assert A._gb_local is None
    # x is a member only after localizing, where 1 + x is a unit
    R = PolyRing(Dvr.p_adic(5), ("x",))
    A = build_algebra(R, [R.parse("x*(1 + x)")], [R.dvr.zero], 0)
    assert not A.gb_global.contains(R.parse("x"))
    assert A.in_ideal(R.parse("x"))


def test_concurrent_reads_share_caches():
    A = make_An(5, 3)
    results = []
    errors = []

    def work():
        try:
            res = resolve_O(A)
            value, _ = eta_raw(A, None, 0, res)
            results.append(value.exponent)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == [3] * 6


def test_power_series_pipeline():
    O = Dvr.power_series(4)
    R = PolyRing(O, ("x",))
    A = build_algebra(R, [R.parse("x*(x - pi^2)")], [O.zero], 0, name="A/F4")
    out = regularity_at_lambda(A)
    assert out["regular_at_p"] and not out["regular_global"]
    value, _ = eta_raw(A, None, 0, resolve_O(A))
    assert value.exponent == 2
