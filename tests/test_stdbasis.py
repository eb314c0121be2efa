import hashlib
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrmod import GLOBAL, LOCAL, Dvr, PolyRing, std_basis
from congrmod import stdbasis
from congrmod.cli import random_grammar_algebra
from congrmod.config import DEFAULT_CONFIG, EngineConfig
from congrmod.errors import DegreeBoundExceeded, NonIntegralEntry
from congrmod.poly import Poly
from congrmod.stdbasis import _spoly, reduce_strong


@pytest.fixture
def R1(O5):
    return PolyRing(O5, ("x",))


@pytest.fixture
def R2(O5):
    return PolyRing(O5, ("x", "y"))


def test_single_variable(R1):
    B = std_basis([R1.parse("x")], LOCAL)
    assert [str(g) for g in B.gens] == ["x"]
    assert str(B.nf(R1.parse("pi"))) == "5"


def test_principal_local_basis(R1):
    B = std_basis([R1.parse("x*(x - pi)")], LOCAL)
    assert len(B.gens) == 1
    # leading term under the local order is the low-degree part
    assert LOCAL.leading(B.gens[0])[0] == (1,)
    assert B.nf(R1.parse("x^2 - pi*x")).is_zero
    # the canonical irreducible representative of the class of x^2
    nf = B.nf(R1.parse("x^2"))
    assert nf == R1.parse("x^2")
    assert B.nf(R1.parse("pi*x")) == R1.parse("x^2")
    assert B.nf(nf) == nf  # idempotent


def test_local_membership_sees_local_units(R1):
    # 1 - x is invertible locally, so x lies in (x - x^2)
    B = std_basis([R1.parse("x - x^2")], LOCAL)
    assert B.contains(R1.parse("x"))
    Bg = std_basis([R1.parse("x - x^2")], GLOBAL)
    assert not Bg.contains(R1.parse("x"))


def test_ring_b_membership(R2):
    gens = [R2.parse("x*(x - pi)"), R2.parse("y*(y - pi)"), R2.parse("x*y")]
    for order in (LOCAL, GLOBAL):
        B = std_basis(gens, order)
        assert B.contains(R2.parse("x*y*(y - pi)"))
        for g in gens:
            assert B.contains(g)


def test_strong_spairs_reduce_to_zero(R2):
    gens = [R2.parse("x*(x - pi)"), R2.parse("pi^2*x"), R2.parse("x*y")]
    for order in (LOCAL, GLOBAL):
        B = std_basis(gens, order)
        for i in range(len(B.gens)):
            for j in range(i + 1, len(B.gens)):
                s = _spoly(B.gens[i], B.gens[j], order.leading(B.gens[i]),
                           order.leading(B.gens[j]))
                assert B.nf(s).is_zero


def test_coefficient_divisibility(R1):
    # pi*x does not reduce x
    B = std_basis([R1.parse("pi*x")], GLOBAL)
    assert str(B.nf(R1.parse("x"))) == "x"
    assert B.nf(R1.parse("pi*x^3")).is_zero


def test_randomized_membership(R2, rng):
    gens = [R2.parse("x*(x - pi)"), R2.parse("y*(y - pi)"), R2.parse("x*y")]
    for order in (GLOBAL, LOCAL):
        B = std_basis(gens, order)
        mons = [R2.one, R2.parse("x"), R2.parse("y"), R2.parse("x + y"),
                R2.parse("pi"), R2.parse("x*y - pi")]
        for _ in range(40):
            f = sum((rng.choice(mons) * rng.choice(gens) for _ in range(2)),
                    R2.zero)
            g = rng.choice(mons) * rng.choice(gens)
            assert B.nf(f + g).is_zero


def test_nf_idempotent_and_difference_in_ideal(R2, rng):
    gens = [R2.parse("x*(x - pi^2)")]
    B = std_basis(gens, GLOBAL)
    mons = [R2.one, R2.parse("x"), R2.parse("y"), R2.parse("x^2 - y")]
    for _ in range(25):
        f = sum((rng.choice(mons) * rng.choice(mons) for _ in range(2)), R2.zero)
        nf = B.nf(f)
        assert B.nf(nf) == nf
        assert B.contains(f - nf)


def test_empty_generators_rejected(R1):
    with pytest.raises(NonIntegralEntry):
        std_basis([], GLOBAL)
    with pytest.raises(NonIntegralEntry):
        std_basis([R1.parse("x").scale(F(1, 5))], GLOBAL)


def test_degree_cap(R1):
    cfg = EngineConfig(degree_cap=2)
    with pytest.raises(DegreeBoundExceeded):
        std_basis([R1.parse("x^3 - x")], GLOBAL, cfg)


def test_valuation_cap(R1):
    cfg = EngineConfig(valuation_cap=3)
    with pytest.raises(DegreeBoundExceeded):
        std_basis([R1.parse("pi^62*x")], GLOBAL, cfg)


# Bases of O5[x, y] by name, built once so that their tables fill up across
# examples; the first three have unit leading coefficients.
NF_BASES = {
    "x*(x - pi^k)": ["x*(x - pi^3)"],
    "ring B": ["x*(x - pi)", "y*(y - pi)", "x*y"],
    "x^2 - pi*y": ["x^2 - pi*y"],
    "pi*x": ["pi*x"],
    "pi^2*x, x*(x - pi)": ["pi^2*x", "x*(x - pi)"],
}
_R = PolyRing(Dvr.p_adic(5), ("x", "y"))
_BUILT = {}


def _nf_basis(name):
    if name not in _BUILT:
        _BUILT[name] = std_basis([_R.parse(g) for g in NF_BASES[name]], GLOBAL)
    return _BUILT[name]


polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    st.builds(F, st.integers(-250, 250).filter(bool), st.sampled_from([1, 2, 3])),
    max_size=6).map(lambda terms: Poly(_R, terms))


@pytest.mark.parametrize("name", list(NF_BASES))
@given(f=polys)
@settings(max_examples=60, deadline=None)
def test_nf_equals_reduce_strong(name, f):
    B = _nf_basis(name)
    assert B.linear == (name in ("x*(x - pi^k)", "ring B", "x^2 - pi*y"))
    expected = reduce_strong(f, B.gens, GLOBAL, DEFAULT_CONFIG,
                             [GLOBAL.leading(g) for g in B.gens])
    assert list(B.nf(f).terms.items()) == list(expected.terms.items())


def test_nf_table_reduces_each_monomial_once(R1, monkeypatch):
    B = std_basis([R1.parse("x*(x - pi^2)")], GLOBAL)
    calls = []

    def counting(f, gens, order, config, leads):
        calls.append(f)
        return reduce_strong(f, gens, order, config, leads)

    monkeypatch.setattr(stdbasis, "reduce_strong", counting)
    first = B.nf(R1.parse("x^3"))
    assert len(calls) == 1
    assert B.nf(R1.parse("x^3")) == first
    assert B.nf(R1.parse("3*x^3")) == first.scale(F(3))
    assert len(calls) == 1


def test_nf_table_respects_valuation_cap(R1):
    cfg = EngineConfig(valuation_cap=5)
    B = std_basis([R1.parse("x^2 - pi^3*x")], GLOBAL, cfg)
    assert B.linear
    assert B.nf(R1.parse("x^2")) == R1.parse("pi^3*x")
    with pytest.raises(DegreeBoundExceeded):
        B.nf(R1.parse("x^3"))  # a table miss: x^3 -> pi^3*x^2 -> pi^6*x
    with pytest.raises(DegreeBoundExceeded):
        B.nf(R1.parse("pi^3*x^2"))  # a table hit whose result is past the cap


def test_nf_table_shared_by_racing_threads(R2):
    """Six threads filling one fresh table all get the reference normal
    forms, term order included."""
    gens = [R2.parse("x*(x - pi)"), R2.parse("y*(y - pi)"), R2.parse("x*y")]
    fs = [R2.parse(f"x^{a}*y^{b} + pi*x^{b}*y^{a}")
          for a in range(5) for b in range(5)]
    ref = std_basis(gens, GLOBAL)
    leads = [GLOBAL.leading(g) for g in ref.gens]
    expected = [list(reduce_strong(f, ref.gens, GLOBAL, DEFAULT_CONFIG, leads).terms.items())
                for f in fs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            B = std_basis(gens, GLOBAL)
            got, errors = [], []
            start = threading.Barrier(6)

            def work():
                try:
                    start.wait(timeout=60)
                    got.append([list(B.nf(f).terms.items()) for f in fs])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors and got == [expected] * 6
    finally:
        sys.setswitchinterval(old)


# base -> SHA-256 of the global bases, and of the local membership bits, of
# random grammar algebras from seeds 0..149, captured while every basis
# routine still recomputed its leads at each read
_PINNED_BASES = {"Z_(2)": lambda: Dvr.p_adic(2), "Z_(5)": lambda: Dvr.p_adic(5),
                 "F_4[[t]]": lambda: Dvr.power_series(4)}
_PINNED_GLOBAL = {
    "Z_(2)":
        "8ab8d009b3a81b82f334b95c467a23802eefc2be5bc7de768ffa56ba0f39356f",
    "Z_(5)":
        "21e0222b151e5f0c199f0b802413c6993e44629c5cc19a78bb90495983069e96",
    "F_4[[t]]":
        "cb00ac79bc2d584d87a497cf58e0f03116dbaee980a8ce5dbdf935aaaa0468b6",
}
_PINNED_LOCAL = {
    "Z_(2)":
        "42ca9b9d6a4696a5b4bc1f039b723338ec9644f520d98f65fb5efd09b1a85456",
    "Z_(5)":
        "c6eb7cda05cac5cb114b1167890a15bd13da585eb86dfd5e968fa817e0d0ae79",
    "F_4[[t]]":
        "2ed286ca2c8a3b33b44713a0c52f236f94b9e6d1069bd4e9de10ab639f432633",
}


def _grammar_ideals(base, count=150):
    """Generating sets from the random grammar algebras of seeds
    0..count-1 that have relations: the relations, and for every third seed
    the relations with one more element that perturbs a combination of
    them, which gives s-pairs that do not reduce to zero."""
    dvr = _PINNED_BASES[base]()
    for seed in range(count):
        rels = random_grammar_algebra(dvr, random.Random(seed)).relations
        if rels:
            yield rels
            if seed % 3 == 0:
                yield rels + _samples(rels, random.Random(seed))[-1:]


def _samples(gens, rng):
    """Three O[x]-combinations of gens, then three with a term pi^a * x_i^b
    added, which may or may not leave the (localized) ideal."""
    ring = gens[0].ring
    pi = ring.const(ring.dvr.pi_pow(1))
    mults = [ring.one, pi]
    for i in range(ring.nvars):
        x = ring.var(i)
        mults += [x, ring.one + x, x - pi]
    out = []
    for k in range(6):
        f = sum((rng.choice(mults) * rng.choice(gens) for _ in range(2)), ring.zero)
        if k >= 3:
            exps = [0] * ring.nvars
            exps[rng.randrange(ring.nvars)] = rng.randint(0, 3)
            f = f + Poly(ring, {tuple(exps): ring.dvr.pi_pow(rng.randint(0, 3))})
        out.append(f)
    return out


def _global_digest(base):
    digest = hashlib.sha256()
    for gens in _grammar_ideals(base):
        digest.update(repr([str(g) for g in std_basis(gens, GLOBAL).gens]).encode())
    return digest.hexdigest()


def _local_digest(base):
    rng = random.Random(base)
    bits = []
    for gens in _grammar_ideals(base):
        B = std_basis(gens, LOCAL)
        bits.extend("1" if B.contains(f) else "0" for f in _samples(gens, rng))
    return hashlib.sha256("".join(bits).encode()).hexdigest()


@pytest.mark.parametrize("base", sorted(_PINNED_GLOBAL))
def test_global_bases_pinned(base):
    """Global bases byte for byte: the same pairs are processed in the same
    order with the same reductions, however the leads are found."""
    assert _global_digest(base) == _PINNED_GLOBAL[base]


@pytest.mark.parametrize("base", sorted(_PINNED_LOCAL))
def test_local_membership_pinned(base):
    """A local basis may keep another of two redundant elements, but answers
    every membership question the same."""
    assert _local_digest(base) == _PINNED_LOCAL[base]
