from fractions import Fraction as F

import pytest

from congrmod import Dvr, LatticeSplit, pairing_discriminant, split_and_congruence
from congrmod.errors import DegenerateLattice, NotADirectSum
from congrmod.omodule import smith_form


def identity(O, n):
    return [[O.one if i == j else O.zero for j in range(n)] for i in range(n)]


def test_ramanujan_congruence_encoding():
    """Two rank-one pieces meeting at index 691."""
    O = Dvr.p_adic(691)
    s = LatticeSplit(O, identity(O, 2), [[O.one], [O.zero]],
                     [[O.one], [O.from_int(691)]])
    out = split_and_congruence(s)
    assert out["cong"].signature == ((1,), 0)  # Z/691Z
    assert pairing_discriminant(s).exponent == 1


def test_split_lattice_trivial(O5):
    s = LatticeSplit(O5, identity(O5, 2), [[O5.one], [O5.zero]],
                     [[O5.zero], [O5.one]])
    out = split_and_congruence(s)
    assert out["cong"].is_zero
    assert pairing_discriminant(s).is_unit


def test_pi_power_index(O5):
    for n in (1, 2, 3):
        s = LatticeSplit(O5, identity(O5, 2), [[O5.one], [O5.zero]],
                         [[O5.one], [O5.pi_pow(n)]])
        out = split_and_congruence(s)
        assert out["cong"].signature == ((n,), 0)
        assert pairing_discriminant(s).exponent == n


def test_not_a_direct_sum(O5):
    s = LatticeSplit(O5, identity(O5, 2), [[O5.one], [O5.zero]],
                     [[O5.from_int(2)], [O5.zero]])
    with pytest.raises(NotADirectSum):
        split_and_congruence(s)


def test_degenerate_lattice(O5):
    s = LatticeSplit(O5, [[O5.one, O5.one], [O5.one, O5.one]],
                     [[O5.one], [O5.zero]], [[O5.zero], [O5.one]])
    with pytest.raises(DegenerateLattice):
        split_and_congruence(s)


def test_rank_mismatch_detected(O5):
    s = LatticeSplit(O5, identity(O5, 3),
                     [[O5.one, O5.zero], [O5.zero, O5.one], [O5.zero, O5.zero]],
                     [[O5.zero], [O5.zero], [O5.one]])
    # well-formed: just exercises the d1 = 2 path
    out = split_and_congruence(s)
    assert out["cong"].is_zero
    assert pairing_discriminant(s).is_unit


def random_split(O, n, rng, draw_basis=None, draw_subspaces=None):
    draw_basis = draw_basis or (lambda: F(rng.randint(-9, 9)))
    draw_subspaces = draw_subspaces or (lambda: F(rng.randint(-20, 20)))
    while True:
        B = [[draw_basis() for _ in range(n)] for _ in range(n)]
        if smith_form(O, B, n).rank == n:  # B's rows as columns: its rank
            break
    while True:
        V = [[draw_subspaces() for _ in range(n)] for _ in range(n)]
        if smith_form(O, V, n).rank == n:
            break
    d1 = rng.randint(1, n - 1)
    v1 = [row[:d1] for row in V]
    v2 = [row[d1:] for row in V]
    return LatticeSplit(O, B, v1, v2)


def test_randomized_triple_and_discriminant(rng):
    """The three quotients agree (checked internally) and Fitt_0 of the
    congruence module is the pairing discriminant; swapping the subspaces
    changes nothing."""
    for _ in range(80):
        p = rng.choice([2, 3, 5, 691])
        O = Dvr.p_adic(p)
        n = rng.randint(2, 4)
        s = random_split(O, n, rng)
        out = split_and_congruence(s)
        cong = out["cong"]
        assert cong.free_rank == 0
        disc = pairing_discriminant(s)
        assert disc.exponent == cong.torsion_length
        swapped = LatticeSplit(O, s.lattice_basis, s.v2, s.v1)
        assert split_and_congruence(swapped)["cong"].signature == cong.signature


def test_nontrivial_pairing_matrix(O5):
    """A unimodular twist of the canonical pairing leaves the ideal alone."""
    s = LatticeSplit(O5, identity(O5, 2), [[O5.one], [O5.zero]],
                     [[O5.one], [O5.pi_pow(2)]])
    q_unimodular = [[O5.one, O5.one], [O5.zero, O5.one]]
    assert pairing_discriminant(s, q_unimodular).exponent == 2
    q_scaled = [[O5.pi, O5.zero], [O5.zero, O5.pi]]
    assert pairing_discriminant(s, q_scaled).exponent == 3


def _power_series_entry(O, rng, top):
    """0, or t^e * (a + b t) with e <= top, a a unit of the residue field
    and b mostly zero (every term of b raises the cost of the arithmetic)."""
    from congrmod.dvr import RF
    field = O.field
    elements = [tuple(code // field.p ** i % field.p for i in range(field.k))
                for code in range(field.q)]
    if rng.random() < 0.3:
        return O.zero
    b = rng.choice(elements) if rng.random() < 0.2 else elements[0]
    return RF(field, rng.randint(0, top), (rng.choice(elements[1:]), b))


@pytest.mark.parametrize("q", [4, 9])
def test_randomized_splits_power_series(q, rng):
    """The lattice oracle over F_q[[t]]: the three quotients agree (checked
    inside split_and_congruence) and the pairing discriminant is Fitt_0 of
    the congruence module."""
    O = Dvr.power_series(q)
    for n in (2, 3, 4):
        s = random_split(O, n, rng, lambda: _power_series_entry(O, rng, 1),
                         lambda: _power_series_entry(O, rng, 2))
        out = split_and_congruence(s)
        assert out["cong"].free_rank == 0
        assert pairing_discriminant(s).exponent == out["cong"].torsion_length


def test_power_series_degenerate_and_intersecting():
    O = Dvr.power_series(4)
    t, one, zero = O.pi, O.one, O.zero
    singular = LatticeSplit(O, [[one, t], [t, t * t]], [[one], [zero]], [[zero], [one]])
    with pytest.raises(DegenerateLattice):
        split_and_congruence(singular)
    meeting = LatticeSplit(O, identity(O, 2), [[one], [t]], [[t], [t * t]])
    with pytest.raises(NotADirectSum):
        split_and_congruence(meeting)
