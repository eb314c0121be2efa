import os
import random
import subprocess
import sys

import pytest
from hypothesis import settings

from congrmod import Dvr, PolyRing, build_algebra
from congrmod.config import EngineConfig

# HYPOTHESIS_PROFILE=repro draws the same examples on every run (and reads
# no example database), so that two timings of the suite run the same
# tests; without it the property tests draw fresh examples each run.
settings.register_profile("repro", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture
def O5():
    return Dvr.p_adic(5)


@pytest.fixture
def O3():
    return Dvr.p_adic(3)


@pytest.fixture
def rng():
    return random.Random(20240613)


def _base(p):
    """The base of a ring builder below: Z_(p) for a prime p, or a Dvr given
    as it is (F_q[[t]] too, whose uniformizer the relations' pi names)."""
    return p if isinstance(p, Dvr) else Dvr.p_adic(p)


def make_An(p, n, branch=0):
    """The congruence ring {(a, b) : a = b mod pi^n} with one of its two
    augmentations (x -> 0 or x -> pi^n)."""
    O = _base(p)
    R = PolyRing(O, ("x",))
    f = R.parse(f"x*(x - pi^{n})")
    aug = [O.zero if branch == 0 else O.pi_pow(n)]
    return build_algebra(R, [f], aug, 0, claimed_mcm=True, claimed_depth=1,
                         claimed_gorenstein=True, name=f"A({n})")


def make_ring_B(p):
    """Triple congruence ring {(a, b, c) : a = b = c mod pi}."""
    O = _base(p)
    R = PolyRing(O, ("x", "y"))
    rels = [R.parse("x*(x - pi)"), R.parse("y*(y - pi)"), R.parse("x*y")]
    return build_algebra(R, rels, [O.zero, O.zero], 0, claimed_depth=1,
                         claimed_mcm=True, name="B")


def make_depth_zero_example(p):
    """The dimension-two, depth-zero ring with codimension-one augmentation
    whose congruence ideal still matches the Fitting ideal."""
    O = _base(p)
    R = PolyRing(O, ("x", "y"))
    rels = [R.parse("x*(x - pi)"), R.parse("pi^2*x"), R.parse("x*y")]
    return build_algebra(R, rels, [O.zero, O.zero], 1, name="D")


def make_hypersurface_2var(p, n):
    """O[[x, y]]/(x(x - pi^n)) with the zero augmentation, codimension 1."""
    O = _base(p)
    R = PolyRing(O, ("x", "y"))
    return build_algebra(R, [R.parse(f"x*(x - pi^{n})")], [O.zero, O.zero], 1,
                         claimed_mcm=True, claimed_depth=2,
                         claimed_gorenstein=True, name=f"H({n})")


def make_ring_C(p, l, m, n, search_degree=2):
    """Criterion 8's Cohen-Macaulay determinantal ring C(l, m, n) in six
    variables, codimension 3, at search degree 2 unless given."""
    O = _base(p)
    R = PolyRing(O, ("a", "b", "c", "al", "be", "ga"))
    P = R.parse
    rels = [
        P("-al^2 - be*ga"),
        P(f"al*c - (pi^{n} + a)*ga"),
        P("-al*a - b*ga"),
        P(f"be*c + (pi^{n} + a)*al"),
        P("-be*a + b*al"),
        P(f"-(pi^{n} + a)*a - b*c"),
    ]
    aug = [O.zero, O.pi_pow(l), O.zero, O.zero, O.pi_pow(m), O.zero]
    return build_algebra(R, rels, aug, 3,
                         config=EngineConfig(search_degree=search_degree), name="C")


def child_env(**extra):
    """The environment of a child interpreter that imports the same congrmod
    package, installed or not, and can import these test helpers."""
    import congrmod
    src = os.path.dirname(os.path.dirname(congrmod.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_python(argv, seconds):
    """Run a child interpreter with argv in child_env(), killed (and the
    test failed) after `seconds`.  Returns the completed process."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=seconds, env=child_env())
