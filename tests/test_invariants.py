"""The invariants gate: two digests per base of what `analyze` reports.

One digest holds only invariants of the algebra and its modules, which a
change of basis in a resolution or a syzygy search leaves as they are: eta,
psi in normal form, phi, Fitt_c, the Serre torsion-free ranks, the
criterion, Serre and splitting verdicts, and the kappa defect (or the error
an input ends in).  The other holds the labels: the strategy and the
certification of each result, and each criterion's status.  The matrices of
a resolution, its ranks and its pruning order are in neither, so a change
that re-pins them must leave both digests as they are; these digests are
never re-pinned to let such a change pass.

The inputs, per base: the ring builders of conftest.py (C(l, m, n) at
D = 2 on one p-adic base each, since over F_4[[t]] it takes 16 s), the
README example under the auto and the file strategy, and random
random_grammar_algebra rings at D = 2 from seeds of the base's own.
"""

import hashlib
import json
import random
import re

import pytest

from congrmod.cli import random_grammar_algebra
from congrmod.config import EngineConfig
from congrmod.congruence import analyze
from congrmod.errors import EngineError
from congrmod.probfile import load_problem
from congrmod.resolution import resolve_O
from conftest import (make_An, make_depth_zero_example, make_hypersurface_2var,
                      make_ring_B, make_ring_C)
from test_fuzz_front_end import FULL_FILE

BASES = {"Z_(2)": "kind = p_adic\np = 2", "Z_(5)": "kind = p_adic\np = 5",
         "F_4[[t]]": "kind = power_series\nq = 4"}  # each a [dvr] section
RANDOM_RINGS = 20  # per base

DIGESTS = {  # (invariants, labels)
    "Z_(2)": ("8f5ef00f82517883ca6b38877b66b03ec17bf5d7a6bf2e115e06dd46e5b1bcba",
              "ee11c5a12e5298113be4d6f56a193dbb801f447913a97347993991a4d593667d"),
    "Z_(5)": ("46432a01b81566d93129da3f9733eae31a014c5fdc7dc97c9ced7c68293965e4",
              "d045f274e9b1214000fe508521b3250077ec6ea34af226b52dcdf0e1e87dda91"),
    "F_4[[t]]": ("5258135dca3ba03f2ffe037f734e617d52ae67e367df71d8bb3b459f3e057497",
                 "751055b8ee6fffff19e7a020fb32d637204172b87eb6f0fdf74ee5081729bee4"),
}


def _inputs(base):
    """(name, algebra, modules, strategy, user matrices) per input."""
    problem = load_problem(re.sub(r"\[dvr\]\n.*?\n\n", f"[dvr]\n{BASES[base]}\n\n",
                                  FULL_FILE, count=1, flags=re.S))
    dvr = problem.dvr
    rings = [make_An(dvr, 1), make_An(dvr, 2, branch=1), make_ring_B(dvr),
             make_depth_zero_example(dvr), make_hypersurface_2var(dvr, 1),
             make_hypersurface_2var(dvr, 2)]
    if base == "Z_(5)":
        rings.append(make_ring_C(5, 1, 1, 1))
    if base == "Z_(2)":
        rings.append(make_ring_C(2, 2, 2, 2))
    out = [(repr(A), A, None, "auto", None) for A in rings]
    for strategy in ("auto", "file"):
        out.append((f"README {strategy}", problem.algebra, problem.modules,
                    strategy, problem.resolution_matrices))
    config = EngineConfig(search_degree=2)
    seed = 100 * (1 + sorted(BASES).index(base))
    rng = random.Random(seed)
    for k in range(RANDOM_RINGS):
        A = random_grammar_algebra(dvr, rng, config=config)
        out.append((f"random {seed}.{k} {A!r}", A, None, "auto", None))
    return out


def _split(report):
    """(invariants, labels) of one analyze report, as plain data."""
    reg, serre = report["regularity"], report["serre"]
    invariants = {
        "regular": [reg["regular_at_p"], reg["regular_global"],
                    reg["evidence"]["eta"], reg["evidence"]["cotangent_rank"]],
        "cotangent": [report["cotangent"][k] for k in ("cotangent", "phi", "fitt_c")],
        "serre": [serre["ranks"], serre["expected"], serre["verdict"]],
        "modules": {}}
    labels = {"resolution": [report["resolution"]["strategy"],
                             report["resolution"]["certification"]],
              "regularity": reg["evidence"]["certification"], "modules": {}}
    for name, entry in report["modules"].items():
        crit = entry["criterion"]
        invariants["modules"][name] = [
            entry["eta"], entry["psi"], entry["mu"],
            [crit[k] for k in ("condition_2", "condition_3", "verdict",
                               "ext_torsion_free")],
            entry["splitting_verdict"],
            [entry["kappa"][k] for k in ("coker_ann", "diff_identity",
                                         "sequence_identity")]]
        labels["modules"][name] = [entry["certification"], crit["status"],
                                   crit["depth_asserted"]]
    return invariants, labels


def _digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("base", list(BASES))
def test_invariants_digest(base):
    invariants, labels = [], []
    for name, A, modules, strategy, matrices in _inputs(base):
        try:
            res = resolve_O(A, strategy=strategy, user_matrices=matrices)
            inv, lab = _split(analyze(A, modules, res=res).to_dict())
        except EngineError as exc:
            inv = lab = f"raises {type(exc).__name__}"
        invariants.append([name, inv])
        labels.append([name, lab])
    assert (_digest(invariants), _digest(labels)) == DIGESTS[base]
