"""Ownership runs one way, from what the caller holds down to what it was
built from: a resolution holds its algebra and its Ext modules, and the
algebra remembers its resolutions only weakly.  So reference counting frees
a problem's objects when the caller drops them, a resolution outlives the
algebra it was built over, and each (algebra, strategy) is still resolved
once while someone holds its resolution."""

import gc
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from congrmod import cli, deformation_step, eta_raw, kappa_defect, resolution, resolve_O
from conftest import make_hypersurface_2var
from test_fuzz_front_end import FULL_FILE

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/ is put on the path above)


def _first_problem(name):
    """The first problem of a workload at seed 7, solved as the benchmark
    solves it."""
    def run(tmp_path):
        workload = workloads.make(name, tmp_path)
        workload.solve(next(iter(workload.blocks(random.Random(7))))[0])
    return run


def _on_hypersurface(run):
    return lambda tmp_path: run(make_hypersurface_2var(5, 2))


PROBLEMS = {
    **{name: _first_problem(name) for name in
       ("analyze-finite-padic", "analyze-finite-pseries", "hypersurface-strategies")},
    # C(5; 1,1,1), resolved to length 3
    "determinantal-resolution": lambda tmp_path: workloads.make(
        "determinantal-resolution", tmp_path).solve({"p": 5, "l": 1, "m": 1, "n": 1}),
    "deformation_step": _on_hypersurface(
        lambda A: deformation_step(A, None, A.ring.parse("y"))),
    "kappa_defect": _on_hypersurface(lambda A: kappa_defect(A, None)),
}


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_a_problem_leaves_no_reference_cycle(name, tmp_path):
    """With the collector off, a problem leaves no congrmod object that
    only the cyclic collector could free."""
    cli._parser()  # its one-time build leaves argparse's own cycles
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        PROBLEMS[name](tmp_path)
        gc.collect()
        cyclic = Counter(type(obj).__qualname__ for obj in gc.garbage
                         if type(obj).__module__.startswith("congrmod"))
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    assert not cyclic


def test_a_resolution_outlives_its_algebra():
    res = resolve_O(make_hypersurface_2var(5, 2))
    gc.collect()
    assert len(res.differential(4)) == 2
    eta, _ = eta_raw(res.algebra, None, 1, res)
    assert str(eta) == "(pi^2)"


def test_the_algebra_forgets_a_dropped_resolution():
    """The algebra hands out one resolution while it is held, and lets
    reference counting free it when its last holder drops it."""
    A = make_hypersurface_2var(5, 2)
    res = resolve_O(A)
    assert resolve_O(A) is res and list(A._resolutions) == ["matrix_factorization"]
    del res
    assert not A._resolutions


def _count_builds(monkeypatch):
    built = Counter()
    real = resolution._new_resolution

    def counted(A, strategy, user_matrices):
        built[strategy] += 1
        return real(A, strategy, user_matrices)

    monkeypatch.setattr(resolution, "_new_resolution", counted)
    return built


def test_analyze_builds_one_resolution(tmp_path, monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    path = tmp_path / "example.cm"
    path.write_text(FULL_FILE, encoding="utf-8")
    assert cli.main(["analyze", str(path), "--format", "structured"]) in (0, 1)
    assert "modules" in capsys.readouterr().out
    assert built == {"syzygy": 1}


def test_hypersurface_problem_builds_one_resolution_per_strategy(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    _first_problem("hypersurface-strategies")(tmp_path)
    assert built == {strategy: 1 for strategy in workloads.STRATEGIES}
