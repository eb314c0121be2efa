"""The benchmark's per-layer tracer (bench/tracing.py) still finds the span
solver it reads by name, and tracing does not change any output: on linear
bases (A(2), B) and on the depth-zero ring D, whose relation pi^2*x puts
absorber columns into every span solver."""

import sys
from pathlib import Path

import congrmod.cli
from congrmod import resolve_O
from congrmod.congruence import analyze
from conftest import make_depth_zero_example, make_ring_B
from test_cli import A2_FILE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracing import Tracer  # noqa: E402


def _analyze_a2(path, capsys):
    assert congrmod.cli.main(["analyze", str(path), "--format", "structured"]) == 0
    return capsys.readouterr().out


def _resolve_b():
    res = resolve_O(make_ring_B(5), length=3, strategy="syzygy")
    return res.ranks, [[tuple(map(str, col)) for col in d] for d in res.diffs]


def _analyze_d():
    A = make_depth_zero_example(5)
    res = resolve_O(A, strategy="syzygy")
    return analyze(A, res=res).to_dict(), [[tuple(map(str, col)) for col in d]
                                           for d in res.diffs]


def test_tracer_reads_span_solver(tmp_path, capsys):
    path = tmp_path / "a2.cm"
    path.write_text(A2_FILE)
    plain = _analyze_a2(path, capsys), _resolve_b()
    tracer = Tracer()
    with tracer:
        traced = _analyze_a2(path, capsys), _resolve_b()
    assert traced == plain
    assert tracer.stats["linsolve.SpanSolver.__init__"][0] > 0
    assert tracer.stats["linsolve.SpanSolver.solve"][0] > 0
    assert tracer.counts["linsolve.columns_expanded"] > 0
    # the benchmark's eta_raw.total_s and psi_raw.total_s rows
    assert tracer.stats["congruence.eta_raw"][0] > 0
    assert tracer.stats["congruence.psi_raw"][0] > 0


def test_tracer_on_absorber_solvers():
    """D's solvers hold absorbers, and Ext with coefficients in D grows its
    class solver with extend() by representatives at multiplier bound 0;
    the tracer reads every constructor."""
    plain = _analyze_d()
    tracer = Tracer()
    with tracer:
        traced = _analyze_d()
    assert traced == plain
    assert not make_depth_zero_example(5).gb_global.linear
    assert tracer.stats["linsolve.SpanSolver.__init__"][0] > 0
    assert tracer.counts["linsolve.columns_expanded"] > 0
