import json
import subprocess
import sys

import pytest

from congrmod import congruence, resolution
from congrmod.cli import main
from congrmod.errors import KappaNotInjective
from conftest import child_env, run_python
from test_fuzz_front_end import FULL_FILE

A2_FILE = """
# the congruence ring at its first branch
[dvr]
kind = p_adic
p = 5

[ring]
vars = x
relations = x*(x - pi^2)

[augmentation]
x = 0
codim = 0
mcm = true
gorenstein = true
depth = 1
"""

H3_FILE = """
[dvr]
kind = p_adic
p = 5

[ring]
vars = x, y
relations = x*(x - pi^3)

[augmentation]
x = 0
y = 0
codim = 1
mcm = true
depth = 2
"""

# criterion 8's determinantal ring C(1, 1, 1), codimension 3
C111_FILE = """
[dvr]
kind = p_adic
p = 5

[ring]
vars = a, b, c, al, be, ga
relations = -al^2 - be*ga, al*c - (pi + a)*ga, -al*a - b*ga, be*c + (pi + a)*al, -be*a + b*al, -(pi + a)*a - b*c

[augmentation]
a = 0
b = pi
c = 0
al = 0
be = pi
ga = 0
codim = 3
"""

LATTICE_FILE = """
[dvr]
kind = p_adic
p = 691

[lattice]
basis = [[1, 0], [0, 1]]
v1 = [[1], [0]]
v2 = [[1], [691]]
"""


@pytest.fixture
def a2_path(tmp_path):
    path = tmp_path / "a2.cm"
    path.write_text(A2_FILE)
    return str(path)


@pytest.fixture
def h3_path(tmp_path):
    path = tmp_path / "h3.cm"
    path.write_text(H3_FILE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_text_block(text):
    """Parse the indentation-based text rendering back into a dict."""
    root = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        if not line.strip():
            continue
        indent = (len(line) - len(line.lstrip())) // 2
        key, _, rest = line.strip().partition(":")
        rest = rest.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        container = stack[-1][1]
        if rest == "":
            child = {}
            container[key] = child
            stack.append((indent, child))
        else:
            container[key] = rest
    return root


def coerce(value):
    if isinstance(value, dict):
        return {k: coerce(v) for k, v in value.items()}
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def test_analyze_text_structured_roundtrip(a2_path, capsys):
    code, structured = run(capsys, ["analyze", a2_path, "--format", "structured"])
    assert code == 0
    record = json.loads(structured)
    code, text = run(capsys, ["analyze", a2_path])
    assert code == 0
    parsed = parse_text_block(text)

    def flatten(d, prefix=""):
        out = {}
        for k, v in d.items():
            if isinstance(v, dict):
                out.update(flatten(v, prefix + k + "."))
            else:
                out[prefix + k] = v
        return out

    flat_record = flatten(coerce(record))
    flat_text = flatten(parsed)
    for key, value in flat_record.items():
        assert key in flat_text
        got = flat_text[key]
        if value.startswith("[") or got.startswith("["):
            assert json.loads(got) == json.loads(value.replace("'", '"')) or \
                got == value
        else:
            assert got == value, (key, got, value)


def test_determinism_byte_identical(a2_path, capsys):
    _, out1 = run(capsys, ["analyze", a2_path, "--format", "structured"])
    _, out2 = run(capsys, ["analyze", a2_path, "--format", "structured"])
    assert out1 == out2
    _, p1 = run(capsys, ["probe-fitting-question", "--count", "4", "--seed", "11",
                         "--format", "structured"])
    _, p2 = run(capsys, ["probe-fitting-question", "--count", "4", "--seed", "11",
                         "--format", "structured"])
    assert p1 == p2


def test_eta_psi_phi_values(a2_path, capsys):
    code, out = run(capsys, ["eta", a2_path, "--format", "structured"])
    assert code == 0 and json.loads(out)["eta"] == "(pi^2)"
    code, out = run(capsys, ["psi", a2_path, "--format", "structured"])
    assert code == 0 and json.loads(out)["psi"] == "O/pi^2"
    code, out = run(capsys, ["phi", a2_path, "--format", "structured"])
    rec = json.loads(out)
    assert code == 0 and rec["phi_length"] == 2 and rec["fitt_c"] == "(pi^2)"


def test_criterion_exit_codes(a2_path, tmp_path, capsys):
    code, out = run(capsys, ["criterion", a2_path, "--mode", "wld"])
    assert code == 0
    bfile = tmp_path / "b.cm"
    bfile.write_text("""
[dvr]
kind = p_adic
p = 5
[ring]
vars = x, y
relations = x*(x - pi), y*(y - pi), x*y
[augmentation]
x = 0
y = 0
codim = 0
depth = 1
mcm = true
""")
    code, out = run(capsys, ["criterion", str(bfile), "--mode", "wld"])
    assert code == 1  # verdict fails: the triple ring is not CI


def test_deform_command(h3_path, capsys):
    code, out = run(capsys, ["deform", h3_path, "--element", "y",
                             "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    assert rec["lhs"] == rec["rhs"] == 3
    assert rec["ord_f"] == "(1)"
    assert rec["exact_sequence_holds"] is True


def test_lattice_command(tmp_path, capsys):
    path = tmp_path / "lat.cm"
    path.write_text(LATTICE_FILE)
    code, out = run(capsys, ["lattice", str(path), "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    assert rec["congruence_module"] == "O/pi"
    assert rec["discriminant"] == "(pi)"


def test_serre_command(h3_path, capsys):
    code, out = run(capsys, ["serre", h3_path, "--products",
                             "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    assert rec["ranks"] == [1, 1, 0]
    assert rec["product_generates"] is True


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cm"
    bad.write_text("[dvr]\nkind = p_adic\np = 5\n[ring]\nvars = x\nbogus = 1\n")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.cm"
    assert main(["analyze", str(missing)]) == 2
    capsys.readouterr()
    unknown_key = tmp_path / "unk.cm"
    unknown_key.write_text(A2_FILE + "\n[augmentation]\n")
    assert main(["analyze", str(unknown_key)]) == 2
    capsys.readouterr()
    for bad_text in (A2_FILE.replace("p = 5", "p = five"),
                     A2_FILE.replace("p = 5", ""),
                     A2_FILE.replace("codim = 0", "codim = zero")):
        bad.write_text(bad_text)
        assert main(["analyze", str(bad)]) == 2
        assert "Traceback" not in capsys.readouterr().err
    # reserved, empty, repeated and unreadable names, each named in the error
    module = "\n[module.{}]\npresentation = [[x - pi^2]]\n"
    surjection = ("\n[surjection]\nvars = {}\nrelations = y\ncodim = 0\n"
                  "augmentation = y: 0\nimages = x: y\n")
    for bad_text, names in (
            (A2_FILE + module.format("ring"), ("[module.ring]", "'ring'")),
            (A2_FILE + module.format("O"), ("[module.O]", "'O'")),
            (A2_FILE + module.format(""), ("[module.]",)),
            (A2_FILE.replace("vars = x", "vars = x, x"), ("[ring] vars", "'x'")),
            (A2_FILE.replace("vars = x", "vars = x, pi"), ("[ring] vars", "'pi'")),
            (A2_FILE.replace("vars = x", "vars = x y"), ("[ring] vars", "'x y'")),
            (A2_FILE + surjection.format("y, pi"), ("[surjection] vars", "'pi'")),
            (A2_FILE + surjection.format("y, y"), ("[surjection] vars", "'y'")),
            (A2_FILE + surjection.format("y z"), ("[surjection] vars", "'y z'")),
            (A2_FILE + surjection.format("y").replace("relations = y", "relations = z"),
             ("[surjection] relations", "'z'")),
            (A2_FILE + surjection.format("y").replace("y: 0", "y: 1 +"),
             ("[surjection] augmentation",)),
            (A2_FILE + surjection.format("y").replace("x: y", "x: y^"),
             ("[surjection] images",)),
            (A2_FILE + "\n[module.M]\npresentation = O\n"
             "[module.M]\npresentation = ring\n", ("duplicate section [module.M]",)),
            (A2_FILE.replace("mcm = true", "ci = maybe"),
             ("[augmentation] ci: expected a boolean, got 'maybe'",)),
            (A2_FILE + surjection.format("y") + "mcm = maybe\n",
             ("[surjection] mcm: expected a boolean, got 'maybe'",)),
            (A2_FILE + module.format("M") + "mcm = maybe\n",
             ("[module.M] mcm: expected a boolean, got 'maybe'",)),
            (A2_FILE.replace("vars = x", "vars = x\nbogus = 1\nextra = 2"),
             ("unknown keys in [ring]", "'bogus'", "'extra'")),
            (A2_FILE + "\n[lattice]\nbasis = [1, 0]\nv1 = [[1]]\nv2 = [[0]]\n",
             ("[lattice] basis",)),
            (A2_FILE + surjection.format("y").replace("y: 0", "y: 0, w: 3"),
             ("[surjection] augmentation", "'w'")),
            (A2_FILE + surjection.format("y").replace("x: y", "x: y, z: 7"),
             ("[surjection] images", "'z'")),
            (A2_FILE.replace("x = 0", "x = 1"),
             ("NonLocalAugmentation", "[augmentation]", "x")),
            (A2_FILE.replace("x = 0", "x = pi"),
             ("[augmentation]", "does not vanish under the augmentation")),
            (A2_FILE + surjection.format("y").replace("y: 0", "y: 1"),
             ("NonLocalAugmentation", "[surjection] augmentation", "y")),
            (A2_FILE.replace("vars = x", "vars = x, dim").replace(
                "x = 0", "x = 0\ndim = 0"), ("[ring] vars", "'dim'", "[augmentation]")),
            (A2_FILE.replace("vars = x", "vars = x, codim"),
             ("[ring] vars", "'codim'", "[augmentation]")),
            (A2_FILE.replace("codim = 0", "codim = -1"), ("[augmentation] codim",)),
            (A2_FILE + surjection.format("y").replace("codim = 0", "codim = -2"),
             ("[surjection] codim",))):
        bad.write_text(bad_text)
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and all(n in err for n in names), err


def test_bound_exceeded_exit_3(tmp_path, capsys):
    f = tmp_path / "deep.cm"
    f.write_text("""
[dvr]
kind = p_adic
p = 5
[ring]
vars = x
relations = x^30 - pi*x
[augmentation]
x = 0
codim = 0
""")
    assert main(["analyze", str(f)]) == 3
    capsys.readouterr()


def test_span_solver_valuation_cap_exit_3(tmp_path, capsys):
    """x^2 = pi^33*y and y^2 = pi^33*x give normal forms whose coefficients
    grow by pi^33 per step; the cap is hit while the span solver expands
    the resolution's syzygies, and analyze exits 3 with no traceback."""
    f = tmp_path / "steep.cm"
    f.write_text("""
[dvr]
kind = p_adic
p = 5
[ring]
vars = x, y
relations = x^2 - pi^33*y, y^2 - pi^33*x
[augmentation]
x = 0
y = 0
codim = 0
""")
    assert main(["analyze", str(f)]) == 3
    err = capsys.readouterr().err
    assert "coefficient valuation cap 64 exceeded" in err
    assert "Traceback" not in err


def test_steep_standard_multiples_stay_within_the_cap(tmp_path, capsys):
    """x^2 = pi^40*y and y^2 = pi*x: the span solvers expand only the
    standard monomial multiples, whose normal forms stay within the
    valuation cap, and analyze gives eta (pi^41) and psi O/pi^41, as both
    codimension-0 oracles do."""
    from congrmod.congruence import eta_codim0_oracle, psi_direct_codim0
    from congrmod.probfile import load_problem
    f = tmp_path / "steep.cm"
    f.write_text("""
[dvr]
kind = p_adic
p = 5
[ring]
vars = x, y
relations = x^2 - pi^40*y, y^2 - pi*x
[augmentation]
x = 0
y = 0
codim = 0
""")
    A = load_problem(f.read_text()).algebra
    assert str(eta_codim0_oracle(A)) == "(pi^41)"
    assert str(psi_direct_codim0(A)) == "O/pi^41"
    code, out = run(capsys, ["analyze", str(f), "--format", "structured"])
    assert code == 0
    ring = json.loads(out)["modules"]["ring"]
    assert (ring["eta"], ring["psi"]) == ("(pi^41)", "O/pi^41")


def run_child(args, seconds):
    """Run the CLI in a child interpreter, killed (and the test failed) after
    `seconds`; returns the completed process."""
    return run_python(["-m", "congrmod", *args], seconds)


@pytest.mark.parametrize("aug", ["0", "pi"])
def test_huge_exponent_exit_3(tmp_path, aug):
    f = tmp_path / "huge.cm"
    f.write_text(A2_FILE.replace("x*(x - pi^2)", "x^99999999")
                 .replace("x = 0", f"x = {aug}"))
    proc = run_child(["analyze", str(f)], seconds=5)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_huge_surjection_image_exit_3(tmp_path):
    f = tmp_path / "surj.cm"
    f.write_text(A2_FILE + """
[surjection]
vars = y
relations = y*(y - pi^2)
codim = 0
augmentation = y: 0
images = x: y^99999999
""")
    proc = run_child(["criterion", str(f), "--mode", "iso"], seconds=5)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["p_adic", "power_series"])
def test_large_prime_base(tmp_path, kind):
    """2^61 - 1 is prime; a p or q at or above 2^64 is refused."""
    f = tmp_path / "big.cm"
    text = A2_FILE.replace("kind = p_adic", f"kind = {kind}")
    key = "p" if kind == "p_adic" else "q"
    f.write_text(text.replace("p = 5", f"{key} = {2**61 - 1}"))
    proc = run_child(["analyze", str(f), "--format", "structured"], seconds=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["modules"]["ring"]["eta"] == "(pi^2)"
    f.write_text(text.replace("p = 5", f"{key} = {2**64 + 13}"))
    proc = run_child(["analyze", str(f)], seconds=10)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_large_field_exponent(tmp_path):
    """F_q[[t]] with q = 2^40: the modulus of F_q is found in well under a
    second."""
    f = tmp_path / "f2_40.cm"
    f.write_text(A2_FILE.replace("kind = p_adic", "kind = power_series")
                 .replace("p = 5", f"q = {2**40}"))
    proc = run_child(["analyze", str(f), "--format", "structured"], seconds=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["modules"]["ring"]["eta"] == "(pi^2)"


@pytest.mark.parametrize("command,text", [
    ("analyze", A2_FILE.replace("x*(x - pi^2)", "x*(x - pi^99999999)")),
    ("analyze", A2_FILE.replace("x = 0", "x = pi^99999999")),
    ("lattice", LATTICE_FILE.replace("[691]", "[2^99999999]")),
], ids=["relation", "augmentation", "lattice"])
def test_huge_constant_power_exit_3(tmp_path, command, text):
    f = tmp_path / "power.cm"
    f.write_text(text)
    proc = run_child([command, str(f)], seconds=5)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


RESOLUTION_FILE = """
[dvr]
kind = p_adic
p = 5
[ring]
vars = x
relations = x*(x - pi^2)
[augmentation]
x = 0
codim = 0
depth = 1
mcm = true

[resolution]
d1 = [[x]]
d2 = [[x - pi^2]]
"""


def test_length_asks_for_at_least_that_many_steps(h3_path, capsys):
    """--length N builds at least N steps: at c = 1, --length 1 is below
    the d_2 that eta and psi read and the d_3 that serre reads, and each
    command prints what it prints at the default length."""
    for strategy in ("auto", "syzygy"):
        for command in ("eta", "psi", "serre"):
            argv = [command, h3_path, "--strategy", strategy, "--format", "structured"]
            default = run(capsys, argv)
            assert default[0] == 0
            assert run(capsys, argv + ["--length", "1"]) == default


def _run_recording_syzygy_steps(tmp_path, capsys, monkeypatch, command):
    """command on criterion 8's ring C(1, 1, 1) at search degree 2, its
    exit code and record, and the syzygy steps it built, in order."""
    built = []
    real = resolution._syzygy_resolution

    def recorded(A):
        step = real(A)
        return lambda res, t: built.append(t) or step(res, t)

    monkeypatch.setattr(resolution, "_syzygy_resolution", recorded)
    f = tmp_path / "c111.cm"
    f.write_text(C111_FILE)
    code, out = run(capsys, [command, str(f), "--degree-bound", "2",
                             "--format", "structured"])
    return code, json.loads(out), built


def test_eta_never_builds_past_d_c_plus_1(tmp_path, capsys, monkeypatch):
    """eta at codimension 3 reads d_4 at most, so on criterion 8's ring
    C(1, 1, 1) the syzygy resolution stops at F_4 (rank 192) and never
    builds F_5 (rank 576 at search degree 2)."""
    code, rec, built = _run_recording_syzygy_steps(tmp_path, capsys, monkeypatch, "eta")
    assert code == 0
    assert (rec["eta"], rec["certification"]) == ("(pi)", "bounded_search(degree 2)")
    assert built == [1, 2, 3, 4]


def test_analyze_never_builds_past_d_c_plus_1(tmp_path, capsys, monkeypatch):
    """analyze reads the Serre check's top rank off the kernel heads of
    d_4, so on C(1, 1, 1) it builds F_4 at most too, and its ranks line
    stops there; the Serre ranks are those of the whole complex."""
    code, rec, built = _run_recording_syzygy_steps(tmp_path, capsys, monkeypatch,
                                                   "analyze")
    assert code == 0
    assert rec["resolution"]["ranks"] == [1, 6, 21, 64, 192]
    assert rec["serre"] == {"expected": [1, 3, 3, 1, 0], "ranks": [1, 3, 3, 1, 0],
                            "verdict": "holds"}
    assert built == [1, 2, 3, 4]


def test_serre_never_builds_past_d_c_plus_1(tmp_path, capsys, monkeypatch):
    """serre reads its top rank off the kernel heads of d_4 too, so on
    C(1, 1, 1) it builds F_4 at most."""
    code, rec, built = _run_recording_syzygy_steps(tmp_path, capsys, monkeypatch, "serre")
    assert code == 0
    assert (rec["ranks"], rec["verdict"]) == ([1, 3, 3, 1, 0], "holds")
    assert built == [1, 2, 3, 4]


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [["eta", "FILE"], ["deform", "FILE", "--element", "y"],
                                     ["probe-fitting-question", "--count", "3"]])
def test_degree_bound_below_one_is_a_usage_error(tmp_path, capsys, command, bound):
    """A search with constant multipliers cannot find the linear syzygy
    (y, -x) that the README ring's resolution needs, so --degree-bound N
    with N < 1 is refused before any work: a usage error naming the flag."""
    f = tmp_path / "full.cm"
    f.write_text(FULL_FILE)
    argv = [str(f) if a == "FILE" else a for a in command] + ["--degree-bound", bound]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --degree-bound: must be at least 1" in captured.err


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command,flag", [(["analyze", "FILE"], "--length"),
                                          (["probe-fitting-question"], "--count")])
def test_length_and_count_below_one_are_usage_errors(tmp_path, capsys, command,
                                                     flag, value):
    """--length N and --count N take N >= 1, as --degree-bound does: a
    smaller N is refused before any work, with one usage line naming the
    flag, where it once reported ranks [1] or an empty, vacuously true
    search."""
    f = tmp_path / "full.cm"
    f.write_text(FULL_FILE)
    argv = [str(f) if a == "FILE" else a for a in command] + [flag, value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage:") == 1
    assert f"argument {flag}: must be at least 1, not {int(value)}" in captured.err


def test_degree_bound_one_finds_linear_syzygies(tmp_path, capsys):
    f = tmp_path / "full.cm"
    f.write_text(FULL_FILE)
    code, out = run(capsys, ["eta", str(f), "--degree-bound", "1",
                             "--format", "structured"])
    assert code == 0
    assert json.loads(out)["certification"] == "bounded_search(degree 1)"


CUSP_FILE = """
[dvr]
kind = p_adic
p = 5

[ring]
vars = x, y
relations = x^2 - y^3 - pi^2*x

[augmentation]
x = 0
y = 0
codim = 1
"""


@pytest.mark.parametrize("strategy", [[], ["--strategy", "syzygy"]])
def test_zero_eta_at_a_low_degree_bound_exits_3(tmp_path, capsys, strategy):
    """The cusp x^2 - y^3 - pi^2*x has cotangent rank 1 = codim, but the
    search at degree 1 finds no nonzero eta: a bound reached (exit 3) that
    names the degree and the flag to raise, not an input error."""
    f = tmp_path / "cusp.cm"
    f.write_text(CUSP_FILE)
    assert main(["eta", str(f), "--degree-bound", "1", *strategy]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the bounded search at degree 1 found eta = 0 where the cotangent "
        "rank is the declared codim 1; retry with a larger --degree-bound\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_one_error_line(a2_path, unbuffered):
    """A reader that is gone before the record is written (as in
    `congrmod eta FILE | true`) gets one error line and exit 2, with stdout
    buffered or not."""
    proc = subprocess.Popen([sys.executable, "-m", "congrmod", "eta", a2_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(PYTHONUNBUFFERED=unbuffered))
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_resolution_file_strategy(tmp_path, capsys):
    f = tmp_path / "res.cm"
    f.write_text(RESOLUTION_FILE)
    code, out = run(capsys, ["eta", str(f), "--strategy", "file",
                             "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    assert rec["eta"] == "(pi^2)"
    assert rec["certification"] == "user_supplied_verified"


def test_readme_file_resolution(tmp_path, capsys):
    """The README example's [resolution] matrices resolve O over its ring:
    eta, psi and serre print under --strategy file what they print under
    auto, and analyze accepts them."""
    f = tmp_path / "readme.cm"
    f.write_text(FULL_FILE)
    for command in ("eta", "psi", "serre"):
        auto, from_file = (run(capsys, [command, str(f), "--strategy", strategy,
                                    "--format", "structured"])
                       for strategy in ("auto", "file"))
        assert auto[0] == 0 and from_file == auto
    code, out = run(capsys, ["analyze", str(f), "--strategy", "file",
                             "--format", "structured"])
    assert code == 0
    assert json.loads(out)["resolution"]["ranks"] == [1, 2, 3, 5]


def test_analyze_regularity_reads_the_chosen_resolution(tmp_path, capsys,
                                                        monkeypatch):
    """analyze checks regularity on the resolution it was asked for: the
    user's matrices give the evidence their own label, and a syzygy run
    never builds the matrix-factorization resolution on the side."""
    f = tmp_path / "res.cm"
    f.write_text(RESOLUTION_FILE)
    code, out = run(capsys, ["analyze", str(f), "--strategy", "file",
                             "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    assert rec["resolution"]["certification"] == "user_supplied_verified"
    assert (rec["regularity"]["evidence"]["certification"]
            == "user_supplied_verified")

    def no_shamash(*args):
        raise AssertionError("matrix-factorization resolution was built")

    monkeypatch.setattr(resolution, "_shamash_resolution", no_shamash)
    code, out = run(capsys, ["analyze", str(f), "--strategy", "syzygy",
                             "--format", "structured"])
    assert code == 0
    assert json.loads(out)["resolution"]["strategy"] == "syzygy"


def test_module_section_and_eta_module(tmp_path, capsys):
    f = tmp_path / "mod.cm"
    f.write_text(A2_FILE + """
[module.N]
presentation = O
""")
    code, out = run(capsys, ["eta", str(f), "--module", "N",
                             "--format", "structured"])
    assert code == 0
    assert json.loads(out)["eta"] == "(1)"


def test_zero_generator_module(tmp_path, capsys):
    """A module with no generators is the zero module: eta (0) and psi 0 at
    codimension 0, as both codimension-0 oracles say, and it is computed in
    codimension 1 too."""
    from congrmod.congruence import eta_codim0_oracle, psi_direct_codim0
    from congrmod.probfile import load_problem
    zero = "\n[module.M]\npresentation = []\n"
    f = tmp_path / "zero.cm"
    f.write_text(A2_FILE + zero)
    problem = load_problem(f.read_text())
    M = problem.modules["M"]
    assert str(eta_codim0_oracle(problem.algebra, M)) == "(0)"
    assert str(psi_direct_codim0(problem.algebra, M)) == "0"
    for command in ("eta", "psi"):
        code, out = run(capsys, [command, str(f), "--module", "M",
                                 "--format", "structured"])
        assert code == 0
        assert json.loads(out)[command] == {"eta": "(0)", "psi": "0"}[command]
    code, out = run(capsys, ["analyze", str(f), "--format", "structured"])
    assert code == 0
    report = json.loads(out)["modules"]["M"]
    assert (report["eta"], report["psi"]) == ("(0)", "0")
    f.write_text(H3_FILE.replace("x*(x - pi^3)", "x*(x - pi)") + zero)
    code, out = run(capsys, ["analyze", str(f), "--format", "structured"])
    assert code == 0
    assert json.loads(out)["modules"]["M"]["psi"] == "0"


def test_power_series_file(tmp_path, capsys):
    f = tmp_path / "ps.cm"
    f.write_text("""
[dvr]
kind = power_series
q = 4
[ring]
vars = x
relations = x*(x - pi^3)
[augmentation]
x = 0
codim = 0
depth = 1
mcm = true
""")
    code, out = run(capsys, ["eta", str(f), "--format", "structured"])
    assert code == 0
    assert json.loads(out)["eta"] == "(pi^3)"


def test_matrix_presentation_module(tmp_path, capsys):
    f = tmp_path / "mat.cm"
    f.write_text(A2_FILE + """
[module.M2]
presentation = [[x, 0], [0, x - pi^2]]
""")
    code, out = run(capsys, ["psi", str(f), "--module", "M2",
                             "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    # A/(x) contributes a free rank; A/(x - pi^2) is p-torsion
    assert rec["mu"] == 1


def test_probe_runs(capsys):
    code, out = run(capsys, ["probe-fitting-question", "--count", "6",
                             "--seed", "3", "--format", "structured"])
    rec = json.loads(out)
    assert rec["count"] == 6
    assert code in (0, 1)
    assert rec["containment_holds_everywhere"] == (code == 0)


def test_analyze_regular_ring(tmp_path, capsys):
    f = tmp_path / "reg.cm"
    f.write_text("""
[dvr]
kind = p_adic
p = 5
[ring]
vars = x
relations =
[augmentation]
x = 0
codim = 1
""")
    code, out = run(capsys, ["analyze", str(f), "--format", "structured"])
    assert code == 0
    rec = json.loads(out)
    assert rec["regularity"]["regular_global"] is True
    assert rec["modules"]["ring"]["eta"] == "(1)"
    assert rec["modules"]["ring"]["psi"] == "0"
    assert rec["cotangent"]["phi"] == "0"


def test_node_is_not_regular_exit_2(tmp_path, capsys):
    """On the node O[x, y]/(x*y) in codimension 1 both rank tests fail: psi,
    analyze, and eta and the criterion of the module O name that and exit
    2, while the ring's eta is the zero ideal."""
    f = tmp_path / "node.cm"
    f.write_text("""
[dvr]
kind = p_adic
p = 5
[ring]
vars = x, y
relations = x*y
[augmentation]
x = 0
y = 0
codim = 1
""")
    for command in (["analyze"], ["psi"], ["eta", "--module", "O"],
                    ["criterion", "--mode", "defect0", "--module", "O"]):
        assert main([command[0], str(f)] + command[1:]) == 2
        err = capsys.readouterr().err
        assert "not regular" in err and "Internal" not in err
    code, out = run(capsys, ["eta", str(f), "--format", "structured"])
    assert code == 0 and json.loads(out)["eta"] == "(0)"


def test_subprocess_entrypoint(tmp_path):
    f = tmp_path / "a.cm"
    f.write_text(A2_FILE)
    proc = run_child(["eta", str(f), "--format", "structured"], seconds=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eta"] == "(pi^2)"


def test_internal_error_exit_2(a2_path, capsys, monkeypatch):
    """An unexpected exception in a handler is one line on stderr and exit
    2; KeyboardInterrupt still propagates."""
    import congrmod.cli as cli

    def boom(args):
        raise ValueError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_analyze", boom)
    assert main(["analyze", a2_path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: internal: ValueError: boom second line\n"

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_analyze", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", a2_path])


def test_engine_fault_is_an_internal_error(a2_path, capsys, monkeypatch):
    """An InternalInvariantViolation, KappaNotInjective included, is an
    engine fault, not an input error: one `error: internal:` line on
    stderr, and exit 2 as for any other internal error."""
    import congrmod.cli as cli

    def fault(args):
        raise KappaNotInjective("x")

    monkeypatch.setattr(cli, "cmd_analyze", fault)
    assert main(["analyze", a2_path]) == 2
    assert capsys.readouterr().err == "error: internal: KappaNotInjective: x\n"


def test_parser_built_once_per_process(a2_path, tmp_path, capsys, monkeypatch):
    """analyze, lattice, analyze in one process print what three separate
    processes print, with the same exit codes, from one parser."""
    import congrmod.cli as cli
    lattice = tmp_path / "lat.cm"
    lattice.write_text(LATTICE_FILE)
    argvs = [["analyze", a2_path, "--format", "structured"],
             ["lattice", str(lattice), "--format", "structured"],
             ["analyze", a2_path, "--format", "structured"]]
    separate = [run_child(argv, seconds=120) for argv in argvs]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for argv, proc in zip(argvs, separate):
            assert run(capsys, argv) == (proc.returncode, proc.stdout)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_lattice_singular_basis_exit_2(tmp_path, capsys):
    path = tmp_path / "singular.cm"
    path.write_text(LATTICE_FILE.replace("[[1, 0], [0, 1]]", "[[1, 1], [1, 1]]"))
    assert main(["lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: DegenerateLattice: lattice basis is singular over K\n"


@pytest.mark.parametrize("key, value, message", [
    ("basis", "[[1, 0, 1], [0, 1, 1]]", "lattice basis is not 2 x 2"),
    ("v1", "[[1], [0], [0]]", "v1 has 3 rows, expected 2"),
    ("v2", "[[1]]", "v2 has 1 rows, expected 2"),
    ("pairing", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "pairing matrix is not 2 x 2"),
], ids=["basis", "v1", "v2", "pairing"])
def test_lattice_wrong_shape_exit_2(tmp_path, capsys, key, value, message):
    """A basis that is not n x n, a subspace matrix without n rows or a
    pairing that is not n x n is an input error, not a congruence module."""
    entries = {"basis": "[[1, 0], [0, 1]]", "v1": "[[1], [0]]", "v2": "[[0], [1]]",
               key: value}
    path = tmp_path / "shape.cm"
    path.write_text("[dvr]\nkind = p_adic\np = 5\n\n[lattice]\n"
                    + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert main(["lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: DimensionMismatch: {message}\n"


def test_lattice_split_once_per_run(tmp_path, capsys, monkeypatch):
    """`congrmod lattice` splits the lattice once and reads the discriminant
    off that split, with the output of the two-split computation."""
    import congrmod.cli as cli
    import congrmod.lattice as lattice
    path = tmp_path / "lat.cm"
    path.write_text(LATTICE_FILE)
    calls = []
    original = lattice.split_and_congruence

    def counting(split):
        calls.append(split)
        return original(split)

    monkeypatch.setattr(lattice, "split_and_congruence", counting)
    monkeypatch.setattr(cli, "split_and_congruence", counting)
    code, out = run(capsys, ["lattice", str(path), "--format", "structured"])
    assert len(calls) == 1
    assert code == 0
    split = calls[0]
    rec = json.loads(out)
    assert rec["discriminant"] == str(lattice.pairing_discriminant(split))
    assert rec["congruence_module"] == "O/pi"


@pytest.mark.parametrize("argv", [
    ["deform", "h3", "--element", "y", "--strategy", "syzygy"],
    ["phi", "a2", "--length", "3"],
    ["lattice", "lat", "--seed", "1"],
], ids=["deform-strategy", "phi-length", "lattice-seed"])
def test_flags_a_command_does_not_read_exit_2(a2_path, h3_path, tmp_path, capsys,
                                              argv):
    """A flag that the command's handler would not read is a usage error,
    not a value silently ignored."""
    lattice = tmp_path / "lat.cm"
    lattice.write_text(LATTICE_FILE)
    files = {"a2": a2_path, "h3": h3_path, "lat": str(lattice)}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert "Traceback" not in err


def test_each_command_takes_the_flags_its_handler_reads():
    import argparse
    import congrmod.cli as cli
    resolved = {"--strategy", "--degree-bound", "--length"}
    expected = {
        "analyze": resolved,
        "eta": resolved | {"--module"},
        "psi": resolved | {"--module"},
        "phi": set(),
        "criterion": resolved | {"--module", "--mode"},
        "deform": {"--degree-bound", "--module", "--element"},
        "lattice": set(),
        "serre": resolved | {"--products"},
        "probe-fitting-question": {"--degree-bound", "--seed", "--count", "--p"},
    }
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    taken = {name: {s for a in p._actions for s in a.option_strings
                    if s.startswith("--")} - {"--help", "--format"}
             for name, p in sub.choices.items()}
    assert taken == expected


def test_probe_output_for_a_fixed_seed(capsys):
    """probe-fitting-question still reads --seed, and its record for a
    fixed seed is byte for byte what it was."""
    code, out = run(capsys, ["probe-fitting-question", "--count", "4", "--seed", "11",
                             "--format", "structured"])
    assert code == 0
    assert out == ('{"command": "probe-fitting-question", '
                   '"containment_holds_everywhere": true, "count": 4, "p": 5, '
                   '"seed": 11, "violations": []}\n')


def test_non_regular_congruence_module_is_not_an_engine_fault(tmp_path, capsys):
    """O[x]/(x^2) at x = 0 with codim 0: the cotangent module is O, of rank
    1 against codim 0, so the congruence module has a free part because the
    algebra is not regular at the augmentation, and analyze and psi say so
    (exit 2) rather than report an engine fault."""
    path = tmp_path / "nonreg.cm"
    path.write_text("[dvr]\nkind = p_adic\np = 5\n[ring]\nvars = x\n"
                    "relations = x^2\n[augmentation]\nx = 0\ncodim = 0\n")
    for command in ("analyze", "psi"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "NotRegularAtAugmentation" in err
        assert "InternalInvariantViolation" not in err


def test_non_regular_algebra_is_refused_before_any_ext_module(tmp_path, capsys,
                                                              monkeypatch):
    """a*b - c*d, b*c - d*e, a*e - pi*c^2 at codim 2 has cotangent free rank
    5: analyze and psi refuse it (exit 2, naming both ranks) from that rank
    alone, and never build an Ext module."""
    def no_ext(*args):
        raise AssertionError("an Ext module was built")

    monkeypatch.setattr(congruence, "ext_module", no_ext)
    path = tmp_path / "five.cm"
    path.write_text("[dvr]\nkind = p_adic\np = 5\n[ring]\nvars = a, b, c, d, e\n"
                    "relations = a*b - c*d, b*c - d*e, a*e - pi*c^2\n"
                    "[augmentation]\na = 0\nb = 0\nc = 0\nd = 0\ne = 0\ncodim = 2\n")
    for command in ("analyze", "psi"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "NotRegularAtAugmentation" in err
        assert "free rank 5 is above codim 2" in err
