"""The benchmark's seeded workloads.

Every input comes from the benchmark's own generators, never from the
program's (`cli.random_grammar_algebra`), so a change to the program cannot
change a workload.  Within a run every problem is distinct; a process-wide
memo therefore gains nothing from repeats.

Problems come in blocks of a fixed composition (one problem per entry of a
fixed list of shapes), and a run always completes whole blocks.  The seed
draws primes, exponents and branches and the order inside a block; the
fixed composition keeps the mix of easy and hard problems the same from seed
to seed, which is what keeps the throughput and latency percentiles steady
across runs.

All calls go through the `congrmod` package attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import congrmod
import congrmod.cli
import congrmod.probfile
from congrmod.config import EngineConfig

# A draw that repeats an earlier problem is redrawn at most this often; a
# shape whose space is used up ends the run's pool of blocks.
MAX_DRAWS = 200


def _primes(limit):
    return [n for n in range(2, limit) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


class _Distinct:
    """Draws problems until each key is new; counts attempts and keys."""

    def __init__(self):
        self.seen = set()
        self.attempted = 0

    def draw(self, make):
        for _ in range(MAX_DRAWS):
            self.attempted += 1
            key, problem = make()
            if key not in self.seen:
                self.seen.add(key)
                return problem
        return None

    def blocks(self, make_block):
        while True:
            block = make_block()
            if block is None:
                return
            yield block


class Workload:
    """name, base (kind, param) of the Dvr built in set-up, blocks(rng),
    solve(problem) [timed], render(problem, output) -> canonical text,
    check(problem, output) -> error or None."""

    name = ""
    base = ("p_adic", 3)
    trace_blocks = 1
    tail_percentile = 100
    size = ""

    def __init__(self):
        self.inputs = _Distinct()


# ---------------------------------------------------------------------------
# analyze-finite-*: the user-facing report on module-finite codim-0 algebras

# A shape is the kind of each variable's relations (A: x(x - pi^k); B:
# pi^a x and x(x - pi^m)) and the mixed monomials x_i x_j.  Every variable is
# cut out, so the algebra is module-finite over the base and its codimension
# is zero (C_O(0)).
A1, B1 = ("A", ()), ("B", ())
AA, AB, BB = ("AA", ()), ("AB", ()), ("BB", ())
AA1, AB1, BB1 = ("AA", ((0, 1),)), ("AB", ((0, 1),)), ("BB", ((0, 1),))
ALL3 = ((0, 1), (0, 2), (1, 2))
AAA3, AAB3, ABB3, BBB3 = (("AAA", ALL3), ("AAB", ALL3), ("ABB", ALL3),
                          ("BBB", ALL3))
AAA2, AAA1, AAA0 = ("AAA", ((0, 1), (1, 2))), ("AAA", ((0, 1),)), ("AAA", ())

# One block of each analyze workload.  The shapes at the block's median and
# at its tail percentile are drawn several times over, and cost about the
# same whatever their exponents, so neither latency figure jumps between two
# neighbouring shapes of different cost from run to run.  Over Z_(p) the
# median falls on AAB3 and the 90th percentile inside {BB, AAA2, ABB3, BBB3}.
# Over F_4[[t]] AB, BB and the sparser three-variable shapes take 0.5-4 s
# each and vary widely, so that block keeps the cheaper shapes; its median
# falls on AA and its 88th percentile on AAB3.
PADIC_BLOCK = (A1, B1, AA, AB, BB, AA1, AB1, BB1, AAA3, ABB3, BBB3,
               AAA2, AAA1, AAA0) + (AAB3,) * 5
PSERIES_BLOCK = (A1, B1, AA1, AAA3, AB1, BB1) + (AA,) * 3 + (AAB3,) * 3


def analyze_text(dvr_lines, kinds, pairs, rng):
    """A problem file for one shape; only x1 may take the branch x1 -> pi^k,
    so every mixed monomial vanishes at the augmentation."""
    names = [f"x{i + 1}" for i in range(len(kinds))]
    relations = []
    aug = ["0"] * len(kinds)
    for i, (v, kind) in enumerate(zip(names, kinds)):
        if kind == "A":
            k = rng.randint(1, 6)
            relations.append(f"{v}*({v} - pi^{k})")
            if i == 0 and rng.random() < 0.5:
                aug[0] = f"pi^{k}"
        else:
            relations.append(f"pi^{rng.randint(1, 4)}*{v}")
            relations.append(f"{v}*({v} - pi^{rng.randint(1, 4)})")
    relations += [f"{names[i]}*{names[j]}" for i, j in pairs]
    lines = ["[dvr]", *dvr_lines, "", "[ring]", f"vars = {', '.join(names)}",
             f"relations = {', '.join(relations)}", "", "[augmentation]"]
    lines += [f"{v} = {a}" for v, a in zip(names, aug)]
    lines += ["codim = 0", ""]
    return "\n".join(lines)


class AnalyzeFinite(Workload):
    def __init__(self, kind, workdir, tiny=False):
        super().__init__()
        self.kind = kind
        self.workdir = Path(workdir)
        self.tiny = tiny
        if kind == "p_adic":
            self.name = "analyze-finite-padic"
            self.primes = _primes(32)
            self.base = ("p_adic", 3)
            self.shapes = PADIC_BLOCK
            self.tail_percentile = 90
            self.trace_blocks = 2
        else:
            self.name = "analyze-finite-pseries"
            self.base = ("power_series", 4)
            self.shapes = PSERIES_BLOCK
            self.tail_percentile = 88
            self.trace_blocks = 1
        self.size = (f"blocks of {len(self.shapes)} module-finite codim-0 algebras "
                     f"in 1-3 variables over {self._base_name()}")
        self._count = 0

    def _base_name(self):
        if self.kind == "p_adic":
            return f"Z_(p), p in {self.primes[0]}..{self.primes[-1]}"
        return "F_4[[t]]"

    def _dvr_lines(self, rng):
        if self.kind == "p_adic":
            return ["kind = p_adic", f"p = {rng.choice(self.primes)}"]
        return ["kind = power_series", "q = 4"]

    def blocks(self, rng):
        def make_block():
            shapes = list(self.shapes[:3] if self.tiny else self.shapes)
            rng.shuffle(shapes)
            block = []
            for kinds, pairs in shapes:
                text = self.inputs.draw(lambda: self._make(rng, kinds, pairs))
                if text is None:
                    return None
                path = self.workdir / f"p{self._count}.cm"
                self._count += 1
                path.write_text(text, encoding="utf-8")
                block.append({"path": str(path), "text": text})
            return block
        return self.inputs.blocks(make_block)

    def _make(self, rng, kinds, pairs):
        text = analyze_text(self._dvr_lines(rng), kinds, pairs, rng)
        return text, text

    def solve(self, problem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = congrmod.cli.main(["analyze", problem["path"],
                                      "--format", "structured"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def render(self, problem, output):
        return output["stdout"]

    def check(self, problem, output):
        if output["code"] not in (0, 1):
            return f"exit code {output['code']}: {output['stderr'].strip()}"
        if "Traceback" in output["stderr"]:
            return "traceback on stderr"
        ring = json.loads(output["stdout"])["modules"]["ring"]
        A = congrmod.probfile.load_problem(problem["text"]).algebra
        eta = str(congrmod.eta_codim0_oracle(A))
        psi = str(congrmod.psi_direct_codim0(A))
        if (ring["eta"], ring["psi"]) != (eta, psi):
            return (f"report eta/psi {ring['eta']}, {ring['psi']} but the "
                    f"codim-0 oracles give {eta}, {psi}")
        return None


# ---------------------------------------------------------------------------
# hypersurface-strategies: x0*(x0 - pi^k), two resolution strategies

STRATEGIES = ("matrix_factorization", "syzygy")


def _ideal_text(k):
    return "(pi)" if k == 1 else f"(pi^{k})"


def _module_text(k):
    return "O/pi" if k == 1 else f"O/pi^{k}"


class HypersurfaceStrategies(Workload):
    name = "hypersurface-strategies"
    trace_blocks = 2
    tail_percentile = 83  # near the middle of the n = 3 third of each block
    primes = _primes(100)
    size = ("blocks of 6 hypersurfaces x0*(x0 - pi^k), n = 1, 2, 3 variables "
            "times both branches, p < 100, k <= 4, each resolved twice")

    def __init__(self, tiny=False):
        super().__init__()
        self.tiny = tiny

    def blocks(self, rng):
        def make_block():
            cells = [(n, b) for n in ((1,) if self.tiny else (1, 2, 3))
                     for b in (0, 1)]
            rng.shuffle(cells)
            block = []
            for n, branch in cells:
                problem = self.inputs.draw(lambda: self._make(rng, n, branch))
                if problem is None:
                    return None
                block.append(problem)
            return block
        return self.inputs.blocks(make_block)

    def _make(self, rng, n, branch):
        p, k = rng.choice(self.primes), rng.randint(1, 4)
        return (p, n, k, branch), {"p": p, "n": n, "k": k, "branch": branch}

    def solve(self, problem):
        p, n, k = problem["p"], problem["n"], problem["k"]
        O = congrmod.Dvr.p_adic(p)
        R = congrmod.PolyRing(O, tuple(f"x{j}" for j in range(n)))
        f = R.parse(f"x0*(x0 - pi^{k})")
        aug = [O.pi_pow(k) if problem["branch"] else O.zero] + [O.zero] * (n - 1)
        A = congrmod.build_algebra(R, [f], aug, n - 1, name="hyp")
        out = {}
        for strategy in STRATEGIES:
            res = congrmod.resolve_O(A, strategy=strategy)
            eta, c1 = congrmod.eta_raw(A, None, A.codim, res)
            psi, c2, mu = congrmod.psi_raw(A, None, A.codim, res)
            out[strategy] = {"eta": str(eta), "psi": str(psi), "mu": mu,
                             "certification": c1.merge(c2).label(),
                             "ranks": list(res.ranks)}
        return out

    def render(self, problem, output):
        return json.dumps({"problem": problem, "output": output}, sort_keys=True)

    def check(self, problem, output):
        k = problem["k"]
        want = (_ideal_text(k), _module_text(k))
        for strategy in STRATEGIES:
            got = output[strategy]
            if (got["eta"], got["psi"]) != want:
                return f"{strategy}: eta/psi {got['eta']}, {got['psi']}, want {want}"
        a, b = (output[s] for s in STRATEGIES)
        if (a["eta"], a["psi"], a["mu"]) != (b["eta"], b["psi"], b["mu"]):
            return "the two strategies disagree"
        return None


# ---------------------------------------------------------------------------
# determinantal-resolution: syzygy resolution of criterion 8's ring C(l,m,n)

def ring_C(p, l, m, n):
    """The determinantal ring of criterion 8 at search degree 2."""
    O = congrmod.Dvr.p_adic(p)
    R = congrmod.PolyRing(O, ("a", "b", "c", "al", "be", "ga"))
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
    return congrmod.build_algebra(R, rels, aug, 3,
                                  config=EngineConfig(search_degree=2), name="C")


class DeterminantalResolution(Workload):
    name = "determinantal-resolution"
    trace_blocks = 1
    ranks = [1, 6, 21, 64]

    def __init__(self, tiny=False):
        super().__init__()
        # the tiny self-check stops one step early (ranks 1/6/21)
        self.length = 2 if tiny else 3
        self.size = (f"one C(l, m, n) per run, p in {{3, 5, 7}}, l, m, n in "
                     f"{{1, 2}}, syzygy resolution to length {self.length}")

    def blocks(self, rng):
        """One block of one problem: a problem takes about as long as a whole
        run of the other workloads, so a run is exactly one problem."""
        params = (rng.choice((3, 5, 7)),) + tuple(rng.choice((1, 2)) for _ in "lmn")
        yield [self.inputs.draw(lambda: (params, dict(zip("plmn", params))))]

    def solve(self, problem):
        C = ring_C(problem["p"], problem["l"], problem["m"], problem["n"])
        return congrmod.resolve_O(C, length=self.length, strategy="syzygy")

    def render(self, problem, res):
        return json.dumps({
            "problem": problem,
            "ranks": list(res.ranks),
            "certification": res.cert.label(),
            "differentials": [[[str(q) for q in col] for col in d]
                              for d in res.diffs],
        }, sort_keys=True)

    def check(self, problem, res):
        want = self.ranks[:self.length + 1]
        if list(res.ranks) != want:
            return f"ranks {list(res.ranks)}, want {want}"
        if res.cert.label() != "bounded_search(degree 2)":
            return f"certification {res.cert.label()}"
        return None


NAMES = ("analyze-finite-padic", "analyze-finite-pseries",
         "hypersurface-strategies", "determinantal-resolution")


def make(name, workdir, tiny=False):
    if name == "analyze-finite-padic":
        return AnalyzeFinite("p_adic", workdir, tiny)
    if name == "analyze-finite-pseries":
        return AnalyzeFinite("power_series", workdir, tiny)
    if name == "hypersurface-strategies":
        return HypersurfaceStrategies(tiny)
    if name == "determinantal-resolution":
        return DeterminantalResolution(tiny)
    raise ValueError(f"unknown workload {name!r}")
