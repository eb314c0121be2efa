"""Fuzzed front end: mutated copies of the README's full example problem
file, run through the CLI in a child interpreter, each end in a documented
exit code (0 computed, 1 verdict fails, 2 input error, 3 cap exceeded) with
no traceback and no internal error on stderr."""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python

# The full example problem file of the README's CLI section.
FULL_FILE = re.search(r"```\n(\[dvr\]\n.*?)```",
                      (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                      re.S).group(1)

COMMANDS = (["phi"], ["lattice"], ["eta"], ["criterion", "--mode", "iso"])

# Tokens spliced into lines: single digits only, so no exponent grows past
# two digits.
FRAGMENTS = ("", " ", "[", "]", "[[", "]]", "(", ")", "=", ",", ":", "#", "*",
             "+", "-", "^", "/", "0", "1", "2", "7", "pi", "x", "y", "z", "t",
             "x*y", "pi^2", "true", "maybe", "codim", "vars", "ci", "depth",
             "dim", "ring", "O", "p_adic", "power_series", "q", "[[x]]", "[]")
SECTIONS = ("dvr", "ring", "augmentation", "module.M", "module.N", "module.",
            "module.ring", "module.O", "lattice", "resolution", "surjection",
            "rings", "")


@st.composite
def mutated_files(draw):
    """The full example with one to three mutations: a line deleted, a line
    duplicated, a token of a line replaced by a fragment, or a section
    repeated at the end or renamed."""
    lines = FULL_FILE.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "splice", "section")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "splice":
            tokens = re.split(r"(\s+|[][,=:#()*+^/-])", lines[i])
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(FRAGMENTS))
            lines[i] = "".join(tokens)
        else:
            headers = [k for k, line in enumerate(lines) if line.startswith("[")]
            if not headers:
                continue
            k = draw(st.sampled_from(headers))
            if draw(st.booleans()):
                end = next((h for h in headers if h > k), len(lines))
                lines.extend(lines[k:end])
            else:
                lines[k] = f"[{draw(st.sampled_from(SECTIONS))}]"
    return "\n".join(lines) + "\n"


def run_batch(batch_path):
    """Child side: run every command of COMMANDS on every text in the JSON
    list at batch_path, and print one JSON list of [exit code, stderr] per
    text and command.  An exception that escapes main ends the child with a
    traceback."""
    from congrmod.cli import main
    texts = json.loads(Path(batch_path).read_text())
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, text in enumerate(texts):
            path = Path(tmp) / f"f{n}.cm"
            path.write_text(text)
            for command in COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main([command[0], str(path), *command[1:]])
                results.append([code, err.getvalue()])
    json.dump(results, sys.stdout)


@settings(max_examples=5, deadline=None)
@given(texts=st.lists(mutated_files(), min_size=60, max_size=60))
def test_mutated_problem_files_end_in_documented_exit_codes(tmp_path_factory, texts):
    texts = [FULL_FILE, *texts]  # the file itself computes under every command
    batch = tmp_path_factory.mktemp("fuzz") / "batch.json"
    batch.write_text(json.dumps(texts))
    proc = run_python(["-c", "import sys, test_fuzz_front_end as t; "
                             "t.run_batch(sys.argv[1])", str(batch)], seconds=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    results = json.loads(proc.stdout)
    assert [code for code, _ in results[:len(COMMANDS)]] == [0] * len(COMMANDS)
    for k, (code, err) in enumerate(results):
        text, command = texts[k // len(COMMANDS)], COMMANDS[k % len(COMMANDS)]
        assert code in (0, 1, 2, 3), (command, text, err)
        assert "Traceback" not in err and "error: internal:" not in err, \
            (command, text, err)
