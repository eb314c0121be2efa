"""Golden outputs of the benchmark workloads: the first block of each at
seed 7 is solved, checked and rendered, and hashed as `bench/run.py` hashes
a run's first block.  A faster path must leave these bytes unchanged."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/ is put on the path above)

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

DIGESTS = {
    "analyze-finite-padic":
        "d76c96ed31976719add40c74e8ed217aabe108b452f68e19762c555a432529dd",
    "analyze-finite-pseries":
        "bb26538b6e6a6996d96d5a94cf2effafb6c9a2fddd910ed3c11126c1ac60fc5c",
    "hypersurface-strategies":
        "d1f62891d8f17fb8b22e5e0a3996a9aae0c29646b7d1002810750fc57f835682",
    "determinantal-resolution":
        "8628917cbbf1d65c1d6e7e56694d0a965b0159b4b47d38ae6e7bf7f90064d7ec",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_first_block_digest(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    block = next(iter(workload.blocks(random.Random(7))))
    results = [[problem, *bench_run.run_one(workload, problem), 0] for problem in block]
    assert bench_run.check_all(workload, results) == []
    assert bench_run.digest(workload, results) == DIGESTS[name]
