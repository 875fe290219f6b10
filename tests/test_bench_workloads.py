"""The benchmark's own checks, run here on one seed-1 cycle of each workload.

An output that the benchmark would judge wrong fails this test first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    # workloads.py imports its sibling oracles.py as a top-level module
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_one_cycle_passes_the_benchmark_checks(workload, tmp_path):
    ops = workloads.build(workload, 1, tmp_path)
    assert ops
    for op in ops:
        assert op.check(op.run()) == [], op.name
