import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

# tiny versions of every workload: same shapes and schedules, few decoders
TINY = {
    "steady-simulcrypt": {"epochs": 12, "per_system": 3},
    "churn-512": {"epochs": 9, "per_system": 4},
    "rekey-attack": {"epochs": 44, "per_system": 8},
}


@pytest.fixture(params=sorted(TINY))
def tiny(request) -> workloads.Workload:
    return workloads.generate(request.param, 5, **TINY[request.param])
