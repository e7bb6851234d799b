"""Every benchmark job reproduces its golden report byte for byte.

Each job of `bench/workloads.py` runs in-process through `sullivan.cli.main`
on the literal model texts of that file, and its stdout must equal
`bench/golden/<workload>/<job>.json`.  The test only reads `bench/`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sullivan.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
JOBS = [(w.name, job) for w in WORKLOADS.WORKLOADS.values() for job in w.jobs]


@pytest.mark.parametrize("workload, job", JOBS, ids=[f"{w}/{job.id}" for w, job in JOBS])
def test_job_reproduces_golden_report(workload, job, tmp_path, capsys):
    paths = {}
    for name, text in WORKLOADS.MODELS.items():
        path = tmp_path / f"{name}.model"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    argv = [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in job.argv]
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == job.exit_code
    assert stdout.encode("utf-8") == (BENCH / "golden" / workload / f"{job.id}.json").read_bytes()
