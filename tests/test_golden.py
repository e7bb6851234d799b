"""Every benchmark job reproduces its golden report byte for byte, and the
bench's tracer finds the names it wraps and puts them back.

Each job of `bench/workloads.py` runs in-process through `sullivan.cli.main`
on the literal model texts of that file, and its stdout must equal
`bench/golden/<workload>/<job>.json`.  Run again without `--json`, its text
stdout must equal `tests/expected/text/<workload>/<job>.txt`, with the same
exit code.  The tests only read `bench/`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sullivan.calculus import Derivation, Morphism
from sullivan.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
TEXT = Path(__file__).resolve().parent / "expected" / "text"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_bench("workloads")
JOBS = [(w.name, job) for w in WORKLOADS.WORKLOADS.values() for job in w.jobs]
FORMS = [(w, job, form) for form in ("json", "text") for w, job in JOBS]
FORM_IDS = [f"{w}/{job.id}" + ("/text" if form == "text" else "") for w, job, form in FORMS]


def _argv(job, tmp_path):
    """The job's arguments, each {model} placeholder replaced by a file of that model."""
    paths = {}
    for name, text in WORKLOADS.MODELS.items():
        path = tmp_path / f"{name}.model"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in job.argv]


@pytest.mark.parametrize("workload, job, form", FORMS, ids=FORM_IDS)
def test_job_reproduces_golden_report(workload, job, form, tmp_path, capsys):
    argv = _argv(job, tmp_path)
    if form == "text":
        argv.remove("--json")
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == job.exit_code
    if form == "json":
        golden = BENCH / "golden" / workload / f"{job.id}.json"
    else:
        golden = TEXT / workload / f"{job.id}.txt"
    assert stdout.encode("utf-8") == golden.read_bytes()


# Tracer targets whose code was deleted before the tracer was pointed elsewhere;
# each is a FOUND line of CHANGES.md.  Any other missing name is a rename that
# would silently zero a per-layer metric.
_DEAD_TARGETS = {"linalg.rref", "linalg.kernel_basis", "linalg.solve_particular",
                 "series.series_from_report"}


def test_tracer_targets_exist_but_for_the_known_dead_ones():
    missing = set()
    for module_name, path, _ in _load_bench("tracer").TARGETS:
        owner = importlib.import_module(f"sullivan.{module_name}")
        for attribute in path.split("."):
            owner = getattr(owner, attribute, None)
        if owner is None:
            missing.add(f"{module_name}.{path}")
    assert missing <= _DEAD_TARGETS


def test_tracer_records_both_maps_and_restores_them(tmp_path, capsys):
    tracer = _load_bench("tracer")
    for module_name in {module_name for module_name, _, _ in tracer.TARGETS}:
        importlib.import_module(f"sullivan.{module_name}")  # install wraps loaded modules only
    call = Derivation.__call__
    assert Morphism.__call__ is call  # one __call__, inherited by both maps
    (job,) = WORKLOADS.WORKLOADS["mult-dense"].jobs
    spans = tracer.Tracer()
    undo = tracer.install(spans)
    try:
        code = main(_argv(job, tmp_path))
    finally:
        tracer.uninstall(undo)
    capsys.readouterr()
    assert code == job.exit_code
    assert {"calculus.d", "calculus.morphism"} <= {span[0] for span in spans.spans}
    assert Derivation.__call__ is call and Morphism.__call__ is call
