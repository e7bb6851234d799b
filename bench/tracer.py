"""Spans around each layer of `sullivan`, installed from outside the program.

The tracer wraps each layer's public callables in every `sullivan` module
namespace that binds them (and methods on their classes), and restores the
originals afterwards.  A span records its name, start, end, parent and job.
Spans stay in memory until the run ends.

Structural counts are taken from the arguments and results of those calls
after the span closes.  Their cost is subtracted from the tracer's clock, so
counting never adds time to any span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Span names start with their layer.
TARGETS = (
    ("cli", "canonical_json", "cli.serialize"),
    ("modelfile", "parse", "modelfile.parse"),
    ("modelfile", "parse_path", "modelfile.parse"),
    ("modelfile", "emit", "modelfile.emit"),
    ("algebra", "FreeGradedAlgebra.basis_in_degree", "algebra.basis"),
    ("calculus", "Derivation.__call__", "calculus.d"),
    ("calculus", "Morphism.__call__", "calculus.morphism"),
    ("calculus", "loop_model", "calculus.construct"),
    ("calculus", "tensor_cdga", "calculus.construct"),
    ("calculus", "quotient_by_generators", "calculus.construct"),
    ("calculus", "killed_residues", "calculus.construct"),
    ("calculus", "koszul_model", "calculus.construct"),
    ("calculus", "rename_generators", "calculus.construct"),
    ("calculus", "check_differential", "calculus.check"),
    ("calculus", "check_chain_map", "calculus.check"),
    ("calculus", "minimality_check", "calculus.check"),
    ("homology", "assemble_window", "homology.assemble"),
    ("homology", "betti_of_window", "homology.eliminate"),
    ("homology", "betti", "homology.betti"),
    ("homology", "quasi_iso_check", "homology.quasi_iso"),
    ("homology", "quasi_iso_via_indecomposables", "homology.quasi_iso"),
    ("homology", "h_algebra_generator_counts", "homology.gen_counts"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel"),
    ("linalg", "solve_particular", "linalg.solve"),
    ("models", "recipe_from_args", "models.recipe"),
    ("models", "build", "models.build"),
    ("models", "multiplication_model", "models.mult_model"),
    ("models", "vps_witnesses", "models.witness"),
    ("models", "vps_witnesses_for_model", "models.witness"),
    ("series", "parse_rational", "series.parse"),
    ("series", "expand_rational", "series.expand"),
    ("series", "series_from_report", "series.from_report"),
)
ROOT = "cli.self"  # one span per job around `sullivan.cli.main(argv)`
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))
COUNTED_CALLS = ("calculus.d", "calculus.morphism", "linalg.rank", "linalg.rref")

_PRIME = 2**61 - 1


def rank_mod_p(rows) -> int:
    """Rank of a rational matrix modulo a large prime (equal to the rational
    rank unless the prime divides a denominator or a maximal minor)."""
    m = [[c.numerator * pow(c.denominator, -1, _PRIME) % _PRIME for c in row]
         for row in rows if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, _PRIME)
        top = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % _PRIME
            if f:
                m[i] = [(a - f * b) % _PRIME for a, b in zip(m[i], top)]
        rank += 1
    return rank


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, job]
        self.stack: list[int] = []
        self.excluded_ns = 0
        self.job: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self._bases_seen: dict[tuple[int, int], object] = {}

    def now(self) -> int:
        return time.perf_counter_ns() - self.excluded_ns

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.now(), 0, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = self.now()
        self.stack.pop()

    def start_job(self, job: str) -> None:
        self.job = job
        self._bases_seen.clear()

    def count(self, counter, args, kwargs, result) -> None:
        start = time.perf_counter_ns()
        counter(self, args, kwargs, result)
        self.excluded_ns += time.perf_counter_ns() - start

    def parent_layer(self) -> str | None:
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else None


# -- structural counts, from the arguments and results of layer calls ------------


def _count_basis(t: Tracer, args, kwargs, result) -> None:
    algebra = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    key = (id(algebra), n)
    if key not in t._bases_seen:  # first computation of this degree
        t._bases_seen[key] = algebra  # holds the algebra so its id stays unique
        t.counts["algebra.basis_monomials"] += len(result)
        t.counts["algebra.basis_dim_max"] = max(t.counts["algebra.basis_dim_max"], len(result))


def _count_window(t: Tracer, args, kwargs, window) -> None:
    for n in range(window.max_degree + 1):
        t.counts["homology.matrix_entries"] += window.dim(n + 1) * window.dim(n)
        t.counts["homology.matrix_nnz"] += sum(1 for row in window.matrix(n) for c in row if c)


def _count_elimination(t: Tracer, args, kwargs, report) -> None:
    window = args[0] if args else kwargs["window"]
    for n in range(window.max_degree + 1):
        t.counts["homology.kernel_tests"] += window.dim(n) - rank_mod_p(window.matrix(n))
    t.counts["homology.classes"] += sum(report.betti)


def _count_linalg_input(t: Tracer, args, kwargs, result) -> None:
    if t.parent_layer() == "linalg":
        return  # counted at the outermost linalg call
    rows = args[0] if args else kwargs["rows"]
    t.counts["linalg.rows_in"] += len(rows)
    t.counts["linalg.cells_in"] += sum(len(row) for row in rows)


COUNTERS = {
    "algebra.basis": _count_basis,
    "homology.assemble": _count_window,
    "homology.eliminate": _count_elimination,
    "linalg.rank": _count_linalg_input,
    "linalg.rref": _count_linalg_input,
    "linalg.kernel": _count_linalg_input,
    "linalg.solve": _count_linalg_input,
}


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            tracer.count(counter, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target that exists; returns (owner, attribute, original) to undo."""
    modules = [m for key, m in sys.modules.items() if key == "sullivan" or key.startswith("sullivan.")]
    undo = []
    for module_name, path, span in TARGETS:
        module = sys.modules.get(f"sullivan.{module_name}")
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attribute, None) if owner is not None else None
        if original is None:
            continue
        wrapped = _wrap(tracer, span, original)
        if owner_name:
            setattr(owner, attribute, wrapped)
            undo.append((owner, attribute, original))
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    undo.append((m, key, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the jobs whose layers' self
    times do not sum to the job's traced wall time."""
    own = self_times(tracer.spans)
    by_name: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    by_layer: dict[str, int] = defaultdict(int)
    job_self: dict[str, int] = defaultdict(int)
    job_wall: dict[str, int] = defaultdict(int)
    for (name, start, end, parent, job), ns in zip(tracer.spans, own):
        by_name[name] += ns
        calls[name] += 1
        by_layer[name.split(".")[0]] += ns
        job_self[job] += ns
        if parent < 0:
            job_wall[job] += end - start
    metrics = {f"{name}_s": by_name[name] / 1e9 for name in SPAN_NAMES}
    metrics.update({f"{layer}.layer_s": by_layer[layer] / 1e9 for layer in LAYERS})
    metrics.update({f"{name}_calls": calls[name] for name in COUNTED_CALLS})
    metrics["trace.wall_s"] = sum(job_wall.values()) / 1e9
    counts = tracer.counts
    for key in ("algebra.basis_monomials", "algebra.basis_dim_max", "homology.matrix_entries",
                "homology.matrix_nnz", "linalg.rows_in", "linalg.cells_in"):
        metrics[key] = counts[key]
    tests = counts["homology.kernel_tests"]
    metrics["homology.accept_ratio"] = counts["homology.classes"] / tests if tests else 0.0
    unbalanced = [job for job in job_wall if job_self[job] != job_wall[job]]
    return metrics, unbalanced


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, job in tracer.spans:
            handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")
