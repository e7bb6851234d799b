"""Workload definitions, literal input models and independent oracles.

Every input model is literal text kept here; nothing is produced by the
program's own `recipe` or `loop` commands, so a change to emission cannot
alter another workload's input.  The oracles use only this file's integer
arithmetic and never import `sullivan`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

# Each text is the program's canonical emission of the model (generators
# sorted by degree then name), so its SHA-256 is the expected `model_hash`.
MODELS = {
    "s2": "generator v 2\ngenerator w 3\nd w = v^2\n",
    "s2s3": "generator v_1 2\ngenerator v_2 3\ngenerator w_1 3\nd w_1 = v_1^2\n",
    "s3s3": "generator v_1 3\ngenerator v_2 3\n",
    "s3s3_loop": "generator s_v_1 2\ngenerator s_v_2 2\ngenerator v_1 3\ngenerator v_2 3\n",
    "cp2": "generator v 2\ngenerator w 5\nd w = v^3\n",
    "cp3cp2s2": (
        "generator v_1 2\ngenerator v_2 2\ngenerator v_3 2\ngenerator w_3 3\n"
        "generator w_2 5\ngenerator w_1 7\n"
        "d w_3 = v_3^2\nd w_2 = v_2^3\nd w_1 = v_1^4\n"
    ),
    "x2": "generator x 2\n",
}

S3S3_RATIONAL = "(1+z^3)^2/(1-z^2)^2"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expand_over_one_minus_z2_squared(numerator: list[int], max_degree: int) -> list[int]:
    """Coefficients 0..max_degree of numerator / (1 - z^2)^2, by long division."""
    denominator = _poly_mul([1, 0, -1], [1, 0, -1])
    out: list[int] = []
    for n in range(max_degree + 1):
        c = numerator[n] if n < len(numerator) else 0
        c -= sum(denominator[k] * out[n - k] for k in range(1, min(n, len(denominator) - 1) + 1))
        out.append(c)  # the denominator's constant term is 1
    return out


def s3s3_loop_betti(max_degree: int) -> list[int]:
    """Betti numbers of the free loop space of S^3 x S^3: (1+z^3)^2/(1-z^2)^2."""
    one_plus_z3 = [1, 0, 0, 1]
    return expand_over_one_minus_z2_squared(_poly_mul(one_plus_z3, one_plus_z3), max_degree)


def s2s3_loop_betti(max_degree: int) -> list[int]:
    """Kunneth of LS^2 and LS^3: b_0 = 1 and b_n = n for n >= 1."""
    return [1] + list(range(1, max_degree + 1))


def truncated_betti(degrees: set[int], max_degree: int) -> list[int]:
    """Betti numbers 0..max_degree of a space with one class in each given degree."""
    return [1 if n in degrees else 0 for n in range(max_degree + 1)]


def model_hash(name: str) -> str:
    return hashlib.sha256(MODELS[name].encode("utf-8")).hexdigest()


Oracle = Callable[[dict], list[str]]


def expect(**fields) -> Oracle:
    """Oracle requiring each named report field to equal the given value.

    A `verdicts` value lists verdict names that must all be true; `model`
    names the input whose hash must be the report's `model_hash`.
    """

    def check(report: dict) -> list[str]:
        problems = []
        for key, want in fields.items():
            if key == "verdicts":
                got = report.get("verdicts") or {}
                bad = [v for v in want if got.get(v) is not True]
                if bad:
                    problems.append(f"verdicts not true: {bad}")
            elif key == "model":
                if report.get("model_hash") != model_hash(want):
                    problems.append(f"model_hash is not the SHA-256 of model {want!r}")
            elif report.get(key) != want:
                problems.append(f"{key} = {str(report.get(key))[:80]}, expected {str(want)[:80]}")
        return problems

    return check


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `{name}` in argv stands for the path of MODELS[name]."""

    id: str
    argv: tuple[str, ...]
    oracle: Oracle
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant_layer: str
    setup_model: str
    jobs: tuple[Job, ...]
    # Speed reference for the jobs' times (see speed.py): "probe" for long
    # compute jobs, "start" for jobs dominated by interpreter start.
    reference: str = "probe"


def _loop_job(job_id: str, model: str, max_degree: int, betti: list[int]) -> Job:
    return Job(job_id, ("loop-betti", "{%s}" % model, "--max", str(max_degree), "--json"),
               expect(command="loop-betti", betti=betti, window=max_degree, model=model))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "loop-elim",
            "loop-betti on S2xS3 and S3xS3: many small exact rank calls on sparse 0/+-1 "
            "matrices, with opposite kernel acceptance ratios",
            "linalg",
            "s2s3",
            (
                _loop_job("s2s3-loop-14", "s2s3", 14, s2s3_loop_betti(14)),
                _loop_job("s3s3-loop-24", "s3s3", 24, s3s3_loop_betti(24)),
            ),
        ),
        Workload(
            "assemble-s2",
            "betti on S2 to degree 1000: matrix assembly by applying d to every basis "
            "monomial, with elimination of size at most 2",
            "calculus",
            "s2",
            (
                Job("s2-betti-1000", ("betti", "{s2}", "--max", "1000", "--json"),
                    expect(command="betti", betti=truncated_betti({0, 2}, 1000), window=1000,
                           model="s2")),
            ),
        ),
        Workload(
            "mult-dense",
            "mult-model on CP3xCP2xS2: tall dense rref solves with growing integer "
            "coefficients on an 18-generator algebra",
            "linalg",
            "cp3cp2s2",
            (
                Job("cp3cp2s2-mult", ("mult-model", "{cp3cp2s2}", "--json"),
                    expect(command="mult-model", model="cp3cp2s2",
                           verdicts=("d_squared_zero", "chain_map",
                                     "quasi_iso_indecomposables", "minimal"))),
            ),
        ),
        Workload(
            "survey",
            "one run of each of the 11 commands on small models: per-process import, "
            "parse, emit and serialize costs dominate",
            "cli (interpreter start and import, once per job)",
            "cp2",
            (
                Job("verify", ("verify", "{cp2}", "--json"),
                    expect(command="verify", model="cp2",
                           verdicts=("d_squared_zero", "minimal", "homogeneous"))),
                Job("betti", ("betti", "{cp2}", "--max", "10", "--json"),
                    expect(command="betti", model="cp2", betti=truncated_betti({0, 2, 4}, 10))),
                Job("loop", ("loop", "{cp2}", "--json"),
                    expect(command="loop", model="cp2", verdicts=("d_squared_zero",))),
                _loop_job("loop-betti", "s3s3", 12, s3s3_loop_betti(12)),
                Job("tensor", ("tensor", "{s3s3}", "{cp2}", "--json"),
                    expect(command="tensor", model_file=(
                        "generator v 2\ngenerator v_1 3\ngenerator v_2 3\n"
                        "generator w 5\nd w = v^3\n"))),
                Job("quotient", ("quotient", "{cp2}", "--kill", "v,w", "--json"),
                    expect(command="quotient", model="cp2", verdicts=("differential_ideal",))),
                Job("koszul", ("koszul", "{x2}", "--by", "x^2", "--json"),
                    expect(command="koszul", model="x2", betti=truncated_betti({0, 2}, 16),
                           verdicts=("matches_quotient_oracle",))),
                Job("mult-model", ("mult-model", "{cp2}", "--json"),
                    expect(command="mult-model", model="cp2",
                           verdicts=("d_squared_zero", "chain_map",
                                     "quasi_iso_indecomposables", "minimal"))),
                Job("witness", ("witness", "{s3s3}", "--k-max", "4", "--json"),
                    expect(command="witness", model="s3s3", betti=s3s3_loop_betti(16),
                           verdicts=("all_certified",))),
                Job("series", ("series", "--rational", S3S3_RATIONAL, "--betti-of",
                               "{s3s3_loop}", "--max", "12", "--json"),
                    expect(command="series", model="s3s3_loop", series=s3s3_loop_betti(12),
                           betti=s3s3_loop_betti(12), verdicts=("equal",))),
                Job("recipe", ("recipe", "cpn", "2", "--json"),
                    expect(command="recipe", model="cp2")),
            ),
            reference="start",
        ),
    )
}
