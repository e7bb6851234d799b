"""Every representative of a `betti`, `loop-betti` or `koszul` report is an
exact cocycle, the classes of each degree are a basis of its cohomology by
exact rank identities, every `koszul` report's quotient dimensions are
counted again, and every `mult-model` report holds a relative model of the
multiplication, checked by `report_check`, which shares no code with the
engine.  The golden reports checked are those of every bench job of a
command the checker reads, so a new golden job is certified without editing
this file."""

import ast
import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_check
from sullivan.cli import main
from sullivan.modelfile import emit, parse
from sullivan.models import build, recipe_from_args
from test_golden import BENCH, WORKLOADS

CHECKED = {"betti", "loop-betti", "koszul", "mult-model"}
GOLDEN = [(w.name, job.id) for w in WORKLOADS.WORKLOADS.values() for job in w.jobs
          if job.argv[0] in CHECKED]


def model_of(workload: str, job_id: str) -> str:
    (job,) = [job for job in WORKLOADS.WORKLOADS[workload].jobs if job.id == job_id]
    (name,) = [a[1:-1] for a in job.argv if a.startswith("{")]
    return WORKLOADS.MODELS[name]


def test_the_checker_imports_nothing_from_sullivan():
    tree = ast.parse(Path(report_check.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "hashlib", "json", "math", "re", "sys", "fractions"}


def test_the_golden_list_holds_the_known_jobs():
    assert set(GOLDEN) >= {
        ("loop-elim", "s2s3-loop-14"), ("loop-elim", "s3s3-loop-24"), ("assemble-s2", "s2-betti-1000"),
        ("survey", "betti"), ("survey", "loop-betti"), ("mult-dense", "cp3cp2s2-mult"),
        ("survey", "mult-model"), ("survey", "koszul")}


@pytest.mark.parametrize("workload, job_id", GOLDEN, ids=[f"{w}/{j}" for w, j in GOLDEN])
def test_golden_representatives_are_cocycles(workload, job_id):
    report = json.loads((BENCH / "golden" / workload / f"{job_id}.json").read_text(encoding="utf-8"))
    assert report_check.check(model_of(workload, job_id), report) == []


def test_s2s3_loop_to_degree_30_has_cocycle_representatives(tmp_path, capsys):
    text = WORKLOADS.MODELS["s2s3"]
    path = tmp_path / "s2s3.model"
    path.write_text(text, encoding="utf-8")
    assert main(["loop-betti", str(path), "--max", "30", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sum(report["betti"]) == 1 + sum(range(31))
    assert report_check.check(text, report) == []


def test_loop_representatives_with_odd_letters_out_of_name_order_are_cocycles(tmp_path, capsys):
    # the checker sorts letters by name, so the odd letter a (degree 5) moves
    # past x, y and z (degree 3) in every word that holds them: the Koszul sign
    # of each such sort is part of the check
    text = "generator x 3\ngenerator y 3\ngenerator z 3\ngenerator a 5\nd a = y*z\n"
    path = tmp_path / "xyza.model"
    path.write_text(text, encoding="utf-8")
    assert main(["loop-betti", str(path), "--max", "12", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert any({"a", "x"} <= set(w.split("*"))
               for classes in report["representatives"] for terms in classes for w, _ in terms)
    assert report_check.check(text, report) == []


def test_the_checker_finds_a_broken_report(tmp_path, capsys):
    text = model_of("loop-elim", "s2s3-loop-14")
    report = json.loads((BENCH / "golden" / "loop-elim" / "s2s3-loop-14.json").read_text(encoding="utf-8"))
    # degree 4 holds sv_1*w_1 - 1/2*sw_1*v_1; flipping the sign leaves no cocycle
    (broken,) = [k for k, terms in enumerate(report["representatives"][4]) if len(terms) == 2]
    report["representatives"][4][broken][1][1] = "1/2"
    report["representatives"][5].pop()
    report["model_hash"] = "0" * 64
    assert report_check.check(text, report) == [
        "model_hash is not the SHA-256 of the model text",
        f"degree 4, class {broken}: not a cocycle",
        "degree 5: 4 classes, betti 5",
    ]
    model, saved = tmp_path / "s2s3.model", tmp_path / "report.json"
    model.write_text(text, encoding="utf-8")
    saved.write_text(json.dumps(report), encoding="utf-8")
    assert report_check.main([str(model), str(saved)]) == 1
    assert "not a cocycle" in capsys.readouterr().out


@pytest.mark.parametrize("factors", ["truncated-poly:4:3 cpn:3 even-sphere:1",
                                     "cpn:4 cpn:2 even-sphere:1 even-sphere:1"])
def test_mult_model_of_a_recipe_is_a_relative_model_of_the_multiplication(factors, tmp_path, capsys):
    text = emit(build(recipe_from_args("product", factors.split())))
    path = tmp_path / "recipe.model"
    path.write_text(text, encoding="utf-8")
    assert main(["mult-model", str(path), "--json"]) == 0
    assert report_check.check(text, json.loads(capsys.readouterr().out)) == []


def test_the_checker_finds_a_broken_mult_model_report():
    text = model_of("mult-dense", "cp3cp2s2-mult")
    report = json.loads((BENCH / "golden" / "mult-dense" / "cp3cp2s2-mult.json").read_text(encoding="utf-8"))
    model_file = report["model_file"]
    # a flipped coefficient of the correction of w_1
    report["model_file"] = model_file.replace("- sv_1*v_1_1^3", "+ sv_1*v_1_1^3")
    assert report_check.check(text, report) == ["d(d(sw_1)) is not zero"]
    # a decomposable term that phi sends to v_1^2, a linear term, and a wrong
    # copy; the last two also break d(d) of the suspensions whose d uses them
    report["model_file"] = (model_file.replace("+ w_3_1 - w_3_2", "+ v_1_1*v_1_2 + w_3_1 - w_3_2")
                            .replace("d sv_2 = v_2_1", "d sv_2 = 2*v_2_1")
                            .replace("d w_1_2 = v_1_2^4", "d w_1_2 = -v_1_2^4"))
    assert report_check.check(text, report) == [
        "d(d(sw_2)) is not zero",
        "d(d(sw_1)) is not zero",
        "d(sv_2) - v_2_1 + v_2_2 has a word of fewer than two letters",
        "phi does not kill d(sv_2) - v_2_1 + v_2_2",
        "phi does not kill d(sw_3) - w_3_1 + w_3_2",
        "d(w_1_2) is not the copy of d(w_1)",
    ]
    report["model_file"] = model_file.replace("generator sw_3 2\n", "")
    assert report_check.check(text, report) == ["sw_3 is not a generator of the model file"]


KOSZUL = [("generator x 2\n", "x^3", "20"), ("generator a 2\ngenerator b 4\n", "a^2+b", "8")]


def koszul_report(text, by, window, tmp_path, capsys):
    path = tmp_path / "presentation.model"
    path.write_text(text, encoding="utf-8")
    assert main(["koszul", str(path), "--by", by, "--max", window, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("text, by, window", KOSZUL, ids=["x2-by-x^3", "a2b4-by-a^2+b"])
def test_koszul_reports_are_certified(text, by, window, tmp_path, capsys):
    report = koszul_report(text, by, window, tmp_path, capsys)
    assert report["verdicts"]["matches_quotient_oracle"] is True
    assert report_check.check(text, report) == []


def test_the_checker_finds_a_broken_koszul_report(tmp_path, capsys):
    text, by, window = KOSZUL[1]
    report = koszul_report(text, by, window, tmp_path, capsys)
    assert report["representatives"][4] == [[["b", "1"]]]
    # every word of the presentation is a cocycle of the Koszul model, so a
    # class stays one with its coefficient flipped; no valid class has a term
    # in sz, whose differential is a multiple of z = a^2 + b
    report["representatives"][4][0][0][1] = "-1"
    assert report_check.check(text, report) == []
    report["representatives"][5] = [[["a*sz", "-1"]]]
    report["details"]["quotient_dims"][6] = 2
    assert report_check.check(text, report) == [
        "quotient_dims is not dim A_n - dim A_(n-4) = [1, 0, 1, 0, 1, 0, 1, 0, 1]",
        "matches_quotient_oracle is not whether betti equals quotient_dims",
        "degree 5: 1 classes, betti 0",
        "degree 5, class 0: not a cocycle",
    ]
    report["details"]["quotient_dims"][6] = 1
    report["verdicts"]["matches_quotient_oracle"] = False
    assert report_check.check(text, report)[0] == "matches_quotient_oracle is not whether betti equals quotient_dims"


def golden_report(workload: str, job_id: str) -> dict:
    return json.loads((BENCH / "golden" / workload / f"{job_id}.json").read_text(encoding="utf-8"))


WITH_CLASSES = [(w, j) for w, j in GOLDEN if golden_report(w, j)["command"] != "mult-model"]


@pytest.mark.parametrize("workload, job_id", WITH_CLASSES, ids=[f"{w}/{j}" for w, j in WITH_CLASSES])
def test_every_golden_degree_is_checked_exactly(workload, job_id):
    report = golden_report(workload, job_id)
    model = report_check.Model.parse(model_of(workload, job_id))
    if report["command"] == "loop-betti":
        model = model.loop()
    elif report["command"] == "koszul":
        model = report_check.Model.parse(report["model_file"])
    assert report_check.exact_degrees(model, report["window"]) == list(range(report["window"] + 1))


def test_s2s3_loop_to_degree_40_is_a_basis_of_cohomology_in_every_degree(tmp_path, capsys):
    text = WORKLOADS.MODELS["s2s3"]
    path = tmp_path / "s2s3.model"
    path.write_text(text, encoding="utf-8")
    assert main(["loop-betti", str(path), "--max", "40", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report_check.exact_degrees(report_check.Model.parse(text).loop(), 40) == list(range(41))
    assert report_check.check(text, report) == []


def test_the_rank_identities_find_classes_that_are_no_basis():
    text = model_of("loop-elim", "s2s3-loop-14")
    report = golden_report("loop-elim", "s2s3-loop-14")
    # d(w_1*sv_2) = v_1^2*sv_2: a boundary in place of a class is still a cocycle
    report["representatives"][6][0] = [["sv_2*v_1^2", "1"]]
    # two equal classes
    report["representatives"][7][1] = report["representatives"][7][0]
    # a Betti number off by one, with a class dropped to match it
    report["betti"][8] -= 1
    report["representatives"][8].pop()
    assert report_check.check(text, report) == [
        "degree 6: the classes are dependent modulo boundaries",
        "degree 7: the classes are dependent modulo boundaries",
        "degree 8: betti 7 is not dim 30 - rank d^8 13 - rank d^7 9",
    ]
    # a Betti number off by one alone
    report = golden_report("loop-elim", "s2s3-loop-14")
    report["betti"][9] += 1
    assert report_check.check(text, report) == [
        "degree 9: 9 classes, betti 10",
        "degree 9: betti 10 is not dim 38 - rank d^9 16 - rank d^8 13",
    ]


def test_rank_is_exact_over_fractions():
    assert report_check.rank([]) == 0
    assert report_check.rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {}]) == 1
    assert report_check.rank([{0: Fraction(1, 3), 1: 2}, {0: 1, 1: 6}, {1: Fraction(1, 7), 2: 1}]) == 2
    # the determinant is 2, so a rank mod 2 would read 1 here
    assert report_check.rank([{0: 1, 1: 1}, {0: 1, 1: 3}]) == 2


@st.composite
def pure_models(draw):
    """A pure model as canonical text: even generators with d = 0, and odd
    ones with d a polynomial in the even ones of the right degree."""
    evens = dict(zip("ab", draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=2))))
    odds = dict(zip(("y", "z"), draw(st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=2))))
    lines = [f"generator {name} {k}" for name, k in {**evens, **odds}.items()]
    for name, k in odds.items():
        (_, ka), *rest = evens.items()
        monomials = [(i, j) for i in range(k + 2) for j in range(k + 2 if rest else 1)
                     if i * ka + j * (rest[0][1] if rest else 0) == k + 1]
        terms = [f"({c})*a^{i}" + (f"*b^{j}" if j else "") for i, j in monomials
                 if (c := draw(st.integers(-2, 2)))]
        if terms:
            lines.append(f"d {name} = " + " + ".join(terms))
    return emit(parse("\n".join(lines) + "\n"))


@settings(max_examples=50, deadline=None)
@given(pure_models(), st.sampled_from(["betti", "loop-betti"]), st.integers(0, 10))
def test_reports_of_random_pure_models_are_certified(text, command, window):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pure.model"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, str(path), "--max", str(window), "--json"]) == 0
    assert report_check.check(text, json.loads(out.getvalue())) == []
