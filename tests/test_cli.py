"""End-to-end exercises of the command line front end."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cckit.algebra import Scalar, refresh_term_limit
from cckit.algebra.parser import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING
from cckit.algebra.poly import MAX_DEGREE
from cckit.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, run
from cckit.cli.files import load_structure, structure_spec
from cckit.report import CheckEntry, ConditionReport
from cckit.structures import CovariantPair
from cckit.symmetries import SymmetryTarget

from conftest import FIXTURES_DIR

DATA_DIR = Path(__file__).resolve().parent / "data"


def fixture(name: str) -> str:
    return str(FIXTURES_DIR / f"{name}.json")


def write_json(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def corrupted_acc3(tmp_path) -> str:
    # still regular, but d Omega picks up dx^dy^dz
    doc = json.loads((FIXTURES_DIR / "acc3.json").read_text(encoding="utf-8"))
    assert doc["Omega"][0] == [[0, 1], "1"]
    doc["Omega"][0] = [[0, 1], "z"]
    return write_json(tmp_path, "broken.json", doc)


def decimal_value(digits: str) -> int:
    """The int a decimal string denotes, read in chunks int() always accepts."""
    assert digits.isdigit(), digits[:40]
    value = 0
    for start in range(0, len(digits), 100):
        chunk = digits[start:start + 100]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


HJ_PAIRS = [
    {"alpha": [[[0], "1"]], "h": "-x"},
    {"alpha": [[[1], "1"]], "h": "-y"},
]


class TestClassify:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("cosym3", "cosymplectic"),
            ("contact3", "contact"),
            ("contact5", "contact"),
            ("acc3", "almost_cosymplectic_contact"),
            ("singular3", "not_regular"),
        ],
    )
    def test_classifies_catalog_files(self, capsys, name, expected):
        assert run(["classify", "-s", fixture(name)]) == EXIT_OK
        lines = capsys.readouterr().out
        assert f"class: {expected}" in lines

    def test_json_document(self, capsys):
        assert run(["classify", "-s", fixture("acc3"), "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "classify"
        assert doc["class"] == "almost_cosymplectic_contact"
        assert doc["density"] == "y + 1"
        assert doc["ok"] is True


class TestDualize:
    def test_prints_dual_and_certificate(self, capsys):
        assert run(["dualize", "-s", fixture("contact3")]) == EXIT_OK
        lines = capsys.readouterr().out
        assert "E = " in lines and "Lambda = " in lines
        assert "duality certificate: pass" in lines

    def test_json_components_are_canonical(self, capsys):
        assert run(["dualize", "-s", fixture("acc3"), "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["E"] == [[[0], "(-1)/(y + 1)"], [[2], "(1)/(y + 1)"]]
        assert doc["Lambda"] == [
            [[0, 1], "(-1)/(y + 1)"],
            [[1, 2], "(y)/(y + 1)"],
        ]
        assert doc["density"] == "y + 1"

    def test_singular_structure_fails(self, capsys):
        assert run(["dualize", "-s", fixture("singular3")]) == EXIT_CHECK_FAILED
        assert "regularity check failed" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("name", ["cosym3", "contact3", "contact5", "acc3"])
    def test_catalog_files_verify(self, name):
        assert run(["verify", "-s", fixture(name)]) == EXIT_OK

    def test_corrupted_two_form_fails_closedness(self, tmp_path, capsys):
        path = corrupted_acc3(tmp_path)
        assert run(["verify", "-s", path, "--json"]) == EXIT_CHECK_FAILED
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        entries = [
            entry for report in doc["reports"] for entry in report["entries"]
        ]
        closedness = next(
            entry for entry in entries if entry["label"] == "closedness d Omega = 0"
        )
        assert closedness["ok"] is False
        assert closedness["residual"] == "(1) dx^dy^dz"
        passing = [entry for entry in entries if entry["ok"]]
        assert all(entry["residual"] is None for entry in passing)

    def test_derived_data_is_computed_once(self, monkeypatch, capsys):
        # dualize, the certificate and the identities share rho, d omega, d Omega
        calls = {"density": 0, "d_omega": 0, "d_Omega": 0}
        for name in calls:
            prop = getattr(CovariantPair, name)

            def counting(pair, compute=prop.func, name=name):
                calls[name] += 1
                return compute(pair)

            monkeypatch.setattr(prop, "func", counting)
        assert run(["verify", "-s", fixture("contact5"), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert calls == {"density": 1, "d_omega": 1, "d_Omega": 1}


class TestBracket:
    def test_bracket_of_lifts(self, tmp_path, capsys):
        pairs = write_json(tmp_path, "pairs.json", HJ_PAIRS)
        code = run(["bracket", "-s", fixture("contact3"), "-p", pairs, "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # [[lift(x); lift(y)]] = (d{x,y}, -{x,y}) with {x,y} = -1
        assert doc["bracket"] == {"alpha": [], "h": "1"}
        compat = doc["reports"][0]
        assert compat["title"] == "compatibility with the vector field commutator"
        assert compat["ok"] is True

    def test_wrong_pair_count(self, capsys):
        code = run(
            ["bracket", "-s", fixture("contact3"), "-p", fixture("hj_x")]
        )
        assert code == EXIT_INPUT_ERROR
        assert "exactly 2 pairs" in capsys.readouterr().err

    def test_singular_structure(self, tmp_path, capsys):
        pairs = write_json(tmp_path, "pairs.json", HJ_PAIRS)
        code = run(["bracket", "-s", fixture("singular3"), "-p", pairs])
        assert code == EXIT_CHECK_FAILED

    def test_bracket_needs_a_closed_two_form(self, tmp_path, capsys):
        # regular but d Omega != 0: dualizable, bracket refused
        doc = {
            "dimension": 3,
            "coordinates": ["x", "y", "z"],
            "omega": [[[2], "1"]],
            "Omega": [[[0, 1], "1"], [[1, 2], "x"]],
        }
        structure = write_json(tmp_path, "pre.json", doc)
        assert run(["dualize", "-s", structure]) == EXIT_OK
        pairs = write_json(tmp_path, "pairs.json", HJ_PAIRS)
        assert (
            run(["bracket", "-s", structure, "-p", pairs]) == EXIT_CHECK_FAILED
        )
        assert "mathematical check failed" in capsys.readouterr().err


class TestSymmetry:
    def test_lift_generates_full_symmetry(self, capsys):
        code = run(
            [
                "symmetry",
                "-s",
                fixture("contact3"),
                "-p",
                fixture("hj_x"),
                "-t",
                "cov_pair",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out
        assert "three certification routes agree (pass/pass/pass)" in lines

    def test_reeb_pair_fails_omega_on_acc3(self, tmp_path, capsys):
        pairs = write_json(tmp_path, "reeb.json", {"alpha": [], "h": "1"})
        code = run(
            [
                "symmetry",
                "-s",
                fixture("acc3"),
                "-p",
                pairs,
                "-t",
                "omega",
                "--json",
            ]
        )
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        conditions = doc["reports"][0]
        assert conditions["ok"] is False
        assert conditions["entries"][0]["residual"] == "((-1)/(y + 1)) dy"
        # verdict cross-check still agrees: both routes say no
        cross = doc["reports"][2]
        assert cross["ok"] is True

    def test_multiple_pairs_all_must_pass(self, tmp_path):
        mixed = [
            {"alpha": [[[0], "1"]], "h": "-x"},
            {"alpha": [], "h": "1"},
        ]
        pairs = write_json(tmp_path, "mixed.json", mixed)
        code = run(
            [
                "symmetry",
                "-s",
                fixture("contact3"),
                "-p",
                pairs,
                "-t",
                "cov_pair",
            ]
        )
        assert code == EXIT_OK  # (0, 1) generates on a contact pair

    def test_unknown_target_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(
                [
                    "symmetry",
                    "-s",
                    fixture("acc3"),
                    "-p",
                    fixture("hj_x"),
                    "-t",
                    "everything",
                ]
            )
        assert info.value.code == EXIT_INPUT_ERROR


class TestSuite:
    def test_full_run_passes(self, capsys):
        code = run(["suite", "-s", fixture("acc3"), "--seed", "42"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out
        assert "pass" in lines and "FAIL" not in lines

    def test_same_seed_same_report(self, capsys):
        argv = ["suite", "-s", fixture("contact3"), "--seed", "7", "--json"]
        assert run(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["seed"] == 7
        assert doc["reports"]

    def test_non_acc_structure_skips_duality_sections(self, capsys):
        code = run(["suite", "-s", fixture("singular3"), "--seed", "1", "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["skipped"]) >= 1
        for item in doc["skipped"]:
            assert "reason" in item and item["reason"]

    def test_skipped_titles_are_the_dual_sections(self, capsys):
        argv = ["--seed", "1", "--trials", "1", "--degree", "1", "--json"]
        assert run(["suite", "-s", fixture("singular3"), *argv]) == EXIT_OK
        singular = json.loads(capsys.readouterr().out)
        assert run(["suite", "-s", fixture("acc3"), *argv]) == EXIT_OK
        acc = json.loads(capsys.readouterr().out)
        skipped = [item["title"] for item in singular["skipped"]]
        reported = [report["title"] for report in acc["reports"]]
        assert skipped
        assert skipped == reported[2:]
        assert [report["title"] for report in singular["reports"]] == reported[:2]
        assert acc["skipped"] == []

    def test_bad_knobs_are_input_errors(self, capsys):
        assert (
            run(["suite", "-s", fixture("acc3"), "--trials", "0"])
            == EXIT_INPUT_ERROR
        )
        capsys.readouterr()
        assert (
            run(["suite", "-s", fixture("acc3"), "--degree", "-1"])
            == EXIT_INPUT_ERROR
        )
        capsys.readouterr()
        degree = str(MAX_EXPONENT + 1)
        assert (
            run(["suite", "-s", fixture("acc3"), "--degree", degree])
            == EXIT_INPUT_ERROR
        )
        assert "input error" in capsys.readouterr().err

    def test_largest_degree_runs(self, capsys):
        argv = ["--trials", "1", "--degree", str(MAX_EXPONENT)]
        assert run(["suite", "-s", fixture("acc3"), *argv]) == EXIT_OK


class TestReportSummary:
    def test_carries_exactly_the_failing_residuals(self):
        zero, two, x = Scalar.zero(3), Scalar.const(3, 2), Scalar.variable(3, 0)
        report = ConditionReport("t", (
            CheckEntry.of("zero", zero),
            CheckEntry.of("two", two),
            CheckEntry.of("zero again", zero),
            CheckEntry.of("x", x),
        ))
        summary = report.summary("one line")
        assert summary.label == "one line"
        assert not summary.ok
        assert len(summary.residual) == 2
        assert summary.residual[0] is two and summary.residual[1] is x

    def test_passing_report_has_no_residuals(self):
        zero = Scalar.zero(3)
        report = ConditionReport("t", (CheckEntry.of("zero", zero),))
        summary = report.summary("one line")
        assert summary.ok
        assert summary.residual == []


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        assert run(["classify", "-s", path]) == EXIT_INPUT_ERROR
        assert "cannot read file" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["classify", "-s", str(path)]) == EXIT_INPUT_ERROR
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,content",
        [
            (["classify", "-s"], b"\xff"),
            (["classify", "-s"], b'{"dimension": ' + b"1" * 5000 + b"}"),
            (["classify", "-s"], b"[" * 100_000 + b"]" * 100_000),
            (["bracket", "-s", fixture("acc3"), "-p"], b"[" * 100_000 + b"]" * 100_000),
        ],
        ids=["not-utf8", "long-integer", "deep-nesting", "deep-nesting-pairs"],
    )
    def test_undecodable_json(self, tmp_path, capsys, command, content):
        # no message text: Python before 3.10.7 reads an integer of any length
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run(command + [str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("Omega"), "missing key"),
            (lambda d: d.update(dimension="3"), "dimension must be an integer"),
            (
                lambda d: d.update(coordinates=["x", "y"]),
                "coordinate names for dimension",
            ),
            (
                lambda d: d.update(omega=[[[2, 2], "1"]]),
                "has 2 indices, expected 1",
            ),
            (
                lambda d: d.update(Omega=[[[1, 0], "1"]]),
                "must be strictly increasing",
            ),
            (lambda d: d.update(Omega=[[[0, 7], "1"]]), "index out of range"),
            (
                lambda d: d.update(Omega=[[[0, 1], "1"], [[0, 1], "2"]]),
                "duplicate entry",
            ),
            (lambda d: d.update(omega=[[[2], "x +"]]), "omega"),
        ],
    )
    def test_schema_violations(self, tmp_path, capsys, mutate, needle):
        doc = json.loads(
            (FIXTURES_DIR / "cosym3.json").read_text(encoding="utf-8")
        )
        mutate(doc)
        path = write_json(tmp_path, "mutated.json", doc)
        assert run(["classify", "-s", path]) == EXIT_INPUT_ERROR
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize(
        "opening,closing", [("(", ")"), ("-", "")], ids=["parens", "minus"]
    )
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, opening, closing):
        doc = json.loads(
            (FIXTURES_DIR / "cosym3.json").read_text(encoding="utf-8")
        )
        for depth, code in ((MAX_NESTING, EXIT_OK), (3000, EXIT_INPUT_ERROR)):
            doc["omega"] = [[[2], opening * depth + "1" + closing * depth]]
            path = write_json(tmp_path, "deep.json", doc)
            assert run(["classify", "-s", path]) == code
        err = capsys.readouterr().err
        assert f"at position {MAX_NESTING}: nesting deeper than" in err

    def test_large_exponent_is_a_parse_error(self, tmp_path, capsys):
        doc = json.loads(
            (FIXTURES_DIR / "cosym3.json").read_text(encoding="utf-8")
        )
        for text, code in (
            (f"x^{MAX_EXPONENT} + 1 - x^{MAX_EXPONENT}", EXIT_OK),
            ("(1+x)^1000000000000", EXIT_INPUT_ERROR),
        ):
            doc["omega"] = [[[2], text]]
            path = write_json(tmp_path, "power.json", doc)
            assert run(["classify", "-s", path]) == code
        err = capsys.readouterr().err
        assert f"at position 6: exponent larger than {MAX_EXPONENT}" in err

    def test_long_integer_literal_is_a_parse_error(self, tmp_path, capsys):
        doc = json.loads(
            (FIXTURES_DIR / "cosym3.json").read_text(encoding="utf-8")
        )
        for digits, code in (
            (MAX_DIGITS, EXIT_OK),
            (MAX_DIGITS + 1, EXIT_INPUT_ERROR),
        ):
            doc["omega"] = [[[2], "x - x + " + "7" * digits]]
            path = write_json(tmp_path, "literal.json", doc)
            assert run(["classify", "-s", path]) == code
        err = capsys.readouterr().err
        assert f"at position 8: integer literal longer than {MAX_DIGITS} digits" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_integers_of_any_size_print(self, tmp_path, capsys, as_json):
        # a 200-digit literal to the 32nd power: 6,400 digits in the density,
        # beyond the 4,300 digits str() converts by default
        literal = "7" + "3" * 199
        value = int(literal) ** 32
        doc = json.loads((FIXTURES_DIR / "cosym3.json").read_text(encoding="utf-8"))
        doc["omega"] = [[[2], f"({literal})^32"]]
        path = write_json(tmp_path, "huge.json", doc)
        flags = ["--json"] if as_json else []
        assert run(["classify", "-s", path, *flags]) == EXIT_OK
        out = capsys.readouterr().out
        density = (
            json.loads(out)["density"] if as_json
            else out.splitlines()[1].removeprefix("regularity density: ")
        )
        assert decimal_value(density) == value
        assert run(["dualize", "-s", path, *flags]) == EXIT_OK
        out = capsys.readouterr().out
        e_text = (
            json.loads(out)["E"][0][1] if as_json
            else out.splitlines()[0].removeprefix("E = (").removesuffix(") @z")
        )
        assert e_text.startswith("1/")
        assert decimal_value(e_text[2:]) == value

    def test_pair_file_violations(self, tmp_path, capsys):
        empty = write_json(tmp_path, "empty.json", [])
        code = run(["bracket", "-s", fixture("acc3"), "-p", empty])
        assert code == EXIT_INPUT_ERROR
        assert "pair list is empty" in capsys.readouterr().err
        missing = write_json(tmp_path, "missing.json", {"alpha": []})
        code = run(["symmetry", "-s", fixture("acc3"), "-p", missing, "-t", "omega"])
        assert code == EXIT_INPUT_ERROR
        assert "missing key 'h'" in capsys.readouterr().err


class TestTermLimit:
    def test_non_integer_cap_is_an_input_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CCKIT_MAX_TERMS", "many")
        try:
            code = run(["classify", "-s", fixture("cosym3")])
        finally:
            monkeypatch.delenv("CCKIT_MAX_TERMS")
            refresh_term_limit()
        assert code == EXIT_INPUT_ERROR
        assert "CCKIT_MAX_TERMS" in capsys.readouterr().err

    def test_tiny_cap_aborts_with_diagnostic(self, monkeypatch, capsys):
        monkeypatch.setenv("CCKIT_MAX_TERMS", "2")
        try:
            code = run(["suite", "-s", fixture("acc3"), "--trials", "1", "--seed", "3"])
        finally:
            monkeypatch.delenv("CCKIT_MAX_TERMS")
            refresh_term_limit()
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("size cap exceeded:")
        assert "(raise CCKIT_MAX_TERMS or simplify the input)" in err

    @pytest.mark.parametrize("name", ["panel_pair_dim3", "panel_pair_dim5"])
    def test_rational_identity_sums_stay_under_the_cap(self, name, monkeypatch, capsys):
        # closed regular pairs drawn by bench.workloads.random_closed_pair
        # from DUAL_PANEL_SEED (dual-certify inputs 167 and 398); summed
        # pairwise, [E, Lambda] + E ^ (Lambda# tau) reached 1160 and 2530
        # terms and verify exited 2
        monkeypatch.setenv("CCKIT_MAX_TERMS", "1000")
        try:
            code = run(["verify", "-s", str(DATA_DIR / f"{name}.json"), "--json"])
        finally:
            monkeypatch.delenv("CCKIT_MAX_TERMS")
            refresh_term_limit()
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_over_range_degree_is_a_size_cap_error(self, tmp_path, capsys):
        # every power is at most MAX_EXPONENT, but the density has degree 32768
        doc = json.loads((FIXTURES_DIR / "cosym3.json").read_text(encoding="utf-8"))
        doc["omega"] = [[[2], "1 + ((x^32)^32)^32"]]
        path = write_json(tmp_path, "degree.json", doc)
        assert run(["classify", "-s", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("size cap exceeded:")
        assert "total degree 32768" in err and f"bound {MAX_DEGREE}" in err
        # no setting lifts the degree bound, so the hint names none
        assert "(simplify the input)" in err
        assert "CCKIT_MAX_TERMS" not in err
        doc["omega"] = [[[2], "1 + ((x^32)^32)^31"]]
        path = write_json(tmp_path, "degree.json", doc)
        assert run(["classify", "-s", path]) == EXIT_OK

    def test_generous_cap_changes_nothing(self, monkeypatch, capsys):
        monkeypatch.setenv("CCKIT_MAX_TERMS", "100000")
        try:
            code = run(["classify", "-s", fixture("acc3")])
        finally:
            monkeypatch.delenv("CCKIT_MAX_TERMS")
            refresh_term_limit()
        assert code == EXIT_OK


class TestRoundTrip:
    def test_structure_spec_roundtrip(self, tmp_path):
        original = load_structure(fixture("acc3"))
        spec = structure_spec(original)
        path = write_json(tmp_path, "roundtrip.json", spec)
        reloaded = load_structure(path)
        assert reloaded.chart == original.chart
        assert reloaded.omega == original.omega
        assert reloaded.Omega == original.Omega
        assert structure_spec(reloaded) == spec


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "cckit", "classify", "-s", fixture("acc3")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "almost_cosymplectic_contact" in result.stdout


NAMES = ("x", "y", "z", "u", "w")
ODD_NAMES = ["x", "2x", "x y", "", "x"]
ODD_EXPRESSIONS = ["", "x +", "((x)", "x^y", "2**3", "1/0", "1/(x-x)", "0.5*x",
                   "x^-1", "(x+y+z+1)^32", "9" * 40, "q"]
WILD = st.one_of(st.none(), st.booleans(), st.integers(-1, 6), st.floats(0, 2),
                 st.text(max_size=3), st.just([]), st.just({}))
DEFECTS = ("dimension", "coordinates", "expression", "indices", "duplicate",
           "missing", "structure", "pairs")


def expressions(names: tuple[str, ...]) -> st.SearchStrategy[str]:
    """Well-formed expressions over `names`, rational ones included."""
    atoms = st.sampled_from(list(names) + ["1", "2", "-3", "1/2"])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=5,
    )


def form_doc(draw, names: tuple[str, ...], degree: int) -> list:
    keys = list(combinations(range(len(names)), degree))
    if not keys:
        return []
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=4))
    return [[list(key), draw(expressions(names))] for key in sorted(chosen)]


@st.composite
def documents(draw):
    """A structure file and a pair file, at most one of them with one defect."""
    dim = draw(st.sampled_from([3] * 6 + [5] * 2 + [1, 0, 2, 4, -1]))
    names = NAMES[: max(dim, 0)]
    structure = {
        "dimension": dim,
        "coordinates": list(names),
        "omega": form_doc(draw, names, 1),
        "Omega": form_doc(draw, names, 2),
    }
    pairs = [
        {"alpha": form_doc(draw, names, 1), "h": draw(expressions(names))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    entries = [e for form in (structure["omega"], structure["Omega"]) for e in form]
    entries += [e for pair in pairs for e in pair["alpha"]]
    defect = draw(st.sampled_from((None,) * 8 + DEFECTS))
    if defect == "dimension":
        structure["dimension"] = draw(st.one_of(WILD, st.integers(-1, 6)))
    elif defect == "coordinates":
        structure["coordinates"] = draw(
            st.one_of(WILD, st.lists(st.sampled_from(ODD_NAMES), max_size=5))
        )
    elif defect == "expression" and entries:
        entry = draw(st.sampled_from(entries))
        entry[1] = draw(st.one_of(st.sampled_from(ODD_EXPRESSIONS), WILD))
    elif defect == "indices" and entries:
        entry = draw(st.sampled_from(entries))
        entry[0] = draw(st.one_of(
            WILD, st.lists(st.one_of(st.integers(-1, 6), st.booleans()), max_size=3)
        ))
    elif defect == "duplicate" and structure["Omega"]:
        structure["Omega"].append(structure["Omega"][0])
    elif defect == "missing":
        target = draw(st.sampled_from([structure, pairs[0]]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif defect == "structure":
        structure = draw(WILD)
    elif defect == "pairs":
        pairs = draw(WILD)
    return structure, pairs[0] if isinstance(pairs, list) and len(pairs) == 1 else pairs


COMMANDS = st.one_of(
    st.sampled_from([
        ["classify"],
        ["dualize"],
        ["verify"],
        ["bracket", "-p", "{pairs}"],
        ["suite", "--trials", "1", "--degree", "1"],
    ]),
    st.sampled_from([
        ["symmetry", "-p", "{pairs}", "-t", target.value] for target in SymmetryTarget
    ]),
)


class TestNeverATraceback:
    """Any JSON document gives exit code 0, 1 or 2 and raises nothing."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=COMMANDS, docs=documents(), as_json=st.booleans())
    def test_cli_contract(self, command, docs, as_json):
        structure, pairs = docs
        with tempfile.TemporaryDirectory() as workdir:
            structure_path = Path(workdir) / "structure.json"
            pairs_path = Path(workdir) / "pairs.json"
            structure_path.write_text(json.dumps(structure), encoding="utf-8")
            pairs_path.write_text(json.dumps(pairs), encoding="utf-8")
            argv = [arg.format(pairs=pairs_path) for arg in command]
            argv += ["-s", str(structure_path)] + (["--json"] if as_json else [])
            try:
                with pytest.MonkeyPatch.context() as patch, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    patch.setenv("CCKIT_MAX_TERMS", "200")
                    code = run(argv)
            finally:
                refresh_term_limit()
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR)
