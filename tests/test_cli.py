"""End-to-end runs of every CLI verb, exit codes and JSON schemas."""
import argparse
import dataclasses
import gc
import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from crossnest import automata, cli, ratfunc


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _validate(schema_name, payload):
    text = (
        resources.files("crossnest")
        .joinpath("schemas/%s.json" % schema_name)
        .read_text()
    )
    Draft202012Validator(json.loads(text)).validate(payload)


# --- count ------------------------------------------------------------------


def test_count_text(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "setpartition", "--n", "5",
        "--colours", "2", "--j", "2", "--k", "2",
    )
    assert code == 0
    assert out == "count: 197\n"


def test_count_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "permutation", "--n", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    _validate("count", payload)
    assert payload["count"] == 24


def test_count_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "permutation", "--n", "3", "--csv"
    )
    assert code == 0
    assert out == "count\n6\n"


def test_count_refined(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "permutation", "--n", "6",
        "--openers", "1,2", "--closers", "5,6",
    )
    assert code == 0
    assert out.startswith("count: ")


@pytest.mark.parametrize("flag", ["--openers", "--closers"])
@pytest.mark.parametrize(
    "value,bad", [("1,a", "a"), ("1,,2", ""), ("9", 9), ("-1,1", -1)]
)
def test_count_names_a_bad_vertex_entry(capsys, flag, value, bad):
    code, out, err = run_cli(
        capsys, "count", "--family", "permutation", "--n", "3", flag + "=" + value
    )
    assert code == 1
    assert out == ""
    if isinstance(bad, int):  # an integer, but not a vertex of the diagram
        assert err == "error: %s vertex %d is outside 1..3\n" % (flag[2:], bad)
    else:
        assert err == "error: %s entry %r is not an integer\n" % (flag, bad)


def test_count_histogram_json(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "permutation", "--n", "4",
        "--histogram", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    _validate("histogram", payload)
    assert payload["symmetric"] is True
    assert sum(row["count"] for row in payload["histogram"]) == 24


def test_count_histogram_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "permutation", "--n", "4",
        "--histogram", "--csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "cr,ne,count"
    assert "1,1,8" in out.splitlines()


# --- gf ---------------------------------------------------------------------


def test_gf_text(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--family", "setpartition", "--colours", "2"
    )
    assert code == 0
    assert out.splitlines() == [
        "numerator: 1 - 4*x + x^2",
        "denominator: 1 - 7*x + 11*x^2 - x^3",
    ]


def test_gf_factored_denominator(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--family", "permutation", "--colours", "2"
    )
    assert code == 0
    assert "denominator factors: (1 - 2*x)*(1 - 6*x)" in out.splitlines()


def test_gf_with_a_large_leading_coefficient_finishes(capsys):
    """The denominator's 98-bit leading coefficient does not split, and
    trying every divisor up to its square root never finished."""
    code, out, _ = run_cli(
        capsys, "gf", "--family", "permutation", "--j", "4", "--k", "2",
        "--colours", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["numerator", "denominator"]
    assert lines[1].startswith("denominator: 1 - 308*x + 45621*x^2")


def test_gf_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--family", "permutation", "--colours", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    _validate("gf", payload)
    assert payload["denominator_factors"]["slopes"] == [2, 6, 12]


def test_gf_other_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--family", "setpartition", "--j", "3", "--k", "3"
    )
    assert code == 0
    assert "denominator: 1 - 11*x + 41*x^2 - 61*x^3 + 31*x^4 - x^5" in out


# --- series -----------------------------------------------------------------


def test_series_text(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "permutation", "--colours", "2",
        "--terms", "9",
    )
    assert code == 0
    assert out == "1,2,8,40,224,1312,7808,46720,280064,1679872\n"


def test_series_setpartition_prepends_empty_object(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "setpartition", "--terms", "8"
    )
    assert code == 0
    assert out == "1,1,2,5,13,34,89,233,610\n"


def test_series_terms_zero(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "setpartition", "--terms", "0"
    )
    assert code == 0
    assert out == "1\n"


def test_series_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "setpartition", "--colours", "3",
        "--terms", "8", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    _validate("series", payload)
    assert payload["counts"] == [1, 1, 4, 19, 103, 616, 3949, 26545, 184120]


def test_series_csv(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "permutation", "--terms", "3", "--csv"
    )
    assert code == 0
    assert out == "size,count\n0,1\n1,1\n2,2\n3,4\n"


@pytest.mark.parametrize("family", ["permutation", "setpartition"])
def test_series_default_takes_no_determinant(capsys, monkeypatch, family):
    colours, terms = 3, 12
    rf = ratfunc.gf_from_graph(automata.build_quotient(family, 2, 2, colours))
    shift = 1 if family == "setpartition" else 0
    want = [1] * shift + list(ratfunc.series(rf, terms + 1 - shift).coeffs)

    def refuse(mat):
        raise AssertionError("series took a determinant")

    monkeypatch.setattr(ratfunc, "det_identity_minus_x", refuse)
    code, out, err = run_cli(
        capsys, "series", "--family", family,
        "--colours", str(colours), "--terms", str(terms),
    )
    assert (code, out, err) == (0, ",".join(map(str, want)) + "\n", "")


@pytest.mark.parametrize(
    "flags",
    [["--method", "recurrence"], ["--max-gf-states", "-1"]],
    ids=["method-recurrence", "max-gf-states"],
)
def test_series_removed_choices_are_usage_errors(capsys, flags):
    code, out, err = run_cli(
        capsys, "series", "--family", "permutation", "--terms", "3", *flags
    )
    assert (code, out) == (1, "")
    assert flags[0] in err


@pytest.mark.parametrize("verb", ["count", "series"])
def test_json_and_csv_exclude_each_other(capsys, verb):
    args = [verb, "--family", "permutation", "--json", "--csv"]
    if verb == "count":
        args += ["--n", "3"]
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


# --- graph ------------------------------------------------------------------


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--family", "setpartition")
    assert code == 0
    assert out.startswith("graph G {\n")
    assert out.endswith("}\n")
    assert 'n0 [label="{}"];' in out


def test_graph_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--family", "permutation", "--colours", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    _validate("graph", payload)
    assert payload["states"][0] == "{}|{}"
    assert payload["builder"] == "dedicated"


def test_graph_general_json(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--family", "setpartition", "--j", "3", "--k", "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    _validate("graph", payload)
    assert payload["builder"] == "general"
    assert len(payload["states"]) == 6


# --- bijection --------------------------------------------------------------


def test_bijection_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--input", "4 5 3 6 2 1 / 1 2 1 2 2 2"
    )
    assert code == 0
    assert out == "3 6 4 5 1 2 / 1 2 1 2 2 2\n"


def test_bijection_cli_round_trip(capsys):
    first = run_cli(capsys, "bijection", "--input", "{1,4},{2,6},{3,5}")[1].strip()
    second = run_cli(capsys, "bijection", "--input", first)[1].strip()
    assert second == "{1,4},{2,6},{3,5} / 1 1 1"


def test_bijection_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--input", "4 5 3 6 2 1 / 1 2 1 2 2 2",
        "--trace", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    _validate("bijection", payload)
    assert payload["image"] == "3 6 4 5 1 2 / 1 2 1 2 2 2"
    assert [entry["colour"] for entry in payload["trace"]] == [1, 2]
    assert payload["trace"][0]["upper"]["kind"] == "hesitating"
    assert payload["trace"][0]["lower"]["kind"] == "vacillating"


def test_bijection_json_schema_without_trace(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--input", "4 5 3 6 2 1 / 1 2 1 2 2 2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    _validate("bijection", payload)
    assert payload["trace"] is None


def test_bijection_partition_trace(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--input", "{1,3,6},{4,5},{2}", "--json", "--trace"
    )
    assert code == 0
    payload = json.loads(out)
    _validate("bijection", payload)
    assert payload["trace"][0]["diagram"]["kind"] == "vacillating"


def test_bijection_accepts_whitespace_between_blocks(capsys):
    spaced = run_cli(capsys, "bijection", "--input", "{1,4} , {2,6},\t{3,5}")
    plain = run_cli(capsys, "bijection", "--input", "{1,4},{2,6},{3,5}")
    assert spaced[0] == 0
    assert spaced == plain


def test_bijection_of_the_empty_set_partition(capsys):
    assert run_cli(capsys, "bijection", "--input", "{}") == (0, "{}\n", "")


@pytest.mark.parametrize(
    "text,message",
    [
        ("{1,2},{ }", "empty block {} in set partition text"),
        ("{1 2}", "block {1 2} must list vertices separated by commas"),
        ("", "empty diagram text"),
        ("  ", "empty diagram text"),
        ("2 1 / 1 / 2", "diagram text may contain only one '/'"),
        ("{1,2} / 1 / 1", "diagram text may contain only one '/'"),
        ("2 1 / a", "colour 'a' is not an integer"),
        ("{1,2} / b", "colour 'b' is not an integer"),
        ("2 x", "word entry 'x' is not an integer"),
        ("{1,a}", "vertex 'a' is not an integer"),
        ("{1,,2}", "block {1,,2} must list vertices separated by commas"),
        ("{1,2,2},{3}", "vertex 2 appears twice in a block"),
        ("{1,1}", "vertex 1 appears twice in a block"),
    ],
)
def test_bijection_rejects_bad_input(capsys, text, message):
    code, out, err = run_cli(capsys, "bijection", "--input", text)
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


# --- selftest ---------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("selftest: PASS")


def test_selftest_json_schema(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    _validate("selftest", payload)
    assert payload["status"] == "PASS"
    assert len(payload["items"]) == 8


def test_selftest_skips_under_tight_cap(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--max-objects", "10")
    assert code == 0
    assert "SKIP" in out


def test_selftest_fail_on_skip(capsys):
    code, _, _ = run_cli(
        capsys, "selftest", "--max-objects", "10", "--fail-on-skip"
    )
    assert code == 2


def test_selftest_detects_perturbed_adjacency(capsys, monkeypatch):
    build = automata.build_setpartition_22

    def one_more_start_loop(r):
        g = build(r)
        start = dict(g.rows[0])
        start[0] = start.get(0, 0) + 1
        return dataclasses.replace(g, rows=(start,) + g.rows[1:])

    monkeypatch.setattr(automata, "build_setpartition_22", one_more_start_loop)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 3
    assert "FAIL gf-setpartition-published" in out


# --- exit codes and caps ----------------------------------------------------


def test_usage_error_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "count", "--family", "permutation")
    assert code == 1
    assert "--n" in err


def test_general_flag_is_gone(capsys):
    code, _, err = run_cli(capsys, "graph", "--family", "setpartition", "--general")
    assert code == 1
    assert "--general" in err


def test_unknown_family_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "count", "--family", "matching", "--n", "2")
    assert code == 1
    assert "invalid choice" in err


@pytest.mark.parametrize("verb", ["count", "gf", "series", "graph"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--family", "matching"], "invalid choice: 'matching'"),
        (["--family", "permutation", "--colours", "0"], "error: need at least one colour\n"),
        (["--family", "setpartition", "--j", "1"], "error: bounds j, k must be at least 2\n"),
        (["--family", "permutation", "--k", "1"], "error: bounds j, k must be at least 2\n"),
    ],
)
def test_family_colour_and_bound_faults_are_exit_one(capsys, verb, flags, message):
    size = ["--n", "3"] if verb == "count" else []
    code, out, err = run_cli(capsys, verb, *flags, *size)
    assert (code, out) == (1, "")
    assert message in err


def test_bad_diagram_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "bijection", "--input", "1 2 2")
    assert code == 1
    assert err.startswith("error:")


def test_oracle_cap_is_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "count", "--family", "permutation", "--n", "8",
        "--colours", "3", "--max-objects", "1000",
    )
    assert code == 2
    assert "cap" in err


def test_gf_cap_is_exit_two(capsys):
    # j = k = 3 with six colours: 46,656 states fold into 210 keyed states,
    # over the 200-state determinant cap
    code, _, err = run_cli(
        capsys, "gf", "--family", "setpartition", "--j", "3", "--k", "3",
        "--colours", "6",
    )
    assert code == 2
    assert "210" in err


@pytest.mark.parametrize(
    "family,expected",
    [
        # size 3 is r^2 + 3r + 1 for set partitions; sizes 2 and 3 are 2r^2
        # and 6r^3 - 2r^2 for permutations (the published series at r = 1..4)
        ("setpartition", "1,1,401,161201"),
        ("permutation", "1,400,320000,383680000"),
    ],
)
def test_series_with_many_colours(capsys, family, expected):
    code, out, _ = run_cli(
        capsys, "series", "--family", family, "--colours", "400", "--terms", "3"
    )
    assert code == 0
    assert out.strip() == expected


def test_gf_cap_refuses_many_colours(capsys):
    code, _, err = run_cli(capsys, "gf", "--family", "setpartition", "--colours", "201")
    assert code == 2
    assert "202 states (cap 200)" in err


def test_env_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv("CROSSNEST_MAX_GF_STATES", "2")  # r=2 has 3 orbits
    code, _, _ = run_cli(capsys, "gf", "--family", "setpartition", "--colours", "2")
    assert code == 2


def test_max_states_stops_the_orbit_search(capsys):
    code, _, err = run_cli(
        capsys, "series", "--family", "setpartition", "--j", "3", "--k", "3",
        "--colours", "6", "--method", "power", "--max-states", "50",
    )
    assert code == 2
    assert "more than 50 orbits" in err


def test_flag_overrides_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CROSSNEST_MAX_GF_STATES", "3")
    code, _, _ = run_cli(
        capsys, "gf", "--family", "setpartition", "--colours", "2",
        "--max-gf-states", "10",
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, env, name",
    [
        (["count", "--family", "permutation", "--n", "3", "--max-objects", "-5"],
         None, "--max-objects"),
        (["gf", "--family", "setpartition", "--max-gf-states", "-1"],
         None, "--max-gf-states"),
        (["graph", "--family", "setpartition", "--max-states", "-2"],
         None, "--max-states"),
        (["series", "--family", "permutation"], "-3", "CROSSNEST_MAX_STATES"),
    ],
)
def test_negative_caps_are_input_errors(capsys, monkeypatch, argv, env, name):
    if env is not None:
        monkeypatch.setenv(name, env)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s must be nonnegative" % name)


def test_env_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("CROSSNEST_MAX_ORACLE", "lots")
    code, _, err = run_cli(capsys, "count", "--family", "permutation", "--n", "2")
    assert code == 1
    assert "CROSSNEST_MAX_ORACLE" in err


def test_build_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("CROSSNEST_MAX_STATES", "3")
    code, _, _ = run_cli(capsys, "graph", "--family", "setpartition", "--colours", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["selftest"], ["graph", "--family", "permutation", "--j", "3", "--k", "2", "--colours", "2"]],
)
def test_verbs_leave_no_reference_cycle(capsys, argv):
    """What a request builds, every graph included, is freed by reference
    counting.  The parser is built first: argparse's help formatters make
    cycles, once per process.  Text mode, since the JSON encoder's indented
    output makes cycles of its own."""
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        code = cli.main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert code == 0


def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    argv = ["count", "--family", "permutation", "--n", "3"]
    assert run_cli(capsys, *argv)[0] == run_cli(capsys, *argv)[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_flags_do_not_carry_over_between_calls(capsys):
    argv = ["count", "--family", "permutation", "--n", "3"]
    assert json.loads(run_cli(capsys, *argv, "--json")[1])["count"] == 6
    assert run_cli(capsys, *argv) == (0, "count: 6\n", "")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_help_lists_verbs(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for verb in ("count", "gf", "series", "graph", "bijection", "selftest"):
        assert verb in out


def test_readme_documents_only_existing_flags():
    parser = cli.build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        flag
        for p in (parser, *verbs.choices.values())
        for action in p._actions
        for flag in action.option_strings
    }
    options.add("--no-build-isolation")  # pip's, in the install steps
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    assert sorted(documented - options) == []


# --- the installed entry point ----------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "crossnest", "series", "--family",
         "setpartition", "--colours", "2", "--terms", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,1,3,11,45,197\n"


def test_import_leaves_out_multiprocessing():
    # counting runs in one process, so no start-up pays for the import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, crossnest.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_output_is_byte_identical_across_runs():
    argv = [sys.executable, "-m", "crossnest", "graph", "--family",
            "permutation", "--colours", "2", "--json"]
    first = subprocess.run(argv, capture_output=True).stdout
    second = subprocess.run(argv, capture_output=True).stdout
    assert first == second
