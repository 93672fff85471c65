import json
from pathlib import Path

import pytest

from skein_homfly.cli import build_parser, main
from skein_homfly.exact import canonical_text, laurent_from_json, q_bracket, t_bracket, RationalQT
from skein_homfly.special import alexander_torus

TREFOIL_ARGS = ["torus", "--m", "2", "--n", "3", "--components", "1", "--colors", "(1)"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_torus_trefoil_text(capsys):
    code, out, _ = run_cli(capsys, *TREFOIL_ARGS)
    assert code == 0
    assert out == (
        "(-1*q^0*t^2 + 1*q^0*t^4 + 1*q^2*t^0 - 1*q^2*t^2 - 1*q^4*t^2 + 1*q^4*t^4)"
        " / (-1*q^1*t^5 + 1*q^3*t^5)\n"
    )


def test_torus_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, *TREFOIL_ARGS, "--json")
    assert code == 0
    payload = json.loads(out)
    num = laurent_from_json(payload["num"])
    den = laurent_from_json(payload["den"])
    # value equals delta * P for the simplest odd torus knot
    from skein_homfly.exact import LaurentQT, delta

    p = RationalQT(LaurentQT({(2, -2): 1, (-2, -2): 1, (0, -4): -1}))
    assert RationalQT(num, den) == delta() * p


def test_unknot_value(capsys):
    code, out, _ = run_cli(capsys, "unknot", "--color", "(1)")
    assert code == 0
    assert RationalQT.one() != 0  # sanity
    from skein_homfly.exact import delta

    # parse back through the canonical fraction layout
    assert out.strip() == str(delta())


def test_special_delta_basis_string(capsys):
    code, out, _ = run_cli(
        capsys, "special", "--kind", "delta", "--m", "2", "--n", "3",
        "--color", "(2,2)", "--basis", "delta",
    )
    assert code == 0
    assert out == "5 - 4*D_4 - D_6 + 3*D_8 + 2*D_10 - 2*D_12 - D_14 + D_16\n"


def test_special_delta_at_n_100_prints_the_alexander_closed_form(capsys):
    # T(10, 3)[(10)], N = 100 and p(100) about 1.9e8: only the 100 hooks of
    # N, the mu of Durfee size 1, are listed; the closed form is independent
    code, out, _ = run_cli(capsys, "special", "--kind", "delta", "--m", "10", "--n", "3", "--color", "(10)")
    assert code == 0
    assert out == canonical_text(alexander_torus(10, 3, 10)) + "\n"


def test_special_H_monomial(capsys):
    code, out, _ = run_cli(
        capsys, "special", "--kind", "H", "--m", "2", "--n", "3", "--color", "(1)"
    )
    assert code == 0
    assert out == "-1*q^0*t^-4 + 2*q^0*t^-2\n"


def test_characters_csv(capsys):
    code, out, _ = run_cli(capsys, "characters", "--n", "2")
    assert code == 0
    assert out == ',(2),"(1,1)"\n(2),1,1\n"(1,1)",-1,1\n'


def test_plethysm_listing(capsys):
    code, out, _ = run_cli(capsys, "plethysm", "--m", "2", "--colors", "(1)")
    assert code == 0
    assert out == "(2): 1\n(1,1): -1\n"


def test_homfly_braid_output(capsys):
    code, out, _ = run_cli(capsys, "homfly-braid", "--strands", "2", "--word", "s1 s1 s1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "writhe = 3"
    assert lines[2] == "P = 1*q^-2*t^-2 - 1*q^0*t^-4 + 1*q^2*t^-2"


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "lemma73")
    assert code == 0
    assert "PASS" in out
    assert "elapsed" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "thm22", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["theorem"] == "thm22"
    assert "elapsed" not in payload


def test_verify_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"parity_max": 4}))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "lemma73", "--grid", str(grid))
    assert code == 0
    assert "degree <= 4" in out


def test_verify_degenerate_torus_grid(tmp_path, capsys):
    # degenerate torus parameters: T(1, 0), T(1, +-1) and T(m, +-1) are all unknots
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "knots": [[1, 0], [1, 1], [1, -1], [2, 1], [2, -1], [3, 1]],
        "links": [[1, 0, 2], [1, -1, 2]],
        "max_color": 2,
        "hook_max": 3,
    }))
    for theorem in ("thm62", "thm64", "thm71", "thm72", "lemma65", "lemma73", "thm22"):
        code, out, _ = run_cli(capsys, "verify", "--theorem", theorem, "--grid", str(grid))
        assert code == 0, theorem
        assert f"theorem={theorem} " in out and "failures=0 PASS" in out


def test_math_error_exit_one(capsys):
    code, out, err = run_cli(
        capsys, "torus", "--m", "2", "--n", "4", "--components", "1", "--colors", "(1)"
    )
    assert code == 1
    assert "NonCoprime" in err


def test_limit_error_exit_one(capsys):
    # t -> 1 limit of the 2-component family does not exist
    code, out, err = run_cli(
        capsys, "special", "--kind", "delta", "--m", "1", "--n", "1",
        "--colors", "(1);(1)",
    )
    assert code == 1
    assert "LimitDoesNotExist" in err


def test_special_H_accepts_links(capsys):
    code, out, _ = run_cli(
        capsys, "special", "--kind", "H", "--m", "1", "--n", "1",
        "--colors", "(1);(1)",
    )
    assert code == 0
    assert out.strip() == "1*q^0*t^0"


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["torus", "--m", "2"])
    assert exc.value.code == 2


def test_bad_partition_text_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unknot", "--color", "(1,2)"])
    assert exc.value.code == 2


def test_unmatched_partition_brackets_exit_two(capsys):
    # "[3,1]" is (3,1); a mismatched pair is a usage error naming the form
    code, out, _ = _exit_code(capsys, ["unknot", "--color", "[3,1]"])
    assert code == 0 and out == _exit_code(capsys, ["unknot", "--color", "(3,1)"])[1]
    for color in ("(3,1]", "[3,1)", "(3,1"):
        code, out, err = _exit_code(capsys, ["unknot", "--color", color])
        assert code == 2, color
        assert out == "" and "unmatched brackets in partition" in err and "invalid integer" not in err, color


def test_nested_partition_brackets_exit_two(capsys):
    # one pair of delimiters is read; a second pair is a usage error naming
    # the form, not an invalid integer
    for color in ("((3,1))", "[(3,1)]", "([3,1])"):
        code, out, err = _exit_code(capsys, ["unknot", "--color", color])
        assert code == 2, color
        assert out == "" and "invalid integer" not in err, color
        assert f"brackets inside partition '{color}': only one pair of ( ) or [ ] is read" in err, color


@pytest.mark.parametrize(
    "argv, message",
    [
        (TREFOIL_ARGS[:5] + ["--components", "2", "--colors", "(1)"], "need exactly L colors"),
        (["homfly-braid", "--strands", "9", "--word", "1"], "exceeds the cap 8"),
        (["homfly-braid", "--strands", "3", "--word", "sx"], "bad braid letter 'sx'"),
        (["homfly-braid", "--strands", "2", "--word", "3"], "IndexOutOfRange: generator index 3 outside 1..1"),
        (
            ["special", "--kind", "H", "--m", "2", "--n", "3", "--color", "(1)", "--basis", "delta"],
            "delta basis applies to univariate q-polynomials",
        ),
        (["characters", "--n", "0"], "ValueError: n = 0 must be at least 1"),
    ],
    ids=[
        "torus-color-count",
        "braid-strand-cap",
        "braid-bad-letter",
        "braid-generator-range",
        "special-H-delta-basis",
        "characters-n-below-one",
    ],
)
def test_invalid_spec_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_non_integer_max_n_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("SKEIN_HOMFLY_MAX_N", "twelve")
    code, out, err = run_cli(capsys, "characters", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: ValueError: SKEIN_HOMFLY_MAX_N must be an integer, got 'twelve'\n"


def test_max_n_takes_ascii_digits_only(monkeypatch, capsys):
    for raw in ("1_3", "+13", "\u0661\u0663"):
        monkeypatch.setenv("SKEIN_HOMFLY_MAX_N", raw)
        code, out, err = run_cli(capsys, "characters", "--n", "3")
        assert code == 2 and out == ""
        assert err == f"error: ValueError: SKEIN_HOMFLY_MAX_N must be an integer, got {raw!r}\n"


def test_missing_grid_file_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "verify", "--theorem", "lemma73", "--grid", missing)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "cannot read grid file" in err
    assert err.count("\n") == 1


def test_unknown_grid_key_exit_two(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    # an unknown key, then values of the wrong shape and type
    for raw, key in (
        ({"max_colour": 1}, "max_colour"),
        ({"knots": 5}, "'knots'"),
        ({"max_color": "x"}, "'max_color'"),
    ):
        grid.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "verify", "--theorem", "thm72", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1


def test_empty_grid_exit_two(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    for theorem, raw, message in (
        ("thm72", {"max_color": 0}, "ValueError: thm72 has no cases on the grid knots="),
        ("lemma65", {"hook_identity_max": -3}, "ValueError: lemma65 has no cases on the grid |B| <= -3"),
        # no case of the claim: thm64 would run only its counterexample,
        # thm62 only empty colors and links
        ("thm64", {"hook_max": 0}, "ValueError: thm64 has no cases on the grid knots="),
        ("thm62", {"max_color": -1}, "ValueError: thm62 has no cases on the grid knots="),
        ("thm62", {"knots": []}, "ValueError: thm62 has no cases on the grid knots=[]"),
    ):
        grid.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


def test_three_component_grid_link_exit_two(tmp_path, capsys):
    # thm62 reads the links too: a 3-component link must not run as a 2-component one
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"links": [[1, 1, 3]], "max_color": 1}))
    for theorem in ("thm62", "thm71", "thm72"):
        code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--grid", str(grid))
        assert code == 2, theorem
        assert out == ""
        assert err == "error: ValueError: only 2-component links in the default grids\n"


def _exit_code(capsys, argv):
    # argparse usage errors leave main through SystemExit
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "\uff11"])
def test_numerals_other_than_ascii_digits_exit_two(capsys, token):
    # int() reads each of these; argparse rejects them as usage errors
    for argv in (
        ["torus", "--m", "2", "--n", "3", "--components", "1", "--colors", f"({token})"],
        ["unknot", "--color", f"(2,{token})"],
        ["torus", "--m", token, "--n", "3", "--components", "1", "--colors", "(1)"],
        ["homfly-braid", "--strands", token, "--word", "1"],
        ["characters", "--n", token],
    ):
        code, out, err = _exit_code(capsys, argv)
        assert code == 2, argv
        assert out == "" and "invalid integer" in err, argv


def test_blank_colors_exit_two(capsys):
    # a blank color token is a usage error, not the empty partition
    hopf = ["torus", "--m", "1", "--n", "1", "--components", "2", "--colors"]
    for argv in (
        hopf + ["(1);"],
        hopf + [";(2)"],
        ["torus", "--m", "1", "--n", "1", "--components", "3", "--colors", "(1);;(2)"],
        ["unknot", "--color", ""],
        ["unknot", "--color", "  "],
    ):
        code, out, err = _exit_code(capsys, argv)
        assert code == 2, argv
        assert out == "" and "blank partition" in err and "[] or ()" in err, argv
    # the empty partition written out still parses
    for argv in (
        hopf + ["(1);[]"],
        ["unknot", "--color", "[]"],
        ["unknot", "--color", "()"],
        ["unknot", "--color", "[ ]"],
    ):
        code, out, _ = _exit_code(capsys, argv)
        assert code == 0 and out, argv


def test_negative_integer_options_still_parse(capsys):
    code, out, _ = _exit_code(capsys, ["torus", "--m", "2", "--n", "-3", "--components", "1", "--colors", "(1)"])
    assert code == 0 and out
    code, out, _ = _exit_code(capsys, ["homfly-braid", "--strands", " 2 ", "--word", "-1"])
    assert code == 0 and out


def test_parser_shared_across_calls(capsys):
    # one process: bad call, good call, bad call again; each call must match
    # the same call on a freshly built parser
    calls = (
        ["torus", "--m", "2"],
        ["unknot", "--color", "(1,2)"],
        TREFOIL_ARGS,
        ["homfly-braid", "--strands", "2", "--word", "3"],
        ["torus", "--m", "2"],
        ["unknot", "--color", "(1,2)"],
    )
    build_parser.cache_clear()
    shared = [_exit_code(capsys, list(argv)) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_exit_code(capsys, list(argv)))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 2, 0, 2, 2, 2]
    assert shared[0] == shared[4] and shared[1] == shared[5]
    assert shared[0][2].startswith("usage: skein-homfly torus")


def test_byte_identical_across_threads(capsys):
    outputs = []
    for threads in ("1", "4"):
        code, out, _ = run_cli(
            capsys, "--threads", threads, "verify", "--theorem", "thm22"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_readme_library_tour(capsys):
    # the README's Python example runs and prints the line its comment gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected == ["5 - 4*D_4 - D_6 + 3*D_8 + 2*D_10 - 2*D_12 - D_14 + D_16"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_repeated_runs_identical(capsys):
    runs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, *TREFOIL_ARGS)
        runs.add(out)
    assert len(runs) == 1
