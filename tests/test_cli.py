import json

import pytest

from skein_homfly.cli import main
from skein_homfly.exact import laurent_from_json, q_bracket, t_bracket, RationalQT

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


def test_byte_identical_across_threads(capsys):
    outputs = []
    for threads in ("1", "4"):
        code, out, _ = run_cli(
            capsys, "--threads", threads, "verify", "--theorem", "thm22"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_repeated_runs_identical(capsys):
    runs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, *TREFOIL_ARGS)
        runs.add(out)
    assert len(runs) == 1
