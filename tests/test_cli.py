import json
import shlex
import sys
from pathlib import Path

import pytest

from orthox.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, err = run(capsys, "reduce", "--family", "inf,inf", "aabb")
    assert (code, out, err) == (0, "ab\n", "")


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "--family", "inf,inf",
                       "--format", "json", "baab")
    assert code == 0
    assert json.loads(out) == {"i": 0, "k": 1, "l": 2, "j": 1}


def test_reduce_group_json(capsys):
    code, out, _ = run(capsys, "reduce", "--group-case", "2",
                       "--format", "json", "ab")
    assert code == 0
    assert json.loads(out) == {"g": 0, "col": "b", "order": "inf"}


def test_mul_inv_eq(capsys):
    assert run(capsys, "mul", "--family", "inf,inf", "ba^2", "ab")[1] == "ba^3b\n"
    assert run(capsys, "inv", "--family", "inf,inf", "ab^2")[1] == "a^2b\n"
    assert run(capsys, "eq", "--family", "inf,inf", "aabb", "ab")[1] == "true\n"
    assert run(capsys, "eq", "--family", "inf,inf", "ab", "ba")[1] == "false\n"


def test_green(capsys):
    code, out, _ = run(capsys, "green", "--family", "inf,inf", "--rel", "R",
                       "ab^2a^3", "ab^2")
    assert (code, out) == (0, "true\n")


def test_idem(capsys):
    assert run(capsys, "idem", "--family", "inf,inf", "ab")[1] == "true\n"
    assert run(capsys, "idem", "--family", "inf,inf", "a")[1] == "false\n"
    code, out, _ = run(capsys, "idem", "--family", "1,1", "--bound", "2")
    assert out == "ab\nba\nb^2a^2\n"


def test_eggbox(capsys):
    code, out, _ = run(capsys, "eggbox", "--family", "inf,inf",
                       "--window", "1,1,1,1")
    assert code == 0
    assert out.splitlines()[1].startswith("a^2b")
    code, out, _ = run(capsys, "eggbox", "--group-case", "2",
                       "--window", "0,0,0,0")
    assert out.startswith("H_a:")


def test_eggbox_json(capsys):
    code, out, err = run(capsys, "eggbox", "--family", "inf,inf",
                         "--window", "0,1,0,1", "--format", "json")
    assert (code, out, err) == (0, '[["ab", "a"], ["b", "ba"]]\n', "")


def test_band_dot(capsys):
    code, out, _ = run(capsys, "band", "--family", "1,1", "--bound", "2",
                       "--format", "dot")
    assert '"ab" -> "ba" [style=bold];' in out


def test_image(capsys):
    assert run(capsys, "image", "--family", "inf,inf", "ab^2a")[1] == "ba\n"
    assert run(capsys, "image", "--group-case", "1", "--order", "5",
               "a^4b")[1] == "3\n"


def test_classify(capsys):
    assert run(capsys, "classify", "a^4b", "a^3")[1] == "RightBound(3)\n"
    assert run(capsys, "classify", "ba", "bbaa")[1] == "Impossible\n"


def test_infer(capsys):
    code, out, _ = run(capsys, "infer", "--rel", "a^4b=a^3",
                       "--rel", "ab^3=b^2")
    assert out == "Combinatorial(3,2)\n"
    code, out, _ = run(capsys, "infer", "--rel", "ba=b^2a^2",
                       "--rel", "ab^2=b", "--rel", "a^6=a",
                       "--format", "json")
    assert json.loads(out) == {"kind": "group", "case": 2,
                               "absorb_left": False, "absorb_right": True,
                               "order": 5}


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--family", "3,2", "--max-len", "5",
                       "--cap", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == []
    assert payload["cap_warning"] is False
    assert payload["agreements"] == 62 * 61 // 2


@pytest.mark.parametrize("huge, infinite", [
    (["--group-case", "1", "--order", "1000000000000"], ["--group-case", "1", "--order", "inf"]),
    (["--family", "1000000000000,2"], ["--family", "inf,2"]),
], ids=["order", "family"])
@pytest.mark.parametrize("fmt", ["ascii", "json"])
def test_verify_huge_bound_prints_the_infinite_answer(capsys, huge, infinite, fmt):
    limits = ["--max-len", "10", "--cap", "15", "--format", fmt]
    expected = run(capsys, "verify", *infinite, *limits)
    assert expected[0] == 0
    assert run(capsys, "verify", *huge, *limits) == expected


def test_verify_spells_an_order_relation_longer_than_the_words(capsys):
    # a^13 = a has 13 letters, yet it joins a^6 and b^6.
    code, out, _ = run(capsys, "verify", "--group-case", "4", "--order", "12",
                       "--max-len", "6")
    assert code == 0
    assert "mismatches: 0\n" in out and out.endswith("cap_warning: false\n")


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "reduce", "--family", "inf,inf", "abc")
    assert code == 1
    assert out == ""
    assert err.startswith("BadSymbol:")
    code, _, err = run(capsys, "reduce", "abc")
    assert code == 1 and "family selector" in err
    code, _, err = run(capsys, "eggbox", "--family", "4,3",
                       "--window", "3,3,3,3")
    assert code == 1 and err.startswith("WindowExceedsBounds:")


def test_non_ascii_exponent_exit_1(capsys):
    code, out, err = run(capsys, "reduce", "--family", "inf,inf", "a^\u0663b")
    assert (code, out) == (1, "")
    assert err.startswith("BadExponent:")


def test_huge_exponents(capsys):
    n = 10**18
    code, out, err = run(capsys, "reduce", "--family", "inf,inf",
                         f"a^{n}b^{n + 3}a")
    assert (code, out, err) == (0, "ab^4a\n", "")
    code, out, err = run(capsys, "infer", "--rel", "a^1000000000000=a")
    assert (code, out) == (0, "GroupCase(1, order=999999999999)\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["green", "--family", "inf,inf", "--rel", "Q", "a", "b"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["reduce", "ab"], ["mul", "ab", "ba"], ["inv", "ab"], ["idem"], ["eggbox"],
    ["verify", "--max-len", "2"],
], ids=lambda argv: argv[0])
def test_format_dot_is_band_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--family", "1,1", "--format", "dot", *command[1:]])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


def test_order_needs_group_case(capsys):
    code, out, err = run(capsys, "reduce", "--family", "1,1", "--order", "5", "aab")
    assert (code, out, err) == (1, "", "OrthoxError: --order applies to --group-case only\n")
    # Without --order a group case keeps its infinite default.
    assert run(capsys, "reduce", "--group-case", "1", "a^7b^2")[:2] == (0, "a^6b\n")


@pytest.mark.parametrize("argv, message", [
    (["--group-case", "1", "--order", "0", "--bound", "3"], "--order must be >= 1, got 0"),
    (["--family", "0,1"], "--family bound must be >= 1, got 0"),
], ids=["order", "family"])
def test_bound_errors_name_their_option(capsys, argv, message):
    assert run(capsys, "idem", *argv) == (1, "", f"OrthoxError: {message}\n")


def test_output_determinism(capsys):
    args = ["band", "--family", "3,2", "--bound", "3", "--format", "dot"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_result_exponent_too_long_exit_1(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("str() writes ints of any length on this interpreter")
    word = "b^" + "9" * limit
    for fmt in ("ascii", "json"):
        code, out, err = run(capsys, "mul", "--family", "inf,inf",
                             "--format", fmt, word, word)
        assert (code, out) == (1, "")
        assert err.startswith("BadExponent:") and str(limit) in err
        assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "image", "--group-case", "1",
                         "a" + word[1:] + "a" + word[1:])
    assert (code, out) == (1, "") and err.startswith("BadExponent:")


def test_negative_reps_exit_1(capsys):
    for family in (["--group-case", "1"], ["--family", "inf,inf"]):
        code, out, err = run(capsys, "eggbox", *family, "--reps", "-1")
        assert (code, out) == (1, "")
        assert "reps must be >= 0" in err
    code, out, _ = run(capsys, "eggbox", "--group-case", "1", "--reps", "0")
    assert code == 0 and out.split() == ["H_a:", "|", "H_ab:", "H_ba:", "|", "H_b:"]


@pytest.mark.parametrize("command", ["idem", "band"])
def test_bound_below_1_exit_1(capsys, command):
    for family in (["--group-case", "1"], ["--group-case", "4", "--order", "3"],
                   ["--family", "inf,inf"]):
        code, out, err = run(capsys, command, *family, "--bound", "0")
        assert (code, out) == (1, "")
        assert err == "OrthoxError: bound must be >= 1, got 0\n"


@pytest.mark.parametrize("argv,message", [
    (["verify", "--family", "inf,inf", "--cap", "6"],
     "OrthoxError: --max-len must be <= --cap, got 7 > 6"),
    (["verify", "--family", "inf,inf", "--max-len", "11", "--cap", "12"],
     "OrthoxError: --max-len must be <= 10, got 11"),
    (["idem", "--family", "inf,inf", "--bound", "10001"],
     "OrthoxError: bound must be <= 10000, got 10001"),
    (["band", "--family", "inf,inf", "--bound", "10001", "--format", "dot"],
     "OrthoxError: bound must be <= 10000, got 10001"),
    (["eggbox", "--family", "inf,inf", "--window", "0,101,0,0"],
     "WindowExceedsBounds: window counts must be >= 0 and <= 100, "
     "got EggboxWindow(rows_up=0, rows_down=101, cols_left=0, cols_right=0)"),
    (["eggbox", "--group-case", "1", "--window", "0,101,0,0"],
     "WindowExceedsBounds: window counts must be >= 0 and <= 100, "
     "got EggboxWindow(rows_up=0, rows_down=101, cols_left=0, cols_right=0)"),
    (["eggbox", "--group-case", "1", "--reps", "1001"],
     "OrthoxError: reps must be >= 0 and <= 1000, got 1001"),
], ids=["cap", "max-len", "idem-bound", "band-bound", "eggbox-window",
        "group-eggbox-window", "eggbox-reps"])
def test_size_limits_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("argv,message", [
    (["--max-len", "0"], "--max-len must be >= 1, got 0"),
    (["--max-len", "-2", "--cap", "9"], "--max-len must be >= 1, got -2"),
    (["--max-len", "9", "--cap", "8"], "--max-len must be <= --cap, got 9 > 8"),
], ids=["max-len-0", "max-len-negative", "max-len-above-cap"])
def test_verify_range_errors_name_their_options(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--family", "3,2", *argv)
    assert (code, out, err) == (1, "", f"OrthoxError: {message}\n")


@pytest.mark.parametrize("argv,lines", [
    (["idem", "--group-case", "1", "--bound", "10000"], 4),
    (["band", "--group-case", "4", "--bound", "10000"], 4),
    (["eggbox", "--family", "inf,inf", "--window", "0,100,0,0"], 101),
    (["eggbox", "--group-case", "4", "--reps", "1000"], 1),
])
def test_size_limits_admit_the_limit(capsys, argv, lines):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == lines


def readme_examples():
    """A param (argv, expected stdout) for each `$ orthox` line of README's CLI block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.strip().splitlines():
        if line.startswith("$ orthox "):
            examples.append((shlex.split(line)[2:], []))
        else:
            examples[-1][1].append(line)
    return [pytest.param(argv, "".join(out + "\n" for out in lines), id=argv[0])
            for argv, lines in examples]


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_examples(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")
