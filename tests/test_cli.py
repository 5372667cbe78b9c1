"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_demo_prints_appendix_table(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Eq.(9)" in out
    assert "22/3" in out  # the {t1} row's exact value
    assert "collective selection" in out


def test_generate_then_select(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    assert (
        main(
            [
                "generate",
                str(path),
                "--primitives",
                "3",
                "--pi-corresp",
                "50",
                "--seed",
                "4",
            ]
        )
        == 0
    )
    assert path.exists()
    assert main(["select", str(path)]) == 0
    out = capsys.readouterr().out
    for method in ("collective", "greedy", "all-candidates", "exact", "independent", "gold"):
        assert method in out


def test_select_single_method(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--seed", "1"])
    assert main(["select", str(path), "--method", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out
    assert "exact" not in out


def test_sweep_prints_levels(capsys):
    assert (
        main(
            [
                "sweep",
                "--noise",
                "pi_errors",
                "--primitives",
                "2",
                "--rows",
                "6",
                "--seeds",
                "1",
                "--levels",
                "0",
                "50",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pi_errors" in out
    assert "collective" in out


def test_select_solver_knobs(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--seed", "1"])
    assert (
        main(
            [
                "select",
                str(path),
                "--method",
                "collective",
                "--ground-shard-size",
                "8",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "collective" in out
    # One problem is built, ground and solved in one process: no
    # executor or solve-side knobs.
    for knob in ("--executor", "--ground-executor", "--solve-executor", "--solve-block-size"):
        with pytest.raises(SystemExit) as exc:
            main(["select", str(path), knob, "2"])
        assert exc.value.code == 2


def test_sweep_solver_knobs(capsys):
    assert (
        main(
            [
                "sweep",
                "--primitives",
                "2",
                "--rows",
                "6",
                "--seeds",
                "1",
                "--levels",
                "0",
                "--ground-shard-size",
                "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "collective" in out
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ground-executor", "serial"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["select", "sweep", "chain"])
def test_nonpositive_ground_shard_size_rejected(tmp_path, capsys, command, value):
    args = [command]
    if command == "select":
        args.append(str(tmp_path / "unused.json"))  # parsing fails first
    with pytest.raises(SystemExit) as exc:
        main([*args, "--ground-shard-size", value])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_generate_respects_kind_restriction(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    main(["generate", str(path), "--primitives", "2", "--kinds", "CP", "--seed", "2"])
    out = capsys.readouterr().out
    assert "CP,CP" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_missing_required_argument_exits():
    with pytest.raises(SystemExit):
        main(["generate"])
