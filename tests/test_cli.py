import json

import pytest

from hessaut import autgroup, cli


def test_unknown_suite_gives_usage_error(capsys):
    assert cli.main(["verify", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err
    assert cli.main(["verify", "--suite", "nosuch", "--json"]) == 2
    captured = capsys.readouterr()
    assert "unknown suite 'nosuch'" in captured.err
    assert captured.out == ""


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_golay_suite_passes(capsys):
    assert cli.main(["verify", "golay"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] golay.octad-count expected=759 actual=759" in out


def test_json_reports_are_byte_identical_for_equal_seeds(capsys):
    cli.main(["verify", "leech", "--json", "--seed", "7"])
    first = capsys.readouterr().out
    cli.main(["verify", "leech", "--json", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["suite"] == "leech"
    assert doc["duration_ms"] == 0
    assert all(set(c) == {"id", "status", "expected", "actual", "ref"} for c in doc["checks"])
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_suite_option_spelling(capsys):
    assert cli.main(["verify", "--suite", "golay"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_two_different_suite_names_are_a_usage_error(capsys, json_flag):
    assert cli.main(["verify", "golay", "--suite", "curves", *json_flag]) == 2
    captured = capsys.readouterr()
    assert "'golay'" in captured.err and "'curves'" in captured.err
    assert captured.out == ""


def test_the_same_suite_name_twice_runs(capsys):
    assert cli.main(["verify", "golay", "--suite", "golay"]) == 0
    assert "[PASS] golay.octad-count" in capsys.readouterr().out


def test_reduce_word_command(capsys):
    assert cli.main(["reduce", "--word", "p16,tau", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["word"] == ["p16", "tau"]
    assert doc["residual"] is not None
    assert doc["heights"][-1] == 20


def test_reduce_rejects_unknown_generator(capsys):
    assert cli.main(["reduce", "--word", "p16,bogus"]) == 2
    assert "unknown generator" in capsys.readouterr().err


def test_failing_check_exits_one(monkeypatch, capsys):
    def broken(seed):
        return [{"id": "fake.broken", "status": "fail", "expected": "1", "actual": "2",
                 "ref": "forced failure"}]

    monkeypatch.setitem(cli.SUITES, "golay", broken)
    assert cli.main(["verify", "golay"]) == 1
    assert "[FAIL] fake.broken" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["all", "golay"])
def test_a_key_error_inside_a_suite_is_not_a_usage_error(monkeypatch, capsys, suite):
    """The suite name is checked before the run, so an internal KeyError
    propagates instead of being reported as an unknown suite."""
    def broken(seed):
        return {}["missing"]

    monkeypatch.setitem(cli.SUITES, "golay", broken)
    with pytest.raises(KeyError, match="missing"):
        cli.main(["verify", suite])
    assert "unknown suite" not in capsys.readouterr().err


def test_reduce_cap_exits_one_with_message(monkeypatch, capsys):
    def capped(self, gamma, cap=10000):
        raise RuntimeError("height descent failed to terminate")

    monkeypatch.setattr(autgroup.AutContext, "descend", capped)
    assert cli.main(["reduce", "--word", "p16"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "reduce failed: height descent failed to terminate\n"
    assert captured.out == ""
