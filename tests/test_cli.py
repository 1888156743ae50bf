"""The ``python -m repro`` and ``python -m repro.lint`` entry points."""

import json

import pytest

from repro.__main__ import main
from repro.lint.cli import main as lint_main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4_table1" in out and "fig7_ec2" in out


def test_help_is_list(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_experiment_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_runs_one_experiment_at_test_scale(capsys):
    assert main(["fig2_measures", "test"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2" in out


def test_bad_scale_raises():
    with pytest.raises(ValueError):
        main(["fig2_measures", "enormous"])


# -- repro.lint CLI exit-code contract ---------------------------------------
#
# 0 = no error-severity findings, 1 = error findings (or --strict on
# any finding), 2 = engine/config failure with no analysis performed.


def _write(tmp_path, name, source):
    path = tmp_path / "repro" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


CLEAN = '__all__ = ["f"]\n\n\ndef f():\n    return 1\n'


def test_lint_exit_0_on_clean_file(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    assert lint_main([str(path)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_exit_0_on_warnings_only(tmp_path, capsys):
    path = _write(tmp_path, "w.py", "import numpy as np\n")
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint.all-exports]\nseverity = \"warning\"\n"
    )
    args = [str(path), "--config", str(tmp_path)]
    assert lint_main(args) == 0
    out = capsys.readouterr().out
    assert "warning[all-exports]" in out
    # --strict promotes the same warning to a failure.
    assert lint_main(args + ["--strict"]) == 1
    capsys.readouterr()


def test_lint_exit_1_on_error_finding(tmp_path, capsys):
    path = _write(
        tmp_path,
        "bad.py",
        '__all__ = ["f"]\n'
        "import numpy as np\n\n\n"
        "def f():\n"
        "    return np.random.normal(size=3)\n",
    )
    assert lint_main([str(path)]) == 1
    assert "no-global-rng" in capsys.readouterr().out


def test_lint_exit_1_on_syntax_error(tmp_path, capsys):
    path = _write(tmp_path, "broken.py", "def oops(:\n")
    # Columns are 1-based, like rule findings: the ``:`` is column 10,
    # and the per-file and whole-program paths report it alike.
    for extra in ([], ["--project"]):
        assert lint_main([str(path), *extra]) == 1
        out = capsys.readouterr().out
        assert "broken.py:1:10: error[syntax-error]" in out


def test_lint_exit_2_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_lint_exit_2_on_bad_config(tmp_path, capsys):
    _write(tmp_path, "ok.py", CLEAN)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint.all-exports]\nseverity = \"fatal\"\n"
    )
    code = lint_main(
        [str(tmp_path / "repro"), "--config", str(tmp_path)]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_lint_project_json_reports_analysis_stats(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    code = lint_main([str(path), "--project", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analysis"]["files"] == 1
    assert payload["analysis"]["wall_time_s"] >= 0.0


@pytest.mark.parametrize(
    "option",
    [
        ["--jobs", "2"],
        ["--cache", "f"],
        ["--baseline", "f"],
        ["--write-baseline", "f"],
        ["--format", "sarif"],
    ],
    ids=["jobs", "cache", "baseline", "write-baseline", "sarif"],
)
def test_lint_rejects_removed_options(tmp_path, capsys, option):
    path = _write(tmp_path, "ok.py", CLEAN)
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(path), *option])
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_lint_list_rules_includes_project_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "rng-taint",
        "shared-state-race",
        "ckpt-state-coverage",
        "trace-discipline",
    ):
        assert rule in out
