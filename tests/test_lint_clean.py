"""Tier-1 gate: the shipped tree must be lint-clean.

Runs the full default rule set (with the repo's ``[tool.repro-lint]``
configuration) over ``src/repro`` exactly like
``python -m repro.lint src/repro`` would, and fails listing every
diagnostic if anything regressed.  A companion test seeds a violation
to prove the gate actually bites.  The whole-program gate additionally
runs the flow rules (``--project``) and requires zero findings.
"""

from pathlib import Path

from repro.lint import ProjectAnalyzer, Linter, format_text, load_config, run_lint
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_source_tree_is_lint_clean():
    config = load_config(REPO_ROOT)
    violations = Linter(config=config).lint_paths([str(SRC)])
    assert violations == [], "\n" + format_text(violations)


def test_whole_program_pass_is_clean():
    """The flow rules (rng-taint, shared-state-race,
    ckpt-state-coverage, trace-discipline) hold on the shipped tree."""
    config = load_config(REPO_ROOT)
    result = ProjectAnalyzer(config=config).analyze([str(SRC)])
    assert result.violations == [], "\n" + format_text(result.violations)
    assert result.stats["files"] > 0


def test_whole_program_cli_gate_exits_zero(capsys):
    assert main([str(SRC), "--project"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_seeded_violation_is_caught(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import numpy as np\n\n"
        "__all__ = [\"draw\"]\n\n\n"
        "def draw():\n"
        "    buf = np.zeros(3)\n"
        "    return np.random.normal(size=3)\n"
    )
    violations = run_lint([str(bad)])
    assert {v.rule for v in violations} == {"no-global-rng", "explicit-dtype"}
    assert all(v.line in (7, 8) for v in violations)
    # ...and the CLI turns that into a non-zero exit with file:line output.
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:8" in out


def test_cli_clean_tree_exits_zero(capsys):
    assert main([str(SRC)]) == 0
    assert "0 error(s)" in capsys.readouterr().out
