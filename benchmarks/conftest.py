"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures at the
``bench`` scale (set ``REPRO_SCALE=paper`` for the full-size runs) and
writes its report both to stdout and to ``benchmarks/reports/``.
Helpers are fixtures rather than imports, so the suite collects under
every ``--import-mode``.
"""

from pathlib import Path

import pytest

REPORTS_DIR = Path(__file__).parent / "reports"


def _emit_report(name: str, text: str) -> None:
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture
def emit_report():
    """``emit_report(name, text)``: print a report and persist it under
    benchmarks/reports/."""
    return _emit_report
