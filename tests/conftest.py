import itertools

import pytest
from pathlib import Path

from qhenum.backend import resolve_solver

REPO = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO / "benchmarks"


@pytest.fixture(scope="session")
def solver():
    return resolve_solver()


@pytest.fixture(scope="session")
def benchmarks():
    return BENCHMARKS


@pytest.fixture
def stub_solver(tmp_path):
    """Make a solver command that reads its query and gives a fixed reply.

    Stubs test how queries travel, never what a real solver would answer.
    """
    numbers = itertools.count(1)

    def make(stdout: str, stderr: str = "", code: int = 0) -> list[str]:
        script = tmp_path / f"stub-solver-{next(numbers)}.sh"
        script.write_text(
            "#!/bin/sh\n"
            "cat > /dev/null\n"
            f"cat <<'REPLY'\n{stdout}\nREPLY\n"
            + (f"cat >&2 <<'ERR'\n{stderr}\nERR\n" if stderr else "")
            + f"exit {code}\n"
        )
        script.chmod(0o755)
        return [str(script)]

    return make


@pytest.fixture
def case_solver(tmp_path):
    """Make a solver command whose reply depends on the query text: ``hit``
    when the query contains ``pattern``, ``miss`` otherwise."""
    numbers = itertools.count(1)

    def make(pattern: str, hit: str, miss: str) -> list[str]:
        script = tmp_path / f"case-solver-{next(numbers)}.sh"
        script.write_text(
            "#!/bin/sh\n"
            "query=$(cat)\n"
            f'case "$query" in\n  *{pattern}*) cat <<\'REPLY\'\n{hit}\nREPLY\n  ;;\n'
            f"  *) cat <<'REPLY'\n{miss}\nREPLY\n  ;;\nesac\n"
        )
        script.chmod(0o755)
        return [str(script)]

    return make
