import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "repo", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=100
)
settings.load_profile("repo")


@pytest.fixture
def rng():
    return random.Random(0xF39A)


def pytest_terminal_summary(terminalreporter):
    import acceptance_log

    if acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def check_program_scans(monkeypatch):
    """Every program ``femtoc.verifier.check_program`` scans, in call order.

    The counter replaces each femtoc module's binding of the function, so a
    scan is seen whichever module makes it."""
    import femtoc.verifier

    original = femtoc.verifier.check_program
    scanned = []

    def counted(program, *args, **kwargs):
        scanned.append(program)
        return original(program, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "femtoc" and getattr(module, "check_program", None) is original:
            monkeypatch.setattr(module, "check_program", counted)
    return scanned
