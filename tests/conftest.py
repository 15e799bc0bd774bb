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
    """Every program the verifier's one scan checks, in call order.

    ``check_program`` and ``verify`` both run ``femtoc.verifier._scan``, so
    counting its calls counts verification passes whichever entry point
    makes them."""
    import femtoc.verifier

    original = femtoc.verifier._scan
    scanned = []

    def counted(program, *args, **kwargs):
        scanned.append(program)
        return original(program, *args, **kwargs)

    monkeypatch.setattr(femtoc.verifier, "_scan", counted)
    return scanned


@pytest.fixture
def forbid_instructions(monkeypatch):
    """Call the returned function to make every later ``Instruction``
    construction fail the test: the hosting path decodes no slots."""
    from femtoc.isa import Instruction

    def refuse(self, *args, **kwargs):
        raise AssertionError("an Instruction was built on the hosting path")

    return lambda: monkeypatch.setattr(Instruction, "__init__", refuse)


@pytest.fixture
def compiled_tier(monkeypatch):
    """Force the compiled tier: every verified program compiles at its
    first run. Returns the forms compiled so far, in order."""
    import femtoc.vm

    original = femtoc.vm.compile_form
    compiled = []

    def counted(form):
        compiled.append(form)
        return original(form)

    monkeypatch.setattr(femtoc.vm, "HOT_STEPS_PER_SLOT", 0)
    monkeypatch.setattr(femtoc.vm, "compile_form", counted)
    return compiled
