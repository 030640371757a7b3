import pytest

acceptance_key = pytest.StashKey()


def pytest_configure(config):
    config.stash[acceptance_key] = {}


@pytest.fixture
def record_criterion(request):
    """Log a criterion verdict for the end-of-run acceptance summary."""

    def _record(number: int, label: str, passed: bool) -> bool:
        request.config.stash[acceptance_key][number] = (label, "PASS" if passed else "FAIL")
        return passed

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = config.stash.get(acceptance_key, {})
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(rows):
        label, verdict = rows[number]
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {verdict} {label}")
