"""Shared fixtures and the acceptance summary hook.

The acceptance module gets one line per criterion in the terminal summary,
with any extra measurements a test recorded (determinant tallies, worst
ratios) appended to its line.
"""

from typing import Dict, List, Tuple

import pytest

from ffgeom import circles
from ffgeom.charsums import Sphere

_acceptance_outcomes: Dict[str, str] = {}
_acceptance_props: Dict[str, List[Tuple[str, object]]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if hasattr(report, "wasxfail"):
        outcome = "xfail (documented expected failure)"
    else:
        outcome = report.outcome
    _acceptance_outcomes[name] = outcome
    if report.user_properties:
        _acceptance_props[name] = list(report.user_properties)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        line = f"{name}: {_acceptance_outcomes[name].upper()}"
        props = _acceptance_props.get(name)
        if props:
            line += "  [" + ", ".join(f"{k}={v}" for k, v in props) + "]"
        terminalreporter.write_line(line)


class RadiusChecks:
    """The witnesses the count check of circles._radius ran over, by (q, a).

    radius_counts keeps one q x q table for every witness on S_a, so its
    result cannot show which witnesses were counted; this log can.
    """

    def __init__(self, check):
        self._check = check
        self._seen: Dict[Tuple[int, int], Dict[str, List[Tuple[int, ...]]]] = {}

    def __call__(self, bad, what, q, a, witnesses):
        # the check covers every (b, c) of the witnesses it is handed
        assert bad.shape == (len(witnesses), q, q), (what, q, a, bad.shape)
        checks = self._seen.setdefault((q, a), {})
        checks.setdefault(what, []).extend(map(tuple, witnesses.tolist()))
        self._check(bad, what, q, a, witnesses)

    def witnesses_checked(self, field, a) -> int:
        """|S_a|, once exactly one check is seen to have run over every
        witness on S_a exactly once in the builds of radius a since the
        last call."""
        sphere = sorted(w.as_ints() for w in Sphere(field, a, 2).points)
        checks = self._seen.pop((field.q, a), {})
        assert len(checks) == 1, (field.q, a, sorted(checks))
        for what, seen in checks.items():
            assert sorted(seen) == sphere, (what, field.q, a, len(seen), len(sphere))
        return len(sphere)


@pytest.fixture
def radius_checks(monkeypatch):
    """Log the witnesses of every radius built from here on; the cache is
    cleared so that the first radius read is built, not read back."""
    log = RadiusChecks(circles._raise_first)
    circles._radius.cache_clear()
    monkeypatch.setattr(circles, "_raise_first", log)
    return log
