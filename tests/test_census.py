"""The execution census (``tests/census.py``) on a fixture package: what
it counts as reached, what it exempts, and that an unreached function
nobody accounts for fails it by name."""

import importlib
import sys

import pytest

from tests import census

FIXTURE = '''"""A module docstring is not a statement."""


def reached(x):
    """Neither is a function's."""
    if x < 0:
        raise ValueError("negative")
    return x + 1


def allowed():
    return "kept on purpose"


def forgotten():
    return "nobody calls this"


class Value:
    def __repr__(self):
        return "Value()"
'''


@pytest.fixture()
def fixture_pkg(tmp_path):
    """Trace importing the fixture and calling ``reached(1)``; returns the
    package directory and the reach."""
    pkg = tmp_path / "censusfixture"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(FIXTURE)
    tracer = census.Tracer(str(pkg))
    sys.path.insert(0, str(tmp_path))
    try:
        tracer.start()
        try:
            importlib.import_module("censusfixture.mod").reached(1)
        finally:
            tracer.stop()
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("censusfixture.mod", None)
        sys.modules.pop("censusfixture", None)
    return str(pkg), tracer.reach()


def line_of(text):
    return FIXTURE.splitlines().index(text) + 1


def test_statements_skip_docstrings_and_mark_exempt_kinds(fixture_pkg):
    pkg, _ = fixture_pkg
    stmts = census.statements(f"{pkg}/mod.py")
    assert (line_of('    return x + 1'), "reached", None) in stmts
    assert (line_of('        raise ValueError("negative")'), "reached",
            "raise") in stmts
    assert (line_of('        return "Value()"'), "Value.__repr__",
            "dunder") in stmts
    assert not any(line in (1, line_of('    """Neither is a function\'s."""'))
                   for line, _, _ in stmts)


def test_the_census_classifies_and_names_the_forgotten_function(fixture_pkg):
    pkg, reach = fixture_pkg
    assert line_of('    return x + 1') in reach["censusfixture/mod.py"]
    allow = {"censusfixture.mod:allowed": "kept on purpose"}
    rows, unaccounted, unknown, unused = census.check(pkg, reach, allow)
    assert [rel for rel, _ in rows] == ["censusfixture/__init__.py",
                                        "censusfixture/mod.py"]
    counts = rows[1][1]
    assert (counts["unreached"], counts["raise"], counts["dunder"],
            counts["allowed"], counts["unaccounted"]) == (4, 1, 1, 1, 1)
    assert unaccounted == [("censusfixture/mod.py",
                            line_of('    return "nobody calls this"'),
                            "censusfixture.mod:forgotten")]
    assert unknown == [] and unused == []
    text = census.render(rows, unaccounted, unknown, unused)
    assert "UNACCOUNTED censusfixture/mod.py:" in text
    assert text.rstrip().endswith("censusfixture.mod:forgotten")

    # On the allowlist, it passes.
    allow["censusfixture.mod:forgotten"] = "fixture"
    assert census.check(pkg, reach, allow)[1] == []


def test_an_allowlist_name_must_name_a_function(fixture_pkg):
    pkg, reach = fixture_pkg
    allow = {"censusfixture.mod:reached": "reached after all",
             "censusfixture.mod:gone": "deleted long ago",
             "censusfixture.mod:Value": "a class covers its methods"}
    _, _, unknown, unused = census.check(pkg, reach, allow)
    assert unknown == ["censusfixture.mod:gone"]
    assert unused == ["censusfixture.mod:reached", "censusfixture.mod:Value"]


def test_an_allowlist_line_needs_a_reason(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\npkg.mod:f  kept for the tests\npkg.mod:g\n")
    with pytest.raises(ValueError, match="pkg.mod:g has no reason"):
        census.load_allow(str(path))


def test_the_committed_allowlist_names_only_what_exists():
    _, _, unknown, _ = census.check(census.PACKAGE, {}, census.load_allow())
    assert unknown == []
