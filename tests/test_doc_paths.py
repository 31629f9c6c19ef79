"""Every repository path and ``repro`` name cited in the docs and
docstrings exists.

A backticked ``benchmarks/…``, ``docs/…``, ``examples/…`` or ``tests/…``
path in ``README.md``, ``DESIGN.md``, ``docs/*.md`` or ``src/**/*.py``
must name a file or directory of this checkout.  A ``#anchor`` suffix is
dropped before the check; glob patterns must match at least one path.
A ``::Name`` suffix must name a ``def`` or ``class`` of the cited file:
the first name after ``::`` is checked, with any ``[param]`` dropped.

A backticked dotted ``repro.…`` name (``~`` prefix allowed, as in
``:class:`~repro.core.fastpath.FastPathTable```) in the same files must
resolve: its longest importable module prefix is imported and the rest
is looked up attribute by attribute.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CITED = re.compile(r"`+((?:benchmarks|docs|examples|tests)/[^`\s]*)`")
NAMED = re.compile(r"`+~?(repro(?:\.\w+)+)")


def _citing_files():
    yield ROOT / "README.md"
    yield ROOT / "DESIGN.md"
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "src").rglob("*.py"))


def _citations():
    """Yield ``(citing file, cited path, name)``; ``name`` is the first
    name after ``::``, or ``""`` when there is none."""
    for source in _citing_files():
        for match in CITED.finditer(source.read_text(encoding="utf-8")):
            path, _, names = match.group(1).split("#")[0].partition("::")
            name = re.split(r"::|\[", names)[0]
            yield source.relative_to(ROOT), path.rstrip("/"), name


def _names():
    for source in _citing_files():
        for match in NAMED.finditer(source.read_text(encoding="utf-8")):
            yield source.relative_to(ROOT), match.group(1)


def _defines(path, name):
    """Does the file at ``path`` define ``name`` with ``def`` or ``class``?"""
    source = ROOT / path
    if not source.is_file():
        return False  # a dangling path, which the path test reports
    text = source.read_text(encoding="utf-8")
    pattern = r"^\s*(?:async\s+)?(?:def|class)\s+%s\s*[(:]" % re.escape(name)
    return re.search(pattern, text, re.MULTILINE) is not None


def _resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_citations_are_found():
    assert len({path for _, path, _ in _citations()}) >= 20


def test_every_cited_path_exists():
    dangling = sorted(
        "%s cites %s" % (source, path)
        for source, path, _ in _citations()
        if not any(ROOT.glob(path))
    )
    assert not dangling, "\n".join(dangling)


def test_cited_test_names_are_found():
    assert len({(path, name) for _, path, name in _citations() if name}) >= 10


def test_every_cited_test_name_is_defined():
    undefined = sorted(
        "%s cites %s::%s" % (source, path, name)
        for source, path, name in _citations()
        if name and not _defines(path, name)
    )
    assert not undefined, "\n".join(undefined)


def test_names_are_found():
    assert len({name for _, name in _names()}) >= 40


def test_every_cited_name_resolves():
    dangling = sorted(
        "%s names %s" % (source, name)
        for source, name in _names()
        if not _resolves(name)
    )
    assert not dangling, "\n".join(dangling)
