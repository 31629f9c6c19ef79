"""Every repository path and ``repro`` name cited in the docs and
docstrings exists.

A backticked ``benchmarks/…``, ``docs/…``, ``examples/…`` or ``tests/…``
path in ``README.md``, ``docs/*.md`` or ``src/**/*.py`` must name a file
or directory of this checkout.  A ``::test`` or ``#anchor`` suffix is
dropped before the check; glob patterns must match at least one path.

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
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "src").rglob("*.py"))


def _citations():
    for source in _citing_files():
        for match in CITED.finditer(source.read_text(encoding="utf-8")):
            path = re.split(r"::|#", match.group(1))[0].rstrip("/")
            yield source.relative_to(ROOT), path


def _names():
    for source in _citing_files():
        for match in NAMED.finditer(source.read_text(encoding="utf-8")):
            yield source.relative_to(ROOT), match.group(1)


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
    assert len({path for _, path in _citations()}) >= 20


def test_every_cited_path_exists():
    dangling = sorted(
        "%s cites %s" % (source, path)
        for source, path in _citations()
        if not any(ROOT.glob(path))
    )
    assert not dangling, "\n".join(dangling)


def test_names_are_found():
    assert len({name for _, name in _names()}) >= 40


def test_every_cited_name_resolves():
    dangling = sorted(
        "%s names %s" % (source, name)
        for source, name in _names()
        if not _resolves(name)
    )
    assert not dangling, "\n".join(dangling)
