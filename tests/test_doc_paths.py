"""Every repository path cited in the docs and docstrings exists.

A backticked ``benchmarks/…``, ``docs/…``, ``examples/…`` or ``tests/…``
path in ``README.md``, ``docs/*.md`` or ``src/**/*.py`` must name a file
or directory of this checkout.  A ``::test`` or ``#anchor`` suffix is
dropped before the check; glob patterns must match at least one path.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CITED = re.compile(r"`+((?:benchmarks|docs|examples|tests)/[^`\s]*)`")


def _citing_files():
    yield ROOT / "README.md"
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "src").rglob("*.py"))


def _citations():
    for source in _citing_files():
        for match in CITED.finditer(source.read_text(encoding="utf-8")):
            path = re.split(r"::|#", match.group(1))[0].rstrip("/")
            yield source.relative_to(ROOT), path


def test_citations_are_found():
    assert len({path for _, path in _citations()}) >= 20


def test_every_cited_path_exists():
    dangling = sorted(
        "%s cites %s" % (source, path)
        for source, path in _citations()
        if not any(ROOT.glob(path))
    )
    assert not dangling, "\n".join(dangling)
