"""The compiled hook's loader: cache, fallback and a clean source tree.

``repro.pytrace._native`` builds ``_chook.c`` in a child interpreter on
a cache miss and loads it from a cache outside the source tree; without
a working compiler the tracer runs its Python hook and says why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.pytrace import PythonDacceTracer, _native

SRC = os.path.dirname(os.path.dirname(os.path.dirname(_native.__file__)))

#: Import the tracer with logging to stderr; print the hit path, the
#: reason and whether setuptools entered this process.
PROBE = """\
import logging, sys
logging.basicConfig(format="%(levelname)s %(name)s %(message)s")
from repro.pytrace import PythonDacceTracer, _native
tracer = PythonDacceTracer()
print(tracer.hit_path, tracer.engine.fastpath_stats()["hit_path"])
print(_native.REASON)
print("setuptools" in sys.modules)
"""


def _tree(root):
    """Every file under ``root`` with its size and modification time."""
    found = {}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            stat = os.stat(path)
            found[path] = (stat.st_size, stat.st_mtime_ns)
    return found


def _import_in_child(cache, **env):
    # No bytecode cache either, so any file under src/ is the build's.
    child_env = dict(
        os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC,
        PYTHONDONTWRITEBYTECODE="1", **env,
    )
    return subprocess.run(
        [sys.executable, "-c", PROBE],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _source():
    with open(_native.SOURCE, "rb") as handle:
        return handle.read()


def test_cache_hit_spawns_no_compiler(tmp_path, monkeypatch):
    if _native.HOOK is None:
        pytest.skip("compiled hook unavailable: %s" % _native.REASON)
    shutil.copy(_native.HOOK.__file__, tmp_path / _native.cache_name(_source()))

    def no_build(*args, **kwargs):
        raise AssertionError("a cache hit built the extension")

    monkeypatch.setattr(_native, "build", no_build)
    module, reason = _native.load((str(tmp_path),))
    assert reason is None
    assert module is not None and hasattr(module, "Hook")


def test_failing_builder_yields_the_python_path_with_its_reason(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("build failed (exit 1): no compiler")

    monkeypatch.setattr(_native, "build", failing)
    assert _native.load((str(tmp_path / "cache"),)) == (
        None, "build failed (exit 1): no compiler",
    )


def test_python_path_names_itself(monkeypatch):
    from repro.pytrace import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "_chook", None)
    tracer = PythonDacceTracer()
    assert tracer.hit_path == "python"
    assert tracer.engine.fastpath_stats()["hit_path"] == "python"


def test_false_compiler_falls_back_once_and_writes_nothing_under_src(tmp_path):
    before = _tree(SRC)
    result = _import_in_child(tmp_path / "cache", CC="false")
    assert result.returncode == 0, result.stderr
    path, reason, setuptools = result.stdout.splitlines()
    assert path == "python python"
    assert reason.startswith("build failed"), reason
    assert setuptools == "False"
    warnings = [line for line in result.stderr.splitlines() if line.startswith("WARNING")]
    assert warnings == [
        "WARNING repro.pytrace compiled profile hook unavailable (%s); "
        "using the Python hook" % reason
    ]
    assert _tree(SRC) == before
    # The failed build left no partial file or build directory behind.
    assert os.listdir(tmp_path / "cache" / "repro-dacce") == []


def test_first_import_builds_into_the_cache_outside_src(tmp_path):
    if _native.HOOK is None:
        pytest.skip("compiled hook unavailable: %s" % _native.REASON)
    before = _tree(SRC)
    result = _import_in_child(tmp_path / "cache")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["c c", "None", "False"]
    assert "WARNING" not in result.stderr
    assert os.listdir(tmp_path / "cache" / "repro-dacce") == [_native.cache_name(_source())]
    assert _tree(SRC) == before


def _processes_running(argv0):
    """Live processes whose command line starts with ``argv0``."""
    found = []
    for pid in os.listdir("/proc"):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if argv[: len(argv0)] == argv0:
            found.append(argv)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_build_timeout_kills_the_compiler(tmp_path, monkeypatch):
    # A "compiler" that hangs: a shell running a sleep of its own.
    compiler = tmp_path / "hanging-cc"
    compiler.write_text("#!/bin/sh\nsleep 61.25\n")
    compiler.chmod(0o755)
    monkeypatch.setenv("CC", str(compiler))
    cache = tmp_path / "cache"
    cache.mkdir()
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="timed out"):
        _native.build(_native.SOURCE, str(cache / "hook.so"), timeout=5.0)
    # Killed, not waited out: the hanging sleep would take a minute.
    assert time.monotonic() - started < 30
    assert _processes_running([b"sleep", b"61.25"]) == []
    assert _processes_running([b"/bin/sh", str(compiler).encode()]) == []
    assert os.listdir(cache) == []
