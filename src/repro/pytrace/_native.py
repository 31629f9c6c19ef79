"""Build and load the compiled hit path of the profile hook (``_chook.c``).

:mod:`repro.pytrace` loads the extension when it is imported, never
inside tracer construction.  The shared object lives in a cache outside
the source tree, keyed by the SHA-256 of the C source, the build script
and the interpreter's ``EXT_SUFFIX``:

* ``$XDG_CACHE_HOME/repro-dacce`` (``~/.cache/repro-dacce`` by default),
  or, when that is not writable, ``repro-dacce-<uid>`` in the temp
  directory.

On a cache miss the extension is compiled with setuptools' ``build_ext``
in a child interpreter (``sys.executable -c ...``), so setuptools never
enters this process, under a timeout that kills the compiler's whole
process group.  The child builds into a private directory in the cache
and the result is published with an atomic rename, so concurrent
builders never see a partial file.

When anything fails (no compiler, ``CC=false``, a timeout, a load
error) :data:`HOOK` is ``None``, :data:`REASON` says why, one WARNING
goes to the ``repro.pytrace`` logger, and the tracer runs its Python
hook, which is the compiled one's reference.
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
from types import ModuleType
from typing import Optional, Tuple

logger = logging.getLogger("repro.pytrace")

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_chook.c")

#: Seconds a build may take before its process group is killed.
BUILD_TIMEOUT = 120.0

#: The child's build script: ``argv[1]`` is the C source, ``argv[2]`` the
#: directory to build in; it prints the built file's path.
_BUILD = """\
import sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

source, work = sys.argv[1], sys.argv[2]
dist = Distribution({"ext_modules": [Extension("_chook", [source])]})
command = build_ext(dist)
command.build_lib = work
command.build_temp = work
command.ensure_finalized()
command.run()
print(command.get_ext_fullpath("_chook"))
"""


def cache_dirs() -> Tuple[str, ...]:
    """The cache directories to try, in order."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return (
        os.path.join(base, "repro-dacce"),
        os.path.join(tempfile.gettempdir(), "repro-dacce-%d" % uid),
    )


def cache_name(source: bytes) -> str:
    """The cached file name for this C source, build script and
    interpreter ABI."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(source + _BUILD.encode() + suffix.encode()).hexdigest()[:16]
    return "_chook-%s%s" % (digest, suffix)


def _writable(directory: str) -> bool:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK | os.X_OK)


def build(source_path: str, target: str, timeout: float = BUILD_TIMEOUT) -> None:
    """Compile ``source_path`` in a child interpreter and publish the
    result at ``target`` with an atomic rename.  Raises ``RuntimeError``
    with the reason when the build fails."""
    work = tempfile.mkdtemp(prefix=".build-", dir=os.path.dirname(target))
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", _BUILD, source_path, work],
            cwd=work,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.communicate()
            raise RuntimeError("build timed out after %.0f s" % timeout) from None
        lines = output.strip().splitlines()
        if proc.returncode != 0 or not lines or not os.path.isfile(lines[-1]):
            tail = lines[-1] if lines else ""
            raise RuntimeError(
                "build failed (exit %d): %s" % (proc.returncode, tail)
            )
        os.replace(lines[-1], target)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _import(path: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location("repro.pytrace._chook", path)
    if spec is None or spec.loader is None:
        raise ImportError("cannot load %s" % path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load(directories: Optional[Tuple[str, ...]] = None) -> Tuple[Optional[ModuleType], Optional[str]]:
    """The compiled hook module, building it on a cache miss, and
    ``None``; or ``None`` and the reason it is unavailable."""
    try:
        with open(SOURCE, "rb") as handle:
            source = handle.read()
    except OSError as error:
        return None, "no C source: %s" % error
    name = cache_name(source)
    for directory in directories or cache_dirs():
        target = os.path.join(directory, name)
        if not os.path.isfile(target):
            if not _writable(directory):
                continue
            try:
                build(SOURCE, target)
            except (OSError, RuntimeError) as error:
                return None, str(error)
        try:
            return _import(target), None
        except ImportError as error:
            return None, "load failed: %s" % error
    return None, "no writable cache directory"


HOOK, REASON = load()
if HOOK is None:
    logger.warning(
        "compiled profile hook unavailable (%s); using the Python hook", REASON
    )
