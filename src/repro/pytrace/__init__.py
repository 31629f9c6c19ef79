"""DACCE frontend for real Python programs (``sys.setprofile``)."""

from .profile import ContextProfile, ProfileEntry, build_profile, profile_callable
from .stackwalk import contexts_agree, walk_stack
from .tracer import FunctionInfo, PythonDacceTracer, ROOT_FUNCTION

__all__ = [
    "ContextProfile",
    "FunctionInfo",
    "ProfileEntry",
    "PythonDacceTracer",
    "ROOT_FUNCTION",
    "build_profile",
    "contexts_agree",
    "profile_callable",
    "walk_stack",
]

# For a live CCT, attach a :class:`repro.ingest.FrameEmitter` to
# ``tracer.engine`` and fold its frames into a
# :class:`repro.ingest.IngestService`; import :mod:`repro.prof` directly
# for the CCT, exporters and diffing.
