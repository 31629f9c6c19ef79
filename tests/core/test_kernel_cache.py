"""One generated columnar kernel per engine shape, shared process-wide.

The kernel source depends only on ``(warm, profiled, obs, interval)``;
per-epoch and per-engine state reaches it as arguments, so committed
re-encoding passes and new engines reuse the cached kernel and only a
new shape pays an ``exec``.
"""

import pytest

import repro.core.engine as engine_module
import repro.core.fastpath as fastpath
from repro.core.adaptive import AdaptiveConfig
from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.obs import SpanRecorder, Telemetry


@pytest.fixture
def compiles(monkeypatch):
    """An empty kernel cache; returns the list of shapes compiled."""
    monkeypatch.setattr(fastpath, "_KERNELS", {})
    shapes = []
    real = engine_module.compile_columnar_kernel

    def counting(shape, **kwargs):
        shapes.append(shape)
        return real(shape, **kwargs)

    monkeypatch.setattr(engine_module, "compile_columnar_kernel", counting)
    return shapes


def chain_columns():
    """root -> 1 -> 2 -> 3 and back, twice."""
    cols = EventColumns()
    for _ in range(2):
        for caller in range(3):
            cols.push_call(0, 10 + caller, caller, caller + 1)
        for _ in range(3):
            cols.push_return(0)
    return cols


def test_committed_passes_reuse_the_kernel(compiles):
    engine = DacceEngine(root=0)
    engine.process_columns(chain_columns())
    engine.reencode()
    engine.process_columns(chain_columns())
    engine.reencode()
    engine.process_columns(chain_columns())
    assert engine.fastpath.compiles == 3  # one table per dictionary
    assert compiles == [(False, False, False, 512)]
    assert engine.fastpath.hits > 0


def test_second_engine_reuses_the_cached_kernel(compiles):
    DacceEngine(root=0).process_columns(chain_columns())
    DacceEngine(root=0).process_columns(chain_columns())
    assert len(compiles) == 1


def test_new_shapes_compile_exactly_one_kernel_each(compiles):
    engine = DacceEngine(root=0)
    engine.process_columns(chain_columns())
    engine.install_sample_hook(3, lambda sample, weight: None)
    engine.process_columns(chain_columns())
    engine.process_columns(chain_columns())
    assert compiles == [(False, False, False, 512), (False, True, False, 512)]
    DacceEngine(root=0, telemetry=Telemetry()).process_columns(chain_columns())
    config = DacceConfig(adaptive=AdaptiveConfig(check_interval=64))
    DacceEngine(root=0, config=config).process_columns(chain_columns())
    assert compiles[2:] == [(False, False, True, 512), (False, False, False, 64)]


def test_compile_span_only_on_a_cache_miss(compiles):
    first = DacceEngine(root=0, spans=SpanRecorder("first"))
    first.process_columns(chain_columns())
    first.reencode()
    first.process_columns(chain_columns())
    second = DacceEngine(root=0, spans=SpanRecorder("second"))
    second.process_columns(chain_columns())
    assert len(first.spans.spans(name="engine.kernel_compile")) == 1
    assert second.spans.spans(name="engine.kernel_compile") == []
