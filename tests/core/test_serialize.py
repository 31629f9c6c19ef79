"""Offline decoding-state serialisation tests."""

import json

import pytest

from repro.core.engine import DacceEngine
from repro.core.serialize import (
    SerializationError,
    decoder_from_dict,
    dictionary_from_dict,
    dictionary_to_dict,
    export_decoding_state,
    load_decoder,
    sample_from_dict,
    sample_to_dict,
)
from repro.analysis.validate import contexts_equal
from repro.core.events import SampleEvent
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, TraceExecutor, WorkloadSpec


@pytest.fixture(scope="module")
def run():
    program = generate_program(
        GeneratorConfig(seed=8, functions=30, edges=70, recursive_sites=3,
                        indirect_fraction=0.1)
    )
    spec = WorkloadSpec(
        calls=8_000, seed=4, sample_period=37, recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=800)],
    )
    engine = DacceEngine(root=program.main)
    expectations = []
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
        if isinstance(event, SampleEvent):
            expectations.append(
                (engine.samples[-1], engine.expected_context(event.thread))
            )
    return engine, expectations


def test_dictionary_roundtrip(run):
    engine, _ = run
    original = engine.current_dictionary
    restored = dictionary_from_dict(dictionary_to_dict(original))
    assert restored.timestamp == original.timestamp
    assert restored.max_id == original.max_id
    assert restored.num_edges == original.num_edges
    for info in original.edges():
        twin = restored.find_edge(info.callsite, info.callee)
        assert twin is not None
        assert twin.encoding == info.encoding
        assert twin.is_back == info.is_back
        assert twin.kind == info.kind


def test_sample_roundtrip(run):
    engine, _ = run
    for sample in engine.samples[:10]:
        assert sample_from_dict(sample_to_dict(sample)) == sample


def test_offline_decoder_equals_online(run, tmp_path):
    engine, expectations = run
    path = export_decoding_state(engine, str(tmp_path / "state.json"))
    offline = load_decoder(path)
    online = engine.decoder()
    for sample, expected in expectations:
        a = online.decode(sample)
        b = offline.decode(sample)
        assert contexts_equal(a, b)
        assert contexts_equal(b, expected)


def test_state_is_plain_json(run, tmp_path):
    engine, _ = run
    path = export_decoding_state(engine, str(tmp_path / "state.json"))
    with open(path) as handle:
        data = json.load(handle)
    assert data["format"] == 2
    assert len(data["dictionaries"]) == engine.stats.reencodings + 1
    assert all("checksum" in entry for entry in data["dictionaries"])
    assert data["callsite_owners"]
    assert "1" in data["thread_parents"]


def test_bad_format_rejected():
    with pytest.raises(SerializationError):
        decoder_from_dict({"format": 999})


def test_corrupt_dictionary_rejected():
    with pytest.raises(SerializationError):
        dictionary_from_dict({"timestamp": 0})


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "garbage"
    path.write_text("not json at all {{{")
    with pytest.raises(SerializationError):
        load_decoder(str(path))


def test_cli_record_then_decode(tmp_path, capsys):
    from repro.cli import main

    prefix = str(tmp_path / "run")
    assert main(["record", "--prefix", prefix, "--calls", "4000"]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out
    assert main(
        ["decode", "--state", prefix + ".state.json",
         "--log", prefix + ".log", "--limit", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("gTS=") == 5
    assert "more)" in out


def test_pcce_state_also_serializes(tmp_path):
    """The offline pipeline works for the static baseline too."""
    from repro.baselines.pcce import PcceEngine, profile_edge_frequencies

    program = generate_program(
        GeneratorConfig(seed=12, functions=25, edges=60)
    )
    spec = WorkloadSpec(calls=4_000, seed=3, sample_period=41)
    profile = profile_edge_frequencies(program, spec)
    engine = PcceEngine(program, profile)
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
    path = export_decoding_state(engine, str(tmp_path / "pcce.json"))
    offline = load_decoder(path)
    for sample in engine.samples[:50]:
        assert contexts_equal(
            offline.decode(sample), engine.decoder().decode(sample)
        )
