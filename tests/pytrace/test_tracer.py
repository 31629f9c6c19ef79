"""Python-frontend tests: real interpreter execution through DACCE."""

import sys

import pytest

from repro.core.errors import TraceError
from repro.pytrace import PythonDacceTracer, contexts_agree, walk_stack


def simple_chain(tracer):
    def inner():
        return tracer.sample()

    def middle():
        return inner()

    def outer():
        return middle()

    return tracer.run(outer)


def test_simple_chain_decodes_by_name():
    tracer = PythonDacceTracer()
    sample = simple_chain(tracer)
    names = tracer.format_context(tracer.decode(sample))
    assert names.endswith("outer -> middle -> inner")
    assert names.startswith("<root>")


def test_decode_matches_oracle_for_recursion():
    tracer = PythonDacceTracer()
    checks = []

    def fib(n):
        if n < 2:
            decoded = tracer.decode(tracer.sample())
            expected = tracer.expected_context()
            checks.append(
                [s.function for s in decoded.steps]
                == [s.function for s in expected.steps]
            )
            return n
        return fib(n - 1) + fib(n - 2)

    tracer.run(fib, 9)
    assert checks and all(checks)


def test_decode_matches_stack_walk():
    tracer = PythonDacceTracer()
    agreements = []

    def leaf():
        decoded = tracer.decode(tracer.sample())
        walked = walk_stack(tracer)  # starts at this frame
        agreements.append(contexts_agree(decoded, walked))

    def level2():
        leaf()

    def level1():
        level2()
        leaf()

    tracer.run(level1)
    assert agreements == [True, True]


def test_mutual_recursion():
    tracer = PythonDacceTracer()
    oks = []

    def is_even(n):
        return True if n == 0 else is_odd(n - 1)

    def is_odd(n):
        if n == 0:
            decoded = tracer.decode(tracer.sample())
            expected = tracer.expected_context()
            oks.append(decoded.functions() == expected.functions())
            return False
        return is_even(n - 1)

    assert tracer.run(is_even, 9) is False  # descends to is_odd(0)
    assert oks and all(oks)


def test_exception_unwind_keeps_balance():
    tracer = PythonDacceTracer()

    def thrower():
        raise ValueError("boom")

    def catcher():
        try:
            thrower()
        except ValueError:
            pass
        return tracer.decode(tracer.sample())

    decoded = tracer.run(catcher)
    names = tracer.format_context(decoded)
    assert names.endswith("catcher")
    assert "thrower" not in names


def test_generators_stay_balanced():
    tracer = PythonDacceTracer()

    def gen():
        for value in range(3):
            yield value

    def consume():
        total = sum(gen())
        return tracer.decode(tracer.sample())

    decoded = tracer.run(consume)
    assert tracer.format_context(decoded).endswith("consume")


def test_automatic_sampling():
    tracer = PythonDacceTracer(sample_every=5)

    def spin(n):
        if n == 0:
            return 0
        return 1 + spin(n - 1)

    tracer.run(spin, 40)
    assert len(tracer.samples) >= 8
    decoder = tracer.engine.decoder()
    for sample in tracer.samples:
        decoder.decode(sample)  # all samples decodable


def test_engine_adapts_during_python_run():
    tracer = PythonDacceTracer()

    def workload():
        def a():
            return b()

        def b():
            return 1

        total = 0
        for _ in range(3000):
            total += a()
        return total

    tracer.run(workload)
    assert tracer.engine.stats.reencodings >= 1
    assert tracer.engine.max_id >= 0


def test_double_start_rejected():
    tracer = PythonDacceTracer()
    tracer.start()
    try:
        with pytest.raises(TraceError):
            tracer.start()
    finally:
        tracer.stop()


def test_stop_is_idempotent():
    tracer = PythonDacceTracer()
    tracer.start()
    tracer.stop()
    tracer.stop()


def test_function_info_lookup():
    tracer = PythonDacceTracer()

    def named_thing():
        return tracer.sample()

    sample = tracer.run(named_thing)
    decoded = tracer.decode(sample)
    info = tracer.function_info(decoded.steps[-1].function)
    assert info.name == "named_thing"
    with pytest.raises(TraceError):
        tracer.function_info(99999)


def test_buffered_tracer_flushes_through_batches():
    tracer = PythonDacceTracer()

    def leaf():
        return 1

    def fanout():
        return sum(leaf() for _ in range(300))

    tracer.run(fanout)
    # stop() drained the columnar buffer into the engine.
    assert len(tracer._columns) == 0
    assert tracer.engine.fastpath.batches > 0
    stats = tracer.engine.stats
    assert stats.calls == stats.returns > 0


def test_engine_work_runs_with_the_hook_detached():
    """Engine work reached from traced code never runs under the hook."""
    tracer = PythonDacceTracer()
    seen = []
    tracer.engine.install_sample_hook(
        1, lambda sample, weight: seen.append(sys.getprofile())
    )
    after = []

    def leaf():
        return 1

    def body():
        # Far fewer events than the slab holds, so the only drains are
        # the ones tracer.sample() makes from traced code.
        total = leaf() + leaf()
        tracer.sample()
        after.append(sys.getprofile())
        return total + leaf()

    assert tracer.run(body) == 3
    assert seen and all(profile is None for profile in seen)
    assert after == [tracer._hook]
    assert sys.getprofile() is None


def test_hook_is_restored_when_a_strict_engine_error_escapes_flush():
    tracer = PythonDacceTracer()
    caught = []

    def body():
        # A call from a function that is not on the shadow stack: the
        # strict policy raises out of the engine, through flush().
        tracer._columns.push_call(0, 1, 424242, 7)
        try:
            tracer.flush()
        except TraceError as error:
            caught.append((error, sys.getprofile()))
        return len(caught)

    assert tracer.run(body) == 1
    ((error, profile),) = caught
    assert "424242" in str(error)
    assert profile is tracer._hook
    assert len(tracer._columns) == 0  # the failed slab was dropped
