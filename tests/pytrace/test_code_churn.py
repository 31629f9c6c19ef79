"""Code-object churn: the identity-keyed code cache never goes stale.

The profile hook finds a code object's function id by ``id(code)``.
Each cache entry holds its code object, so an ``id()`` cannot be
recycled while the tracer lives.  Call sites are patched per
callee by ``id(code)`` too, and a patch holds the callee's cache entry.
This test churns code objects (exec a fresh source, trace a call, drop
it, collect) and checks that every id the hook used is the one
:meth:`PythonDacceTracer._function_id` gives, that every patch is keyed
by the ``id()`` of the code object its callee entry holds, and that
equal code objects from identical source still share one id.
"""

import gc

from repro.pytrace import PythonDacceTracer, contexts_agree, walk_stack

#: Identical on every iteration: the code objects compare equal.
SHARED = """
def shared(x):
    return probe(x)
"""

#: A new constant on every iteration: a distinct code object.
FRESH = """
def fresh_{n}(x):
    return shared(x) + {n}
"""

ITERATIONS = 60


def _load(n, probe):
    namespace = {"probe": probe}
    exec(compile(SHARED, "<churn:shared>", "exec"), namespace)
    exec(compile(FRESH.format(n=n), "<churn:fresh>", "exec"), namespace)
    return namespace


def test_churned_code_objects_never_serve_a_stale_entry():
    tracer = PythonDacceTracer()
    agreements = []
    identities = []

    def probe(x):
        sample = tracer.sample()
        agreements.append(contexts_agree(tracer.decode(sample), walk_stack(tracer)))
        for frame, function in tracer.live_frames():
            identities.append(
                tracer._code_cache[id(frame.f_code)][0] is frame.f_code
                and function == tracer._function_id(frame.f_code)
            )
        return x

    shared_ids = set()
    for n in range(ITERATIONS):
        namespace = _load(n, probe)
        assert tracer.run(namespace["fresh_%d" % n], n) == 2 * n
        shared_ids.add(tracer._function_id(namespace["shared"].__code__))
        del namespace
        gc.collect()

    assert len(agreements) == ITERATIONS and all(agreements)
    assert len(identities) == 3 * ITERATIONS and all(identities)
    # Equal code objects from identical source: distinct objects, distinct
    # cache entries, one function id.
    shared_entries = [
        entry
        for entry in tracer._code_cache.values()
        if entry[0] is not None and entry[0].co_name == "shared"
    ]
    assert len(shared_entries) == ITERATIONS
    assert {entry[1] for entry in shared_entries} == shared_ids
    assert len(shared_ids) == 1
    patches = [
        (key, patch)
        for entry in tracer._code_cache.values()
        for site_patches in entry[4].values()
        for key, patch in site_patches.items()
    ]
    assert patches
    assert all(key == id(patch[1][0]) for key, patch in patches)
