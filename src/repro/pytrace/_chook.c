/* The profile hook's hit path, compiled.
 *
 * ``Hook`` is a C profile function (``PyEval_SetProfile``) over the same
 * state and patch maps as the Python hook in ``tracer.py``
 * (``PythonDacceTracer._make_hook``), which is its reference: every
 * branch below restates a branch of that ``hook`` and of its
 * ``frame_return``.  The entered state lives in this object's members,
 * under the attribute names of the Python twin ``_Stay``, so the slow
 * path (``enter``, ``bind``, ``resolve``, ``due_call``, the trigger
 * check and ``return_miss``, all Python) reads and writes it as it does
 * there.  The id register is a Python int, so ids past 63 bits add
 * exactly; shadow-stack records, ccStack entries and the ccStack
 * checkpoint are the Python objects the Python hook builds.
 *
 * Each call into Python may change any member, so no member is cached
 * in a C local across one.
 *
 * Two things are C's own, and neither is visible to the slow path:
 *
 * - Hit counts.  An encoded or back-edge hit counts into a table keyed
 *   by edge, not into ``edge.invocations`` and the policy's push
 *   counters; ``fold`` (which ``leave`` calls) adds the touched
 *   entries to them once per stay and credits the warm start there.
 *   Nothing reads either between an edge's first hit in a stay and the
 *   stay's end, so the totals and the credit are the Python hook's.
 * - Probe keys.  ``id(code)`` and ``lasti`` come from caches of int
 *   objects; each key is a pure function of its input, so a cached key
 *   is never stale.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <frameobject.h>
#include <structmember.h>

/* Patch kinds (``tracer._ENCODED`` ...). */
enum { ENCODED = 0, BACK = 1, BOUNDARY = 2, UNTRACKED = 3, SKIP_CALL = 4, INNER = 5 };

/* Python slow-path callbacks, in constructor order. */
enum { CB_ENTER, CB_RESOLVE, CB_BIND, CB_DUE_CALL, CB_TRIGGERS, CB_RETURN_MISS, N_CB };

/* Frame actions, in constructor order. */
enum { A_NONE, A_ID, A_PUSH, A_CMP, A_DISC, A_UNT, N_ACT };

/* Code-cache function id of code the tracer never traces
 * (``tracer._SKIP``). */
#define SKIP_FUNCTION (-1)

/* Slots of the direct-mapped ``id(code)`` key cache (a power of two). */
#define ID_KEYS 1024

/* Bytecode offsets below this have a cached ``lasti`` key. */
#define LASTI_KEYS 16384

/* One edge's hits in the current stay, and its back-edge pushes and
 * repeated pushes with the policy counters they go to (``back[1]``,
 * taken at the edge's first back-edge hit in the stay). */
typedef struct {
    PyObject *edge;
    PyObject *counters;
    Py_ssize_t hits;
    Py_ssize_t pushes;
    Py_ssize_t repeats;
    char touched;
} HitSlot;

typedef struct {
    const void *code;
    PyObject *key;
} IdKey;

typedef struct {
    PyObject_HEAD
    /* Entered state (members; see ``tracer._Stay``). */
    char entered;
    char desync;
    Py_ssize_t mirrored;
    PyObject *frames;
    PyObject *cur_id;
    PyObject *cc;
    PyObject *mark_id;
    Py_ssize_t left;
    Py_ssize_t t_left;
    PyObject *ccs;
    PyObject *ents;
    Py_ssize_t depth;
    Py_ssize_t max_depth;
    Py_ssize_t s_dcmp;
    Py_ssize_t rets;
    Py_ssize_t id_updates;
    Py_ssize_t tcstack;
    Py_ssize_t pushes;
    Py_ssize_t compressions;
    Py_ssize_t pops;
    Py_ssize_t bpushes;
    Py_ssize_t bpops;
    Py_ssize_t untracked;
    Py_ssize_t suppressed;
    /* Fixed at construction. */
    PyObject *stack;
    PyObject *root_patches;
    PyObject *region_patches;
    PyObject *code_cache;
    PyObject *stats;
    PyObject *observe;
    int warm;
    PyObject *root_fn;
    PyObject *untracked_fn;
    PyObject *untracked_site;
    PyObject *act[N_ACT];
    PyObject *kind_normal;
    PyObject *cb[N_CB];
    /* Hit counts: ``slots`` holds one entry per edge ever hit (a strong
     * reference), found through the open-addressed ``index`` (slot
     * numbers, -1 for free); ``touched`` lists the slots hit since the
     * last fold. */
    HitSlot *slots;
    Py_ssize_t n_slots;
    Py_ssize_t cap_slots;
    Py_ssize_t *index;
    size_t index_mask;
    Py_ssize_t *touched;
    Py_ssize_t n_touched;
    /* Probe keys. */
    IdKey id_keys[ID_KEYS];
    PyObject **lasti_keys;
    Py_ssize_t n_lasti_keys;
} Hook;

static PyObject *s_invocations, *s_seeded, *s_hits_avoided;
static PyObject *s_call, *s_return, *empty_tuple, *zero, *one, *skip_function;

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static int
call0(PyObject *fn)
{
    PyObject *res = PyObject_CallNoArgs(fn);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static void
set_obj(PyObject **slot, PyObject *value)
{
    PyObject *old = *slot;
    Py_INCREF(value);
    *slot = value;
    Py_XDECREF(old);
}

/* ``observe(depth)`` when telemetry observes the ccStack depth. */
static int
observe_depth(Hook *h)
{
    if (h->observe == Py_None)
        return 0;
    PyObject *depth = PyLong_FromSsize_t(h->depth);
    if (depth == NULL)
        return -1;
    PyObject *res = PyObject_CallOneArg(h->observe, depth);
    Py_DECREF(depth);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static size_t
ptr_hash(const void *ptr)
{
    size_t x = (size_t)ptr >> 4;
    return x ^ (x >> 10);
}

/* The index position of ``edge``'s slot, or of the free position it
 * would take; ``*slot`` is its slot number, or -1. */
static size_t
slot_find(Hook *h, PyObject *edge, Py_ssize_t *slot)
{
    size_t i = ptr_hash(edge) & h->index_mask;
    Py_ssize_t k;
    while ((k = h->index[i]) >= 0 && h->slots[k].edge != edge)
        i = (i + 1) & h->index_mask;
    *slot = k;
    return i;
}

/* Double the slot capacity and rebuild the index at twice that size. */
static int
grow_slots(Hook *h)
{
    Py_ssize_t cap = h->cap_slots ? 2 * h->cap_slots : 64;
    HitSlot *slots = PyMem_Realloc(h->slots, cap * sizeof(HitSlot));
    if (slots == NULL)
        goto nomem;
    h->slots = slots;
    Py_ssize_t *touched = PyMem_Realloc(h->touched, cap * sizeof(Py_ssize_t));
    if (touched == NULL)
        goto nomem;
    h->touched = touched;
    Py_ssize_t *index = PyMem_Malloc(2 * cap * sizeof(Py_ssize_t));
    if (index == NULL)
        goto nomem;
    memset(index, 0xff, 2 * cap * sizeof(Py_ssize_t));
    PyMem_Free(h->index);
    h->index = index;
    h->index_mask = (size_t)(2 * cap - 1);
    h->cap_slots = cap;
    for (Py_ssize_t k = 0; k < h->n_slots; k++) {
        Py_ssize_t found;
        index[slot_find(h, h->slots[k].edge, &found)] = k;
    }
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* ``edge``'s slot, marked touched (NULL on error).  The pointer is
 * valid until the next ``hit_slot``. */
static HitSlot *
hit_slot(Hook *h, PyObject *edge)
{
    Py_ssize_t k = -1;
    size_t at = 0;
    if (h->index != NULL)
        at = slot_find(h, edge, &k);
    if (k < 0) {
        if (h->n_slots == h->cap_slots) {
            if (grow_slots(h) < 0)
                return NULL;
            at = slot_find(h, edge, &k);
        }
        k = h->n_slots++;
        Py_INCREF(edge);
        h->slots[k] = (HitSlot){edge, NULL, 0, 0, 0, 0};
        h->index[at] = k;
    }
    HitSlot *s = &h->slots[k];
    if (!s->touched) {
        s->touched = 1;
        h->touched[h->n_touched++] = k;
    }
    return s;
}

/* ``hits`` hits of ``edge``, as the Python hook makes them one by one:
 * ``if warm and not edge.invocations and edge.seeded:
 *     stats.warmstart_handler_hits_avoided += 1
 * edge.invocations += hits``. */
static int
fold_hits(Hook *h, PyObject *edge, Py_ssize_t hits)
{
    PyObject *count = PyObject_GetAttr(edge, s_invocations);
    if (count == NULL)
        return -1;
    int res = h->warm ? PyObject_Not(count) : 0;
    if (res > 0) {
        PyObject *seeded = PyObject_GetAttr(edge, s_seeded);
        res = seeded == NULL ? -1 : PyObject_IsTrue(seeded);
        Py_XDECREF(seeded);
        if (res > 0) {
            PyObject *avoided = PyObject_GetAttr(h->stats, s_hits_avoided);
            PyObject *next = avoided == NULL ? NULL : PyNumber_Add(avoided, one);
            Py_XDECREF(avoided);
            res = next == NULL ? -1 : PyObject_SetAttr(h->stats, s_hits_avoided, next);
            Py_XDECREF(next);
        }
    }
    if (res == 0) {
        PyObject *delta = PyLong_FromSsize_t(hits);
        PyObject *next = delta == NULL ? NULL : PyNumber_Add(count, delta);
        Py_XDECREF(delta);
        res = next == NULL ? -1 : PyObject_SetAttr(edge, s_invocations, next);
        Py_XDECREF(next);
    }
    Py_DECREF(count);
    return res;
}

/* ``seq[index] += delta`` for a list of ints. */
static int
list_add(PyObject *list, Py_ssize_t index, Py_ssize_t delta)
{
    PyObject *step = PyLong_FromSsize_t(delta);
    if (step == NULL)
        return -1;
    PyObject *value = PyNumber_Add(PyList_GET_ITEM(list, index), step);
    Py_DECREF(step);
    if (value == NULL)
        return -1;
    return PyList_SetItem(list, index, value);
}

/* Append the record ``(frame, entry, ce, cs, restore, cc, action,
 * NORMAL, ())`` to the shadow stack. */
static int
push_record(Hook *h, PyObject *frame, PyObject *entry, PyObject *ce, PyObject *cs,
            PyObject *restore, PyObject *action)
{
    PyObject *record = PyTuple_New(9);
    if (record == NULL)
        return -1;
    PyObject *items[9] = {
        frame, entry, ce, cs, restore, h->cc, action, h->kind_normal, empty_tuple,
    };
    for (int i = 0; i < 9; i++) {
        Py_INCREF(items[i]);
        PyTuple_SET_ITEM(record, i, items[i]);
    }
    int res = PyList_Append(h->stack, record);
    Py_DECREF(record);
    return res;
}

/* ``st.cc = (length, count)`` */
static int
set_cc(Hook *h, Py_ssize_t length, PyObject *count)
{
    PyObject *len_obj = PyLong_FromSsize_t(length);
    if (len_obj == NULL)
        return -1;
    PyObject *cc = PyTuple_Pack(2, len_obj, count);
    Py_DECREF(len_obj);
    if (cc == NULL)
        return -1;
    Py_SETREF(h->cc, cc);
    return 0;
}

/* One more ccStack entry or count: depth, peak, histogram. */
static int
push_depth(Hook *h)
{
    h->depth += 1;
    if (h->depth > h->max_depth)
        h->max_depth = h->depth;
    return observe_depth(h);
}

/* Drop the last item of a non-empty list, as ``list.pop()`` does but
 * without shrinking its storage. */
static int
list_pop(PyObject *list)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    PyObject *item = PyList_GET_ITEM(list, n - 1);
    Py_SET_SIZE(list, n - 1);
    Py_DECREF(item);
    return 0;
}

static int
ensure_bound(Hook *h)
{
    if (h->ccs == NULL || h->ccs == Py_None)
        return call0(h->cb[CB_BIND]);
    return 0;
}

/* ``st.desync = frames[-1][0] != (stack[-1][1][1] if stack else ROOT)`` */
static int
update_desync(Hook *h)
{
    PyObject *frames = h->frames;
    PyObject *top = PyList_GET_ITEM(frames, PyList_GET_SIZE(frames) - 1);
    Py_ssize_t n = PyList_GET_SIZE(h->stack);
    PyObject *function = h->root_fn;
    if (n) {
        PyObject *entry = PyTuple_GET_ITEM(PyList_GET_ITEM(h->stack, n - 1), 1);
        function = PyTuple_GET_ITEM(entry, 1);
    }
    int differ = PyObject_RichCompareBool(PyTuple_GET_ITEM(top, 0), function, Py_NE);
    if (differ < 0)
        return -1;
    h->desync = (char)differ;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the call branch                                                     */
/* ------------------------------------------------------------------ */

/* ``id(code)`` for the callee's code object (a new reference). */
static PyObject *
code_key(Hook *h, PyFrameObject *frame)
{
    PyCodeObject *code = PyFrame_GetCode(frame);
    Py_DECREF(code);  /* the frame keeps it alive */
    IdKey *slot = &h->id_keys[ptr_hash(code) & (ID_KEYS - 1)];
    if (slot->code != code) {
        PyObject *key = PyLong_FromVoidPtr(code);
        if (key == NULL)
            return NULL;
        Py_XSETREF(slot->key, key);
        slot->code = code;
    }
    Py_INCREF(slot->key);
    return slot->key;
}

/* The int ``lasti`` (a new reference). */
static PyObject *
lasti_key(Hook *h, int lasti)
{
    if (lasti < 0 || lasti >= LASTI_KEYS)
        return PyLong_FromLong(lasti);
    if (lasti >= h->n_lasti_keys) {
        Py_ssize_t n = h->n_lasti_keys ? h->n_lasti_keys : 256;
        while (n <= lasti)
            n *= 2;
        PyObject **keys = PyMem_Realloc(h->lasti_keys, n * sizeof(PyObject *));
        if (keys == NULL)
            return PyErr_NoMemory();
        memset(keys + h->n_lasti_keys, 0, (n - h->n_lasti_keys) * sizeof(PyObject *));
        h->lasti_keys = keys;
        h->n_lasti_keys = n;
    }
    PyObject *key = h->lasti_keys[lasti];
    if (key == NULL) {
        key = h->lasti_keys[lasti] = PyLong_FromLong(lasti);
        if (key == NULL)
            return NULL;
    }
    Py_INCREF(key);
    return key;
}

/* The patch the caller's patch map holds for the call of the code
 * ``key`` names (a new reference), or NULL with no error set. */
static PyObject *
probe(Hook *h, PyFrameObject *frame, PyObject *key)
{
    PyObject *patch = NULL;
    Py_ssize_t n = PyList_GET_SIZE(h->stack);
    if (n == 0) {
        patch = PyDict_GetItemWithError(h->root_patches, key);
    }
    else {
        PyObject *top = PyList_GET_ITEM(h->stack, n - 1);
        PyObject *caller = PyTuple_GET_ITEM(top, 1);
        int region = PyObject_RichCompareBool(
            PyTuple_GET_ITEM(caller, 1), h->untracked_fn, Py_EQ);
        if (region > 0) {
            patch = PyDict_GetItemWithError(h->region_patches, key);
        }
        else if (region == 0) {
            PyFrameObject *parent = PyFrame_GetBack(frame);
            if (parent != NULL && (PyObject *)parent == PyTuple_GET_ITEM(top, 0)) {
                PyObject *lasti = lasti_key(h, PyFrame_GetLasti(parent));
                if (lasti != NULL) {
                    PyObject *patches = PyDict_GetItemWithError(
                        PyTuple_GET_ITEM(caller, 4), lasti);
                    if (patches != NULL)
                        patch = PyDict_GetItemWithError(patches, key);
                    Py_DECREF(lasti);
                }
            }
            Py_XDECREF(parent);
        }
    }
    Py_XINCREF(patch);
    return patch;
}

/* Is the code ``key`` names classified ``_SKIP`` (1), or not, or not
 * yet (0)?  The code cache holds the code object, so no other code
 * can take its id while the entry lives. */
static int
skipped(Hook *h, PyObject *key)
{
    PyObject *entry = PyDict_GetItemWithError(h->code_cache, key);
    if (entry == NULL)
        return PyErr_Occurred() ? -1 : 0;
    return PyObject_RichCompareBool(PyTuple_GET_ITEM(entry, 1), skip_function, Py_EQ);
}

static int
encoded_call(Hook *h, PyObject *frame, PyObject *patch)
{
    PyObject *delta = PyTuple_GET_ITEM(patch, 5);
    int moves = PyObject_IsTrue(delta);
    int tail = PyObject_IsTrue(PyTuple_GET_ITEM(patch, 7));
    if (moves < 0 || tail < 0)
        return -1;
    HitSlot *slot = hit_slot(h, PyTuple_GET_ITEM(patch, 6));
    if (slot == NULL)
        return -1;
    slot->hits += 1;
    PyObject *cur_id = h->cur_id;
    if (push_record(h, frame, PyTuple_GET_ITEM(patch, 1), PyTuple_GET_ITEM(patch, 2),
                    PyTuple_GET_ITEM(patch, 3), cur_id, PyTuple_GET_ITEM(patch, 8)) < 0)
        return -1;
    if (moves) {
        PyObject *next = PyNumber_Add(cur_id, delta);
        if (next == NULL)
            return -1;
        Py_SETREF(h->cur_id, next);
        h->id_updates += 1;
    }
    h->tcstack += tail;
    return 0;
}

static int
back_call(Hook *h, PyObject *frame, PyObject *patch)
{
    if (ensure_bound(h) < 0)
        return -1;
    PyObject *ents = h->ents;
    PyObject *cur_id = h->cur_id;
    PyObject *back = PyTuple_GET_ITEM(patch, 5);
    PyObject *ce = PyTuple_GET_ITEM(patch, 2);
    PyObject *cs = PyTuple_GET_ITEM(patch, 3);
    Py_ssize_t n = PyList_GET_SIZE(ents);
    PyObject *top_entry = NULL;
    PyObject *top_count = zero;
    int repeat = 0;
    if (n) {
        top_entry = PyList_GET_ITEM(ents, n - 1);
        top_count = PyList_GET_ITEM(top_entry, 3);
        repeat = PyObject_RichCompareBool(PyList_GET_ITEM(top_entry, 0), cur_id, Py_EQ);
        if (repeat > 0)
            repeat = PyObject_RichCompareBool(PyList_GET_ITEM(top_entry, 1), cs, Py_EQ);
        if (repeat > 0)
            repeat = PyObject_RichCompareBool(PyList_GET_ITEM(top_entry, 2), ce, Py_EQ);
        if (repeat < 0)
            return -1;
    }
    int compress = 0;
    if (repeat) {
        compress = PyObject_IsTrue(PyTuple_GET_ITEM(back, 2));
        if (compress < 0)
            return -1;
    }
    HitSlot *slot = hit_slot(h, PyTuple_GET_ITEM(back, 0));
    if (slot == NULL)
        return -1;
    if (slot->counters == NULL) {
        slot->counters = PyTuple_GET_ITEM(back, 1);
        Py_INCREF(slot->counters);
    }
    slot->hits += 1;
    slot->pushes += 1;
    slot->repeats += repeat;
    if (compress) {
        PyObject *bumped = PyNumber_Add(top_count, one);
        if (bumped == NULL)
            return -1;
        Py_INCREF(bumped);
        if (PyList_SetItem(top_entry, 3, bumped) < 0
            || push_record(h, frame, PyTuple_GET_ITEM(patch, 1), ce, cs, cur_id,
                           h->act[A_CMP]) < 0
            || set_cc(h, n, bumped) < 0) {
            Py_DECREF(bumped);
            return -1;
        }
        Py_DECREF(bumped);
        h->compressions += 1;
    }
    else {
        PyObject *entry = PyList_New(5);
        if (entry == NULL)
            return -1;
        PyObject *fields[5] = {cur_id, cs, ce, zero, Py_False};
        for (int i = 0; i < 5; i++) {
            Py_INCREF(fields[i]);
            PyList_SET_ITEM(entry, i, fields[i]);
        }
        int res = PyList_Append(ents, entry);
        Py_DECREF(entry);
        if (res < 0
            || push_record(h, frame, PyTuple_GET_ITEM(patch, 1), ce, cs, cur_id,
                           h->act[A_PUSH]) < 0
            || set_cc(h, n + 1, zero) < 0)
            return -1;
        h->pushes += 1;
    }
    if (push_depth(h) < 0)
        return -1;
    set_obj(&h->cur_id, h->mark_id);
    int tail = PyObject_IsTrue(PyTuple_GET_ITEM(back, 3));
    if (tail < 0)
        return -1;
    h->tcstack += tail;
    return 0;
}

static int
boundary_call(Hook *h, PyObject *frame, PyObject *patch)
{
    if (ensure_bound(h) < 0)
        return -1;
    PyObject *ents = h->ents;
    PyObject *cur_id = h->cur_id;
    if (push_record(h, frame, PyTuple_GET_ITEM(patch, 1), PyTuple_GET_ITEM(patch, 2),
                    PyTuple_GET_ITEM(patch, 3), cur_id, PyTuple_GET_ITEM(patch, 5)) < 0
        || set_cc(h, PyList_GET_SIZE(ents) + 1, zero) < 0)
        return -1;
    PyObject *entry = PyList_New(5);
    if (entry == NULL)
        return -1;
    PyObject *fields[5] = {cur_id, h->untracked_site, PyTuple_GET_ITEM(patch, 6), zero, Py_False};
    for (int i = 0; i < 5; i++) {
        Py_INCREF(fields[i]);
        PyList_SET_ITEM(entry, i, fields[i]);
    }
    int res = PyList_Append(ents, entry);
    Py_DECREF(entry);
    if (res < 0 || push_depth(h) < 0)
        return -1;
    set_obj(&h->cur_id, h->mark_id);
    h->bpushes += 1;
    return 0;
}

static int
hook_call(Hook *h, PyFrameObject *frame_obj)
{
    PyObject *frame = (PyObject *)frame_obj;
    if (!h->entered && call0(h->cb[CB_ENTER]) < 0)
        return -1;
    PyObject *key = code_key(h, frame_obj);
    if (key == NULL)
        return -1;
    PyObject *patch = probe(h, frame_obj, key);
    if (patch == NULL || h->desync) {
        int skip = PyErr_Occurred() ? -1 : skipped(h, key);
        Py_DECREF(key);
        if (skip) {
            Py_XDECREF(patch);
            return skip < 0 ? -1 : 0;
        }
        Py_XSETREF(patch, PyObject_CallOneArg(h->cb[CB_RESOLVE], frame));
        if (patch == NULL)
            return -1;
        if (patch == Py_None) {
            Py_DECREF(patch);
            return 0;
        }
    }
    else {
        Py_DECREF(key);
    }
    int res = 0;
    long kind = PyLong_AsLong(PyTuple_GET_ITEM(patch, 0));
    if (kind == ENCODED) {
        res = encoded_call(h, frame, patch);
    }
    else if (kind == BACK) {
        res = back_call(h, frame, patch);
    }
    else if (kind == SKIP_CALL) {
        Py_DECREF(patch);
        return 0;
    }
    else if (kind == INNER) {
        res = push_record(h, frame, PyTuple_GET_ITEM(patch, 1), h->untracked_fn, zero, zero,
                          Py_None);
        h->suppressed += 1;
        Py_DECREF(patch);
        return res;
    }
    else if (kind == BOUNDARY) {
        res = boundary_call(h, frame, patch);
    }
    else {
        res = push_record(h, frame, PyTuple_GET_ITEM(patch, 1), PyTuple_GET_ITEM(patch, 2),
                          PyTuple_GET_ITEM(patch, 3), h->cur_id, h->act[A_UNT]);
        h->untracked += 1;
    }
    Py_DECREF(patch);
    if (res < 0)
        return -1;
    h->left -= 1;
    if (h->left <= 0)
        return call0(h->cb[CB_DUE_CALL]);
    return 0;
}

/* ------------------------------------------------------------------ */
/* the return branch                                                   */
/* ------------------------------------------------------------------ */

/* Pop a ccStack entry (or one count of it) for a returning frame. */
static int
pop_cc(Hook *h, int compressed)
{
    PyObject *ents = h->ents;
    Py_ssize_t n = PyList_GET_SIZE(ents);
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty ccStack view");
        return -1;
    }
    PyObject *top = PyList_GET_ITEM(ents, n - 1);
    if (compressed) {
        PyObject *count = PyNumber_Subtract(PyList_GET_ITEM(top, 3), one);
        if (count == NULL || PyList_SetItem(top, 3, count) < 0)
            return -1;
        h->s_dcmp += 1;
    }
    else if (list_pop(ents) < 0)
        return -1;
    h->depth -= 1;
    return observe_depth(h);
}

/* Return of a record ``state.frames`` holds: the kernel's return
 * branch, or the general path. */
static int
frame_return(Hook *h)
{
    PyObject *frames = h->frames;
    if (PyList_GET_SIZE(frames) > 1) {
        PyObject *top_frame = PyList_GET_ITEM(frames, PyList_GET_SIZE(frames) - 1);
        PyObject *act = PyTuple_GET_ITEM(top_frame, 4);
        int cc_pop = act != h->act[A_ID] && act != h->act[A_NONE] && act != h->act[A_UNT];
        if (cc_pop && ensure_bound(h) < 0)
            return -1;
        int chained = PyObject_IsTrue(PyTuple_GET_ITEM(top_frame, 6));
        if (chained < 0)
            return -1;
        /* Tail chains, discovery entries and a pop from an empty
         * ccStack (which the general path reports) deoptimise. */
        if (!chained && act != h->act[A_DISC]
            && (!cc_pop || PyList_GET_SIZE(h->ents))) {
            Py_INCREF(top_frame);
            int res = list_pop(frames);
            if (res == 0) {
                if (act == h->act[A_ID]) {
                    h->id_updates += 1;
                }
                else if (cc_pop) {
                    PyObject *top = PyList_GET_ITEM(h->ents, PyList_GET_SIZE(h->ents) - 1);
                    int count = PyObject_IsTrue(PyList_GET_ITEM(top, 3));
                    res = count < 0 ? -1 : pop_cc(h, count);
                    if (act == h->act[A_PUSH] || act == h->act[A_CMP])
                        h->pops += 1;
                    else
                        h->bpops += 1;
                }
            }
            if (res == 0) {
                set_obj(&h->cur_id, PyTuple_GET_ITEM(top_frame, 2));
                set_obj(&h->cc, PyTuple_GET_ITEM(top_frame, 3));
                h->rets += 1;
                res = update_desync(h);
            }
            Py_DECREF(top_frame);
            if (res < 0)
                return -1;
            if (h->left <= h->t_left)
                return call0(h->cb[CB_TRIGGERS]);
            return 0;
        }
    }
    return call0(h->cb[CB_RETURN_MISS]);
}

static int
hook_return(Hook *h, PyFrameObject *frame)
{
    Py_ssize_t n = PyList_GET_SIZE(h->stack);
    if (n == 0)
        return 0;
    PyObject *record = PyList_GET_ITEM(h->stack, n - 1);
    if (PyTuple_GET_ITEM(record, 0) != (PyObject *)frame)
        return 0;  /* the return of an untraced frame */
    Py_INCREF(record);
    int res = 0;
    if (!h->entered)
        res = call0(h->cb[CB_ENTER]);
    if (res == 0)
        res = list_pop(h->stack);
    if (res < 0) {
        Py_DECREF(record);
        return -1;
    }
    PyObject *act = PyTuple_GET_ITEM(record, 6);
    n = PyList_GET_SIZE(h->stack);
    if (n < h->mirrored) {
        /* A record ``state.frames`` holds, or one with no event. */
        h->mirrored = n;
        Py_DECREF(record);
        if (act == Py_None) {
            h->suppressed += 1;
            return 0;
        }
        return frame_return(h);
    }
    if (act == h->act[A_ID]) {
        h->id_updates += 1;
    }
    else if (act == h->act[A_NONE]) {
    }
    else if (act == Py_None) {
        h->suppressed += 1;
        Py_DECREF(record);
        return 0;
    }
    else if (act != h->act[A_UNT]) {
        /* A back-edge or boundary entry, on top by the checkpoint
         * invariant. */
        int compressed = act == h->act[A_CMP];
        res = pop_cc(h, compressed);
        if (compressed || act == h->act[A_PUSH])
            h->pops += 1;
        else
            h->bpops += 1;
    }
    if (res == 0) {
        set_obj(&h->cur_id, PyTuple_GET_ITEM(record, 4));
        set_obj(&h->cc, PyTuple_GET_ITEM(record, 5));
        h->rets += 1;
    }
    Py_DECREF(record);
    if (res < 0)
        return -1;
    if (h->left <= h->t_left)
        return call0(h->cb[CB_TRIGGERS]);
    return 0;
}

/* ------------------------------------------------------------------ */
/* the profile function and the type                                   */
/* ------------------------------------------------------------------ */

static int
profile(PyObject *self, PyFrameObject *frame, int what, PyObject *arg)
{
    Hook *h = (Hook *)self;
    int res;
    if (what == PyTrace_CALL)
        res = hook_call(h, frame);
    else if (what == PyTrace_RETURN)
        res = hook_return(h, frame);
    else
        return 0;
    if (res < 0) {
        /* As CPython's trampoline for a Python profile function: an
         * error removes the hook and propagates. */
        PyObject *type, *value, *traceback;
        PyErr_Fetch(&type, &value, &traceback);
        Py_INCREF(self);
        PyEval_SetProfile(NULL, NULL);
        Py_DECREF(self);
        PyErr_Restore(type, value, traceback);
        return -1;
    }
    return 0;
}

static PyObject *
Hook_call(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *frame, *event, *arg;
    if (!PyArg_ParseTuple(args, "O!UO:Hook", &PyFrame_Type, &frame, &event, &arg))
        return NULL;
    int res = 0;
    if (PyUnicode_Compare(event, s_call) == 0)
        res = hook_call((Hook *)self, (PyFrameObject *)frame);
    else if (PyUnicode_Compare(event, s_return) == 0)
        res = hook_return((Hook *)self, (PyFrameObject *)frame);
    if (res < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Hook_install(PyObject *self, PyObject *unused)
{
    PyEval_SetProfile(profile, self);
    Py_RETURN_NONE;
}

/* Add the hit counts of the slots touched since the last fold to
 * ``edge.invocations`` and the policy's push counters.  An error still
 * empties every touched slot. */
static PyObject *
Hook_fold(Hook *h, PyObject *unused)
{
    int res = 0;
    Py_ssize_t n = h->n_touched;
    h->n_touched = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        HitSlot *s = &h->slots[h->touched[i]];
        PyObject *edge = s->edge;
        PyObject *counters = s->counters;
        Py_ssize_t hits = s->hits, pushes = s->pushes, repeats = s->repeats;
        s->counters = NULL;
        s->hits = s->pushes = s->repeats = 0;
        s->touched = 0;
        if (res == 0 && hits)
            res = fold_hits(h, edge, hits);
        if (res == 0 && counters != NULL) {
            res = list_add(counters, 0, pushes);
            if (res == 0 && repeats)
                res = list_add(counters, 1, repeats);
        }
        Py_XDECREF(counters);
    }
    if (res < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
Hook_init(Hook *h, PyObject *args, PyObject *kwargs)
{
    PyObject *stack, *root_patches, *region_patches, *code_cache, *stats, *observe;
    PyObject *root_fn, *untracked_fn, *untracked_site, *actions, *kind, *callbacks;
    int warm;
    if (!PyArg_ParseTuple(args, "O!O!O!O!OOpOOOO!OO!:Hook",
                          &PyList_Type, &stack, &PyDict_Type, &root_patches,
                          &PyDict_Type, &region_patches, &PyDict_Type, &code_cache,
                          &stats, &observe, &warm,
                          &root_fn, &untracked_fn, &untracked_site,
                          &PyTuple_Type, &actions, &kind, &PyTuple_Type, &callbacks))
        return -1;
    if (PyTuple_GET_SIZE(actions) != N_ACT || PyTuple_GET_SIZE(callbacks) != N_CB) {
        PyErr_SetString(PyExc_TypeError, "Hook: wrong number of actions or callbacks");
        return -1;
    }
    set_obj(&h->stack, stack);
    set_obj(&h->root_patches, root_patches);
    set_obj(&h->region_patches, region_patches);
    set_obj(&h->code_cache, code_cache);
    set_obj(&h->stats, stats);
    set_obj(&h->observe, observe);
    h->warm = warm;
    set_obj(&h->root_fn, root_fn);
    set_obj(&h->untracked_fn, untracked_fn);
    set_obj(&h->untracked_site, untracked_site);
    for (int i = 0; i < N_ACT; i++)
        set_obj(&h->act[i], PyTuple_GET_ITEM(actions, i));
    set_obj(&h->kind_normal, kind);
    for (int i = 0; i < N_CB; i++)
        set_obj(&h->cb[i], PyTuple_GET_ITEM(callbacks, i));
    PyObject *frames = PyList_New(0);
    if (frames == NULL)
        return -1;
    Py_XSETREF(h->frames, frames);
    set_obj(&h->cur_id, zero);
    set_obj(&h->mark_id, zero);
    set_obj(&h->ccs, Py_None);
    PyObject *ents = PyList_New(0);
    if (ents == NULL)
        return -1;
    Py_XSETREF(h->ents, ents);
    PyObject *cc = PyTuple_Pack(2, zero, zero);
    if (cc == NULL)
        return -1;
    Py_XSETREF(h->cc, cc);
    return 0;
}

#define VISIT_ALL(X)                                                       \
    X(frames) X(cur_id) X(cc) X(mark_id) X(ccs) X(ents) X(stack)           \
    X(root_patches) X(region_patches) X(code_cache) X(stats) X(observe)    \
    X(root_fn) X(untracked_fn) X(untracked_site) X(kind_normal)

static int
Hook_traverse(Hook *h, visitproc visit, void *arg)
{
#define X(field) Py_VISIT(h->field);
    VISIT_ALL(X)
#undef X
    for (int i = 0; i < N_ACT; i++)
        Py_VISIT(h->act[i]);
    for (int i = 0; i < N_CB; i++)
        Py_VISIT(h->cb[i]);
    for (Py_ssize_t k = 0; k < h->n_slots; k++) {
        Py_VISIT(h->slots[k].edge);
        Py_VISIT(h->slots[k].counters);
    }
    return 0;
}

/* Drop the hit table and the key caches (pending hits are lost). */
static void
clear_tables(Hook *h)
{
    HitSlot *slots = h->slots;
    Py_ssize_t n_slots = h->n_slots;
    PyObject **lasti_keys = h->lasti_keys;
    Py_ssize_t n_lasti_keys = h->n_lasti_keys;
    PyMem_Free(h->index);
    PyMem_Free(h->touched);
    h->slots = NULL;
    h->index = NULL;
    h->touched = NULL;
    h->n_slots = h->cap_slots = h->n_touched = 0;
    h->index_mask = 0;
    h->lasti_keys = NULL;
    h->n_lasti_keys = 0;
    for (Py_ssize_t k = 0; k < n_slots; k++) {
        Py_XDECREF(slots[k].edge);
        Py_XDECREF(slots[k].counters);
    }
    PyMem_Free(slots);
    for (Py_ssize_t i = 0; i < n_lasti_keys; i++)
        Py_XDECREF(lasti_keys[i]);
    PyMem_Free(lasti_keys);
    for (int i = 0; i < ID_KEYS; i++) {
        h->id_keys[i].code = NULL;
        Py_CLEAR(h->id_keys[i].key);
    }
}

static int
Hook_clear(Hook *h)
{
#define X(field) Py_CLEAR(h->field);
    VISIT_ALL(X)
#undef X
    for (int i = 0; i < N_ACT; i++)
        Py_CLEAR(h->act[i]);
    for (int i = 0; i < N_CB; i++)
        Py_CLEAR(h->cb[i]);
    clear_tables(h);
    return 0;
}

static void
Hook_dealloc(Hook *h)
{
    PyObject_GC_UnTrack(h);
    Hook_clear(h);
    Py_TYPE(h)->tp_free((PyObject *)h);
}

#define STATE(name, type) {#name, type, offsetof(Hook, name), 0, NULL}

static PyMemberDef Hook_members[] = {
    STATE(entered, T_BOOL),
    STATE(desync, T_BOOL),
    STATE(mirrored, T_PYSSIZET),
    STATE(frames, T_OBJECT),
    STATE(cur_id, T_OBJECT),
    STATE(cc, T_OBJECT),
    STATE(mark_id, T_OBJECT),
    STATE(left, T_PYSSIZET),
    STATE(t_left, T_PYSSIZET),
    STATE(ccs, T_OBJECT),
    STATE(ents, T_OBJECT),
    STATE(depth, T_PYSSIZET),
    STATE(max_depth, T_PYSSIZET),
    STATE(s_dcmp, T_PYSSIZET),
    STATE(rets, T_PYSSIZET),
    STATE(id_updates, T_PYSSIZET),
    STATE(tcstack, T_PYSSIZET),
    STATE(pushes, T_PYSSIZET),
    STATE(compressions, T_PYSSIZET),
    STATE(pops, T_PYSSIZET),
    STATE(bpushes, T_PYSSIZET),
    STATE(bpops, T_PYSSIZET),
    STATE(untracked, T_PYSSIZET),
    STATE(suppressed, T_PYSSIZET),
    {NULL}
};

static PyMethodDef Hook_methods[] = {
    {"install", Hook_install, METH_NOARGS,
     "Install this hook as the thread's C profile function."},
    {"fold", (PyCFunction)Hook_fold, METH_NOARGS,
     "Add the stay's edge hits and back-edge pushes to the edges and the "
     "policy counters, crediting the warm start."},
    {NULL}
};

static PyTypeObject HookType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pytrace._chook.Hook",
    .tp_doc = "The profile hook's compiled hit path and entered state.",
    .tp_basicsize = sizeof(Hook),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Hook_init,
    .tp_dealloc = (destructor)Hook_dealloc,
    .tp_traverse = (traverseproc)Hook_traverse,
    .tp_clear = (inquiry)Hook_clear,
    .tp_call = Hook_call,
    .tp_members = Hook_members,
    .tp_methods = Hook_methods,
};

static struct PyModuleDef chook_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_chook",
    .m_doc = "The compiled hit path of repro.pytrace's profile hook.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__chook(void)
{
    if (PyType_Ready(&HookType) < 0)
        return NULL;
    s_invocations = PyUnicode_InternFromString("invocations");
    s_seeded = PyUnicode_InternFromString("seeded");
    s_hits_avoided = PyUnicode_InternFromString("warmstart_handler_hits_avoided");
    s_call = PyUnicode_InternFromString("call");
    s_return = PyUnicode_InternFromString("return");
    empty_tuple = PyTuple_New(0);
    zero = PyLong_FromLong(0);
    one = PyLong_FromLong(1);
    skip_function = PyLong_FromLong(SKIP_FUNCTION);
    if (!s_invocations || !s_seeded || !s_hits_avoided || !s_call || !s_return
        || !empty_tuple || !zero || !one || !skip_function)
        return NULL;
    PyObject *module = PyModule_Create(&chook_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&HookType);
    if (PyModule_AddObject(module, "Hook", (PyObject *)&HookType) < 0) {
        Py_DECREF(&HookType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
