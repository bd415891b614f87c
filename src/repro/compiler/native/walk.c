/* the linearizer walker: Algorithm 2 in one call, under the GIL */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/ndarraytypes.h>

/* Plan nodes, as linearize._walk_plan builds them: a leaf is (kind, sizeof),
   a composite (kind, sizeof, type, value class, parts slot name, ...) plus
     W_PRIMS   extent, the backing's dtype;
     W_ARRAY   extent, element node;
     W_STRUCT  ((byte offset, node), ...), one per member in order. */
enum { W_REAL, W_INT, W_PRIMS, W_ARRAY, W_STRUCT };
#define AT(t, i) PyTuple_GET_ITEM(t, i)
#define SLOT(v, off) (*(PyObject **)((char *)(v) + (off)))
#define BACKING (NPY_ARRAY_C_CONTIGUOUS | NPY_ARRAY_ALIGNED)

typedef struct node node;
typedef struct { Py_ssize_t off; node *node; } member;

/* a plan node, decoded; every object is borrowed from the plan */
struct node {
    node *next;              /* the call's decoded nodes, for reuse and free */
    PyObject *plan;
    long kind;
    Py_ssize_t size, n;      /* sizeof; extent, or member count */
    PyObject *type, *dtype;
    PyTypeObject *cls;       /* NULL: the class's slots are not object members */
    Py_ssize_t type_off, parts_off;
    node *elt;
    member *members;
};

static PyObject *s_type;
static PyTypeObject *s_ndarray;

/* A refusal: 0, clearing an Exception (_pack meets it again); -1 leaves
   anything else (KeyboardInterrupt) raised. */
static int refused(void) {
    if (PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_Exception)) return -1;
        PyErr_Clear();
    }
    return 0;
}

static node *bad_plan(void) {
    PyErr_SetString(PyExc_TypeError, "walk: not a linearizer plan");
    return NULL;
}

/* the offset of the object slot `name` resolves to on `cls`; -1 for any
   other attribute */
static Py_ssize_t slot_offset(PyTypeObject *cls, PyObject *name) {
    PyObject *d = _PyType_Lookup(cls, name);
    PyMemberDef *m;
    if (d == NULL || !Py_IS_TYPE(d, &PyMemberDescr_Type)) return -1;
    m = ((PyMemberDescrObject *)d)->d_member;
    return m->type == T_OBJECT_EX ? m->offset : -1;
}

static void free_nodes(node *all) {
    while (all != NULL) {
        node *next = all->next;
        PyMem_Free(all->members);
        PyMem_Free(all);
        all = next;
    }
}

/* `plan` as a C node, prepended to `*all`; a node met again is reused */
static node *decode(PyObject *plan, node **all) {
    node *n;
    Py_ssize_t k, len;
    for (n = *all; n != NULL; n = n->next)
        if (n->plan == plan) return n;
    if (!PyTuple_CheckExact(plan) || (len = PyTuple_GET_SIZE(plan)) < 2) return bad_plan();
    n = PyMem_Calloc(1, sizeof *n);
    if (n == NULL) return (node *)PyErr_NoMemory();
    n->next = *all;
    *all = n;
    n->plan = plan;
    n->kind = PyLong_AsLong(AT(plan, 0));
    n->size = PyLong_AsSsize_t(AT(plan, 1));
    if (PyErr_Occurred()) return NULL;
    if (n->kind == W_REAL || n->kind == W_INT)
        return len == 2 && n->size == 8 ? n : bad_plan();
    if (len != (n->kind == W_STRUCT ? 6 : 7)
        || !PyType_Check(AT(plan, 3)) || !PyUnicode_CheckExact(AT(plan, 4)))
        return bad_plan();
    n->type = AT(plan, 2);
    n->cls = (PyTypeObject *)AT(plan, 3);
    n->type_off = slot_offset(n->cls, s_type);
    n->parts_off = slot_offset(n->cls, AT(plan, 4));
    if (n->type_off < 0 || n->parts_off < 0) n->cls = NULL;
    if (n->kind == W_PRIMS || n->kind == W_ARRAY) {
        n->n = PyLong_AsSsize_t(AT(plan, 5));
        if (n->n < 0) return PyErr_Occurred() ? NULL : bad_plan();
        if (n->kind == W_PRIMS) {  /* sizeof is extent x the dtype's itemsize:
                                      only its identity is ever read */
            n->dtype = AT(plan, 6);
            return n;
        }
        n->elt = decode(AT(plan, 6), all);
        if (n->elt == NULL) return NULL;
        return n->n * n->elt->size == n->size ? n : bad_plan();
    }
    if (n->kind != W_STRUCT || !PyTuple_CheckExact(AT(plan, 5))) return bad_plan();
    n->n = PyTuple_GET_SIZE(AT(plan, 5));
    n->members = PyMem_Calloc((size_t)n->n + 1, sizeof(member));
    if (n->members == NULL) return (node *)PyErr_NoMemory();
    for (k = 0; k < n->n; k++) {
        PyObject *m = AT(AT(plan, 5), k);
        member *p = &n->members[k];
        if (!PyTuple_CheckExact(m) || PyTuple_GET_SIZE(m) != 2) return bad_plan();
        p->off = PyLong_AsSsize_t(AT(m, 0));
        if (p->off == -1 && PyErr_Occurred()) return NULL;
        p->node = decode(AT(m, 1), all);
        if (p->node == NULL) return NULL;
        if (p->off < 0 || p->off + p->node->size > n->size) return bad_plan();
    }
    return n;
}

static int walk(const node *n, PyObject *v, char *out);

/* a borrowed part, held while it is walked (a type's __eq__ is Python) */
static int walk_part(const node *n, PyObject *v, char *out) {
    int rc;
    Py_INCREF(v);
    rc = walk(n, v, out);
    Py_DECREF(v);
    return rc;
}

static int walk_parts(const node *n, PyObject *parts, char *out) {
    Py_ssize_t k;
    int rc = 1;
    if (n->kind == W_PRIMS) {
        PyArrayObject_fields *a = (PyArrayObject_fields *)parts;
        if (Py_TYPE(parts) != s_ndarray || a->nd != 1 || a->dimensions[0] != n->n
            || (PyObject *)a->descr != n->dtype || (a->flags & BACKING) != BACKING)
            return 0;
        memcpy(out, a->data, (size_t)n->size);
        return 1;
    }
    /* an array's elements and a structure's members: an exact list of the
       node's length, read by position (and its length again after each
       part, whose walk may have run a type's __eq__) */
    if (!PyList_CheckExact(parts) || PyList_GET_SIZE(parts) != n->n) return 0;
    for (k = 0; k < n->n && rc == 1; k++) {
        PyObject *x;
        if (PyList_GET_SIZE(parts) != n->n) return 0;
        x = PyList_GET_ITEM(parts, k);
        rc = n->kind == W_ARRAY ? walk_part(n->elt, x, out + k * n->elt->size)
                                : walk_part(n->members[k].node, x, out + n->members[k].off);
    }
    return rc;
}

/* 1: the value is written at out; 0: refused; -1: an error is raised */
static int walk(const node *n, PyObject *v, char *out) {
    PyObject *vt, *parts;
    int rc;
    if (n->kind == W_REAL) {
        double d;
        if (!PyFloat_CheckExact(v)) return 0;
        d = PyFloat_AS_DOUBLE(v);
        memcpy(out, &d, sizeof d);
        return 1;
    }
    if (n->kind == W_INT) {
        int overflow;
        long long x;
        if (!PyLong_CheckExact(v)) return 0;
        x = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow || (x == -1 && PyErr_Occurred())) return refused();
        memcpy(out, &x, sizeof x);
        return 1;
    }
    /* a value of exactly the node's class whose .type is the node's type,
       or equal to it */
    if (Py_TYPE(v) != n->cls || (vt = SLOT(v, n->type_off)) == NULL) return 0;
    if (vt != n->type) {
        Py_INCREF(vt);
        rc = PyObject_RichCompareBool(vt, n->type, Py_EQ);
        Py_DECREF(vt);
        if (rc != 1) return rc < 0 ? refused() : 0;
    }
    parts = SLOT(v, n->parts_off);  /* read after __eq__, which is Python */
    if (parts == NULL) return 0;
    Py_INCREF(parts);
    rc = walk_parts(n, parts, out);
    Py_DECREF(parts);
    return rc;
}

static PyObject *py_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_buffer out;
    node *all = NULL, *root;
    int rc = -1;
    (void)self;
    if (nargs != 3 || !PyTuple_CheckExact(args[0])) {
        PyErr_SetString(PyExc_TypeError, "walk(plan, value, out) takes a plan tuple");
        return NULL;
    }
    if (PyObject_GetBuffer(args[2], &out, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    root = decode(args[0], &all);
    if (root != NULL && out.len != root->size)
        PyErr_SetString(PyExc_ValueError, "walk: the buffer is not the plan's size");
    else if (root != NULL)
        rc = walk(root, args[1], (char *)out.buf);
    free_nodes(all);
    PyBuffer_Release(&out);
    return rc < 0 ? NULL : PyBool_FromLong(rc);
}

static PyMethodDef walk_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))py_walk, METH_FASTCALL,
     "walk(plan, value, out) -> bool: pack value into out, or refuse it"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef walk_module = {
    .m_base = PyModuleDef_HEAD_INIT, .m_name = "__NATIVE_SYMBOL__", .m_size = -1,
    .m_methods = walk_methods,
};

PyMODINIT_FUNC PyInit___NATIVE_SYMBOL__(void) {
    PyObject *numpy = PyImport_ImportModule("numpy"), *ndarray;
    if (numpy == NULL) return NULL;
    ndarray = PyObject_GetAttrString(numpy, "ndarray");
    Py_DECREF(numpy);
    if (ndarray == NULL) return NULL;
    if (!PyType_Check(ndarray)
        || ((PyTypeObject *)ndarray)->tp_basicsize < (Py_ssize_t)sizeof(PyArrayObject_fields)) {
        Py_DECREF(ndarray);
        PyErr_SetString(PyExc_ImportError, "numpy.ndarray does not match NumPy's headers");
        return NULL;
    }
    s_ndarray = (PyTypeObject *)ndarray;  /* held for the process */
    s_type = PyUnicode_InternFromString("type");
    return s_type == NULL ? NULL : PyModule_Create(&walk_module);
}
