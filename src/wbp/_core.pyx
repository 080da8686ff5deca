# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled per-generation kernels.

Mirrors ``_core_numpy`` exactly: same uniform-draw order off the same
bit generator, same arithmetic, hence bit-identical populations. The win
is fusing the draw / multiply / scatter passes into one loop.
"""

import numpy as np

cimport numpy as cnp
from cpython.pycapsule cimport PyCapsule_GetPointer, PyCapsule_IsValid
from numpy.random cimport bitgen_t

cnp.import_array()

BACKEND = "cython"

cdef const char *CAPSULE_NAME = "BitGenerator"


cdef bitgen_t *_bitgen(object rng) except NULL:
    capsule = rng.bit_generator.capsule
    if not PyCapsule_IsValid(capsule, CAPSULE_NAME):
        raise ValueError("invalid BitGenerator capsule")
    return <bitgen_t *> PyCapsule_GetPointer(capsule, CAPSULE_NAME)


def split_pair_children(object weights, object rng, bint independent):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] w = np.ascontiguousarray(weights, dtype=np.float64)
    cdef Py_ssize_t p = w.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(2 * p, dtype=np.float64)
    cdef bitgen_t *bg = _bitgen(rng)
    cdef Py_ssize_t i
    cdef double u, v
    with rng.bit_generator.lock:
        if independent:
            for i in range(p):
                u = bg.next_double(bg.state)
                v = bg.next_double(bg.state)
                out[2 * i] = w[i] * u
                out[2 * i + 1] = w[i] * (1.0 - v)
        else:
            for i in range(p):
                u = bg.next_double(bg.state)
                out[2 * i] = w[i] * u
                out[2 * i + 1] = w[i] * (1.0 - u)
    return out


def scaled_children(object weights, double scale, object rng):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] w = np.ascontiguousarray(weights, dtype=np.float64)
    cdef Py_ssize_t p = w.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(p, dtype=np.float64)
    cdef bitgen_t *bg = _bitgen(rng)
    cdef Py_ssize_t i
    with rng.bit_generator.lock:
        for i in range(p):
            out[i] = w[i] * (scale * bg.next_double(bg.state))
    return out

