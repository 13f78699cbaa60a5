"""Generators and vector operators are held as nonzeros.

Their dense forms must be bit-identical to the dense references of
`oracles.py` (the generator block filled column by column, and the "+"
chain run on dense generators with every level kept), with no zero of
negative sign, and no matrix of the full d x d size may be kept in the
context's cache or in a vector operator, nor allocated while the canonical
operator is built.  The reduced-element fit works on each block pair's
nonzeros and stacks no dense blocks.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qso_reps import (CLASSICAL, NONCLASSICAL, HalfInt, IrrepLabel, QContext,
                      build_all_generators, canonical_vector_operator,
                      dimension, reduced_matrix_elements)
from qso_reps.reps import Sparse
from oracles import dense_canonical_operator, dense_generator

NC = NONCLASSICAL
QS = (0.7592, 1.3, 2.5)


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(HalfInt(t) for t in twice_weight), eps)


GENERATOR_LABELS = [
    lab(3, (4,)), lab(3, (5,), NC, (1, -1)),
    lab(4, (4, 2)), lab(4, (3, 1), NC, (1, -1, 1)),
    lab(5, (3, 1)), lab(5, (4, 2)), lab(5, (5, 1), NC, (1, -1, 1, -1)),
    lab(6, (4, 2, 0)), lab(6, (1, 1, -1)), lab(6, (3, 3, 1), NC, (1, 1, -1, 1, 1)),
    lab(7, (4, 2, 2)), lab(7, (3, 1, 1), NC, (1, -1, 1, -1, 1, -1)),
]
AMBIENTS = [
    lab(4, (4, 2)), lab(4, (3, 1), NC, (1, -1, 1)),
    lab(5, (3, 1)), lab(5, (3, 1), NC, (1, 1, 1, 1)),
    lab(6, (6, 4, 2)), lab(6, (7, 3, 1), NC, (-1, -1, -1, -1, 1)),
    lab(7, (4, 2, 2)), lab(7, (5, 3, 1), NC, (1, -1, 1, -1, 1, -1)),
]


def assert_no_negative_zero(mat):
    zero = mat == 0
    assert not np.signbit(mat.real[zero]).any()
    assert not np.signbit(mat.imag[zero]).any()


def assert_nonzeros_of(nonzeros, want):
    """`nonzeros` holds exactly the entries `Sparse.of(want)` finds, in
    row-major order, with the same bits."""
    ref = Sparse.of(want)
    assert nonzeros.shape == want.shape
    assert np.array_equal(nonzeros.rows, ref.rows)
    assert np.array_equal(nonzeros.cols, ref.cols)
    assert nonzeros.vals.tobytes() == ref.vals.tobytes()


@pytest.mark.parametrize("label", GENERATOR_LABELS, ids=str)
def test_generators_match_the_dense_block(label):
    for q in QS:
        ctx, ref_ctx = QContext(q), QContext(q)
        for k, g in enumerate(build_all_generators(label, ctx), 1):
            want = dense_generator(label, k, ref_ctx)
            got = g.mat
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
            assert_no_negative_zero(got)
            assert_no_negative_zero(want)
            assert_nonzeros_of(g.nonzeros, want)


@pytest.mark.parametrize("ambient", AMBIENTS, ids=str)
def test_operator_matches_the_dense_chain(ambient):
    for q in QS:
        vop = canonical_vector_operator(ambient, QContext(q))
        gens, comps = dense_canonical_operator(ambient, QContext(q))
        assert len(vop.gens) == len(gens) and len(vop.components) == len(comps)
        for held, want in zip(vop.gens + vop.components, gens + comps):
            got = held.dense()
            assert np.array_equal(got, want)
            live = want != 0
            assert got[live].tobytes() == want[live].tobytes()
            assert_no_negative_zero(got)
            assert_nonzeros_of(held, want)


def held_arrays(obj, seen=None):
    """Every numpy array reachable from `obj` through containers, dataclass
    fields and slots."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from held_arrays(key, seen)
            yield from held_arrays(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from held_arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from held_arrays(getattr(obj, f.name), seen)
    else:
        for name in getattr(type(obj), "__slots__", ()):
            yield from held_arrays(getattr(obj, name, None), seen)


def test_no_dense_matrix_is_kept():
    label, ambient = lab(6, (4, 2, 0)), lab(6, (6, 4, 2))
    ctx = QContext(1.3)
    build_all_generators(label, ctx)
    d = dimension(label)
    sizes = [a.size for a in held_arrays(ctx.cache)]
    assert sizes and max(sizes) < d * d
    ctx = QContext(1.3)
    vop = canonical_vector_operator(ambient, ctx)
    d = dimension(ambient)
    for holder in (ctx.cache, vop):
        sizes = [a.size for a in held_arrays(holder)]
        assert sizes and max(sizes) < d * d


def test_operator_allocates_less_than_one_dense_matrix():
    # the chain runs block pair by block pair, so building the operator,
    # with its generators and the nonzeros it returns, needs less memory
    # than one d x d complex matrix
    ambient = lab(7, (6, 2, 2))
    d = dimension(ambient)
    assert d == 616
    ctx = QContext(1.3)
    tracemalloc.start()
    try:
        canonical_vector_operator(ambient, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * 16, peak


def test_fit_allocates_less_than_two_stacks_of_blocks():
    # the fit holds one pair's slot tables and their nonzeros, never an
    # n x bt x bs stack of coefficients and one of raw elements: its peak
    # stays below 2 n D^2 complex entries, D the largest block dimension
    ambient = lab(7, (6, 2, 2))
    ctx = QContext(1.3)
    vop = canonical_vector_operator(ambient, ctx)
    big = max(b.dim for b in vop.blocks)
    tracemalloc.start()
    try:
        reduced_matrix_elements(vop, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * vop.n * big * big * 16, (peak, vop.n, big)
