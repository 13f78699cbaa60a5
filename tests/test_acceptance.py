"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the verdict lines.
"""

import os
import subprocess
import sys
import time

import numpy as np

import qso_reps
from qso_reps import (CLASSICAL, NONCLASSICAL, HalfInt, IrrepLabel, QContext,
                      assemble_decomposition, branching_set,
                      build_all_generators, build_generator,
                      canonical_vector_operator, check_relations,
                      check_vector_operator, dimension, enumerate_patterns,
                      q_bracket, q_bracket_plus, reduced_matrix_elements,
                      tensor_rep)
from qso_reps.cgc import admissible_aux, decomposition_rank

from oracles import classical_limit_generator, embedding_check, so3_cgc

H = HalfInt
QS = (0.7, 1.3)


def _alternating(n):
    return tuple(1 if i % 2 == 0 else -1 for i in range(n - 1))


def _all_plus(n):
    return tuple([1] * (n - 1))


CLASSICAL_SUITE = [
    IrrepLabel(3, CLASSICAL, (H(1),)),
    IrrepLabel(3, CLASSICAL, (H(2),)),
    IrrepLabel(3, CLASSICAL, (H(4),)),
    IrrepLabel(4, CLASSICAL, (H(2), H(0))),
    IrrepLabel(4, CLASSICAL, (H(2), H(2))),
    IrrepLabel(4, CLASSICAL, (H(4), H(2))),
    IrrepLabel(5, CLASSICAL, (H(2), H(0))),
    IrrepLabel(5, CLASSICAL, (H(2), H(2))),
    IrrepLabel(5, CLASSICAL, (H(4), H(2))),
    IrrepLabel(6, CLASSICAL, (H(2), H(0), H(0))),
    IrrepLabel(6, CLASSICAL, (H(2), H(2), H(0))),
]

_NC_WEIGHTS = [
    (3, (H(1),)), (3, (H(3),)), (3, (H(5),)),
    (4, (H(1), H(1))), (4, (H(3), H(1))),
    (5, (H(3), H(1))),
]

NONCLASSICAL_SUITE = [
    IrrepLabel(n, NONCLASSICAL, w, eps_fn(n))
    for n, w in _NC_WEIGHTS
    for eps_fn in (_all_plus, _alternating)
]

SUITE = CLASSICAL_SUITE + NONCLASSICAL_SUITE


def _verdict(num, name, violations, extra=""):
    status = "PASS" if not violations else "FAIL"
    detail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} {name}: {status}{detail}")
    assert not violations, violations[:5]


def test_criterion_1_defining_relations():
    start = time.time()
    violations = []
    worst = 0.0
    for label in SUITE:
        for q in QS:
            ctx = QContext(q)
            report = check_relations(build_all_generators(label, ctx), ctx)
            for e in report.entries:
                worst = max(worst, e.residual / (1.0 + e.scale))
                if e.residual > 1e-9 * (1.0 + e.scale):
                    violations.append((repr(label), q, e.relation, e.residual))
    elapsed = time.time() - start
    if elapsed > 30.0:
        violations.append(("runtime", elapsed))
    _verdict(1, "defining relations", violations,
             f"max scaled residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_spectra():
    violations = []
    worst = 0.0
    for label in SUITE:
        for q in QS:
            ctx = QContext(q)
            gen = build_generator(label, 1, ctx)
            eigs = np.linalg.eigvals(gen.mat)
            basis = enumerate_patterns(label)
            if label.kind == CLASSICAL:
                expected = np.array([1j * q_bracket(p.m12, ctx)
                                     for p in basis.patterns])
            else:
                expected = np.array([label.eps[0] * q_bracket_plus(p.m12, ctx)
                                     for p in basis.patterns])
            got = np.sort_complex(np.round(eigs, 12))
            want = np.sort_complex(np.round(expected, 12))
            dev = float(np.abs(got - want).max())
            worst = max(worst, dev)
            if dev > 1e-8:
                violations.append((repr(label), q, dev))
    _verdict(2, "weight-line spectra", violations, f"max deviation {worst:.2e}")


def test_criterion_3_tensor_representation():
    violations = []
    worst = 0.0
    for label in SUITE:
        for q in QS:
            ctx = QContext(q)
            mats = tensor_rep(build_all_generators(label, ctx), ctx)
            report = check_relations(mats, ctx)
            for e in report.entries:
                worst = max(worst, e.residual / (1.0 + e.scale))
                if e.residual > 1e-9 * (1.0 + e.scale):
                    violations.append((repr(label), q, e.relation, e.residual))
    _verdict(3, "tensor representation", violations,
             f"max scaled residual {worst:.2e}")


def test_criterion_4_decomposition():
    violations = []
    worst = 0.0
    for label in SUITE:
        for q in QS:
            ctx = QContext(q)
            try:
                blocks = assemble_decomposition(label, ctx)
            except Exception as exc:  # hard failure inside assembly
                violations.append((repr(label), q, str(exc)))
                continue
            for m_tgt, it in blocks.items():
                for k, e in enumerate(it.residuals.entries, 1):
                    worst = max(worst, e.residual / max(e.scale, 1e-300))
                    if e.residual > 1e-8 * e.scale:
                        violations.append((repr(label), q, m_tgt, k, e.residual))
            n_dim = label.n * dimension(label)
            if sum(it.matrix.shape[1] for it in blocks.values()) != n_dim:
                violations.append((repr(label), q, "sum rule"))
            if decomposition_rank(blocks, ctx) != n_dim:
                violations.append((repr(label), q, "rank"))
    _verdict(4, "tensor decomposition", violations,
             f"max residual/scale {worst:.2e}")


def _general_table_for(label, m_tgt, ctx):
    blocks = assemble_decomposition(label, ctx)
    return blocks[m_tgt].table


def test_criterion_5_rank3_consistency():
    violations = []
    worst = 0.0
    cases = [(IrrepLabel(3, CLASSICAL, (H(t),)), None) for t in (1, 2, 4)]
    cases += [(IrrepLabel(3, NONCLASSICAL, (H(t),), eps), eps)
              for t in (1, 3, 5) for eps in ((1, 1), (1, -1))]
    ctx = QContext(1.3)
    for label, eps in cases:
        l = label.m_top[0]
        for branch in branching_set(label.m_top, 3, label.kind):
            lt = branch.row[0]
            table = _general_table_for(label, branch.row, ctx)
            explicit = so3_cgc(l, lt, label.kind, eps, ctx)
            ratios = []
            for tgt, terms in table.entries:
                m = tgt.m12
                alpha, beta, gamma = explicit[m]
                for k, src, value in terms:
                    if k == "3":
                        ref = beta
                    elif k == "+":
                        ref = alpha
                    elif label.kind == NONCLASSICAL and m == H(1) and src.m12 == H(1):
                        ref = alpha
                    else:
                        ref = gamma
                    if abs(ref) > 1e-12:
                        ratios.append(value / ref)
                    elif abs(value) > 1e-12:
                        violations.append((repr(label), lt.twice, str(m),
                                           "zero mismatch"))
            spread = max(abs(r - ratios[0]) / abs(ratios[0]) for r in ratios)
            worst = max(worst, spread)
            if spread > 1e-8:
                violations.append((repr(label), lt.twice, spread))
    _verdict(5, "rank-3 explicit tables", violations,
             f"max per-block spread {worst:.2e}")


def test_criterion_6_auxiliary_independence():
    ctx = QContext(1.3)
    labels = [lb for lb in SUITE if lb.n in (4, 5)]
    samples = 0
    violations = []
    worst = 0.0
    for label in labels:
        for branch in branching_set(label.m_top, label.n, label.kind):
            # the first two usable auxiliary weights: every slot's block over
            # its normalising ratio, slot n included
            _, found = admissible_aux(label, branch.row, ctx, want=2)
            if len(found) < 2:
                continue
            (_, mu1, blocks1), (_, mu2, blocks2) = found
            for k in blocks1:
                v1, v2 = blocks1[k] / mu1, blocks2[k] / mu2
                size = np.maximum(np.abs(v1), np.abs(v2))
                live = size >= 1e-9
                if not live.any():
                    continue
                rel = float((np.abs(v1 - v2)[live] / size[live]).max())
                worst = max(worst, rel)
                samples += int(live.sum())
                if rel > 1e-8:
                    violations.append((repr(label), branch.row, k, rel))
    if samples < 20:
        violations.append(("too few samples", samples))
    _verdict(6, "auxiliary-weight independence", violations,
             f"{samples} samples, max rel diff {worst:.2e}")


def test_criterion_7_embedding():
    violations = []
    worst = 0.0
    for n in (3, 4, 5):
        for q in QS:
            report = embedding_check(n, QContext(q))
            residual = max(report.hopf_residual, report.vector_residual,
                           report.relations.max_residual)
            worst = max(worst, residual)
            if not report.passed or residual > 1e-12:
                violations.append((n, q, residual))
    _verdict(7, "quantum sl_n embedding", violations,
             f"max residual {worst:.2e}")


def test_criterion_8_wigner_eckart():
    violations = []
    worst_cov, worst_ratio, worst_forbidden = 0.0, 0.0, 0.0
    ambients = [IrrepLabel(5, CLASSICAL, (H(2), H(0))),
                IrrepLabel(5, CLASSICAL, (H(4), H(2)))]
    ambients += [IrrepLabel(5, NONCLASSICAL, (H(3), H(1)), eps)
                 for eps in (_all_plus(5), _alternating(5))]
    for ambient in ambients:
        for q in QS:
            ctx = QContext(q)
            vop = canonical_vector_operator(ambient, ctx)
            report = check_vector_operator(vop, ctx)
            for e in report.entries:
                worst_cov = max(worst_cov, e.residual / max(e.scale, 1.0))
                if e.residual > 1e-9 * e.scale:
                    violations.append((repr(ambient), q, e.relation, e.residual))
            try:
                red = reduced_matrix_elements(vop, ctx)
            except Exception as exc:
                violations.append((repr(ambient), q, str(exc)))
                continue
            for key, entry in red.entries.items():
                worst_ratio = max(worst_ratio, entry.residual)
                if entry.residual > 1e-8:
                    violations.append((repr(ambient), q, key, entry.residual))
            for key, raw in red.forbidden.items():
                worst_forbidden = max(worst_forbidden, raw)
                if raw > 1e-10:
                    violations.append((repr(ambient), q, key, "forbidden", raw))
    _verdict(8, "reduced matrix elements", violations,
             f"cov {worst_cov:.2e}, ratio {worst_ratio:.2e}, "
             f"forbidden {worst_forbidden:.2e}")


def test_criterion_9_classical_limit():
    violations = []
    worst = 0.0
    ctx = QContext(1.0 + 1e-6)
    for label in CLASSICAL_SUITE:
        for k in range(1, label.n):
            got = build_generator(label, k, ctx).mat
            want = classical_limit_generator(label, k)
            denom = np.maximum(np.abs(want), 1e-9)
            dev = float((np.abs(got - want) / denom).max())
            worst = max(worst, dev)
            if not np.allclose(got, want, rtol=1e-4, atol=1e-9):
                violations.append((repr(label), k, dev))
    _verdict(9, "classical limit", violations, f"max rel deviation {worst:.2e}")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "qso_reps.cli", "decompose", "--algebra", "4",
           "--weight", "1,1", "--q", "1.3,0.7"]
    # the child imports the same qso_reps as this test, installed or not
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qso_reps.__file__)))
    outputs = set()
    for _ in range(3):
        result = subprocess.run(cmd, capture_output=True, check=True, env=env)
        outputs.add(result.stdout)
    violations = [] if len(outputs) == 1 else [("distinct outputs",
                                                len(outputs))]
    _verdict(10, "byte-identical decomposition output", violations,
             f"{len(next(iter(outputs)))} bytes x 3 runs")
