"""Run one qso-reps CLI call with per-module spans and counters.

Usage: python bench/tracer.py TRACE_OUT CLI_ARG...

The call's stdout, stderr and exit code are those of
``python -m qso_reps.cli CLI_ARG...``.  Before calling ``qso_reps.cli.main``
the listed public functions are wrapped in every ``qso_reps.*`` namespace
that holds them.  Timed functions record a span (name, start, end, parent);
hot leaf functions only count their calls, because timing them as well
inflates the run.  Spans, counts and a few values read from returned
objects stay in memory and are written as JSON to TRACE_OUT at exit.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# functions that get a span; each span also counts as a call
TIMED = {
    "gtbasis": ("enumerate_patterns",),
    "reps": ("build_generator", "composite_generator", "check_relations"),
    "tensorprod": ("tensor_rep",),
    "cgc": ("assemble_decomposition", "decomposition_rank"),
    "wigner": ("canonical_vector_operator", "check_vector_operator",
               "reduced_matrix_elements"),
    "cli": ("main",),
}
# hot leaf functions that only count their calls
COUNTED = {
    "qarith": ("q_bracket", "q_bracket_plus", "q_power"),
    "gtbasis": ("covers", "l_coords", "branch_rows", "extend_pattern"),
    "reps": ("coeff_classical", "coeff_nonclassical"),
    "cgc": ("cgc_is_zero", "top_cgc", "aux_candidates"),
}

_COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self._assemble: list[tuple[int, set]] = []  # (rank, aux labels built)
        self._pattern_cache_info = None
        self._pattern_misses = 0

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    # wrappers ------------------------------------------------------------

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        before = getattr(self, "_before_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)
        signature = inspect.signature(fn) if before or after else None

        def wrapper(*args, **kwargs):
            bound = signature and signature.bind(*args, **kwargs).arguments
            state = before(bound) if before else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after:
                after(bound, result, state)
            return result

        return wrapper

    # values read from arguments and results ------------------------------

    def _after_enumerate_patterns(self, args, basis, _) -> None:
        info = self._pattern_cache_info
        # without a cache every call enumerates
        misses = info().misses if info else self._pattern_misses + 1
        if misses > self._pattern_misses:
            self._pattern_misses = misses
            self.add("gtbasis.enumerate_patterns.misses", 1)
            self.add("gtbasis.patterns_enumerated", basis.dim)

    def _after_build_generator(self, args, gen, _) -> None:
        self.add("reps.generator_bytes_built", _COMPLEX_BYTES * gen.mat.size)
        label = args["label"]
        if self._assemble and label.n == self._assemble[-1][0] + 1:
            self._assemble[-1][1].add(label)

    def _after_composite_generator(self, args, gen, _) -> None:
        self.add("reps.generator_bytes_built", _COMPLEX_BYTES * gen.mat.size)
        self.add("reps.composite_generator.matmuls",
                 2 * (args["k"] - args["l"] - 1))

    def _after_tensor_rep(self, args, mats, _) -> None:
        self.add("tensorprod.tensor_rep.bytes",
                 sum(_COMPLEX_BYTES * g.mat.size for g in mats))

    def _before_assemble_decomposition(self, args):
        entry = (args["label"].n, set())
        self._assemble.append(entry)
        return entry

    def _after_assemble_decomposition(self, args, blocks, entry) -> None:
        self._assemble.remove(entry)
        self.add("cgc.aux_labels_built", len(entry[1]))
        self.add("cgc.blocks", len(blocks))
        self.add("cgc.coefficients_nonzero",
                 sum(len(terms) for it in blocks.values()
                     for _, terms in it.table.entries))

    def _after_reduced_matrix_elements(self, args, reduced, _) -> None:
        vop = args["vop"]
        dims = {(b.label.m_top, b.s): b.dim for b in vop.blocks}
        evaluated = sum(vop.n * dims[(m_t, s_t)] * dims[(m_s, s_s)]
                        for m_t, s_t, m_s, s_s in reduced.entries)
        self.add("wigner.pairs_admissible", len(reduced.entries))
        self.add("wigner.pairs_forbidden", len(reduced.forbidden))
        self.add("wigner.inverse_coeffs_evaluated", evaluated)
        self.add("wigner.contributing",
                 sum(e.contributing for e in reduced.entries.values()))

    # installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qso_reps" or name.startswith("qso_reps."))
                   and m is not None]
        for kind, table in (("timed", TIMED), ("counted", COUNTED)):
            for short, names in table.items():
                home = importlib.import_module("qso_reps." + short)
                for fname in names:
                    full = f"{short}.{fname}"
                    original = getattr(home, fname, None)
                    if original is None:
                        self.absent.append(full)
                        continue
                    if full == "gtbasis.enumerate_patterns":
                        info = getattr(original, "cache_info", None)
                        self._pattern_cache_info = info
                        self._pattern_misses = info().misses if info else 0
                    if kind == "timed":
                        wrapped = self._timed(full, original)
                        self.counts.setdefault(full, [0])
                    else:
                        wrapped = self._counted(full, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapped)

    def dump(self, path: str, import_s: float) -> None:
        for name, *_ in self.spans:
            self.counts[name][0] += 1
        payload = {
            "import_s": import_s,
            "spans": self.spans,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "values": self.values,
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# per-layer metrics -------------------------------------------------------
#
# Every metric is a total over one pass of a workload.  Each entry is
# (name, unit, better, wrapped functions it needs, value from a PassTrace);
# a metric whose function is absent from the program is left out.


class PassTrace:
    """Traces of the calls of one pass, summed."""

    def __init__(self, traces: list[dict], output_bytes: int,
                 overhead_s: float):
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.absent = set()
        self.import_s = 0.0
        self.output_bytes = output_bytes
        self.overhead_s = overhead_s
        for trace in traces:
            self.import_s += trace["import_s"]
            self.absent.update(trace["absent"])
            for key, value in trace["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
            for key, value in trace["values"].items():
                self.values[key] = self.values.get(key, 0) + value
            for key, value in self_times(trace["spans"]).items():
                self.self_s[key] = self.self_s.get(key, 0.0) + value

    def value(self, key: str) -> float:
        return self.values.get(key, 0)

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name self time: a span's duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def _calls(fn):
    return (f"{fn}.calls", "count", "lower", (fn,), lambda p: p.counts.get(fn, 0))


def _self(fn):
    return (f"{fn}.self_s", "s", "lower", (fn,), lambda p: p.self_s.get(fn, 0.0))


def _value(name, unit, better, fn):
    return (name, unit, better, (fn,), lambda p: p.value(name))


LAYER_METRICS = [
    _calls("qarith.q_bracket"),
    _calls("qarith.q_bracket_plus"),
    _calls("qarith.q_power"),
    _calls("gtbasis.enumerate_patterns"),
    _value("gtbasis.enumerate_patterns.misses", "count", "lower",
           "gtbasis.enumerate_patterns"),
    _self("gtbasis.enumerate_patterns"),
    _value("gtbasis.patterns_enumerated", "count", "lower",
           "gtbasis.enumerate_patterns"),
    _calls("gtbasis.covers"),
    _calls("gtbasis.l_coords"),
    _calls("gtbasis.branch_rows"),
    _calls("gtbasis.extend_pattern"),
    _calls("reps.build_generator"),
    _self("reps.build_generator"),
    ("reps.generator_bytes_built", "B", "lower",
     ("reps.build_generator", "reps.composite_generator"),
     lambda p: p.value("reps.generator_bytes_built")),
    _calls("reps.coeff_classical"),
    _calls("reps.coeff_nonclassical"),
    _calls("reps.composite_generator"),
    _self("reps.composite_generator"),
    _value("reps.composite_generator.matmuls", "count", "lower",
           "reps.composite_generator"),
    _self("reps.check_relations"),
    _calls("tensorprod.tensor_rep"),
    _self("tensorprod.tensor_rep"),
    _value("tensorprod.tensor_rep.bytes", "B", "lower", "tensorprod.tensor_rep"),
    _calls("cgc.assemble_decomposition"),
    _self("cgc.assemble_decomposition"),
    _calls("cgc.cgc_is_zero"),
    _calls("cgc.top_cgc"),
    _calls("cgc.aux_candidates"),
    ("cgc.aux_irreps_per_block", "labels/block", "lower",
     ("cgc.assemble_decomposition", "reps.build_generator"),
     lambda p: p.ratio(p.value("cgc.aux_labels_built"), p.value("cgc.blocks"))),
    _value("cgc.coefficients_nonzero", "count", "higher",
           "cgc.assemble_decomposition"),
    ("cgc.coefficient_yield", "ratio", "higher",
     ("cgc.assemble_decomposition", "cgc.cgc_is_zero"),
     lambda p: p.ratio(p.value("cgc.coefficients_nonzero"),
                       p.counts.get("cgc.cgc_is_zero", 0))),
    _self("cgc.decomposition_rank"),
    _self("wigner.canonical_vector_operator"),
    _self("wigner.check_vector_operator"),
    _self("wigner.reduced_matrix_elements"),
    _value("wigner.pairs_admissible", "count", "higher",
           "wigner.reduced_matrix_elements"),
    _value("wigner.pairs_forbidden", "count", "lower",
           "wigner.reduced_matrix_elements"),
    _value("wigner.inverse_coeffs_evaluated", "count", "lower",
           "wigner.reduced_matrix_elements"),
    ("wigner.primed_yield", "ratio", "higher",
     ("wigner.reduced_matrix_elements",),
     lambda p: p.ratio(p.value("wigner.contributing"),
                       p.value("wigner.inverse_coeffs_evaluated"))),
    ("cli.import_s", "s", "lower", (), lambda p: p.import_s),
    _self("cli.main"),
    ("cli.output_bytes", "B", "lower", (), lambda p: p.output_bytes),
    ("trace.overhead_s", "s", "lower", (), lambda p: p.overhead_s),
]


def layer_metrics(trace: PassTrace) -> tuple[dict[str, float], list[str]]:
    """Metric values of one traced pass, and the names left out as absent."""
    values, absent = {}, []
    for name, _, _, needs, compute in LAYER_METRICS:
        if trace.absent.intersection(needs):
            absent.append(name)
        else:
            values[name] = compute(trace)
    return values, absent


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qso_reps.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = qso_reps.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
