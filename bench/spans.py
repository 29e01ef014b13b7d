"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``sklab`` module (and the
public ``ThetaBasis`` methods) from outside the package, so ``src/`` stays
untouched.  A wrapper replaces every binding of the original function in
every ``sklab`` module, which is what attributes a theta call made from
``sklyanin`` or ``poisson`` to ``theta``.  Spans live in memory as
``[name, start, end, parent, failed]`` rows and are written out once, when
the run ends.

Leaf helpers called once per letter or per residue (``mukai.act_letter``,
``residues.apply``, ``theta.reduce_to_cell``) are not wrapped: a span costs
about as much as one of their calls, and their time stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

LAYERS = ("theta", "sklyanin", "poisson", "mukai", "residues", "walls",
          "invtensor", "cli")

# module -> {function name: span name}
FUNCTIONS = {
    "theta": {
        "theta_symmetry_constants": "theta.symmetry",
        "theta_zero_count": "theta.zero_count",
    },
    "sklyanin": {
        "build_relations": "sklyanin.build",
        "relation_terms": "sklyanin.terms",
        "singular_values": "sklyanin.svals",
        "relation_space": "sklyanin.space",
        "subspace_distance": "sklyanin.subspace_distance",
        "substitution_matrix": "sklyanin.subst_matrix",
        "substitution_distance": "sklyanin.iso",
        "check_substitution_isomorphism": "sklyanin.iso",
        "sample_generic_x": "sklyanin.generic_x",
    },
    "poisson": {
        "extract_bracket": "poisson.extract",
        "jacobi_check": "poisson.jacobi",
        "skew_check": "poisson.skew",
        "substituted_tensor": "poisson.substituted",
        "scale_match_deviation": "poisson.scale_match",
    },
    "mukai": {
        "solve_T_r": "mukai.solve",
        "solve_U_r": "mukai.solve",
        "sl2_to_word": "mukai.sl2_to_word",
        "act_word": "mukai.act_word",
        "solve_transporter": "mukai.transporter",
        "words_equal": "mukai.words_equal",
        "word_matrix": "mukai.word_matrix",
        "orbit_invariants": "mukai.orbit_invariants",
    },
    "residues": {
        "residue_set": "residues.residue_set",
        "check_group_relations": "residues.check",
        "fixed_points": "residues.fixed",
        "orbit_report": "residues.orbits",
    },
    "walls": {
        "candidate_walls": "walls.candidates",
        "degeneration_cells": "walls.degeneration",
        "stability_verdict": "walls.verdict",
    },
    "invtensor": {
        "gl_pair_rep": "invtensor.rep",
        "gsp_rep": "invtensor.rep",
        "sp_rep": "invtensor.rep",
        "sl2_rep": "invtensor.rep",
        "augment_with_center": "invtensor.rep",
        "gl_pair_tensor": "invtensor.tensor",
        "solve_admissible": "invtensor.solve",
        "t_star": "invtensor.t_star",
        "check_invariance": "invtensor.invariance",
    },
    "cli": {
        "run": "cli.run",
    },
}

THETA_METHODS = {
    "eval": "theta.eval",
    "values_at": "theta.values_at",
    "values_at_zero": "theta.values_at_zero",
    "dlog": "theta.dlog",
}


class Recorder:
    """In-memory spans: rows of [name, start, end, parent index, failed]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self._stack.pop()
        row = self.spans[idx]
        row[2] = perf_counter()
        row[4] = failed

    def graft(self, rows) -> None:
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for name, start, end, par, failed in rows:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, failed])

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            return out
        return traced


def install(recorder: Recorder, layers=LAYERS):
    """Wrap the listed functions in place; returns a function undoing it."""
    modules = {m: importlib.import_module(f"sklab.{m}") for m in layers}
    undo = []
    for layer, table in FUNCTIONS.items():
        if layer not in modules:
            continue
        for attr, span in table.items():
            orig = getattr(modules[layer], attr)
            traced = recorder.wrap(span, orig)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, traced)
    if "theta" in modules:
        cls = modules["theta"].ThetaBasis
        for meth, span in THETA_METHODS.items():
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, recorder.wrap(span, orig))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return restore


class Profile:
    """Self time, call counts and ancestry queries over a list of spans.

    A span's self time is its duration minus the durations of its direct
    children.  `clipped_total` sums self times clipped at zero, so spans that
    overlap their siblings or leak out of their parent show up as a total
    above the root durations instead of cancelling out.
    """

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [end - start - child_time[i]
                          for i, (_, start, end, _, _) in enumerate(spans)]

    def self_s(self, name: str) -> float:
        return sum(t for t, row in zip(self.self_time, self.spans)
                   if row[0] == name)

    def prefix_self_s(self, prefix: str) -> float:
        return sum(t for t, row in zip(self.self_time, self.spans)
                   if row[0].startswith(prefix))

    def calls(self, name: str) -> int:
        return sum(1 for row in self.spans if row[0] == name)

    def failures(self, name: str) -> int:
        return sum(1 for row in self.spans if row[0] == name and row[4])

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an ancestor called `ancestor`."""
        count = 0
        for row in self.spans:
            if row[0] != name:
                continue
            parent = row[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def clipped_total(self) -> float:
        return sum(max(t, 0.0) for t in self.self_time)

    def nesting_errors(self, slack: float = 1e-6) -> int:
        """Children that start before or end after their parent."""
        bad = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                if start < p_start - slack or end > p_end + slack:
                    bad += 1
        return bad
