"""Outside-in tracer for cosimplex.

The tracer wraps the public entry points of each cosimplex module from the
benchmark's side; the library itself is not edited. Every wrapped call is
attributed to a layer (a module name). A layer's self time is the duration of
its calls minus the time covered by their child calls, so the self times of
all layers add up to the time spent inside `cli.main`.

Calls made millions of times per run (the `QQi` arithmetic, `Sco.delta`,
braid-word application, conjugations and moment evaluations) are aggregated
as a count and a self time per layer. Every other call is also kept as a span
`(id, parent, request, layer, name, start, end)` in memory; the caller writes
the spans out after the run.

Use:

    tracer = Tracer()
    with tracer.installed():
        ...  # calls into cosimplex
    tracer.metrics()
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


# Layer metric names, in report order. Later changes cite them by these names.
METRICS = (
    "scalars.ops", "scalars.self_s",
    "linalg.matmul_calls", "linalg.entry_products", "linalg.self_s",
    "linalg.elim_calls", "linalg.elim_s", "linalg.max_entry_bits",
    "braid.apply_word_calls", "braid.letters_applied", "braid.self_s",
    "groups.conjugations", "groups.self_s",
    "cohomology.coface_matrices", "cohomology.cache_hit_ratio", "cohomology.self_s",
    "tl.mul_calls", "tl.term_pairs", "tl.trace_calls", "tl.self_s",
    "tl.diagram_cache_hit_ratio", "tl.diagram_cache_size",
    "ncprob.words", "ncprob.eval_calls", "ncprob.self_s",
    "simplicial.delta_calls", "simplicial.self_s",
    "cli.requests", "cli.self_s",
)

LAYERS = ("scalars", "linalg", "braid", "groups", "cohomology", "tl", "ncprob", "simplicial", "cli")

# Entry points per layer: (module, class or None, attribute names, hot).
# Hot entry points are aggregated only; the others also keep a span each.
TARGETS = (
    ("scalars", "cosimplex.scalars", "QQi",
     ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse", "conj"), True),
    ("linalg", "cosimplex.linalg", "Matrix",
     ("__add__", "__sub__", "__neg__", "scale", "__mul__", "transpose", "conj_transpose",
      "apply", "hstack", "vstack", "is_zero"), False),
    ("linalg", "cosimplex.linalg", None,
     ("from_columns", "rank_kernel", "rank", "inverse", "solve_columns", "column_space_basis"), False),
    ("braid", "cosimplex.braid", "BraidAction", ("apply_word",), True),
    ("braid", "cosimplex.braid", None,
     ("level_of", "verify_braid_relations", "braid_sco_build", "lemma_power_check",
      "diagram_identity_check", "ybe_check", "ybe_action", "flip_action"), False),
    ("groups", "cosimplex.groups", None,
     ("matrix_action", "burau_generators", "permutation_matrix_generators", "sym_sco", "gl_sco"), False),
    ("cohomology", "cosimplex.cohomology", "ModuleSco", ("basis", "coface_matrix", "word_matrix"), False),
    ("cohomology", "cosimplex.cohomology", None,
     ("module_sco", "differential", "cochain_complex", "verify_dd_zero", "cohomology_dim",
      "h1_explicit", "cohomology_table"), False),
    ("tl", "cosimplex.tl", "TlElement", ("__mul__", "__add__", "__sub__", "__neg__", "scale", "adjoint"), False),
    ("tl", "cosimplex.tl", None,
     ("markov_trace", "trace_scalar", "e_element", "g_element", "g_inverse", "tl_one",
      "spreadable_projection", "tl_distribution", "tl_conjugation_action"), False),
    ("ncprob", "cosimplex.ncprob", None,
     ("spreadability_check", "star_spreadability_mode", "star_positivity_check",
      "verify_functional_invariance", "tensor_model", "tensor_sco", "table_distribution",
      "sequence_distribution"), False),
    ("simplicial", "cosimplex.simplicial", "Sco", ("delta",), True),
    ("simplicial", "cosimplex.simplicial", None,
     ("sco_verify", "verify_partial_shifts", "shifts_from_sco", "sco_from_shifts",
      "fixed_point_filtration", "prop_partial_check"), False),
    ("cli", "cosimplex.cli", None, ("main",), False),
)

ELIMINATION = frozenset(("rank_kernel", "rank", "inverse", "solve_columns", "column_space_basis"))
DISTRIBUTION_FACTORIES = frozenset(("tensor_model", "table_distribution", "sequence_distribution", "tl_distribution"))


def _entry_bits(matrix) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for row in matrix.entries for e in row for x in (e.re, e.im)),
        default=0,
    )


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


class Tracer:
    """Patches cosimplex entry points while installed and aggregates per layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = -1           # set by the caller before each request
        self.stack: list[list] = []  # open calls: [child_seconds, span_id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # (layer, name) -> calls
        self.extra: Counter = Counter()  # counters measured at the boundaries
        self.elim_depth = 0
        self.spans: list[tuple] = []
        self._next_span = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._caches: dict[str, tuple] = {}  # layer -> lru_cache'd functions
        self._cache_start: dict[str, tuple] = {}

    # -- call bookkeeping -------------------------------------------------

    def wrap(self, layer: str, name: str, fn, keep_span: bool = True, pre=None, post=None):
        """Return fn wrapped so each call is timed and attributed to layer.

        pre(args) runs before the call, post(result) maps the result after it;
        the time post takes is charged to no layer."""
        stack, clock, self_s, calls = self.stack, self.clock, self.self_s, self.calls
        spans, key = self.spans, (layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_span:
                sid = self._next_span
                self._next_span += 1
            else:
                sid = parent[1] if parent is not None else None
            if pre is not None:
                pre(args)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[key] += 1
                if parent is not None:
                    parent[0] += duration
                if keep_span:
                    spans.append((sid, parent[1] if parent is not None else None,
                                  self.request, layer, name, start, end))
            if post is not None:
                result = post(result)
                if parent is not None:
                    parent[0] += clock() - end
            return result

        return traced

    def _elimination(self, fn):
        """Count outermost elimination calls and their inclusive time."""

        @functools.wraps(fn)
        def outer(*args, **kwargs):
            if self.elim_depth:
                return fn(*args, **kwargs)
            self.elim_depth += 1
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.elim_depth -= 1
                self.extra["linalg.elim_calls"] += 1
                self.extra["linalg.elim_s"] += self.clock() - start

        return outer

    # -- boundary counters ------------------------------------------------

    def _count_matmul(self, args) -> None:
        a, b = args
        self.extra["linalg.entry_products"] += a.rows * a.cols * b.cols

    def _track_bits(self, result):
        if isinstance(result, self._matrix_type):
            bits = _entry_bits(result)
            if bits > self.extra["linalg.max_entry_bits"]:
                self.extra["linalg.max_entry_bits"] = bits
        return result

    def _count_letters(self, args) -> None:
        self.extra["braid.letters_applied"] += len(args[1].letters)

    def _count_term_pairs(self, args) -> None:
        a, b = args
        self.extra["tl.term_pairs"] += len(a.terms) * len(b.terms)

    def _counted_conjugations(self, action):
        return dataclasses.replace(
            action,
            apply=self.wrap("groups", "conjugation", action.apply, keep_span=False),
            inverse_apply=self.wrap("groups", "conjugation", action.inverse_apply, keep_span=False),
        )

    def _counted_evals(self, distribution):
        return dataclasses.replace(
            distribution,
            eval_word=self.wrap("ncprob", "eval_word", distribution.eval_word, keep_span=False),
        )

    def _counted_words(self, fn):
        @functools.wraps(fn)
        def words(*args, **kwargs):
            for w in fn(*args, **kwargs):
                self.extra["ncprob.words"] += 1
                yield w

        return words

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, value) -> None:
        """Rebind a module-level function in every cosimplex module holding it."""
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "cosimplex" or mod_name.startswith("cosimplex.")):
                continue
            for attr, current in list(vars(mod).items()):
                if current is original:
                    self._patch(mod, attr, value)

    def _wrapper_for(self, layer: str, name: str, fn, hot: bool):
        pre = post = None
        if (layer, name) == ("linalg", "__mul__"):
            pre = self._count_matmul
        elif (layer, name) == ("braid", "apply_word"):
            pre = self._count_letters
        elif (layer, name) == ("tl", "__mul__"):
            pre = self._count_term_pairs
        elif name == "matrix_action":
            post = self._counted_conjugations
        elif name in DISTRIBUTION_FACTORIES:
            post = self._counted_evals
        if layer == "linalg":
            post = self._track_bits
        if layer == "linalg" and name in ELIMINATION:
            fn = self._elimination(fn)
        return self.wrap(layer, name, fn, keep_span=not hot, pre=pre, post=post)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._matrix_type = importlib.import_module("cosimplex.linalg").Matrix
        cohomology = importlib.import_module("cosimplex.cohomology")
        tl = importlib.import_module("cosimplex.tl")
        self._caches = {
            "cohomology": (cohomology.ModuleSco.basis, cohomology.ModuleSco.coface_matrix),
            "tl": (tl.diagram_mul,),
        }
        self._cache_start = {k: self._cache_totals(k) for k in self._caches}
        try:
            for layer, mod_name, cls_name, attrs, hot in TARGETS:
                module = importlib.import_module(mod_name)
                for attr in attrs:
                    if cls_name is not None:
                        owner = getattr(module, cls_name)
                        fn = owner.__dict__[attr]
                        self._patch(owner, attr, self._wrapper_for(layer, attr, fn, hot))
                    else:
                        fn = getattr(module, attr)
                        self._patch_everywhere(fn, self._wrapper_for(layer, attr, fn, hot))
            ncprob = importlib.import_module("cosimplex.ncprob")
            self._patch_everywhere(ncprob.enumerate_words, self._counted_words(ncprob.enumerate_words))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def _cache_totals(self, name: str) -> tuple[int, int, int]:
        infos = [fn.cache_info() for fn in self._caches[name]]
        return (sum(i.hits for i in infos), sum(i.misses for i in infos), sum(i.currsize for i in infos))

    def _cache_delta(self, name: str) -> tuple[int, int, int]:
        hits, misses, size = self._cache_totals(name)
        hits0, misses0, _ = self._cache_start[name]
        return hits - hits0, misses - misses0, size

    def layer_calls(self, layer: str, name: str | None = None) -> int:
        return sum(n for (lay, nm), n in self.calls.items() if lay == layer and name in (None, nm))

    def metrics(self) -> dict[str, float]:
        """Every name in METRICS, measured since install()."""
        coh_hits, coh_misses, _ = self._cache_delta("cohomology")
        tl_hits, tl_misses, tl_size = self._cache_delta("tl")
        out = {
            "scalars.ops": self.layer_calls("scalars"),
            "linalg.matmul_calls": self.layer_calls("linalg", "__mul__"),
            "linalg.entry_products": self.extra["linalg.entry_products"],
            "linalg.elim_calls": self.extra["linalg.elim_calls"],
            "linalg.elim_s": float(self.extra["linalg.elim_s"]),
            "linalg.max_entry_bits": self.extra["linalg.max_entry_bits"],
            "braid.apply_word_calls": self.layer_calls("braid", "apply_word"),
            "braid.letters_applied": self.extra["braid.letters_applied"],
            "groups.conjugations": self.layer_calls("groups", "conjugation"),
            "cohomology.coface_matrices": self.layer_calls("cohomology", "coface_matrix"),
            "cohomology.cache_hit_ratio": _ratio(coh_hits, coh_hits + coh_misses),
            "tl.mul_calls": self.layer_calls("tl", "__mul__"),
            "tl.term_pairs": self.extra["tl.term_pairs"],
            "tl.trace_calls": self.layer_calls("tl", "markov_trace"),
            "tl.diagram_cache_hit_ratio": _ratio(tl_hits, tl_hits + tl_misses),
            "tl.diagram_cache_size": tl_size,
            "ncprob.words": self.extra["ncprob.words"],
            "ncprob.eval_calls": self.layer_calls("ncprob", "eval_word"),
            "simplicial.delta_calls": self.layer_calls("simplicial", "delta"),
            "cli.requests": self.layer_calls("cli", "main"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return {name: out[name] for name in METRICS}
