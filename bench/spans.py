"""Span tracing of pastroq's layers from outside the package.

A :class:`Tracer` wraps the public functions and methods of each layer,
records every call as a span (name, start, end, parent) and turns the spans
into per-layer counts and self times. The wrappers are installed at every
place the package binds the wrapped object: ``qdiff``, ``biorth`` and
``cli`` import ``pastro_poly`` and friends by name, so patching only the
defining module would miss those calls, and ``LaurentPoly`` aliases
``__radd__``/``__rmul__`` to the same functions as ``__add__``/``__mul__``.
Nothing is patched outside the ``with tracer.installed():`` block.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter as clock

#: Bookkeeping done after a wrapped call returns (argument sizes, result
#: bit lengths) is itself recorded as a span under this name, so its cost
#: is subtracted from the caller's self time instead of inflating it.
BOOKKEEPING = "trace.bookkeeping"


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals (0 if none)."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def coeff_bits(poly) -> int:
    """``max_bits`` of a Laurent polynomial's coefficients."""
    return max_bits(c for _, c in poly.items())


def _layer_targets():
    """(layer, owner, attribute names) for every traced callable.

    ``owner`` is a module or class of the package; for a module, the
    function is also replaced wherever another pastroq module binds it.
    """
    from pastroq import algebra, biorth, cli, pastro, qcore, qdiff, report

    return [
        ("qcore.mul", qcore.LaurentPoly, ("__mul__", "__rmul__")),
        ("qcore.add", qcore.LaurentPoly, ("__add__", "__radd__")),
        ("qcore.dilate", qcore.LaurentPoly, ("dilate",)),
        ("qcore.eval_at", qcore.LaurentPoly, ("eval_at",)),
        ("qcore.q_pochhammer", qcore, ("q_pochhammer",)),
        ("pastro.pastro_poly", pastro, ("pastro_poly",)),
        ("pastro.partner", pastro, ("biorthogonal_partner",)),
        ("pastro.baxter_system", pastro, ("baxter_system",)),
        ("pastro.verify_baxter", pastro, ("verify_baxter_consistency",)),
        ("qdiff.apply", qdiff.QDiffOperator, ("apply",)),
        ("qdiff.compose", qdiff.QDiffOperator, ("__matmul__",)),
        (
            "qdiff.verify",
            qdiff,
            ("verify_gevp", "verify_qdiff_equation", "verify_contiguity", "verify_recurrence"),
        ),
        ("biorth.mat_vec", biorth, ("mat_vec",)),
        ("biorth.make_grid_rep", biorth, ("make_grid_rep",)),
        (
            "biorth.verify",
            biorth,
            ("verify_adjoint_structure", "verify_adjoint_gevp", "verify_biorthogonality"),
        ),
        ("algebra.casimir_element", algebra, ("casimir_element",)),
        (
            "algebra.verify",
            algebra,
            ("verify_raw_relations", "verify_affine_relations", "casimir_centrality", "qhahn_embedding"),
        ),
        ("report.render", report.Report, ("render_json", "render_text")),
        ("report.render", cli, ("emit",)),
        ("cli.admissibility", qcore.QParams, ("vanishing_factors",)),
        ("cli.run", cli, ("run",)),
    ]


class Tracer:
    """Collects spans while installed and aggregates them per layer.

    Call :meth:`flush` after each traced invocation: it folds that
    invocation's spans into the totals, so memory holds one invocation's
    spans at a time and ``pastro_poly`` builds count as distinct per
    invocation.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.coeff_bits_max = 0
        self._distinct_polys: set = set()
        self._spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if after is not None and result is not NotImplemented:
                begin = clock()
                after(args, result)
                spans.append((BOOKKEEPING, begin, clock(), parent))
            return result

        return wrapper

    def _after_mul(self, args, result) -> None:
        left, right = args
        right_terms = len(right.support) if hasattr(right, "support") else 1
        self.counts["qcore.mul.term_pairs"] += len(left.support) * right_terms

    def _after_family(self, args, result) -> None:
        if args not in self._distinct_polys:
            self._distinct_polys.add(args)
            self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(result))

    def _after_partner(self, args, result) -> None:
        self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(result))

    def _after_mat_vec(self, args, result) -> None:
        matrix = args[0]
        self.counts["biorth.mat_vec.entries"] += sum(len(row) for row in matrix)
        self.counts["biorth.mat_vec.nonzero"] += sum(1 for row in matrix for entry in row if entry)

    def flush(self, scale: float = 1.0) -> None:
        """Fold the spans recorded so far into calls and self times.

        Durations are multiplied by ``scale`` (the run's speed calibration).
        """
        self.counts["pastro.pastro_poly.distinct"] += len(self._distinct_polys)
        self._distinct_polys.clear()
        spans = self._spans
        for layer, start, end, parent in spans:
            duration = (end - start) * scale
            if layer != BOOKKEEPING:
                self.calls[layer] += 1
                self.self_s[layer] += duration
            if parent >= 0:
                self.self_s[spans[parent][0]] -= duration
        spans.clear()

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding of the traced callables; undo on exit."""
        after = {
            "qcore.mul": self._after_mul,
            "pastro.pastro_poly": self._after_family,
            "pastro.partner": self._after_partner,
            "biorth.mat_vec": self._after_mat_vec,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pastroq"]
        try:
            for layer, owner, names in _layer_targets():
                for name in names:
                    original = owner.__dict__[name]
                    wrapper = self._wrap(layer, original, after.get(layer))
                    sites = [owner] if isinstance(owner, type) else [
                        module for module in modules if module.__dict__.get(name) is original
                    ]
                    for site in sites:
                        self._patched.append((site, name, original))
                        setattr(site, name, wrapper)
            yield self
        finally:
            while self._patched:
                site, name, original = self._patched.pop()
                setattr(site, name, original)
            self._stack.clear()

    def metrics(self, invocations: int) -> dict[str, float]:
        """Per-invocation means of every layer figure, keyed by metric name."""
        out: dict[str, float] = {}
        for layer in set(self.calls) | set(self.self_s):
            if layer != BOOKKEEPING:
                out[f"{layer}.calls"] = self.calls[layer] / invocations
                out[f"{layer}.self_s"] = self.self_s[layer] / invocations
        for name, value in self.counts.items():
            out[name] = value / invocations
        calls = self.calls["pastro.pastro_poly"]
        out["pastro.pastro_poly.useful_ratio"] = (
            self.counts["pastro.pastro_poly.distinct"] / calls if calls else 0.0
        )
        entries = self.counts["biorth.mat_vec.entries"]
        out["biorth.mat_vec.nonzero_share"] = (
            self.counts["biorth.mat_vec.nonzero"] / entries if entries else 0.0
        )
        out["qcore.coeff_bits.max"] = float(self.coeff_bits_max)
        return out
