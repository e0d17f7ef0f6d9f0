"""Per-layer tracing for the benchmark, applied from outside the library.

Each traced function is replaced by a wrapper at every name that binds it:
the module attribute where it is defined and every ``heckebn`` module that
imported it (``heckebn.modular.det_mod_univariate``,
``heckebn.verdict.certify_mod``, ...), or the attribute on the class for
methods.  A wrapper records one span per call.  A span stack gives self
time: a span's duration minus the time covered by the traced calls nested
inside it.  Outcome counters are read from return values, so the library
itself is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path)
TARGETS = [
    ("numbers.factorial_mod", "heckebn.numbers", "factorial_mod"),
    ("chern.tilde_mod_coeffs", "heckebn.chern", "tilde_mod_coeffs"),
    ("chern.chern_tilde", "heckebn.chern", "chern_tilde"),
    ("chern.chern_full", "heckebn.chern", "chern_full"),
    ("poly.det_mod_univariate", "heckebn.poly", "det_mod_univariate"),
    ("poly.det_interpolate", "heckebn.poly", "det_interpolate"),
    ("poly.det_numeric", "heckebn.poly", "det_numeric"),
    ("poly.det_minor_expansion", "heckebn.poly", "det_minor_expansion"),
    ("poly.root_multiplicity", "heckebn.poly", "root_multiplicity"),
    ("giambelli.pk_beta", "heckebn.giambelli", "pk_beta"),
    ("giambelli.pk_full", "heckebn.giambelli", "pk_full"),
    ("giambelli.multiplicity_profile", "heckebn.giambelli", "multiplicity_profile"),
    ("hecke.pair_with_monomial", "heckebn.hecke", "pair_with_monomial"),
    ("hecke.thaddeus_number", "heckebn.hecke", "thaddeus_number"),
    ("modular.mj_mod", "heckebn.modular", "mj_mod"),
    ("modular.certify_mod", "heckebn.modular", "certify_mod"),
    ("certificates.Certificate.verify", "heckebn.certificates", "Certificate.verify"),
    ("store.Store.get_certificate", "heckebn.store", "Store.get_certificate"),
    ("store.Store.put_certificate", "heckebn.store", "Store.put_certificate"),
    ("verdict.decide", "heckebn.verdict", "decide"),
]

COUNTERS = [
    "modular.certify_mod.certified",
    "modular.certify_mod.inconclusive",
    "modular.certify_mod.inapplicable",
    "hecke.pair_with_monomial.nonzero",
    "store.get_certificate.hits",
    "store.get_certificate.misses",
    "poly.det_interpolate.points",
    "poly.det_mod_univariate.max_n",
]


class Tracer:
    """Span statistics and outcome counters for one traced pass."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.total = {name: 0.0 for name, _, _ in TARGETS}
        self.self_time = {name: 0.0 for name, _, _ in TARGETS}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []  # [name, child time] per open span
        self._active = {name: 0 for name, _, _ in TARGETS}

    def install(self) -> None:
        """Replace every binding of each target with a recording wrapper."""
        from heckebn.errors import InapplicableError

        self._inapplicable = InapplicableError
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(owner, clsname)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mname, mod in list(sys.modules.items()):
                if mname == "heckebn" or mname.startswith("heckebn."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._on_enter(name, args)
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except self._inapplicable:
                if name == "modular.certify_mod":
                    self.counts["modular.certify_mod.inapplicable"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                # a recursive re-entry is already inside the outer span
                if not active[name]:
                    self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            self._on_return(name, out)
            return out

        return wrapper

    def _on_enter(self, name, args) -> None:
        if name == "poly.det_numeric" and self._stack and self._stack[-1][0] == "poly.det_interpolate":
            self.counts["poly.det_interpolate.points"] += 1
        elif name == "poly.det_mod_univariate":
            key = "poly.det_mod_univariate.max_n"
            self.counts[key] = max(self.counts[key], len(args[0]))

    def _on_return(self, name, out) -> None:
        if name == "modular.certify_mod":
            outcome = "inconclusive" if out is None else "certified"
            self.counts[f"modular.certify_mod.{outcome}"] += 1
        elif name == "hecke.pair_with_monomial":
            if out != 0:
                self.counts["hecke.pair_with_monomial.nonzero"] += 1
        elif name == "store.Store.get_certificate":
            outcome = "misses" if out is None else "hits"
            self.counts[f"store.get_certificate.{outcome}"] += 1

    def metrics(self) -> dict[str, float]:
        """Flat per-layer figures: calls, total and self seconds, counters."""
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        calls = self.calls["modular.certify_mod"]
        certified = self.counts["modular.certify_mod.certified"]
        out["modular.certify_mod.yield"] = certified / calls if calls else 0.0
        looked = self.counts["store.get_certificate.hits"] + self.counts["store.get_certificate.misses"]
        hits = self.counts["store.get_certificate.hits"]
        out["store.hit_ratio"] = hits / looked if looked else 0.0
        return out
