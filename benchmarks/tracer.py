"""Span tracer that times the package's public functions from outside.

:meth:`Tracer.install` replaces every binding of each wrapped function: the
attribute of its defining module, every ``from ... import`` copy in the
other ``cyclofun`` modules and the package namespace, and methods on their
classes.  A wrapper records one span per call.  Spans nest on a stack, so a
span's self time is its duration minus the durations of the spans it
directly contains.  Statistics are aggregated per span name in memory
(calls, total seconds, self seconds) and read with :meth:`Tracer.snapshot`.

Exceptions are counted per layer where they leave the layer, that is when
the enclosing span, if any, belongs to another layer.
"""

from __future__ import annotations

import contextlib
import io
import sys
from time import perf_counter

LAYERS = ("series", "cyclic", "hyperbolic", "demoivre", "qpsi", "reports", "cli")

# (module, attribute, span name).  A name ending in "_{}" is completed with
# the call's route argument (argument ROUTED[attribute], with its default).
SPANS = [
    ("series", "TruncatedSeries.evaluate", "series.evaluate"),
    *[("series", f"TruncatedSeries.{op}", "series.arith")
      for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "derivative", "scale_argument")],
    ("cyclic", "make_context", "cyclic.make_context"),
    ("cyclic", "project_series", "cyclic.project_series"),
    ("cyclic", "project_pointwise", "cyclic.project_pointwise"),
    ("hyperbolic", "build_family", "hyperbolic.build_family"),
    ("hyperbolic", "h_eval", "hyperbolic.h_eval_{}"),
    ("hyperbolic", "g_eval", "hyperbolic.g_eval"),
    ("hyperbolic", "laurent_component", "hyperbolic.laurent_component"),
    ("demoivre", "circulant_from_components", "demoivre.circulant_from_components"),
    ("demoivre", "circulant_det_spectral", "demoivre.circulant_det_spectral"),
    ("demoivre", "circulant_det_direct", "demoivre.circulant_det_direct"),
    ("demoivre", "sylvester_matrix", "demoivre.sylvester_matrix"),
    ("demoivre", "demoivre_matrix", "demoivre.demoivre_matrix_{}"),
    ("demoivre", "identity_suite", "demoivre.identity_suite"),
    ("demoivre", "demoivre_sweep", "demoivre.demoivre_sweep"),
    ("demoivre", "circulant_checks", "demoivre.circulant_checks"),
    ("qpsi", "PsiSequence.__init__", "qpsi.psi_sequence"),
    ("qpsi", "jackson_derivative", "qpsi.jackson_derivative"),
    ("qpsi", "psi_derivative", "qpsi.psi_derivative"),
    ("qpsi", "build_psi_hyperbolic", "qpsi.build_psi_hyperbolic"),
    ("qpsi", "q_laguerre", "qpsi.q_laguerre"),
    ("qpsi", "lowering_operator_apply", "qpsi.lowering_operator_apply"),
    ("qpsi", "generalized_translation", "qpsi.generalized_translation"),
    ("qpsi", "qpsi_checks", "qpsi.qpsi_checks"),
    *[("reports", attr, "reports")
      for attr in ("IdentityReport.__init__", "IdentityReport.passed",
                   "IdentityReport.with_tolerance", "IdentityReport.to_dict",
                   "all_pass", "reports_to_json", "reports_to_csv")],
    ("cli", "main", "cli.main"),
]
ROUTED = {"h_eval": (3, "series"), "demoivre_matrix": (3, "assembled")}

# Called too often for a span to be cheap; only counted.  Their time stays in
# the enclosing span's self time.
COUNTERS = [
    ("series", "TruncatedSeries.__init__", "series.construct"),
    ("qpsi", "q_number", "qpsi.q_number"),
]


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self._spans: dict[str, list] = {}
        self._counts: dict[str, list] = {name: [0] for _, _, name in COUNTERS}
        self._fails = {layer: 0 for layer in LAYERS}
        self._patched: list[tuple[object, str, object]] = []
        self._cache0 = (0, 0)
        self._build_family = None

    # -- wrappers ------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self._spans.setdefault(name, [0, 0.0, 0.0])

    def _span(self, fn, name: str, attr: str):
        layer = name.split(".", 1)[0]
        stack, fails, stat = self._stack, self._fails, self._stat
        if name.endswith("_{}"):
            index, default = ROUTED[attr]

            def pick(args, kwargs):
                route = args[index] if len(args) > index else kwargs.get("method", default)
                return name.format(route)
        else:
            fixed = stat(name)

            def pick(args, kwargs):
                return None

        def wrapper(*args, **kwargs):
            routed = pick(args, kwargs)
            stats = fixed if routed is None else stat(routed)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][1] != layer:
                    fails[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name: str):
        cell = self._counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    @staticmethod
    def _modules() -> list:
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "cyclofun" or key.startswith("cyclofun."))]

    def _patch(self, modname: str, attr: str, make) -> None:
        home = sys.modules[f"cyclofun.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name)
            original = owner.__dict__[meth]
            if isinstance(original, property):
                replacement = property(make(original.fget))
            else:
                replacement = make(original)
            setattr(owner, meth, replacement)
            self._patched.append((owner, meth, original))
            return
        original = getattr(home, attr)
        replacement = make(original)
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._patched.append((module, key, original))

    def install(self) -> None:
        """Wrap every binding; raise if any binding of a wrapped function is left."""
        import cyclofun  # noqa: F401
        import cyclofun.cli  # noqa: F401
        originals = []
        for modname, attr, name in SPANS:
            self._patch(modname, attr, lambda fn, n=name, a=attr.split(".")[-1]: self._span(fn, n, a))
            originals.append(self._patched[-1][2])
        for modname, attr, name in COUNTERS:
            self._patch(modname, attr, lambda fn, n=name: self._counter(fn, n))
            originals.append(self._patched[-1][2])
        self._build_family = sys.modules["cyclofun.hyperbolic"].build_family.__wrapped__
        missed = self.unpatched(originals)
        if missed:
            self.uninstall()
            raise RuntimeError(f"bindings left unwrapped: {', '.join(missed)}")
        self.reset()

    def unpatched(self, originals) -> list[str]:
        """Names in the package's modules and classes still bound to an original."""
        ids = {id(o) for o in originals}
        left = []
        for module in self._modules():
            for key, value in vars(module).items():
                if id(value) in ids:
                    left.append(f"{module.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("cyclofun"):
                    left.extend(f"{value.__module__}.{value.__name__}.{k}"
                                for k, v in vars(value).items() if id(v) in ids)
        return sorted(set(left))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- statistics ------------------------------------------------------------

    def _cache(self) -> tuple[int, int]:
        info = self._build_family.cache_info()
        return info.hits, info.misses

    def reset(self) -> None:
        for stats in self._spans.values():
            stats[:] = [0, 0.0, 0.0]
        for cell in self._counts.values():
            cell[0] = 0
        for layer in self._fails:
            self._fails[layer] = 0
        self._cache0 = self._cache()

    def snapshot(self) -> dict:
        hits, misses = self._cache()
        return {
            "spans": {k: list(v) for k, v in self._spans.items() if v[0]},
            "counts": {k: v[0] for k, v in self._counts.items()},
            "fails": dict(self._fails),
            "cache": [hits - self._cache0[0], misses - self._cache0[1]],
        }


def merge(snapshots) -> dict:
    """Sum snapshots, for example those of the child processes of one pass."""
    out = {"spans": {}, "counts": {}, "fails": {}, "cache": [0, 0]}
    for snap in snapshots:
        for k, v in snap["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for key in ("counts", "fails"):
            for k, v in snap[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["cache"] = [a + b for a, b in zip(out["cache"], snap["cache"])]
    return out


# -- self-test --------------------------------------------------------------------

def _expected_sweep(n: int, draws: int, trunc: int) -> dict:
    """Exact counts for demoivre_sweep at alpha = 1, n >= 4, from a cold
    build_family cache, read off the code of identity_suite:
    three component vectors for z, w, z+w and three for the powers m = 2..4,
    plus n (n + 2) closed evaluations in product_mean_rotation; six
    circulants, two spectral and two LU determinants, one family lookup and
    one context per draw; n sieves of the geometric series per draw."""
    return {
        "spans": {
            "demoivre.demoivre_sweep": 1,
            "demoivre.identity_suite": draws,
            "hyperbolic.h_eval_closed": draws * (6 * n + n * (n + 2)),
            "demoivre.circulant_from_components": 6 * draws,
            "demoivre.circulant_det_spectral": 2 * draws,
            "demoivre.circulant_det_direct": 2 * draws,
            "hyperbolic.build_family": draws,
            "cyclic.make_context": draws + 1,
            "cyclic.project_series": n + n * draws,
            "series.evaluate": n * draws,
            # ten reports per draw plus the ten aggregated ones
            "reports": 10 * draws + 10,
        },
        # series_exp, n sieves and n relabels once; per draw series_geometric
        # and n sieves
        "counts": {"series.construct": 1 + 2 * n + draws * (1 + n)},
        "cache": [draws - 1, 1],
    }


def self_test(seed: int = 0) -> list[str]:
    """Check span counts on small fixed cases against counts derived from
    the code by hand.  Returns the mismatches; empty means the tracer sees
    every call.  Clears the build_family cache."""
    import cyclofun
    import cyclofun.cli

    tracer = Tracer()
    tracer.install()
    problems = []

    def compare(case: str, snap: dict, want: dict) -> None:
        for name, calls in want.get("spans", {}).items():
            got = snap["spans"].get(name, [0])[0]
            if got != calls:
                problems.append(f"{case}: {name} calls {got}, expected {calls}")
        for name, calls in want.get("counts", {}).items():
            if snap["counts"][name] != calls:
                problems.append(f"{case}: {name} {snap['counts'][name]}, expected {calls}")
        if "cache" in want and snap["cache"] != want["cache"]:
            problems.append(f"{case}: build_family cache {snap['cache']}, expected {want['cache']}")
        if any(snap["fails"].values()):
            problems.append(f"{case}: exceptions {snap['fails']}")

    try:
        n, draws, trunc = 16, 5, 64
        cyclofun.build_family.__wrapped__.cache_clear()
        tracer.reset()
        cyclofun.demoivre_sweep(n, cyclofun.alpha_root(1, n), draws, seed, trunc)
        compare("demoivre_sweep", tracer.snapshot(), _expected_sweep(n, draws, trunc))

        tracer.reset()
        cyclofun.jackson_derivative(cyclofun.series_exp(8), 0.5)
        compare("jackson_derivative", tracer.snapshot(),
                {"spans": {"qpsi.jackson_derivative": 1},
                 "counts": {"qpsi.q_number": 8, "series.construct": 2}})

        tracer.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cyclofun.cli.main(["eval", "--builtin", "exp", "--n", "3", "--s", "1",
                                    "--z", "0.8", "--method", "both"])
        if rc != 0:
            problems.append(f"cli eval exited {rc}")
        # The n = 3 family is not cached yet, so build_family misses once and
        # makes a second context.
        compare("cli eval", tracer.snapshot(),
                {"spans": {"cli.main": 1, "hyperbolic.h_eval_series": 1,
                           "hyperbolic.h_eval_closed": 1, "hyperbolic.build_family": 1,
                           "series.evaluate": 1, "cyclic.make_context": 2},
                 "cache": [0, 1]})
    finally:
        tracer.uninstall()
    return problems
