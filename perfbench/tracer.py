"""Outside-in tracer: wraps the library's public functions from outside.

Nothing in ``src/`` changes. ``Tracer.install`` replaces every public
module-level function and every public method of the library's layer modules
with a timing wrapper, and re-binds each function in every namespace that
imported it by name (``maximal`` holds its own ``bessel_heat``,
``bessel_poisson``, ``coefficients`` and so on). ``uninstall`` restores the
originals.

Each call becomes a span (function, start, end, parent span, run id) kept in
memory; ``write`` saves them at the end. A span's self time is its duration
minus that of its direct children. Functions are grouped (see ``GROUPS``);
a group's inclusive time and its call and point counts take only the
outermost span of that group on the stack, so nested calls of one group
(``bessel_j_derivative`` calling ``bessel_j``) are not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "fbhardy"
LAYERS = ("specfun", "basis", "quadrature", "covers", "kernels", "maximal",
          "hardy")

# function (module-relative qualified name) -> group; functions not listed
# belong to the group named after their module
GROUPS = {
    "specfun.bessel_zeros": "specfun.zeros",
    "basis.EigenBasis.build": "basis.build",
    "basis.EigenBasis.phi_matrix": "basis.rows",
    "basis.EigenBasis.psi_matrix": "basis.rows",
    "basis.EigenBasis.poisson_terms_needed": "basis.tail",
    "basis.EigenBasis.heat_terms_needed": "basis.tail",
    "basis.EigenBasis.delta_terms_needed": "basis.tail",
    "basis.EigenBasis.min_poisson_time": "basis.floor",
    "basis.EigenBasis.min_heat_time": "basis.floor",
    "basis.coefficients": "basis.coefficients",
    "quadrature.make_quadrature": "quadrature.grids",
    "quadrature.grid_on_interval": "quadrature.grids",
    **{f"kernels.UnitIntervalKernels.{m}": "kernels.series" for m in (
        "poisson_mu", "poisson_lebesgue", "heat_mu", "heat_lebesgue",
        "heat_lebesgue_ext", "delta_poisson", "dx_poisson_mu",
        "dy_poisson_lebesgue")},
    **{f"kernels.UnitIntervalKernels.{m}": "kernels.floor" for m in (
        "poisson_floor", "heat_floor", "derivative_floor")},
    "kernels.bessel_heat": "kernels.halfline",
    "kernels.dy_bessel_heat": "kernels.halfline",
    "kernels.bessel_poisson": "kernels.subordination",
    "kernels.check_sharp_estimate": "kernels.estimate",
    "maximal.SpectralExpansion.__init__": "maximal.expansion",
    "maximal.SpectralExpansion.sweep": "maximal.sweep",
    "maximal.check_uchiyama_conditions": "maximal.uchiyama",
    "maximal.uchiyama_kernel": "maximal.uchiyama_kernel",
    "maximal.duhamel_closure": "maximal.duhamel",
    "maximal.duhamel_residuals": "maximal.duhamel",
    "maximal.duhamel_residual_kernels": "maximal.duhamel",
    "maximal.compare_semigroups": "maximal.compare",
    "hardy.atomic_decompose": "hardy.decompose",
    "hardy.cascade_decompose": "hardy.cascade",
    "hardy.LocalCascade.evaluate": "hardy.evaluate",
    "hardy.LocalCascade.materialize": "hardy.materialize",
    "hardy.Decomposition.atoms": "hardy.atoms",
}
# every method of these classes is one group
CLASS_GROUPS = {"hardy.PiecewiseLinear": "hardy.pl"}


def _argument(args, kw, index, name):
    return args[index] if len(args) > index else kw.get(name, ())


def _argument_size(args, kw, result):
    return int(np.size(_argument(args, kw, 1, "x")))   # evaluators: (order, x)


def _result_size(args, kw, result):
    return int(np.size(result))


def _time_count(args, kw, result):
    return len(_argument(args, kw, 1, "t_values"))     # (self, t_values, ...)


# group -> points counter (args, kwargs, result) -> int
POINTS = {
    "specfun": _argument_size,
    "basis.rows": _result_size,         # entries of the row matrix
    "kernels.halfline": _result_size,
    "kernels.subordination": _result_size,
    "maximal.sweep": _time_count,
}


def _cascade_counts(cascade):
    return {"hardy.details": sum(len(lev.idx) for lev in cascade.levels),
            "hardy.closers": len(cascade.closers)}


# group -> counters read from the returned object of its outermost calls
OBSERVE = {"hardy.cascade": _cascade_counts}


def rebind(functions: dict) -> list:
    """Point every module-level name bound to a replaced function at its
    replacement, in every loaded module of the library and the benchmark,
    so names imported with `from ... import` are caught too. `functions`
    maps id(original) to (original, replacement). Returns the
    (module, name, original) triples that `restore` undoes."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith((PACKAGE, "perfbench")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Spans in memory, plus the patches that produce them."""

    def __init__(self):
        self.names = []          # function id -> qualified name
        self.groups = []         # function id -> group
        # (id, fid, start, end, parent, run, self time, outermost, points)
        self.spans = []
        self.counters = {}       # counter name -> total from OBSERVE
        self.run_names = ["setup"]
        self.run = 0
        self._stack = []         # [span id, child time] of the open spans
        self._active = {}        # group -> open spans of that group
        self._next = 0
        self._patches = []       # (owner, attribute, original)

    # -- run ids --------------------------------------------------------------

    def start_run(self, name: str) -> None:
        """Tag the following spans with a new run id (one per item)."""
        self.run_names.append(name)
        self.run = len(self.run_names) - 1

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, qualname, group):
        fid = len(self.names)
        self.names.append(qualname)
        self.groups.append(group)
        self._active.setdefault(group, 0)
        count = POINTS.get(group)
        observe = OBSERVE.get(group)
        counters = self.counters
        stack = self._stack
        active = self._active
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            outer = active[group] == 0
            active[group] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kw)
                return result
            finally:
                t1 = clock()
                stack.pop()
                active[group] -= 1
                if stack:
                    stack[-1][1] += t1 - t0
                points = 0
                if result is not None:
                    if count is not None:
                        points = count(args, kw, result)
                    if observe is not None and outer:
                        for key, value in observe(result).items():
                            counters[key] = counters.get(key, 0) + value
                spans.append((sid, fid, t0, t1, parent, self.run,
                              t1 - t0 - frame[1], outer, points))
        return traced

    def _targets(self):
        """(owner, attribute, function, qualified name) for every public
        function and method defined in the layer modules."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, name, obj, f"{layer}.{name}"
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        fn = getattr(member, "__func__", member)
                        if not inspect.isfunction(fn) or (
                                attr.startswith("_") and attr != "__init__"):
                            continue
                        if fn.__code__.co_filename != mod.__file__:
                            continue   # dataclass-generated methods
                        yield obj, attr, member, f"{layer}.{name}.{attr}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = {}
        for owner, attr, member, qualname in self._targets():
            layer = qualname.split(".")[0]
            owner_name = qualname.rsplit(".", 1)[0]
            group = GROUPS.get(qualname) or CLASS_GROUPS.get(owner_name) \
                or layer
            fn = getattr(member, "__func__", member)
            wrapped = self._wrap(fn, qualname, group)
            if inspect.ismodule(owner):
                functions[id(fn)] = (fn, wrapped)
                continue
            if isinstance(member, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((owner, attr, member))
            setattr(owner, attr, wrapped)
        self._patches += rebind(functions)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict:
        """group -> {calls, points, self_s, total_s}; calls, points and
        total_s count the outermost span of the group only."""
        out = {}
        for _, fid, t0, t1, _, _, self_s, outer, points in self.spans:
            g = out.setdefault(self.groups[fid], {"calls": 0, "points": 0,
                                                  "self_s": 0.0,
                                                  "total_s": 0.0})
            g["self_s"] += self_s
            if outer:
                g["calls"] += 1
                g["points"] += points
                g["total_s"] += t1 - t0
        return out

    def root_seconds(self, run_ids) -> float:
        """Summed duration of the spans with no parent in the given runs."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[4] == -1 and s[5] in run_ids)

    def write(self, path) -> None:
        """Spans as a compressed numpy archive: one record per span with
        its id, function id, start, end, parent id and run id, plus the
        function, group and run name tables."""
        rows = np.array([s[:6] for s in self.spans], dtype=[
            ("id", "i8"), ("function", "i4"), ("start", "f8"), ("end", "f8"),
            ("parent", "i8"), ("run", "i4")])
        np.savez_compressed(path, spans=np.sort(rows, order="id"),
                            functions=np.array(self.names),
                            groups=np.array(self.groups),
                            runs=np.array(self.run_names))
