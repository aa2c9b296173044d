"""Outside-in span recorder for the traced benchmark run.

``Recorder(package)`` imports every module of the package and finds each
module-level function the package defines, in every module namespace that
binds it (the defining module, the package's re-exports, and any module
that imported it by name).  ``install`` swaps all those bindings for one
timing wrapper per function and ``uninstall`` puts the originals back, so
the program itself is never edited and functions added or renamed later are
covered without changing this file.  Calls made through a module attribute
(``elliptic.pcg_solve``) or a global name (``pcg_solve``) both pass through
the wrapper; references stored elsewhere (a dispatch dict, a closure) do
not, and their time counts as the caller's self time.

Each call becomes a span: (name, start, end, parent, op).  Spans stay in
memory and are written out once, by ``dump``, when the run ends.
``layer_metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import re
import time
from collections import defaultdict

# Phase patterns, matched against the bare function name.  A phase's time is
# the inclusive duration of its outermost matching spans.
_ASSEMBLY = re.compile(r"^assemble")
_UPDATE = re.compile(r"sigma_from_potential")
_FUNCTIONAL = re.compile(r"functional|weighted_tv|boundary_penalty|delta_term")
_CALIBRATION = re.compile(r"calibration")
_LIFT = re.compile(r"harmonic_lift")
_FIELD_IO = re.compile(r"^(read|write)_")

MODULES = ("elliptic", "recon", "bregman", "fields", "boundary", "forward",
           "phantom", "cli")


class Recorder:
    def __init__(self, package):
        prefix = package.__name__ + "."
        modules = [package] + [
            importlib.import_module(prefix + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        self._bindings = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._bindings.append((module, attr, obj, wrappers[obj]))
        self.functions = len(wrappers)
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()

        return timed

    def install(self, op: int) -> None:
        self._op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        self._op = -1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "columns": ["name", "start", "end", "parent", "op"],
                "spans": list(zip(self.names, self.start, self.end,
                                  self.parent, self.op)),
            }, fh)


def layer_metrics(rec: Recorder, op_seconds: dict[int, float]) -> dict[str, float]:
    """Per-op layer figures, averaged over the traced ops in ``op_seconds``
    (op id -> traced wall seconds).

    A span's self time is its duration minus its children's; each module's
    ``self_s`` sums its spans' self times (``trace.other_s`` those of modules
    not in ``MODULES``), so they plus ``trace.outside_s`` (op time in no
    cdrecon span) add up to ``trace.op_s``.
    ``elliptic.assemble_s`` is the inclusive time of the outermost
    ``assemble*`` calls; ``elliptic.solve_s`` is the self time of every other
    elliptic span (those not entered through an ``assemble*`` call), and
    ``elliptic.solve_calls`` counts the calls that enter the layer there.
    """
    n = len(rec.names)
    module = [s.split(".", 1)[0] for s in rec.names]
    func = [s.split(".", 1)[1] for s in rec.names]
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    self_t = list(dur)
    for i in range(n):
        if rec.parent[i] >= 0:
            self_t[rec.parent[i]] -= dur[i]

    def entry(i):
        """Outermost span of the unbroken same-module chain above span i."""
        while rec.parent[i] >= 0 and module[rec.parent[i]] == module[i]:
            i = rec.parent[i]
        return i

    def ancestors(i):
        p = rec.parent[i]
        while p >= 0:
            yield p
            p = rec.parent[p]

    def outermost(match):
        """Inclusive seconds and count of the spans that match and have no
        matching ancestor."""
        total, count = 0.0, 0
        for i in range(n):
            if match(i) and not any(match(p) for p in ancestors(i)):
                total += dur[i]
                count += 1
        return total, count

    def named(pattern, mod=None):
        return lambda i: bool(pattern.search(func[i])) and mod in (None, module[i])

    def in_recon(i):
        return module[i] == "recon" or any(module[p] == "recon" for p in ancestors(i))

    mod_self = defaultdict(float)
    for i in range(n):
        mod_self[module[i]] += self_t[i]
    assemble_s, assemble_calls = outermost(named(_ASSEMBLY, "elliptic"))
    solve_s, solve_calls = 0.0, 0
    for i in range(n):
        if module[i] == "elliptic" and not _ASSEMBLY.search(func[entry(i)]):
            solve_s += self_t[i]
            solve_calls += entry(i) == i
    update_s, _ = outermost(named(_UPDATE))
    functional_s, _ = outermost(lambda i: named(_FUNCTIONAL)(i) and in_recon(i))
    calibration_s, _ = outermost(named(_CALIBRATION))
    lift_s, lift_calls = outermost(named(_LIFT))
    io_s, _ = outermost(named(_FIELD_IO, "fields"))
    gradient_calls = sum(1 for i in range(n) if rec.names[i] == "fields.gradient")
    covered = sum(dur[i] for i in range(n) if rec.parent[i] < 0)

    op_s = sum(op_seconds.values())
    totals = {
        "elliptic.solve_s": solve_s,
        "elliptic.solve_calls": solve_calls,
        "elliptic.assemble_s": assemble_s,
        "elliptic.assemble_calls": assemble_calls,
        "recon.update_s": update_s,
        "recon.functional_s": functional_s,
        "recon.calibration_s": calibration_s,
        "fields.gradient_calls": gradient_calls,
        "fields.io_s": io_s,
        "boundary.lift_s": lift_s,
        "boundary.lift_calls": lift_calls,
        "trace.op_s": op_s,
        "trace.outside_s": op_s - covered,
        "trace.other_s": sum(v for m, v in mod_self.items() if m not in MODULES),
    }
    totals.update({f"{m}.self_s": mod_self.get(m, 0.0) for m in MODULES})
    k = max(1, len(op_seconds))
    return {name: v // k if isinstance(v, int) and v % k == 0 else v / k
            for name, v in totals.items()}
