"""In-process tracing of one ``cubicgeom`` command, installed from outside.

``install()`` wraps every public module-level function of the library's
modules, the public methods of their public classes, the arithmetic dunders
of ``MultiPoly`` and ``FieldElement``, and ``FieldTower.__init__``.  Each
wrapper is rebound in every ``cubicgeom`` namespace that holds the original
(``from .x import f`` copies the name) and in module-level dicts such as
``cli.COMMANDS``.  No file under ``src/`` is edited.

Calls to stage-level functions become spans (name, start, end, parent).
Every wrapped call, span or not, is also aggregated into a counter keyed by
its parent span: calls, errors and self time, so that millions of kernel
calls cost a dict update each instead of a span each.  Self time is a call's
duration minus the time covered by the wrapped calls beneath it.  The walk
of span results behind ``max_coeff_bits`` is taken out of every call's and
span's clock, so it shows only in the traced run's wall time.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("cli", "blowup", "fixtures", "field", "linalg", "multipoly",
           "binforms", "projgeom", "incidence", "forms", "determinantal",
           "quadrics", "hexagram", "species")

# Modules whose functions are called in inner loops: counters only, except
# for the whole-stage functions named in SPAN_FUNCTIONS.
KERNEL_MODULES = {"field", "linalg", "multipoly", "binforms", "projgeom",
                  "incidence"}
SPAN_FUNCTIONS = {
    "multipoly.homogeneous_gcd", "multipoly.common_factor",
    "multipoly.common_cubic_factor", "incidence.group_closure",
    "incidence.involution_census", "incidence.orbit_sizes",
    "incidence.enumerate_double_sixes", "incidence.enumerate_trieder_pairs",
    "incidence.enumerate_triads", "incidence.enumerate_enneahedra",
}
DUNDERS = {
    "MultiPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__pow__"),
    "FieldElement": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"),
    "FieldTower": ("__init__",),
}


class Recorder:
    def __init__(self, scalar_type):
        self.scalar_type = scalar_type
        self.spans = []         # [name, start, end, parent span index]
        self.counters = {}      # (parent span index, name) -> [calls, errors, self_s]
        self.max_coeff_bits = 0
        self._frames = []       # [child time] per active wrapped call
        self._span_stack = [-1]
        # Time spent in _scan_bits.  Wrappers read the clock minus this, so a
        # scan is charged to no call and no span, only to the traced op_s.
        self._paused = [0.0]

    def wrap(self, name, fn, is_span):
        frames, span_stack, counters = self._frames, self._span_stack, self.counters
        paused = self._paused
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = span_stack[-1]
            if is_span:
                span_stack.append(len(self.spans))
                self.spans.append([name, 0.0, 0.0, parent])
            frame = [0.0]
            frames.append(frame)
            failed = True
            start = clock() - paused[0]
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock() - paused[0]
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                entry = counters.get((parent, name))
                if entry is None:
                    entry = counters[(parent, name)] = [0, 0, 0.0]
                entry[0] += 1
                entry[1] += failed
                entry[2] += duration - frame[0]
                if is_span:
                    span = self.spans[span_stack.pop()]
                    span[1], span[2] = start, end
                    if not failed:
                        scan_start = clock()
                        self._scan_bits(result)
                        paused[0] += clock() - scan_start

        return wrapper

    def _scan_bits(self, obj):
        """Largest numerator or denominator bit-length reachable from obj."""
        best, seen, todo = self.max_coeff_bits, set(), [obj]
        while todo:
            x = todo.pop()
            if isinstance(x, self.scalar_type):
                best = max(best, x.numerator.bit_length(),
                           x.denominator.bit_length())
                continue
            if isinstance(x, (str, bytes, int, float, type(None), type)) \
                    or callable(x) or id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, dict):
                todo.extend(x.values())
            elif isinstance(x, (list, tuple, set, frozenset)):
                todo.extend(x)
            else:
                todo.extend(getattr(x, "__dict__", {}).values())
                for cls in type(x).__mro__:
                    for slot in getattr(cls, "__slots__", ()):
                        todo.append(getattr(x, slot, None))
        self.max_coeff_bits = best

    def dump(self, path):
        data = {"spans": self.spans,
                "counters": [[p, n, *v] for (p, n), v in self.counters.items()],
                "max_coeff_bits": self.max_coeff_bits}
        with open(path, "w") as fh:
            json.dump(data, fh)


def _targets(short, module):
    """(qualified name, owner, attribute, original, is span) to wrap."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            name = f"{short}.{attr}"
            yield name, module, attr, obj, (
                short not in KERNEL_MODULES or name in SPAN_FUNCTIONS)
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, raw in vars(obj).items():
                if mattr.startswith("_") and mattr not in DUNDERS.get(attr, ()):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    yield (f"{short}.{attr}.{fn.__name__}", obj, mattr, raw,
                           short not in KERNEL_MODULES)


def install():
    """Wrap the library in place and return the Recorder collecting calls."""
    from cubicgeom import field
    recorder = Recorder(field.mpq)
    modules = {s: importlib.import_module(f"cubicgeom.{s}") for s in MODULES}
    replaced = {}
    for short, module in modules.items():
        for name, owner, attr, raw, is_span in list(_targets(short, module)):
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(recorder.wrap(name, raw.__func__, is_span))
            else:
                new = recorder.wrap(name, raw, is_span)
                replaced[id(raw)] = new
            setattr(owner, attr, new)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
    return recorder
