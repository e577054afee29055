"""The reference kernel that scales measured times to a reference speed.

On a shared machine the speed of a core changes by more than half within
seconds (README.md, "Noise"). The benchmark times this fixed job next to
the ops it measures and reports each time multiplied by REF_NOMINAL_S over
the kernel's time there: the time the op would take on a machine where
the kernel takes REF_NOMINAL_S. The program under test cannot reach the
kernel, which runs between ops with the garbage collector off.

`setup_s` is scaled by a second kernel, `module_kernel`, which runs a
fixed module body: an import slows down by other factors than pure
bytecode does, and this kernel follows it (README.md, "Noise").

This module imports nothing beyond built-in modules, so that timing it in
a fresh interpreter leaves the import of `gbsyz.cli` unchanged.
"""

import gc
import marshal
import time

REF_NOMINAL_S = 0.002


def reference_kernel():
    """A fixed pure-Python job: tuple arithmetic, calls and a dict
    accumulator, the kinds of work gbsyz does."""
    acc = {}
    for i in range(40):
        for j in range(25):
            e = _exps_add((i % 5, j % 4, i * j % 3), (j % 3, i % 4, 1))
            acc[e] = (acc.get(e, 0) + i * j + 1) % 1000003
    return len(acc)


def _exps_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


_MODULE_CODE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n"
    + "".join(f"    def m{j}(self, a, b=({i}, {j})):\n        return a + b[0] * {j}\n" for j in range(8))
    + f"    table = {{k: (k, {i}) for k in range(20)}}\n"
    for i in range(90)), "<reference module>", "exec"))


def module_kernel():
    """What an import does once it has read a module's bytecode: load the
    code and run the module body (class, function and dict definitions)."""
    exec(marshal.loads(_MODULE_CODE), {"__name__": "reference_module"})


def reference_seconds(kernel=reference_kernel):
    """The faster of two timed runs of `kernel`."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best
