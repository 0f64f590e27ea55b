"""Per-layer self time and work counts, measured from outside the program.

:class:`Tracer` wraps the public methods of each simulator layer at its
boundary and keeps, per span name, the call count, the self time (span
minus the spans it encloses) and the inclusive time. Hot methods run
millions of times in a pass, so nothing is stored per call: each wrapper
adds to a few numbers and, where ``SimStats`` keeps no counter for it,
tallies its result (candidates offered to ``select`` and its no-picks,
SAP's prefetch candidates).

A span is named ``<layer>.<what>``, where the layer is the ``repro``
package that *defines* the function that ran. LAWS, CCWS, SAP and STR
override the base methods, so every concrete class is wrapped on its own:
``LAWSScheduler.select`` is ``core.laws.select`` while the
``notify_issue`` it inherits is ``sched.notify``.

Install before any ``SMCore`` is built: ``SMCore.__init__`` binds
``scheduler.notify_eviction`` into the L1, and a binding taken earlier
would bypass the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

from repro.core.llt import LastLoadTable
from repro.core.wgt import WarpGroupTable
from repro.experiments import runner, sweep
from repro.isa.address import AddressGenerator
from repro.mem.cache import L1Cache
from repro.mem.dram import DRAMModel
from repro.mem.l2 import L2Cache
from repro.mem.subsystem import EventQueue, MemorySubsystem
from repro.prefetch.base import Prefetcher
from repro.registry.store import RegistryStore
from repro.sched.base import WarpScheduler
from repro.sm.pipeline import SMCore
from repro.sm.simulator import GPUSimulator
from repro.stats.energy import EnergyModel
from repro.workloads import synthetic

# Slots of a span's totals list.
CALLS, SELF_S, INCL_S, TALLY_A, TALLY_B = range(5)

#: Span names for methods whose name alone does not say what they do.
_NAMES: dict[tuple[str, str], str] = {
    ("LAWSScheduler", "select"): "laws.select",
    ("LAWSScheduler", "notify_load_result"): "laws.load_result",
    ("SAPPrefetcher", "observe_load"): "sap.observe",
    ("LastLoadTable", "warps_with_llpc"): "llt.scan",
    ("WarpGroupTable", "insert"): "wgt.insert",
    ("L1Cache", "access"): "l1.access",
    ("L1Cache", "prefetch"): "l1.prefetch",
    ("L1Cache", "fill"): "l1.fill",
    ("L2Cache", "access"): "l2.access",
    ("DRAMModel", "request"): "dram.request",
    ("EventQueue", "schedule"): "events.schedule",
    ("EventQueue", "run_until"): "events.run_until",
    ("MemorySubsystem", "store"): "store",
    ("SMCore", "next_wake_hint"): "wake_hint",
    ("EnergyModel", "report"): "energy",
    ("RegistryStore", "put"): "write",
}

_REGISTRY_READS = ("history", "latest", "list", "resolve", "count")


def _span_name(cls: type, method: str, fn: Callable) -> str:
    layer = fn.__module__.split(".")[1]
    what = _NAMES.get((cls.__name__, method))
    if what is None:
        if method.startswith("notify_"):
            what = "laws.notify" if cls.__name__ == "LAWSScheduler" else "notify"
        elif method in _REGISTRY_READS:
            what = "read"
        else:
            what = method
    return f"{layer}.{what}"


# Result tallies: fn(totals, result, args) for the spans that need one.

def _tally_select(totals: list, result: Any, args: tuple) -> None:
    totals[TALLY_A] += len(args[1])
    if result is None:
        totals[TALLY_B] += 1


def _tally_len(totals: list, result: Any, args: tuple) -> None:
    totals[TALLY_A] += len(result)


_TALLIES: dict[str, Callable[[list, Any, tuple], None]] = {
    "sched.select": _tally_select,      # A: candidates offered, B: no pick
    "core.sap.observe": _tally_len,     # A: prefetch candidates returned
}


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def method_targets() -> list[tuple[type, str]]:
    """Every ``(class, method)`` pair the tracer wraps, concrete ones included."""
    scheduler_methods = [m for m in vars(WarpScheduler)
                         if m == "select" or m.startswith("notify_")]
    targets: list[tuple[type, str]] = []
    for base, methods in ((WarpScheduler, scheduler_methods),
                          (Prefetcher, ["observe_load"]),
                          (AddressGenerator, ["coalesced"])):
        for cls in _subclasses(base):
            # SubstepAddress only forwards to the generator it wraps;
            # wrapping it too would count every weighted load twice.
            if cls is synthetic.SubstepAddress:
                continue
            for method in methods:
                fn = vars(cls).get(method)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    targets.append((cls, method))
    targets += [
        (GPUSimulator, "run"), (SMCore, "cycle"), (SMCore, "next_wake_hint"),
        (LastLoadTable, "warps_with_llpc"), (WarpGroupTable, "insert"),
        (L1Cache, "access"), (L1Cache, "prefetch"), (L1Cache, "fill"),
        (L2Cache, "access"), (DRAMModel, "request"),
        (EventQueue, "schedule"), (EventQueue, "run_until"),
        (MemorySubsystem, "store"), (EnergyModel, "report"),
        (RegistryStore, "put"),
    ]
    targets += [(RegistryStore, m) for m in _REGISTRY_READS]
    return targets


class Tracer:
    """Installs span wrappers and aggregates their totals in memory."""

    def __init__(self) -> None:
        #: span name -> [calls, self s, inclusive s, tally A, tally B]
        self.totals: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0, 0])
        tally = _TALLIES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time spent in spans this one encloses
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[CALLS] += 1
                totals[SELF_S] += elapsed - frame[0]
                totals[INCL_S] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if tally is not None:
                tally(totals, result, args)
            return result

        return span

    def _patch_method(self, cls: type, method: str) -> None:
        original = vars(cls)[method]
        setattr(cls, method, self._wrap(original, _span_name(cls, method, original)))
        self._undo.append(lambda: setattr(cls, method, original))

    def _patch_function(self, original: Callable, name: str) -> None:
        """Rebind a module-level function in every ``repro`` module holding it."""
        wrapped = self._wrap(original, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original))

    def install(self) -> None:
        """Wrap every layer boundary. Call before building any simulator."""
        for cls, method in method_targets():
            self._patch_method(cls, method)
        self._patch_function(synthetic.build_kernel, "workloads.build")
        self._patch_function(runner.run, "experiments.run")
        self._patch_function(sweep.run_sweep, "experiments.sweep")

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def get(self, name: str, slot: int) -> Any:
        """One total of span ``name``; 0 for a span that never ran."""
        totals = self.totals.get(name)
        return totals[slot] if totals is not None else 0

    def layer_sum(self, layer: str, slot: int, suffix: str = "") -> Any:
        """Sum ``slot`` over the spans ``<layer>.*<suffix>``."""
        return sum(t[slot] for n, t in self.totals.items()
                   if n.split(".")[0] == layer and n.endswith(suffix))

    def counts(self) -> dict[str, int]:
        """Every span's call count and tallies: deterministic for one input."""
        return {f"{n}.{field}": t[slot]
                for n, t in sorted(self.totals.items())
                for field, slot in (("calls", CALLS), ("a", TALLY_A), ("b", TALLY_B))}
