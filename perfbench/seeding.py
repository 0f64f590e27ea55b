"""Seeded variants of the suite's workload specs, built outside the program.

The simulator only ever sees built kernels; the benchmark decides what
those kernels read. From one ``--seed`` every address generator of a
workload gets a fresh hash seed (``IrregularAddress``/``IndirectAddress``)
and a base moved by a whole number of 128-byte lines. Strides, footprints,
hot sets and load weights are untouched, so Table I's per-load pattern
holds while the set, L2 bank and DRAM partition each line maps to changes.

Seed 0 returns specs equal to :mod:`repro.workloads.suite`, field for field.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.isa.address import AddressGenerator
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import workload

#: Bases move in units of the L1/L2 line so every access stays line-aligned
#: the way the suite lays it out.
LINE_BYTES = 128
#: Shifts stay below 2048 lines (256 KB), far inside the suite's 1 GB
#: regions, so no two loads of a workload ever alias.
MAX_SHIFT_LINES = 2048


def _draw(seed: int, *labels: object) -> int:
    """A stable 64-bit integer for ``(seed, labels)``, independent of hash salt."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _reseed_generator(gen: AddressGenerator, seed: int, label: str) -> AddressGenerator:
    if seed == 0:
        return dataclasses.replace(gen)
    changes = {"base": gen.base + LINE_BYTES * (_draw(seed, label, "base") % MAX_SHIFT_LINES)}
    if hasattr(gen, "seed"):
        changes["seed"] = _draw(seed, label, "seed") % (1 << 16) + 1
    return dataclasses.replace(gen, **changes)


def seeded_spec(spec: WorkloadSpec, seed: int) -> WorkloadSpec:
    """``spec`` with every address generator re-seeded and re-based.

    A generator shared by several loads (BP reads one array twice) gets
    one replacement, so the loads keep reading the same lines.
    """
    replaced: dict[AddressGenerator, AddressGenerator] = {}

    def reseed(gen: AddressGenerator, label: str) -> AddressGenerator:
        if gen not in replaced:
            replaced[gen] = _reseed_generator(gen, seed, f"{spec.abbr}:{label}")
        return replaced[gen]

    loads = tuple(
        dataclasses.replace(load, gen=reseed(load.gen, load.name))
        for load in spec.loads
    )
    store = spec.store
    if store is not None:
        store = dataclasses.replace(store, gen=reseed(store.gen, store.name))
    return dataclasses.replace(spec, loads=loads, store=store)


def seeded_workload(abbr: str, seed: int) -> WorkloadSpec:
    """The suite workload ``abbr`` under benchmark seed ``seed``."""
    return seeded_spec(workload(abbr), seed)
