"""Whole-group subset sweeps: the set of minimal distances and its attainers.

The sweep classifies every nonempty subset of the nonzero elements.  Three
structural facts make this cheap:

* the atoms of a subset are exactly the atoms over all nonzero elements whose
  support lies inside the subset, so atoms are enumerated once per group and
  filtered by support bitmask;
* min Delta of a subset is the positive generator of {t : (0,...,0,t)} inside
  the lattice spanned by the augmented atom columns (exponent vector, 1), and
  that lattice grows monotonically along a subset-inclusion chain, so one
  echelon basis is shared and extended down the recursion;
* a subset with min Delta = 1 forces min Delta = 1 on every superset (the
  generator divides 1), so the whole subtree is counted arithmetically and
  skipped ("saturation pruning").

Work is partitioned into units by fixed patterns of the highest element bits;
a unit stays silent when a proper prefix of its pattern already saturated
(that region is accounted by the unit owning the prefix), which makes the
merged report identical for every degree of parallelism.
"""
from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass
from math import lcm

from .atoms import enumerate_atoms
from .errors import BudgetError, ConsistencyError
from .groups import Element, FiniteAbelianGroup
from .kernel import echelon_insert, lattice_tail_generator
from .sequences import SupportSet

_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class SubsetRecord:
    mask: int
    min_delta: int
    half_factorial: bool
    lcn: bool
    minimal_non_hf: bool


@dataclass(frozen=True)
class ExtremalSetReport:
    """A minimal non-half-factorial subset attaining max of the minimal distances,
    annotated with the structural checks of the inverse results."""

    subset: tuple[Element, ...]
    min_delta: int
    lcn: bool
    # {g, -g} with ord(g) = exp(G)
    pm_pair_full_order: bool
    size_is_rank_plus_one: bool
    # no h lies in the span of the set minus {h, h'} for any h'
    no_two_element_span_gap: bool
    # some g in G0 has an independent complement
    has_independent_complement: bool
    # checks on the atom inventory; None when the set is not an LCN-set
    unit_atoms_support_bound: bool | None
    heavy_atoms_complement_atom: bool | None


@dataclass(frozen=True)
class SweepReport:
    group: FiniteAbelianGroup
    elements: tuple[Element, ...]
    delta_star: tuple[int, ...]
    max_delta_star: int
    m_of_g: int
    extremal: tuple[ExtremalSetReport, ...]
    counters: dict[str, int]
    records: tuple[SubsetRecord, ...]

    def subset_elements(self, mask: int) -> tuple[Element, ...]:
        return tuple(g for i, g in enumerate(self.elements) if mask >> i & 1)


# -- per-unit search -------------------------------------------------------------

def _atom_tables(elements, orders, atoms):
    """Per-atom data: augmented column, support mask, unit/light flags,
    grouped by the lowest support bit."""
    # k(A) = sum c_i / ord(g_i), scaled by the common multiple n of the orders
    n = lcm(*orders)
    weights = [n // o for o in orders]
    by_minbit: dict[int, list] = {}
    for a in atoms.atoms:
        vec = a.exponents
        mask = 0
        scaled = 0
        for i, c in enumerate(vec):
            if c:
                mask |= 1 << i
                scaled += c * weights[i]
        minbit = (mask & -mask).bit_length() - 1
        entry = (list(vec) + [1], mask, scaled == n, scaled < n)
        by_minbit.setdefault(minbit, []).append(entry)
    return by_minbit


def _unit_payload(pattern: int, state: dict):
    """Run one work unit: all subsets whose high-bit part equals the pattern."""
    k = state["k"]
    boundary = state["boundary"]  # bits >= boundary form the pattern space
    by_minbit = state["by_minbit"]
    dim = k + 1
    symmetry = state["symmetry"]
    canon_cache: dict[int, tuple[int, bool, bool]] = {}

    records: list[tuple[int, int, bool, bool]] = []
    counters = {"computed": 0, "pruned": 0, "symmetry_reused": 0}

    rows: list[list[int]] = []
    has_nonunit = False
    has_light = False
    pattern_bits = [b for b in range(k - 1, boundary - 1, -1) if pattern >> b & 1]
    partial = 0
    for b in pattern_bits:
        if partial and lattice_tail_generator(rows, dim) == 1:
            return None  # a proper prefix saturated; its own unit accounts for us
        partial |= 1 << b
        for vec, smask, unit, light in by_minbit.get(b, ()):
            if smask & ~partial == 0:
                echelon_insert(rows, vec)
                has_nonunit = has_nonunit or not unit
                has_light = has_light or light

    def readout(mask: int, rows, has_nonunit: bool) -> int:
        d = lattice_tail_generator(rows, dim)
        if (d == 0) != (not has_nonunit):
            raise ConsistencyError(
                f"half-factoriality routes disagree on subset mask {mask}")
        return d

    def emit(mask: int, rows, has_nonunit, has_light) -> bool:
        """Record a formed subset; True when its subtree saturates."""
        if symmetry:
            canon = state["canonical"][mask]
            hit = canon_cache.get(canon)
            if hit is None:
                d = readout(mask, rows, has_nonunit)
                counters["computed"] += 1
                canon_cache[canon] = (d, has_nonunit, has_light)
            else:
                d = hit[0]
                counters["symmetry_reused"] += 1
                if (hit[1], hit[2]) != (has_nonunit, has_light):
                    raise ConsistencyError(
                        f"orbit flags disagree on subset mask {mask}")
        else:
            d = readout(mask, rows, has_nonunit)
            counters["computed"] += 1
        records.append((mask, d, d == 0, not has_light))
        if d == 1:
            # every superset inherits min delta 1; count its subtree and skip
            low = (mask & -mask).bit_length() - 1
            counters["pruned"] += (1 << low) - 1
            return True
        return False

    def descend(mask: int, top_bit: int, rows, has_nonunit, has_light):
        for b in range(top_bit, -1, -1):
            new_mask = mask | (1 << b)
            batch = [entry for entry in by_minbit.get(b, ())
                     if entry[1] & ~new_mask == 0]
            nu, nl = has_nonunit, has_light
            if batch:
                new_rows = [row[:] for row in rows]
                for vec, smask, unit, light in batch:
                    echelon_insert(new_rows, vec)
                    nu = nu or not unit
                    nl = nl or light
            else:
                new_rows = rows  # shared read-only; every writer copies first
            if not emit(new_mask, new_rows, nu, nl):
                descend(new_mask, b - 1, new_rows, nu, nl)

    if pattern:
        if emit(pattern, rows, has_nonunit, has_light):
            return records, counters
    descend(pattern, boundary - 1, rows, has_nonunit, has_light)
    return records, counters


def _worker_init(state):
    _WORKER_STATE["state"] = state


def _worker_run(pattern):
    return _unit_payload(pattern, _WORKER_STATE["state"])


# -- symmetry orbits --------------------------------------------------------------

def _coordinate_symmetries(group: FiniteAbelianGroup, elements) -> list[tuple[int, ...]]:
    """Element-index permutations induced by permuting equal-order components."""
    k = len(group.orders)
    blocks: dict[int, list[int]] = {}
    for i, n in enumerate(group.orders):
        blocks.setdefault(n, []).append(i)
    index_of = {g: i for i, g in enumerate(elements)}
    perms = []
    grouped = [blocks[n] for n in sorted(blocks)]
    for combo in itertools.product(*(itertools.permutations(b) for b in grouped)):
        coord_perm = list(range(k))
        for block, image in zip(grouped, combo):
            for src, dst in zip(block, image):
                coord_perm[src] = dst
        mapping = []
        for g in elements:
            h = [0] * k
            for src, dst in enumerate(coord_perm):
                h[dst] = g[src]
            mapping.append(index_of[tuple(h)])
        perms.append(tuple(mapping))
    return perms


def _canonical_masks(k: int, perms) -> list[int]:
    canon = list(range(1 << k))
    if len(perms) <= 1:
        return canon
    for mask in range(1 << k):
        best = mask
        for perm in perms:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            if image < best:
                best = image
        canon[mask] = best
    return canon


# -- the sweep --------------------------------------------------------------------

def delta_star(group: FiniteAbelianGroup, *,
               sweep_max_group: int | None = 16,
               jobs: int = 1,
               symmetry: bool = False) -> SweepReport:
    """Classify every nonempty subset of the nonzero elements and collect the
    set of minimal distances, its maximum, the LCN maximum, and the extremal
    minimal non-half-factorial subsets."""
    if sweep_max_group is not None and group.size > sweep_max_group:
        raise BudgetError(
            f"sweep over {group.spec_string()} needs {2 ** (group.size - 1) - 1} "
            f"subsets; budget allows |G| <= {sweep_max_group}",
            bound=2 ** (group.size - 1) - 1)
    elements = group.nonzero_elements
    k = len(elements)
    if k == 0:
        return SweepReport(group, (), (), 0, 0, (), {
            "subsets_total": 0, "subsets_computed": 0, "subsets_pruned": 0,
            "symmetry_reused": 0}, ())

    support = SupportSet(group, elements)
    atoms = enumerate_atoms(support, budget=None)
    by_minbit = _atom_tables(elements, support.orders, atoms)

    jobs = max(1, jobs)
    prefix_bits = 0
    if jobs > 1:
        while (1 << prefix_bits) < 4 * jobs and prefix_bits < max(k - 2, 0):
            prefix_bits += 1
    boundary = k - prefix_bits

    state = {
        "k": k,
        "boundary": boundary,
        "by_minbit": by_minbit,
        "symmetry": symmetry,
        "canonical": _canonical_masks(k, _coordinate_symmetries(group, elements))
        if symmetry else None,
    }
    patterns = [bits << boundary for bits in range(1 << prefix_bits)]

    if jobs == 1:
        results = [_unit_payload(p, state) for p in patterns]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs, initializer=_worker_init, initargs=(state,)) as pool:
            results = pool.map(_worker_run, patterns)

    merged: dict[int, tuple[int, bool, bool]] = {}
    computed = pruned = reused = 0
    for result in results:
        if result is None:
            continue
        unit_records, counters = result
        computed += counters["computed"]
        pruned += counters["pruned"]
        reused += counters["symmetry_reused"]
        for mask, d, hf, lcn in unit_records:
            merged[mask] = (d, hf, lcn)
    total = (1 << k) - 1
    if len(merged) + pruned != total:
        raise ConsistencyError(
            f"sweep accounting is off: {len(merged)} visited + {pruned} pruned "
            f"!= {total}")

    def subset_is_hf(mask: int) -> bool:
        if mask == 0:
            return True
        hit = merged.get(mask)
        # absent masks were pruned, hence non-half-factorial
        return hit[1] if hit is not None else False

    records = []
    for mask in sorted(merged):
        d, hf, lcn = merged[mask]
        minimal = (not hf) and all(
            subset_is_hf(mask ^ (1 << b)) for b in range(k) if mask >> b & 1)
        records.append(SubsetRecord(mask, d, hf, lcn, minimal))

    non_hf = [rec for rec in records if not rec.half_factorial]
    dstar = sorted({rec.min_delta for rec in non_hf})
    maximum = dstar[-1] if dstar else 0
    m_of_g = max((rec.min_delta for rec in non_hf if rec.lcn), default=0)
    extremal = tuple(
        _extremal_report(group, elements, atoms, rec)
        for rec in records
        if rec.minimal_non_hf and rec.min_delta == maximum and maximum > 0)

    return SweepReport(
        group=group,
        elements=elements,
        delta_star=tuple(dstar),
        max_delta_star=maximum,
        m_of_g=m_of_g,
        extremal=extremal,
        counters={
            "subsets_total": total,
            "subsets_computed": computed,
            "subsets_pruned": pruned,
            "symmetry_reused": reused,
        },
        records=tuple(records),
    )


def m_of_g(group: FiniteAbelianGroup, **kwargs) -> int:
    """max of min Delta over the non-half-factorial LCN subsets (0 when none)."""
    return delta_star(group, **kwargs).m_of_g


def extremal_sets(group: FiniteAbelianGroup, **kwargs) -> tuple[ExtremalSetReport, ...]:
    return delta_star(group, **kwargs).extremal


def _extremal_report(group, elements, full_atoms, rec: SubsetRecord) -> ExtremalSetReport:
    subset_elems = tuple(g for i, g in enumerate(elements) if rec.mask >> i & 1)
    subset = SupportSet(group, subset_elems)
    atoms = full_atoms.restrict(subset)
    n = group.exponent
    r = group.rank

    pm_pair = (len(subset_elems) == 2
               and subset_elems[1] == group.neg(subset_elems[0])
               and group.order_of(subset_elems[0]) == n)

    no_gap = True
    for i, h in enumerate(subset_elems):
        others = subset_elems[:i] + subset_elems[i + 1:]
        for j in range(len(others)):
            rest = others[:j] + others[j + 1:]
            if h in group.subgroup_closure(rest):
                no_gap = False
                break
        if not no_gap:
            break

    independent_complement = any(
        group.is_independent(subset_elems[:i] + subset_elems[i + 1:])
        for i in range(len(subset_elems)))

    unit_bound: bool | None = None
    heavy_bound: bool | None = None
    if rec.lcn:
        unit_bound = all(
            2 * len(a.supp()) <= n
            for a, kv in zip(atoms.atoms, atoms.cross_numbers) if kv == 1)
        heavy_bound = True
        for a, kv in zip(atoms.atoms, atoms.cross_numbers):
            if kv > 1:
                complement = tuple(o - v for o, v in zip(subset.orders, a.exponents))
                if not (kv < r and atoms.contains_vector(complement)):
                    heavy_bound = False
                    break

    return ExtremalSetReport(
        subset=subset_elems,
        min_delta=rec.min_delta,
        lcn=rec.lcn,
        pm_pair_full_order=pm_pair,
        size_is_rank_plus_one=len(subset_elems) == r + 1,
        no_two_element_span_gap=no_gap,
        has_independent_complement=independent_complement,
        unit_atoms_support_bound=unit_bound,
        heavy_atoms_complement_atom=heavy_bound,
    )
