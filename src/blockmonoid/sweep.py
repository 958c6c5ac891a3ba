"""Whole-group subset sweeps: the set of minimal distances and its attainers.

The sweep descends the tree of nonempty subsets of the nonzero elements and
classifies every subset it does not prune.  Three structural facts make this
cheap:

* the atoms of a subset are exactly the atoms over all nonzero elements whose
  support lies inside the subset, so a subset's atoms are the index entries
  of its submasks, and each entry, the atoms with exactly that support, is
  built once, when the descent forms its mask, from the zero-sum-free
  vectors of its tree parent;
* each subset carries the dual state (d, W) of `kernel`, d its min Delta, and
  a child that adds one element derives its state in one
  `kernel.child_step`, which starts from the Hermite form of an earlier
  sibling's child, folds the atoms that form leaves out in one at a time,
  read as they are, and reads no further atom once the child's min Delta
  is certain to be 1 (then the child is pruned, and its weight is never
  read), and, unless every record is asked for, takes no step at all on a
  child that contains a subset with min Delta 1 (a "settled" child, below);
* every superset X of a non-half-factorial subset with min Delta d has
  0 < min Delta(X) | d, so once every divisor of d is among the min Delta
  values recorded, the subtree adds nothing to Delta* and is counted
  arithmetically and skipped ("divisor-closed pruning"; d = 1 is the first
  case).  Half-factorial subsets are never pruned, so every minimal
  non-half-factorial subset is computed, its tree parent being
  half-factorial.

Those minimal sets carry max Delta*, the extremal sets and m(G), so the
sweep keeps a record of them alone unless it is asked for every computed
subset's.  Every non-half-factorial X contains a minimal non-half-factorial
Y: drop elements from X while what is left is non-half-factorial.  By the
fact above, 0 < min Delta(X) | min Delta(Y), so min Delta(X) <= min
Delta(Y).  So max Delta* is attained at a minimal set, and the extremal
sets, the minimal ones at the maximum, are all among them.  If X is LCN,
every atom over X has cross number >= 1, and the atoms over Y are among
them, so Y is LCN too: the largest min Delta over the LCN sets, m(G), is
attained at a minimal LCN set as well (a half-factorial set adds min Delta
0, the value m(G) takes when no LCN set is non-half-factorial).  Delta*
itself is the set of values seen, not read off the records.

Each chain adds element bits below those of its mask, so a node that adds
bit b to a mask M of higher bits gains exactly the atoms whose support is b
plus a submask S of M.  Those with S inside P, M minus its lowest position
`low`, are the atoms of b|P, an earlier sibling of M: their B values read
only the weights of P, which M's chain leaves as they are, and min Delta(M)
divides min Delta(P).  So the final Hermite form of b|P,
(0, e*d(M)) and the pairs of the atoms with `low` in S span the lattice of
b|M.  Each node keeps the final (form, nonunit, light) of its children on
its frame and hands that list to each child it descends into, whose child b
starts its step from the form of b|P and takes its flags too; the root's
children start from the empty form.  The entries with `low` in S are read
as they are: the own entry, S = M, off the zero-sum-free vectors that M
carries (`atoms.child_entry`), which M built from its parent's when the
descent entered it (`atoms.zero_sum_free`); the others from the lists that
each node files, (b, entry) for every child that has atoms, in ascending b
(or the marker (b, None), below).
M reads the lists of `low` plus each proper submask of P once, in
descending order, before it forms its children, and buckets the entries by
b; each child hands the child step its own entry first, then the others.
Siblings go in ascending order of b, so the masks are formed in increasing
integer order, and each subset's record is written once, already sorted.
Every form and list read is there: b|P is a direct child of P, formed
before M = low|P because b < low; and a proper submask S of M with lowest
bit `low` comes before M in integer order, its subtree too, so it was
descended into, and filed its list, before M was formed, unless it or an
ancestor A of it was pruned.  Then the ancestor of M with the bits of M
from A's lowest bit up contains A and is formed no earlier, so, its min
Delta dividing A's, it would have been pruned too, and M never formed.

The same entries decide minimality: the atoms of a set minus g are its
atoms that avoid g, so a set is minimal non-half-factorial iff some atom
has k(A) != 1 and each such atom has the whole set as its support.  So the
new mask is minimal iff its own entry has one and none of the parent M, the
sibling b|P and the other new entries has one.

Without `records`, a child b|M whose min Delta is sure to be 1 is settled:
it builds no entry, takes no step, files nothing and keeps no record.  It
counts as computed, its subtree as pruned, and it hands on the form
(0, 0, e), which is a start form for any set with min Delta 1.  The D of a
child's final form is e times its min Delta, so two cases are decided
before any atom is read:

* (a) the form of b|P, its D joined with e*d(M), is already e.  Then
  gcd(min Delta(b|P), min Delta(M)) = 1, so one of them is nonzero, b|M is
  not half-factorial, and its min Delta divides each nonzero one, so it
  divides their gcd, 1.
* (b) a list that M reads holds the marker (b, None).  A child b|S that
  folds to min Delta 1 files this marker in place of its entry, and b|S is
  inside b|M.

In (b) the child that filed the marker recorded min Delta 1.  In (a), when
min Delta(b|P) is 1, b|P recorded it, or was settled after it was recorded.
When both values in (a) exceed 1, the sweeps of every group of order <= 48
had recorded min Delta 1 already.  So a settle before min Delta 1 is
recorded raises `ConsistencyError`, rather than leave 1 out of Delta*: a
form whose D is e on a child whose min Delta is not 1 shows up there.

Nothing a folded child reads is skipped:

* A settled child's entry, or the entry a marker replaces, would be read
  only by child b of a later node N that contains M and has the same
  lowest bit.  That child contains b|M, and it is settled too.  If b|M
  folded to min Delta 1 or was settled by a marker, N reads that marker,
  since the marker's mask is a proper submask of N with N's lowest bit.
  If b|M was settled by its sibling, the sibling of N's child b is b|P',
  with P' = N minus its lowest bit, which contains P.  A superset of a
  non-half-factorial set is non-half-factorial, with a min Delta that
  divides the set's.  So min Delta(b|P') divides min Delta(b|P) if that is
  nonzero, and min Delta(N) divides min Delta(M) if that is nonzero.  So
  gcd(min Delta(b|P'), min Delta(N)) divides each nonzero one of min
  Delta(b|P) and min Delta(M), hence their gcd, 1, and the form of b|P'
  settles N's child b.
* The form a settled child hands on is read only by child b of its own
  children.  Each of them contains it and is settled by that form.  So the
  flags it hands on are never read.
* `index` is read only by the extremal reports, at the submasks of a
  minimal non-half-factorial set: that set and half-factorial ones.  A
  settled child is neither, since it properly contains a non-half-factorial
  set: b|P or M in (a), b|S in (b).
* A half-factorial child is never settled, so both routes to
  half-factoriality are checked on each one.

With `records`, every child folds, since its record needs the `lcn` flag
that the skipped entries feed.

The extremal reports read the whole-group support's span table, on position
masks, and the index entries of an LCN set's submasks, with the cross
numbers, scaled to integers by the support's `cross_scale`, that the index
keeps beside them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .atoms import EMPTY_ZF, MaskAtoms, child_entry, zero_sum_free
from .errors import BudgetError, ConsistencyError
from .groups import Element, FiniteAbelianGroup
from .kernel import child_step
from .sequences import SupportSet


class SubsetRecord(NamedTuple):
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
    # the computed subsets, in mask order, when the sweep was asked for them
    # (a pruned subset has no record); () otherwise
    records: tuple[SubsetRecord, ...]

    def subset_elements(self, mask: int) -> tuple[Element, ...]:
        return tuple(g for i, g in enumerate(self.elements) if mask >> i & 1)


# -- the sweep --------------------------------------------------------------------

def delta_star(group: FiniteAbelianGroup, *,
               sweep_max_group: int | None = None,
               records: bool = False) -> SweepReport:
    """Collect the set of minimal distances, its maximum, the LCN maximum and
    the extremal minimal non-half-factorial subsets of the nonzero elements,
    classifying every subset that is not pruned; refused when |G| exceeds
    `sweep_max_group`, if one is given.  With `records`, the report keeps
    the record of every computed subset; without, its `records` are ()."""
    if sweep_max_group is not None:
        # each component n has n >= 2^(bit_length(n) - 1), so |G| >= 2^low;
        # once that alone exceeds the cap, refuse on it before forming |G|,
        # which on a spec with many or large components is slow to form and
        # too long to print
        low = sum(n.bit_length() - 1 for n in group.orders)
        size = None if low >= sweep_max_group.bit_length() else group.size
        if size is None or size > sweep_max_group:
            shown = f">= 2^{low}" if size is None else f"= {size}"
            raise BudgetError(
                f"sweep over {group.spec_string()}: |G| {shown} exceeds the "
                f"sweep cap {sweep_max_group}; raise the cap to proceed",
                bound=size or 1 << low)
    elements = group.nonzero_elements
    k = len(elements)

    support = SupportSet(group, elements)
    # the entry of every computed mask that has atoms, filed when it is formed
    index: dict[int, MaskAtoms] = {}
    # for every node descended into, (b, the entry of b plus its mask) for
    # each child that has atoms, in ascending b; without records, a child
    # that folds to min Delta 1 files the marker (b, None) instead
    kids: dict[int, list[tuple[int, MaskAtoms | None]]] = {}
    prefix = support.prefix_spans

    # the record of every computed subset with `records`, else of every
    # minimal non-half-factorial one; in mask order either way
    kept: list[SubsetRecord] = []
    computed = 0
    # subsets in pruned subtrees: pruned[0] under a node with min Delta 1,
    # pruned[1] under one with a larger min Delta
    pruned = [0, 0]
    # the min Delta values recorded so far, and those of them whose every
    # divisor is recorded too
    seen: set[int] = set()
    closed: set[int] = set()
    e = group.exponent
    # the weights W_i of the current chain, at the positions of its mask: a
    # child writes slot b, and its subtree writes only below b
    weights = [0] * k
    # the final state handed on by a settled child; its flags are never
    # read, since every child that starts from this form is settled by it
    settled_form = ((0, 0, e), True, True)

    def descend(mask: int, low: int, positions: tuple[int, ...], d: int,
                has_nonunit: bool, has_light: bool, zf, sib: list):
        # the node `mask`, its lowest position `low` (k at the root), its
        # positions ascending, its zero-sum-free vectors, and sib[b], for
        # b < low, the final (form, nonunit, light) of the child b|P of its
        # parent P = mask minus `low`; first the entries b|S of the
        # children b < low, `low` in S and S a proper submask, each child's
        # in descending S, from the lists S filed
        nonlocal computed
        computed += low  # every child b < low is computed
        lowbit = mask & -mask
        parent = mask ^ lowbit
        buckets = [[] for _ in range(low)]
        # bit b is set once a list read holds the marker (b, None)
        settled = 0
        sub = parent
        while sub:
            sub = (sub - 1) & parent
            for b, entry in kids.get(sub | lowbit, ()):
                if entry is None:
                    settled |= 1 << b
                else:
                    buckets[b].append(entry)
        filed = kids[mask] = []
        forms = []
        ed = e * d
        for b, entries in enumerate(buckets):
            new_mask = mask | 1 << b
            start, nu, nl = sib[b]
            if not records and (settled >> b & 1 or gcd(start[2], ed) == e):
                # min Delta 1, by a marker or by the sibling form: no
                # entry, no step, no record (see the module docstring)
                if 1 not in seen:
                    raise ConsistencyError(
                        f"subset mask {new_mask} settled at min Delta 1 "
                        f"before min Delta 1 was recorded")
                forms.append(settled_form)
                pruned[0] += (1 << b) - 1
                continue
            nu = nu or has_nonunit
            nl = nl or has_light
            for entry in entries:
                nu = nu or entry.nonunit
                nl = nl or entry.light
            minimal = False
            # the new mask's own entry goes first; once no vector over the
            # mask is zero-sum free, no mask below it in the tree has one
            own = child_entry(support, zf, b, positions) if zf else None
            if own is not None:
                index[new_mask] = own
                if own.nonunit:
                    minimal = not nu
                    nu = True
                nl = nl or own.light
                entries.insert(0, own)
            # W_b is None when child_d = 1, which always prunes: slot b is
            # read only in this child's subtree
            child_d, weights[b], form = child_step(e, d, entries, weights, start)
            forms.append((form, nu, nl))
            if child_d == 1 and not records:
                filed.append((b, None))
            elif own is not None:
                filed.append((b, own))
            if (child_d == 0) == nu:
                raise ConsistencyError(
                    f"half-factoriality routes disagree on subset mask {new_mask}")
            if records or minimal:
                kept.append(SubsetRecord(new_mask, child_d, child_d == 0, not nl,
                                         minimal))
            if child_d and child_d not in seen:
                seen.add(child_d)
                closed.update(v for v in seen if all(
                    u in seen for u in range(1, v) if v % u == 0))
            if child_d in closed:
                # every superset X has 0 < min Delta(X) | child_d, a value
                # already recorded; count the subtree and skip it
                pruned[child_d > 1] += (1 << b) - 1
            elif b:  # a mask with position 0 has no children
                descend(new_mask, b, (b,) + positions, child_d, nu, nl,
                        zero_sum_free(support, zf, b, prefix[b]) if zf else zf,
                        forms)
        if not filed:
            del kids[mask]  # a missing list reads as empty

    # the root's children fold from the empty form
    descend(0, k, (), 0, False, False, EMPTY_ZF, [((0, 0, 0), False, False)] * k)

    total = (1 << k) - 1
    if computed + sum(pruned) != total:
        raise ConsistencyError(
            f"sweep accounting is off: {computed} visited + {sum(pruned)} "
            f"pruned != {total}")

    # Delta*: `seen` holds every nonzero min Delta recorded; the maximum,
    # the extremal sets and m(G) are read off the minimal non-half-factorial
    # records (see the module docstring)
    dstar = sorted(seen)
    maximum = dstar[-1] if dstar else 0
    minimal = [rec for rec in kept if rec.minimal_non_hf] if records else kept
    m_of_g = max((rec.min_delta for rec in minimal if rec.lcn), default=0)
    extremal = tuple(_extremal_report(support, index, rec)
                     for rec in minimal if rec.min_delta == maximum)

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
            "subsets_pruned": sum(pruned),
            "subsets_pruned_min_delta_1": pruned[0],
            "subsets_pruned_min_delta_above_1": pruned[1],
        },
        records=tuple(kept) if records else (),
    )


def _extremal_report(support: SupportSet, index: dict[int, MaskAtoms],
                     rec: SubsetRecord) -> ExtremalSetReport:
    """The structural checks on one subset of the whole-group support, read
    off the support's span table and the sweep's support-mask index."""
    group = support.group
    n = group.exponent
    scale = support.cross_scale[0]
    r = group.rank
    mask = rec.mask
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    subset_elems = tuple(support.elements[i] for i in positions)

    pm_pair = (len(positions) == 2
               and subset_elems[1] == group.neg(subset_elems[0])
               and support.orders[positions[0]] == n)

    # spans of the subset minus one or two of its elements, as masks over G
    no_gap = not any(support.in_span(i, mask ^ (1 << i) ^ (1 << j))
                     for i in positions for j in positions if j != i)

    independent_complement = any(
        support.is_independent(mask ^ (1 << i)) for i in positions)

    unit_bound: bool | None = None
    heavy_bound: bool | None = None
    if rec.lcn:
        # the atoms over the subset are those filed under its submasks, with
        # their cross numbers scaled by `scale`
        unit_bound = heavy_bound = True
        sub = mask
        while sub:
            entry = index.get(sub)
            if entry is not None:
                low = (sub & -sub).bit_length() - 1
                for atom, scaled in zip(entry.vectors, entry.scaled):
                    if scaled == scale:
                        unit_bound = unit_bound and 2 * sub.bit_count() <= n
                    elif scaled > scale and heavy_bound:
                        heavy_bound = scaled < r * scale and _complement_is_atom(
                            support.orders, positions, index,
                            (low, *entry.above), atom)
            sub = (sub - 1) & mask

    return ExtremalSetReport(
        subset=subset_elems,
        min_delta=rec.min_delta,
        lcn=rec.lcn,
        pm_pair_full_order=pm_pair,
        size_is_rank_plus_one=len(positions) == r + 1,
        no_two_element_span_gap=no_gap,
        has_independent_complement=independent_complement,
        unit_atoms_support_bound=unit_bound,
        heavy_atoms_complement_atom=heavy_bound,
    )


def _complement_is_atom(orders, positions, index, at, atom) -> bool:
    """Whether the complement of an atom within the subset at `positions`,
    ord(g) - v_g at each, is an atom: the atom as its exponents at `at`, the
    complement as a tuple over its own mask's positions, both ascending."""
    exps = dict(zip(at, atom))
    complement = []
    cmask = 0
    for i in positions:
        v = orders[i] - exps.get(i, 0)
        if v:
            cmask |= 1 << i
            complement.append(v)
    entry = index.get(cmask)
    return entry is not None and tuple(complement) in entry.vectors
