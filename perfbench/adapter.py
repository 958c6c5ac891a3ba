"""The benchmark's one door into blockmonoid.

Every call from the benchmark into the package, and every package name the
traced run wraps, is written in this module, so an API move needs one edit
here. Functions are looked up on the modules at call time, never bound at
import, so the traced run's patches take effect.

Operations (`sweep`, `classify`, `witness`, `lengths`) build their group and
support from plain tuples on every call, so no cached property carries over
from one operation to the next. Their results are turned into plain data by
`answer`, outside the timed region.
"""
from __future__ import annotations

import importlib
import sys

PACKAGE = "blockmonoid"
_pkg = None


def load():
    """Import the package (once) and return it."""
    global _pkg
    if _pkg is None:
        _pkg = importlib.import_module(PACKAGE)
    return _pkg


def module(name: str):
    """A submodule, e.g. module("kernel") -> blockmonoid.kernel.

    `import blockmonoid.classify as m` would give the re-exported function,
    not the module, so go through importlib.
    """
    return importlib.import_module(f"{PACKAGE}.{name}")


def _support(orders, subset):
    bm = load()
    group = bm.FiniteAbelianGroup(tuple(orders))
    return bm.SupportSet(group, tuple(tuple(g) for g in subset))


# -- operations ---------------------------------------------------------------------

def sweep(req):
    bm = load()
    return bm.delta_star(bm.FiniteAbelianGroup(tuple(req["orders"])),
                         sweep_max_group=None)


def classify(req):
    return load().classify(_support(req["orders"], req["subset"]))


def witness(req):
    bm = load()
    atoms = bm.enumerate_atoms(_support(req["orders"], req["subset"]))
    return atoms, bm.min_delta_witness(atoms)


def lengths(req):
    bm = load()
    support = _support(req["orders"], req["subset"])
    sequence = bm.SequenceVec(support, tuple(req["sequence"]))
    return bm.length_set(sequence, bm.enumerate_atoms(support))


OPERATIONS = {"sweep": sweep, "classify": classify, "witness": witness,
              "lengths": lengths}


def answer(op: str, result) -> dict:
    """Plain-data form of an operation's result, as the gate reads it."""
    if op == "sweep":
        return {
            "delta_star": list(result.delta_star),
            "max_delta_star": result.max_delta_star,
            "m_of_g": result.m_of_g,
            "extremal": sorted(
                [[list(g) for g in e.subset], e.min_delta, e.lcn,
                 e.pm_pair_full_order, e.size_is_rank_plus_one,
                 e.no_two_element_span_gap, e.has_independent_complement,
                 e.unit_atoms_support_bound, e.heavy_atoms_complement_atom]
                for e in result.extremal),
            "subsets_computed": result.counters["subsets_computed"],
            "subsets_pruned": result.counters["subsets_pruned"],
        }
    if op == "classify":
        r = result
        return {"half_factorial": r.half_factorial, "lcn": r.lcn,
                "minimal_non_hf": r.minimal_non_hf,
                "decomposable": r.decomposable, "simple": r.simple,
                "min_delta": r.min_delta, "davenport": r.davenport,
                "max_cross_number": str(r.max_cross_number),
                "atom_count": r.atom_count}
    if op == "witness":
        atoms, w = result
        out = {"atom_count": len(atoms), "witness": None}
        if w is not None:
            out["witness"] = {
                # (coefficient, atom exponent vector) for every atom used
                "terms": [[c, list(a.exponents)]
                          for c, a in zip(w.vector, atoms.atoms) if c],
                "sequence": list(w.sequence.exponents),
                "lengths": list(w.lengths),
            }
        return out
    if op == "lengths":
        return {"lengths": list(result.values)}
    raise ValueError(f"unknown operation {op!r}")


# -- what the traced run wraps ------------------------------------------------------

def _insert_before(args):
    rows = args[0]
    return len(rows), set(map(id, rows))


def _insert_after(args, result, state):
    """(basis grew, largest |entry| among the rows this insert wrote)."""
    rows = args[0]
    n_before, ids_before = state
    largest = 0
    for row in rows:
        if id(row) not in ids_before and row:
            largest = max(largest, max(map(abs, row)))
    return (len(rows) > n_before, largest)


def _atoms_after(args, result, state):
    """(atoms found, enumeration_bound of the support)."""
    return (len(result), module("atoms").enumeration_bound(args[0]))


def _sweep_after(args, result, state):
    return (result.counters["subsets_computed"], result.counters["subsets_pruned"])


def _lengths_after(args, result, state):
    return (len(result),)


# (module, attribute or Class.method, span name, before hook, after hook).
# A hook's return value is stored with the span; hooks run outside the span's
# own interval and are excluded from the parent's self time.
SPANS = (
    ("atoms", "enumerate_atoms", "atoms.enumerate_atoms", None, _atoms_after),
    ("groups", "FiniteAbelianGroup.subgroup_closure", "groups.subgroup_closure",
     None, None),
    ("kernel", "echelon_insert", "kernel.echelon_insert",
     _insert_before, _insert_after),
    ("kernel", "lattice_tail_generator", "kernel.lattice_tail_generator",
     None, None),
    ("kernel", "integer_kernel", "kernel.integer_kernel", None, None),
    ("kernel", "min_delta", "kernel.min_delta", None, None),
    ("kernel", "min_delta_witness", "kernel.min_delta_witness", None, None),
    ("sweep", "delta_star", "sweep.delta_star", None, _sweep_after),
    ("sweep", "_extremal_report", "sweep.extremal_report", None, None),
    ("classify", "classify", "classify.classify", None, None),
    ("classify", "is_decomposable", "classify.is_decomposable", None, None),
    ("classify", "is_simple", "classify.is_simple", None, None),
    ("lengths", "length_set", "lengths.length_set", None, _lengths_after),
)

# (module, Class.method, counter name): counted, not timed; each call is
# charged to the innermost open span.
COUNTS = (
    ("groups", "FiniteAbelianGroup.add", "add"),
    ("groups", "FiniteAbelianGroup.neg", "neg"),
)


def resolve(module_name: str, path: str):
    """(owner object, attribute name) for "func" or "Class.method"."""
    owner = module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
