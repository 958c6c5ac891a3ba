"""Spans around the calls into each layer, recorded from the benchmark's side.

`Tracer.install` replaces every package-module attribute that *is* one of the
functions listed in `adapter.SPANS` with a timing wrapper, and the listed
methods on their classes. It does the same with counting wrappers for
`adapter.COUNTS`. Spans stay in memory; `write` stores them once, at the end.
Self times are computed from the finished spans by `pass_totals`.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

import adapter

# span record fields
ID, PARENT, NAME, START, END, EXCLUDED, EXTRA, COUNT0 = range(8)
COUNTER_NAMES = tuple(name for _, _, name in adapter.COUNTS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _record(self, name: str, parent) -> list:
        rec = [len(self.spans), parent, name, 0.0, 0.0, 0.0, None] + [0] * len(COUNTER_NAMES)
        self.spans.append(rec)
        return rec

    def open(self, name: str, extra=None) -> list:
        """Open a span by hand: the benchmark's span around one operation.

        Package calls are traced only while such a span is open."""
        parent = self.stack[-1][ID] if self.stack else None
        rec = self._record(name, parent)
        rec[EXTRA] = extra
        self.stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        popped = self.stack.pop()
        assert popped is rec, "spans closed out of order"

    # -- patching -------------------------------------------------------------------

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attr = adapter.resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in adapter.package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        for module_name, path, name, before, after in adapter.SPANS:
            self._patch(module_name, path,
                        lambda fn, n=name, b=before, a=after: self._span_wrapper(n, fn, b, a))
        for slot, (module_name, path, _) in enumerate(adapter.COUNTS, COUNT0):
            self._patch(module_name, path, lambda fn, s=slot: self._count_wrapper(s, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span_wrapper(self, name, fn, before, after):
        stack = self.stack
        record = self._record
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            state = before(args) if before is not None else None
            parent = stack[-1]
            rec = record(name, parent[ID])
            stack.append(rec)
            rec[START] = t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = t2 = clock()
                stack.pop()
            if after is not None:
                rec[EXTRA] = after(args, result, state)
            # hook and bookkeeping time is not the parent's own work
            parent[EXCLUDED] += (t1 - t0) + (clock() - t2)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, slot, fn):
        stack = self.stack

        def wrapper(*args):
            stack[-1][slot] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """All spans as gzip JSON lines: a header, then one span per line with
        times in microseconds from the first span's start."""
        origin = self.spans[0][START]
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(dict(header, fields=[
                "id", "parent", "name", "start_us", "end_us", *COUNTER_NAMES, "extra"])) + "\n")
            for rec in self.spans:
                out.write(json.dumps([
                    rec[ID], rec[PARENT], rec[NAME],
                    round((rec[START] - origin) * 1e6, 1), round((rec[END] - origin) * 1e6, 1),
                    *rec[COUNT0:], rec[EXTRA]]) + "\n")


# Layer of each span name; "bench" is the benchmark's own operation span.
def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


LAYERS = ("atoms", "groups", "kernel", "sweep", "classify", "lengths")


def pass_totals(spans: list[list]) -> dict:
    """Additive per-layer totals of one traced pass, from its finished spans;
    `per_layer` combines them over passes.

    A span's self time is its duration minus its children's durations and
    minus the tracing hooks' time charged to it.
    """
    child_time = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    by_id = {rec[ID]: rec for rec in spans}

    total = defaultdict(float)     # inclusive seconds per span name
    self_time = defaultdict(float)  # self seconds per span name
    calls = defaultdict(int)
    counts = defaultdict(int)      # (span name, counter) -> calls charged
    for rec in spans:
        name = rec[NAME]
        dur = rec[END] - rec[START]
        total[name] += dur
        self_time[name] += dur - child_time[rec[ID]] - rec[EXCLUDED]
        calls[name] += 1
        for offset, counter in enumerate(COUNTER_NAMES):
            counts[name, counter] += rec[COUNT0 + offset]

    def extras(name):
        return [rec[EXTRA] for rec in spans if rec[NAME] == name and rec[EXTRA] is not None]

    def under(rec, ancestor: str) -> bool:
        while rec[PARENT] is not None:
            rec = by_id[rec[PARENT]]
            if rec[NAME] == ancestor:
                return True
        return False

    atoms = extras("atoms.enumerate_atoms")
    inserts = extras("kernel.echelon_insert")
    sweeps = extras("sweep.delta_star")
    found = sum(a[0] for a in atoms)
    frames = counts["atoms.enumerate_atoms", "neg"]
    computed = sum(s[0] for s in sweeps)
    pruned = sum(s[1] for s in sweeps)
    sweep_inserts = sum(1 for rec in spans
                        if rec[NAME] == "kernel.echelon_insert" and under(rec, "sweep.delta_star"))

    raw = {
        "atoms.enumerate_s": total["atoms.enumerate_atoms"],
        "atoms.calls": calls["atoms.enumerate_atoms"],
        "atoms.found": found,
        "atoms.grid_bound": sum(a[1] for a in atoms),
        "atoms.frames": frames,
        "groups.add_calls": sum(v for (n, c), v in counts.items() if c == "add"),
        "groups.neg_calls": sum(v for (n, c), v in counts.items() if c == "neg"),
        "groups.closure_calls": calls["groups.subgroup_closure"],
        "groups.closure_s": total["groups.subgroup_closure"],
        "kernel.insert_s": total["kernel.echelon_insert"],
        "kernel.inserts": calls["kernel.echelon_insert"],
        "kernel.readout_s": total["kernel.lattice_tail_generator"],
        "kernel.readouts": calls["kernel.lattice_tail_generator"],
        "kernel.integer_kernel_s": total["kernel.integer_kernel"],
        "kernel.integer_kernel_calls": calls["kernel.integer_kernel"],
        "kernel.witness_s": total["kernel.min_delta_witness"],
        "kernel.min_delta_s": total["kernel.min_delta"],
        "sweep.delta_star_s": total["sweep.delta_star"],
        "sweep.self_s": self_time["sweep.delta_star"],
        "sweep.extremal_s": total["sweep.extremal_report"],
        "sweep.extremal_reports": calls["sweep.extremal_report"],
        "sweep.subsets_computed": computed,
        "sweep.subsets_pruned": pruned,
        "classify.classify_s": total["classify.classify"],
        "classify.decomposable_s": total["classify.is_decomposable"],
        "classify.simple_s": total["classify.is_simple"],
        "classify.self_s": self_time["classify.classify"],
        "lengths.length_set_s": total["lengths.length_set"],
        "lengths.calls": calls["lengths.length_set"],
        "lengths.values": sum(e[0] for e in extras("lengths.length_set")),
    }
    layer_self = defaultdict(float)
    for name, value in self_time.items():
        layer_self[layer_of(name)] += value
    # "_" keys feed ratios and maxima; the others become per-pass means
    raw.update({f"_self.{layer}": layer_self[layer] for layer in LAYERS})
    raw["_growth_inserts"] = sum(1 for e in inserts if e[0])
    raw["_sweep_inserts"] = sweep_inserts
    raw["_max_abs_entry"] = max((e[1] for e in inserts), default=0)
    return raw


def per_layer(totals: list[dict], traced_wall: float) -> dict:
    """Per-layer metrics per traced pass, from each pass's `pass_totals`;
    `traced_wall` is the traced operation time of all those passes."""
    n = len(totals)
    t = {key: sum(p[key] for p in totals) for key in totals[0]}
    out = {key: value / n for key, value in t.items() if not key.startswith("_")}
    frames, inserts = t["atoms.frames"], t["kernel.inserts"]
    computed, pruned = t["sweep.subsets_computed"], t["sweep.subsets_pruned"]
    out.update({
        "atoms.yield": t["atoms.found"] / frames if frames else 0.0,
        "kernel.basis_growth_share": t["_growth_inserts"] / inserts if inserts else 0.0,
        # as a float: on `queries` it outgrows 64-bit integers
        "kernel.max_abs_entry": float(max(p["_max_abs_entry"] for p in totals)),
        "sweep.computed_share": computed / (computed + pruned) if computed + pruned else 0.0,
        "sweep.inserts_per_computed": t["_sweep_inserts"] / computed if computed else 0.0,
    })
    for layer in LAYERS:
        out[f"{layer}.self_share"] = t[f"_self.{layer}"] / traced_wall
    return out

