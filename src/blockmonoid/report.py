"""Deterministic text/JSON/CSV rendering of command results.

Field order is fixed by construction order; rationals print as p/q; element
tuples print as (a1,...,ak).  Identical inputs yield byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json

from .classify import ClassificationRecord, TransferReduction
from .errors import ContractError
from .specparse import format_element, format_subset
from .sweep import SweepReport
from .verify import VerifyResult

FORMATS = ("text", "json", "csv")


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit_atoms(atoms, fmt: str) -> str:
    rows = [(a.format(), a.length, str(k))
            for a, k in zip(atoms.atoms, atoms.cross_numbers)]
    if fmt == "json":
        return _json({
            "group": atoms.support.group.spec_string(),
            "subset": [list(g) for g in atoms.support.elements],
            "atom_count": len(atoms),
            "davenport": atoms.davenport_constant() if len(atoms) else 0,
            "cross_number": str(atoms.cross_number()) if len(atoms) else "0",
            "atoms": [{"sequence": r[0], "length": r[1], "cross_number": r[2]}
                      for r in rows],
        })
    if fmt == "csv":
        return _csv(("sequence", "length", "cross_number"), rows)
    lines = [f"atoms over {format_subset(atoms.support.elements)} "
             f"in {atoms.support.group.spec_string()}: {len(atoms)}"]
    for seq, length, k in rows:
        lines.append(f"  {seq}  |.|={length}  k={k}")
    if len(atoms):
        lines.append(f"D(G0) = {atoms.davenport_constant()}   "
                     f"K(G0) = {atoms.cross_number()}")
    return "\n".join(lines) + "\n"


def emit_lengths(sequence, lengths, fmt: str) -> str:
    gaps = lengths.delta()
    if fmt == "json":
        return _json({
            "sequence": sequence.format(),
            "lengths": list(lengths.values),
            "delta": list(gaps),
        })
    if fmt == "csv":
        return _csv(("sequence", "lengths", "delta"),
                    [(sequence.format(),
                      " ".join(map(str, lengths.values)),
                      " ".join(map(str, gaps)))])
    return (f"L({sequence.format()}) = {{{', '.join(map(str, lengths.values))}}}\n"
            f"Delta(L) = {{{', '.join(map(str, gaps))}}}\n")


def emit_min_delta(support, d, kernel_rank, half_factorial, witness, fmt: str) -> str:
    payload = {
        "group": support.group.spec_string(),
        "subset": [list(g) for g in support.elements],
        "min_delta": d,
        "half_factorial": half_factorial,
        "kernel_rank": kernel_rank,
    }
    if witness is not None:
        payload["witness"] = {
            "kernel_vector": list(witness.vector),
            "sequence": witness.sequence.format(),
            "lengths": list(witness.lengths),
        }
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        return _csv(("subset", "min_delta", "half_factorial", "kernel_rank"),
                    [(format_subset(support.elements), d, half_factorial,
                      kernel_rank)])
    lines = [f"min Delta = {d}   half-factorial: {half_factorial}   "
             f"kernel rank: {kernel_rank}"]
    if witness is not None:
        lines.append(f"witness z = {list(witness.vector)}")
        lines.append(f"  {witness.sequence.format()} factors with lengths "
                     f"{witness.lengths[0]} and {witness.lengths[1]}")
    return "\n".join(lines) + "\n"


def emit_distances(support, max_len, distances, fmt: str) -> str:
    if fmt == "json":
        return _json({
            "group": support.group.spec_string(),
            "subset": [list(g) for g in support.elements],
            "max_len": max_len,
            "distances": list(distances),
        })
    if fmt == "csv":
        return _csv(("max_len", "distances"),
                    [(max_len, " ".join(map(str, distances)))])
    body = ", ".join(map(str, distances)) if distances else ""
    return f"observed distances up to |B| <= {max_len}: {{{body}}}\n"


def _classification_payload(record: ClassificationRecord) -> dict:
    return {
        "subset": [list(g) for g in record.subset],
        "half_factorial": record.half_factorial,
        "lcn": record.lcn,
        "minimal_non_hf": record.minimal_non_hf,
        "decomposable": record.decomposable,
        "simple": record.simple,
        "min_delta": record.min_delta,
        "davenport": record.davenport,
        "cross_number": str(record.max_cross_number),
        "atom_count": record.atom_count,
    }


def emit_classify(record: ClassificationRecord, fmt: str) -> str:
    payload = _classification_payload(record)
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        keys = list(payload)
        row = [format_subset(record.subset) if k == "subset" else payload[k]
               for k in keys]
        return _csv(keys, [row])
    flags = [name for name in ("half_factorial", "lcn", "minimal_non_hf",
                               "decomposable", "simple") if payload[name]]
    return (f"subset {format_subset(record.subset)}\n"
            f"  flags: {', '.join(flags) if flags else '(none)'}\n"
            f"  min Delta = {record.min_delta}   D = {record.davenport}   "
            f"K = {record.max_cross_number}   "
            f"atoms = {record.atom_count}\n")


def _extremal_payload(ex) -> dict:
    return {
        "subset": [list(g) for g in ex.subset],
        "flags": {
            "min_delta": ex.min_delta,
            "lcn": ex.lcn,
            "pm_pair_full_order": ex.pm_pair_full_order,
            "size_is_rank_plus_one": ex.size_is_rank_plus_one,
            "no_two_element_span_gap": ex.no_two_element_span_gap,
            "has_independent_complement": ex.has_independent_complement,
            "unit_atoms_support_bound": ex.unit_atoms_support_bound,
            "heavy_atoms_complement_atom": ex.heavy_atoms_complement_atom,
        },
    }


def emit_sweep(report: SweepReport, fmt: str) -> str:
    if fmt == "json":
        return _json({
            "group": report.group.spec_string(),
            "delta_star": list(report.delta_star),
            "max_delta_star": report.max_delta_star,
            "m_of_g": report.m_of_g,
            "extremal": [_extremal_payload(ex) for ex in report.extremal],
            "counters": dict(report.counters),
        })
    if fmt == "csv":
        # without its records a sweep would print a bare header, which reads
        # as a table of no subsets
        if len(report.records) != report.counters["subsets_computed"]:
            raise ContractError(
                f"the sweep of {report.group.spec_string()} kept no per-subset "
                f"records; sweep with records=True to print them as CSV")
        rows = [(format_subset(report.subset_elements(rec.mask)),
                 rec.min_delta, rec.half_factorial, rec.lcn, rec.minimal_non_hf)
                for rec in report.records]
        return _csv(("subset", "min_delta", "half_factorial", "lcn",
                     "minimal_non_hf"), rows)
    lines = [
        f"group {report.group.spec_string()}",
        f"  delta* = {{{', '.join(map(str, report.delta_star))}}}",
        f"  max delta* = {report.max_delta_star}   m(G) = {report.m_of_g}",
        f"  counters: {report.counters}",
    ]
    for ex in report.extremal:
        flags = _extremal_payload(ex)["flags"]
        lines.append(f"  extremal {format_subset(ex.subset)}: {flags}")
    return "\n".join(lines) + "\n"


def emit_sweep_table(reports, fmt: str) -> str:
    """One summary row per swept group."""
    rows = [(r.group.spec_string(), r.group.exponent, r.group.rank,
             r.max_delta_star, r.m_of_g, len(r.extremal), r.delta_star)
            for r in reports]
    if fmt == "json":
        return _json({"groups": [
            {"group": g, "exponent": e, "rank": rk, "max_delta_star": mx,
             "m_of_g": m, "extremal_count": x, "delta_star": list(ds)}
            for g, e, rk, mx, m, x, ds in rows]})
    if fmt == "csv":
        return _csv(("group", "exponent", "rank", "max_delta_star", "m_of_g",
                     "extremal_count", "delta_star"),
                    [(*row[:-1], " ".join(map(str, row[-1]))) for row in rows])
    header = (f"{'group':<12} {'exp':>3} {'rank':>4} {'max d*':>6} "
              f"{'m(G)':>4} {'#extremal':>9} delta*")
    lines = [header, "-" * len(header)]
    for g, e, rk, mx, m, x, ds in rows:
        lines.append(f"{g:<12} {e:>3} {rk:>4} {mx:>6} {m:>4} {x:>9} "
                     f"{{{','.join(map(str, ds))}}}")
    return "\n".join(lines) + "\n"


def emit_transfer(reduction: TransferReduction, probes, fmt: str) -> str:
    steps = [{"element": list(s.element), "multiple": s.multiple,
              "replacement": list(s.replacement)} for s in reduction.steps]
    if fmt == "json":
        return _json({
            "original": [list(g) for g in reduction.original.elements],
            "reduced": [list(g) for g in reduction.reduced.elements],
            "steps": steps,
            "random_probes": probes,
        })
    if fmt == "csv":
        return _csv(("original", "reduced", "steps", "random_probes"),
                    [(format_subset(reduction.original.elements),
                      format_subset(reduction.reduced.elements),
                      len(steps), probes)])
    lines = [f"original: {format_subset(reduction.original.elements)}",
             f"reduced:  {format_subset(reduction.reduced.elements)}"]
    if reduction.steps:
        for s in reduction.steps:
            lines.append(f"  replace {format_element(s.element)} by "
                         f"{s.multiple}*g = {format_element(s.replacement)}")
    else:
        lines.append("  identity (every element already lies in the span "
                     "of the others)")
    if probes:
        lines.append(f"cross numbers preserved on {probes} random sequences")
    return "\n".join(lines) + "\n"


def emit_verify(result: VerifyResult, fmt: str) -> str:
    if fmt == "json":
        return _json({
            "verify": result.name,
            "ok": result.ok,
            "checks": result.lines,
            "data": result.data,
        })
    if fmt == "csv":
        return _csv(("check",), [(line,) for line in result.lines])
    lines = list(result.lines)
    lines.append(f"verify {result.name}: {'OK' if result.ok else 'FAILED'}")
    return "\n".join(lines) + "\n"
