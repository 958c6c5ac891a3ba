"""Parsing of group, subset, and sequence spec strings used by the CLI.

Grammar:
    Group    := Cyc ('x' Cyc)*          Cyc   := 'C' INT ('^' INT)?
    Subset   := Elem (';' Elem)*        Elem  := '(' INT (',' INT)* ')'
    Sequence := Term ('*' Term)*        Term  := Elem ('^' INT)?

Whitespace is allowed between tokens.  Errors carry the offending position
and the expected token.
"""
from __future__ import annotations

import sys

from .config import MAX_GROUP_COMPONENTS
from .errors import ContractError, ParseError
from .groups import Element, FiniteAbelianGroup
from .sequences import SequenceVec, SupportSet


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, char: str):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == char:
            self.pos += 1
            return
        raise ParseError(self.text, self.pos, f"{char!r}")

    def take(self, char: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == char:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError(self.text, start, "an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            # longer than the interpreter's limit on int-from-string digits
            raise ParseError(
                self.text, start,
                f"an integer of at most {sys.get_int_max_str_digits()} digits"
            ) from None

    def end(self):
        if not self.done():
            raise ParseError(self.text, self.pos, "end of input")


def parse_group(text: str) -> FiniteAbelianGroup:
    sc = _Scanner(text)
    orders: list[int] = []
    while True:
        sc.skip_ws()
        pos = sc.pos
        if not sc.take("C"):
            raise ParseError(text, pos, "'C'")
        n = sc.integer()
        if n < 2:
            raise ParseError(text, pos, "a cyclic order >= 2")
        count = 1
        if sc.take("^"):
            pos = sc.pos
            count = sc.integer()
            if count < 1:
                raise ParseError(text, pos, "an exponent >= 1")
        if len(orders) + count > MAX_GROUP_COMPONENTS:
            raise ParseError(text, pos, f"at most {MAX_GROUP_COMPONENTS} "
                                        f"cyclic components in all")
        orders.extend([n] * count)
        if not sc.take("x"):
            break
    sc.end()
    return FiniteAbelianGroup(tuple(orders))


def _parse_element(sc: _Scanner, group: FiniteAbelianGroup) -> Element:
    sc.expect("(")
    coords = [sc.integer()]
    while sc.take(","):
        coords.append(sc.integer())
    sc.expect(")")
    if len(coords) != len(group.orders):
        raise ParseError(sc.text, sc.pos,
                         f"{len(group.orders)} coordinates, got {len(coords)}")
    for c, n in zip(coords, group.orders):
        if not 0 <= c < n:
            raise ParseError(sc.text, sc.pos,
                             f"a residue in [0, {n}), got {c}")
    return tuple(coords)


def parse_subset(text: str, group: FiniteAbelianGroup) -> SupportSet:
    sc = _Scanner(text)
    elems = [_parse_element(sc, group)]
    while sc.take(";"):
        elems.append(_parse_element(sc, group))
    sc.end()
    for g in elems:
        if not any(g):
            raise ParseError(text, len(text), "a nonzero element (0 not allowed)")
    if len(set(elems)) != len(elems):
        raise ParseError(text, len(text), "distinct elements (duplicate found)")
    return SupportSet(group, tuple(elems))


def parse_sequence(text: str, support: SupportSet) -> SequenceVec:
    sc = _Scanner(text)
    vec = [0] * len(support)
    while True:
        g = _parse_element(sc, support.group)
        exponent = 1
        if sc.take("^"):
            pos = sc.pos
            exponent = sc.integer()
            if exponent < 1:
                raise ParseError(text, pos, "an exponent >= 1")
        try:
            vec[support.position(g)] += exponent
        except ContractError:
            raise ParseError(text, sc.pos,
                             f"an element of the support set, got {g}")
        if not sc.take("*"):
            break
    sc.end()
    return SequenceVec(support, tuple(vec))


def format_element(g: Element) -> str:
    return "(" + ",".join(str(c) for c in g) + ")"


def format_subset(elements) -> str:
    return ";".join(format_element(g) for g in elements)
