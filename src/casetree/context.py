"""Typed predicate vocabulary and the context file format.

A context declares the predicates an agent can perceive. Each predicate has
named, sorted parameters plus one "choice" variable whose value is either a
Boolean or a label from a qualitative domain (an expert-defined abstraction
of a numeric range, e.g. distances collapse to close / far / long).

Context file format (XML, UTF-8)::

    <ctx>
      <domain name="distance" values="close,far,long"/>
      <predicate name="hasball">
        <variable name="Y1" type="Agent"/>
        <choice name="Y2" type="Boolean"/>
      </predicate>
      <predicate name="distance">
        <variable name="Z1" type="PhysicalObject"/>
        <variable name="Z2" type="Agent"/>
        <choice name="Z3" type="distance"/>
      </predicate>
    </ctx>

Qualitative domains are declared once per document, either with a ``domain``
element or inline through a ``values`` attribute on the first ``choice`` that
uses them; ``serialize_context`` always emits the ``domain`` form. Because
labels are joined with commas and stripped, and case documents read the
choices ``true`` and ``false`` as Booleans, no domain may be named
``Boolean`` and every label must be non-empty, free of commas and of
surrounding whitespace, and neither ``true`` nor ``false``. Object
sorts are not declared in the file: they come from the built-in catalogue
(see ``football_sorts``), a tree rooted at DomainObject.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping
from xml.sax.saxutils import escape

if TYPE_CHECKING:  # pragma: no cover
    from .cases import Perception


class ContextError(ValueError):
    """Raised for malformed or inconsistent context/case documents.

    ``path`` points at the offending element, e.g. ``ctx/predicate[2]/choice``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{message} (at {path})" if path else message)


@dataclass(frozen=True)
class ValueSort:
    """Type of a choice variable: Boolean, or a named qualitative domain."""

    kind: str  # "boolean" | "qualitative"
    domain: str
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("boolean", "qualitative"):
            raise ValueError(f"unknown value-sort kind {self.kind!r}")
        if self.kind == "qualitative":
            # the document formats cannot carry these (see the module docstring)
            if self.domain == "Boolean":
                raise ValueError("a qualitative domain cannot be named 'Boolean'")
            if not self.labels:
                raise ValueError(f"qualitative domain {self.domain!r} has no labels")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError(f"qualitative domain {self.domain!r} has duplicate labels")
            for label in self.labels:
                if (not label or "," in label or label != label.strip()
                        or label in ("true", "false")):
                    raise ValueError(
                        f"qualitative domain {self.domain!r} has label {label!r}: labels "
                        "must be non-empty, hold no comma, have no surrounding "
                        "whitespace, and not be 'true' or 'false'")

    def accepts(self, value) -> bool:
        if self.kind == "boolean":
            return isinstance(value, bool)
        return isinstance(value, str) and value in self.labels


BOOLEAN = ValueSort("boolean", "Boolean")


def qualitative(domain: str, labels: Iterable[str]) -> ValueSort:
    return ValueSort("qualitative", domain, tuple(labels))


@dataclass(frozen=True)
class ObjectSort:
    """A node of the object-sort tree; ``parent`` is a sort name or None for the root."""

    name: str
    parent: str | None = None


def football_sorts() -> dict[str, ObjectSort]:
    """The built-in sort catalogue.

    Agent sits under PhysicalObject so that predicates ranging over physical
    objects (distance, relativePosition) accept players and the ball alike.
    """
    sorts = [
        ObjectSort("DomainObject"),
        ObjectSort("PhysicalObject", "DomainObject"),
        ObjectSort("Agent", "PhysicalObject"),
        ObjectSort("Ball", "PhysicalObject"),
        ObjectSort("Goal", "PhysicalObject"),
        ObjectSort("Field", "PhysicalObject"),
        ObjectSort("Team", "DomainObject"),
        ObjectSort("Action", "DomainObject"),
    ]
    return {s.name: s for s in sorts}


def conforms(sort: str, expected: str, sorts: Mapping[str, ObjectSort]) -> bool:
    """True when ``sort`` equals ``expected`` or is one of its descendants."""
    cur: str | None = sort
    while cur is not None:
        if cur == expected:
            return True
        entry = sorts.get(cur)
        cur = entry.parent if entry else None
    return False


@dataclass(frozen=True)
class PredicateSchema:
    """Declaration of one perceivable predicate.

    ``params`` is the ordered (variable-name, object-sort) list; ``choice``
    names the variable carrying the perceived value and its type.
    """

    name: str
    params: tuple[tuple[str, str], ...]
    choice_name: str
    choice: ValueSort

    def __post_init__(self):
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"predicate {self.name!r} repeats a parameter name")
        if self.choice_name in names:
            raise ValueError(f"predicate {self.name!r} reuses {self.choice_name!r} for its choice")

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class Context:
    """An immutable predicate vocabulary plus its sort and domain tables.

    Safe to share across any number of concurrent retrieval sessions.
    """

    predicates: dict[str, PredicateSchema]
    domains: dict[str, ValueSort] = field(default_factory=dict)
    sorts: dict[str, ObjectSort] = field(default_factory=football_sorts)

    def schema(self, name: str) -> PredicateSchema:
        return self.predicates[name]

    def __contains__(self, name: str) -> bool:
        return name in self.predicates


@dataclass(frozen=True)
class Violation:
    """Structured validation failure; ``kind`` is one of
    unknown-predicate | arity | sort | value."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def validate_perception(p: "Perception", ctx: Context) -> Violation | None:
    """Check one perception against the context; None means it conforms."""
    schema = ctx.predicates.get(p.name)
    if schema is None:
        return Violation("unknown-predicate", f"predicate {p.name!r} is not declared")
    if len(p.values) != schema.arity:
        return Violation(
            "arity",
            f"{p.name} expects {schema.arity} argument(s), got {len(p.values)}",
        )
    for value, (var, sort_name) in zip(p.values, schema.params):
        value_sort = "Agent" if value.kind in ("me", "generic", "concrete") else value.sort
        if value_sort is None or not conforms(value_sort, sort_name, ctx.sorts):
            return Violation(
                "sort",
                f"{p.name}.{var} expects sort {sort_name}, got {value_sort or 'untyped'} ({value})",
            )
    if not schema.choice.accepts(p.choice):
        expected = "Boolean" if schema.choice.kind == "boolean" else (
            "{" + ", ".join(schema.choice.labels) + "}"
        )
        return Violation("value", f"{p.name} choice {p.choice!r} not in {expected}")
    return None


# ---------------------------------------------------------------------------
# distance quantization

DISTANCE_LABELS = ("close", "far", "long")
CLOSE_MAX = 8.0   # meters; close is [0, CLOSE_MAX)
FAR_MAX = 20.0    # far is [CLOSE_MAX, FAR_MAX], long is (FAR_MAX, inf)


def quantize_distance(meters: float, close_max: float = CLOSE_MAX, far_max: float = FAR_MAX) -> str:
    """Map a metric distance onto the qualitative distance domain.

    Boundary values belong to "far": [0, close_max) -> close,
    [close_max, far_max] -> far, (far_max, inf) -> long.
    """
    if not math.isfinite(meters) or meters < 0:
        raise ValueError(f"distance must be a finite non-negative number, got {meters!r}")
    if meters < close_max:
        return "close"
    if meters <= far_max:
        return "far"
    return "long"


# ---------------------------------------------------------------------------
# parsing / serialization

def _attr(elem: ET.Element, name: str, path: str) -> str:
    value = elem.get(name)
    if value is None:
        raise ContextError(f"missing {name!r} attribute", path)
    return value


def parse_context(document: str, sorts: Mapping[str, ObjectSort] | None = None) -> Context:
    """Parse a context document into a Context.

    Raises ContextError for malformed XML, unknown sort names, duplicate
    predicate names, or undeclared qualitative domains.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ContextError(f"malformed document: {exc}", "ctx") from None
    if root.tag != "ctx":
        raise ContextError(f"expected <ctx> root, found <{root.tag}>", root.tag)

    sort_table = dict(sorts) if sorts is not None else football_sorts()
    domains: dict[str, ValueSort] = {}
    predicates: dict[str, PredicateSchema] = {}
    pred_idx = 0

    for child in root:
        if child.tag == "domain":
            path = f"ctx/domain[{len(domains) + 1}]"
            name = _attr(child, "name", path)
            labels = [v.strip() for v in _attr(child, "values", path).split(",") if v.strip()]
            try:
                domain = qualitative(name, labels)
            except ValueError as exc:
                raise ContextError(str(exc), path) from None
            if name in domains and domains[name] != domain:
                raise ContextError(f"domain {name!r} declared twice with different labels", path)
            domains[name] = domain
        elif child.tag == "predicate":
            pred_idx += 1
            path = f"ctx/predicate[{pred_idx}]"
            name = _attr(child, "name", path)
            if name in predicates:
                raise ContextError(f"duplicate predicate {name!r}", path)
            predicates[name] = _parse_schema(child, name, path, sort_table, domains)
        else:
            raise ContextError(f"unexpected element <{child.tag}>", f"ctx/{child.tag}")

    return Context(predicates=predicates, domains=domains, sorts=sort_table)


def _parse_schema(elem, name, path, sort_table, domains) -> PredicateSchema:
    params: list[tuple[str, str]] = []
    choice: tuple[str, ValueSort] | None = None
    for sub in elem:
        if sub.tag == "variable":
            sub_path = f"{path}/variable[{len(params) + 1}]"
            var = _attr(sub, "name", sub_path)
            sort_name = _attr(sub, "type", sub_path)
            if sort_name not in sort_table:
                raise ContextError(f"unknown sort {sort_name!r}", sub_path)
            params.append((var, sort_name))
        elif sub.tag == "choice":
            sub_path = f"{path}/choice"
            if choice is not None:
                raise ContextError("more than one choice variable", sub_path)
            var = _attr(sub, "name", sub_path)
            type_name = _attr(sub, "type", sub_path)
            if type_name == "Boolean":
                choice = (var, BOOLEAN)
            else:
                values = sub.get("values")
                if values is not None:
                    labels = [v.strip() for v in values.split(",") if v.strip()]
                    try:
                        inline = qualitative(type_name, labels)
                    except ValueError as exc:
                        raise ContextError(str(exc), sub_path) from None
                    if type_name in domains and domains[type_name] != inline:
                        raise ContextError(
                            f"domain {type_name!r} redeclared with different labels", sub_path
                        )
                    domains[type_name] = inline
                if type_name not in domains:
                    raise ContextError(f"unknown qualitative domain {type_name!r}", sub_path)
                choice = (var, domains[type_name])
        else:
            raise ContextError(f"unexpected element <{sub.tag}>", f"{path}/{sub.tag}")
    if choice is None:
        raise ContextError("predicate has no choice variable", path)
    try:
        return PredicateSchema(name, tuple(params), choice[0], choice[1])
    except ValueError as exc:
        raise ContextError(str(exc), path) from None


# characters that XML 1.0 admits nowhere, not even as character references
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def xml_attribute(value: str) -> str:
    """Escape text for a double-quoted XML attribute value.

    Tab, newline and carriage return become character references, because a
    parser normalizes them to spaces when they appear literally. Raises
    ValueError for characters that XML 1.0 forbids.
    """
    bad = _XML_FORBIDDEN.search(value)
    if bad:
        raise ValueError(f"{value!r} holds {bad.group()!r}, which XML 1.0 forbids")
    return escape(value, {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def serialize_context(ctx: Context) -> str:
    """Emit the canonical document form; parse(serialize(ctx)) == ctx."""
    q = xml_attribute
    lines = ["<ctx>"]
    for domain in ctx.domains.values():
        lines.append(f'  <domain name="{q(domain.domain)}" values="{q(",".join(domain.labels))}"/>')
    for schema in ctx.predicates.values():
        lines.append(f'  <predicate name="{q(schema.name)}">')
        for var, sort_name in schema.params:
            lines.append(f'    <variable name="{q(var)}" type="{q(sort_name)}"/>')
        type_name = "Boolean" if schema.choice.kind == "boolean" else schema.choice.domain
        lines.append(f'    <choice name="{q(schema.choice_name)}" type="{q(type_name)}"/>')
        lines.append("  </predicate>")
    lines.append("</ctx>")
    return "\n".join(lines) + "\n"


def football_context() -> Context:
    """The full football predicate catalogue used by the toy world."""
    domains = {
        "distance": qualitative("distance", DISTANCE_LABELS),
        "direction": qualitative("direction", ("left", "right", "front", "back")),
        "ratio": qualitative("ratio", ("outnumbered", "even", "outnumbering")),
    }
    po, ag = "PhysicalObject", "Agent"
    specs = [
        ("distance", (("O1", po), ("O2", po)), "D", domains["distance"]),
        ("relativePosition", (("O1", po), ("O2", po)), "O", domains["direction"]),
        ("orientation", (("O1", po),), "O", domains["direction"]),
        ("hasBall", (("P1", ag),), "V", BOOLEAN),
        ("isMarked", (("P1", ag),), "V", BOOLEAN),
        ("markedBy", (("P1", ag), ("P2", ag)), "V", BOOLEAN),
        ("callForBall", (("P1", ag),), "V", BOOLEAN),
        ("callForSupport", (("P1", ag),), "V", BOOLEAN),
        ("partner", (("P1", ag),), "V", BOOLEAN),
        ("isInAttack", (("P1", ag),), "V", BOOLEAN),
        ("ratio", (("DO1", "Team"),), "N", domains["ratio"]),
        ("lastAction", (("DO1", "Action"),), "B", BOOLEAN),
    ]
    predicates = {
        name: PredicateSchema(name, params, cname, csort)
        for name, params, cname, csort in specs
    }
    return Context(predicates=predicates, domains=domains)


#: Expert priority order for the football catalogue, most decisive first.
FOOTBALL_PRIORITY = (
    "hasBall",
    "isMarked",
    "markedBy",
    "partner",
    "callForBall",
    "callForSupport",
    "isInAttack",
    "ratio",
    "lastAction",
    "distance",
    "relativePosition",
    "orientation",
)
