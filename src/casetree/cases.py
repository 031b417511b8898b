"""Cases and the generic-agent substitution machinery.

A perception is one instantiated predicate with its observed choice value.
Source cases are *generic*: their agent arguments are placeholder labels
(plus the distinguished decision maker ``me``, which is never generalized),
so one stored case covers every concrete situation with the same structure.
Target cases come from the live world and contain only ``me`` and concrete
agent instances.

Case file format (XML, UTF-8)::

    <caseBase>
      <priority>hasball,partner,distance</priority>
      <case id="case1" action="pass">
        <predicate name="hasball" weight="0.3">
          <value val="me" type="Me"/>
          <choice val="false"/>
        </predicate>
        <predicate name="distance" weight="0.45">
          <value val="ball" type="Ball"/>
          <value val="A" type="GenericAgent"/>
          <choice val="long"/>
        </predicate>
      </case>
    </caseBase>

Weights use a decimal point. ``value`` types are Me, GenericAgent, or a
constant object sort (Ball, Team, ...). The optional ``action`` attribute
carries the decision attached to the case.

Unification has one matcher and one binding search. ``TargetCase.completions``
lists every way a perception pattern can be bound so that it occurs in the
target. ``_search_bindings``, behind ``unify`` and ``similarity.scored_unify``,
finds a case's best injective binding by a bounded depth-first search over
those completions: it is exact at every agent count and can be interrupted at
every search node. ``retrieval.scan_tree`` folds the same completions along
every tree branch.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cache, cached_property
from xml.sax.saxutils import escape

from .context import Context, ContextError, Violation, validate_perception, xml_attribute


@dataclass(frozen=True)
class Value:
    """One argument of a perception.

    ``kind`` is me | generic | concrete | const. The declared sort is kept
    for validation but ignored by equality: ``ball`` is the same object no
    matter how a document typed it.
    """

    kind: str
    name: str
    sort: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("me", "generic", "concrete", "const"):
            raise ValueError(f"unknown value kind {self.kind!r}")

    def __str__(self) -> str:
        return f"?{self.name}" if self.kind == "generic" else self.name


ME = Value("me", "me")


def generic(label: str) -> Value:
    return Value("generic", label)


def concrete(instance_id: str) -> Value:
    return Value("concrete", instance_id)


def const(name: str, sort: str) -> Value:
    return Value("const", name, sort)


@dataclass(frozen=True)
class Perception:
    """One (predicate, arguments, choice value) triple."""

    name: str
    values: tuple[Value, ...]
    choice: bool | str

    def __str__(self) -> str:
        args = ",".join(str(v) for v in self.values)
        return f"{self.name}({args})={self.choice}"

    @property
    def generic_labels(self) -> tuple[str, ...]:
        seen = []
        for v in self.values:
            if v.kind == "generic" and v.name not in seen:
                seen.append(v.name)
        return tuple(seen)


class CaseError(ValueError):
    """Raised for invalid case structure or case documents."""


@dataclass(frozen=True)
class GenericCase:
    """A stored source case: perceptions, per-perception relevance weights,
    and the action it recommends."""

    id: str
    perceptions: tuple[Perception, ...]
    weights: tuple[float, ...]
    action: str = "none"

    def __post_init__(self):
        if len(self.perceptions) != len(self.weights):
            raise CaseError(f"case {self.id}: {len(self.weights)} weights for "
                            f"{len(self.perceptions)} perceptions")
        if any(w < 0 for w in self.weights):
            raise CaseError(f"case {self.id}: negative weight")
        if sum(self.weights) <= 0:
            raise CaseError(f"case {self.id}: total weight must be positive")
        if len(set(self.perceptions)) != len(self.perceptions):
            raise CaseError(f"case {self.id}: duplicate perception")
        for p in self.perceptions:
            for v in p.values:
                if v.kind == "concrete":
                    raise CaseError(f"case {self.id}: concrete agent {v.name} in generic case")

    @property
    def total_weight(self) -> float:
        return sum(self.weights)

    @property
    def generic_labels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for p in self.perceptions:
            for label in p.generic_labels:
                if label not in seen:
                    seen.append(label)
        return tuple(seen)


@dataclass(frozen=True)
class TargetCase:
    """The current situation: perceptions over ``me`` and concrete agents only."""

    perceptions: tuple[Perception, ...]
    origin: str = ""

    def __post_init__(self):
        for p in self.perceptions:
            for v in p.values:
                if v.kind == "generic":
                    raise CaseError(f"target from {self.origin or '?'}: generic agent ?{v.name}")

    @property
    def perception_set(self) -> frozenset[Perception]:
        return frozenset(self.perceptions)

    @cached_property
    def _by_test(self) -> dict[tuple[str, bool | str], list[Perception]]:
        index: dict[tuple[str, bool | str], list[Perception]] = {}
        for p in self.perceptions:
            index.setdefault((p.name, p.choice), []).append(p)
        return index

    def completions(self, name: str, values: tuple[Value, ...],
                    desired: bool | str) -> list[dict[str, str]]:
        """Every way to fill the generic labels of the pattern ``name(values)``
        so that the instantiated perception occurs here with the desired
        choice value: one binding dict per way, in sorted order, each holding
        its labels in sorted order. A fully ground pattern yields ``[{}]`` on
        success and ``[]`` on failure."""
        out: set[tuple[tuple[str, str], ...]] = set()
        for entry in self._by_test.get((name, desired), ()):
            if len(entry.values) != len(values):
                continue
            binding: dict[str, str] = {}
            for pv, tv in zip(values, entry.values):
                if pv.kind == "generic":
                    if tv.kind != "concrete" or binding.get(pv.name, tv.name) != tv.name:
                        break
                    binding[pv.name] = tv.name
                elif pv != tv:
                    break
            else:
                out.add(tuple(sorted(binding.items())))
        return [dict(pairs) for pairs in sorted(out)]

    def __len__(self) -> int:
        return len(self.perceptions)


@dataclass(frozen=True, order=True)
class Substitution:
    """An injective map from generic labels to concrete instance ids,
    stored as sorted (label, id) pairs so substitutions order lexicographically."""

    pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        ids = [i for _, i in self.pairs]
        labels = [l for l, _ in self.pairs]
        if len(set(ids)) != len(ids) or len(set(labels)) != len(labels):
            raise CaseError(f"substitution not injective: {self.pairs}")
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @classmethod
    def of(cls, mapping: dict[str, str]) -> "Substitution":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __str__(self) -> str:
        return ";".join(f"{l}->{i}" for l, i in self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


EMPTY_SUBSTITUTION = Substitution()


# ---------------------------------------------------------------------------
# unification

def _search_bindings(source: GenericCase, target: TargetCase, objective, interrupted=None):
    """Maximize ``objective(weight_sum, n_matched)`` over injective bindings.

    A bounded depth-first search decides the generic labels in sorted order.
    A node first offers its binding as a candidate, unless its parent already
    did, then binds the next label to each id it can still take, in ascending
    order, and last leaves the label unbound. Candidates therefore come in the
    lexicographic order of their (label, id) pairs, so a node is cut as soon
    as its bound cannot beat the incumbent, and the least binding among the
    optima still wins, as in ``retrieval.scan_tree``. A candidate counts only
    when each label it binds occurs in a perception it matches: it is then
    the restricted substitution, matching every perception it can.

    Each undecided perception keeps as its domain the completions that agree
    with the labels decided so far and give no other label a bound id
    (forward checking); a node's bound adds every one whose domain is not
    empty to the matched perceptions. Weights are summed in ascending perception order, for
    candidates and bounds alike, so rounding cannot put a bound below a
    candidate under it; ``objective`` must not decrease in either argument.
    Returns (best_value, Substitution, frozenset of matched indices), or None
    as soon as ``interrupted()`` holds at a node.
    """
    weights = source.weights
    labels = sorted(source.generic_labels)
    rank = {label: r for r, label in enumerate(labels)}
    matched = 0  # bitmask of the matched perceptions
    # per undecided perception: its bit, the ranks of its labels in ascending
    # order, the position of its next undecided label, its domain as rows of
    # ids in the same order, and the bitmask of its label ranks
    live = []
    for i, p in enumerate(source.perceptions):
        own = sorted(rank[label] for label in p.generic_labels)
        # completions hold their labels in sorted order, which is rank order;
        # those that bind one id to two labels are dropped
        rows = [tuple(c.values()) for c in target.completions(p.name, p.values, p.choice)]
        domain = rows if len(own) < 2 else [row for row in rows if len(set(row)) == len(row)]
        if domain and not own:
            matched |= 1 << i
        elif domain:
            live.append((1 << i, own, 0, domain, sum(1 << r for r in own)))

    @cache
    def value(mask: int) -> float:
        w, indices = 0.0, [i for i in range(len(weights)) if mask >> i & 1]
        for i in indices:
            w += weights[i]
        return objective(w, len(indices))

    best = value(matched), (), matched
    # nodes still to visit, the next one last: (rank of the next label to
    # decide, binding so far, bitmasks of the label ranks it binds and of those
    # its matched perceptions use, matched perceptions, undecided perceptions,
    # whether the binding is a new candidate)
    stack = [(0, (), 0, 0, matched, live, False)]
    while stack:
        if interrupted is not None and interrupted():
            return None
        r, pairs, held, covered, matched, live, offer = stack.pop()
        if offer and covered == held and value(matched) > best[0]:
            best = value(matched), pairs, matched
        bound, reach = matched, covered
        for bit, _, _, _, ranks in live:
            bound, reach = bound | bit, reach | ranks
        # cut, and also when a bound label is in no perception that matches or
        # still can: no candidate below is then a restricted substitution
        if r == len(labels) or value(bound) <= best[0] or held & ~reach:
            continue
        stack.append((r + 1, pairs, held, covered, matched,
                      [e for e in live if e[1][e[2]] != r], False))
        ids = {row[k] for _, own, k, domain, _ in live if own[k] == r for row in domain}
        for cid in sorted(ids, reverse=True):
            grown, now_covered, now_matched = [], covered, matched
            for bit, own, k, domain, ranks in live:
                if own[k] == r:
                    domain, k = [row for row in domain if row[k] == cid], k + 1
                else:
                    domain = [row for row in domain if cid not in row]
                if domain and k < len(own):
                    grown.append((bit, own, k, domain, ranks))
                elif domain:
                    now_covered, now_matched = now_covered | ranks, now_matched | bit
            stack.append((r + 1, pairs + ((labels[r], cid),), held | 1 << r, now_covered,
                          now_matched, grown, True))
    best_value, pairs, matched = best
    return best_value, Substitution(pairs), frozenset(i for i in range(len(weights))
                                                       if matched >> i & 1)


def unify(source: GenericCase, target: TargetCase) -> tuple[Substitution, frozenset[int]]:
    """Find the injective substitution maximizing the matched weight sum.

    Returns the substitution (restricted to labels the matched perceptions
    use) and the matched indices into ``source.perceptions``. Both are empty
    when nothing matches.
    """
    _, sub, matched = _search_bindings(source, target, lambda w, n: w)
    return sub, matched


# ---------------------------------------------------------------------------
# acquisition

GENERIC_LABEL_POOL = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
DEFAULT_WEIGHT = 1.0


def generalize(target: TargetCase, action: str, case_id: str = "acquired",
               default_weight: float = DEFAULT_WEIGHT) -> GenericCase:
    """Abstract a concrete situation into a generic case.

    Every distinct concrete agent becomes a fresh generic label (in order of
    first appearance); ``me`` is preserved; every perception receives the
    default relevance weight, to be refined by experts later.
    """
    labels: dict[str, str] = {}

    def fresh(cid: str) -> str:
        if cid not in labels:
            n = len(labels)
            if n < len(GENERIC_LABEL_POOL):
                labels[cid] = GENERIC_LABEL_POOL[n]
            else:
                labels[cid] = f"G{n}"
        return labels[cid]

    perceptions = []
    for p in target.perceptions:
        values = tuple(
            generic(fresh(v.name)) if v.kind == "concrete" else v for v in p.values
        )
        perceptions.append(Perception(p.name, values, p.choice))
    return GenericCase(
        id=case_id,
        perceptions=tuple(perceptions),
        weights=(default_weight,) * len(perceptions),
        action=action,
    )


def case_equivalent(a: GenericCase, b: GenericCase) -> bool:
    """True when some bijection of generic labels makes the perception sets
    identical. Weights and actions are ignored."""
    if len(a.perceptions) != len(b.perceptions):
        return False
    if len(a.generic_labels) != len(b.generic_labels):
        return False

    b_set = set(b.perceptions)
    if not a.generic_labels:
        return set(a.perceptions) == b_set

    def skeleton(p: Perception):
        return (p.name, p.choice, tuple(v if v.kind != "generic" else "?" for v in p.values))

    by_skel: dict = {}
    for q in b.perceptions:
        by_skel.setdefault(skeleton(q), []).append(q)

    generic_ps = [p for p in a.perceptions if p.generic_labels]
    if any(p not in b_set for p in a.perceptions if not p.generic_labels):
        return False

    def renames_onto(mapping: dict[str, str]) -> bool:
        renamed = set()
        for p in a.perceptions:
            values = tuple(
                Value("generic", mapping[v.name]) if v.kind == "generic" else v
                for v in p.values
            )
            renamed.add(Perception(p.name, values, p.choice))
        return renamed == b_set

    def extend(trial: dict[str, str], used: set[str], p: Perception, q: Perception):
        """Grow the label bijection so that renaming p gives q; None on clash."""
        out, out_used = dict(trial), set(used)
        for pv, qv in zip(p.values, q.values):
            if pv.kind != "generic":
                if pv != qv:
                    return None
                continue
            want = out.get(pv.name)
            if want is None:
                if qv.name in out_used:
                    return None
                out[pv.name] = qv.name
                out_used.add(qv.name)
            elif want != qv.name:
                return None
        return out, out_used

    def search(ps, mapping, used) -> bool:
        if not ps:
            return len(mapping) == len(a.generic_labels) and renames_onto(mapping)
        p, rest = ps[0], ps[1:]
        for q in by_skel.get(skeleton(p), []):
            grown = extend(mapping, used, p, q)
            if grown is not None and search(rest, *grown):
                return True
        return False

    return search(generic_ps, {}, set())


# ---------------------------------------------------------------------------
# parsing / serialization

_BOOL_STRINGS = {"true": True, "false": False}


def _parse_value(elem: ET.Element, path: str) -> Value:
    val = elem.get("val")
    type_name = elem.get("type")
    if val is None or type_name is None:
        raise ContextError("value needs val and type attributes", path)
    if type_name == "Me" or (type_name == "GenericAgent" and val == "me"):
        return ME
    if type_name == "GenericAgent":
        return generic(val)
    if type_name == "Agent":
        return concrete(val)
    return const(val, type_name)


def _parse_choice(raw: str) -> bool | str:
    return _BOOL_STRINGS.get(raw, raw)


def parse_case(document: str | ET.Element, ctx: Context) -> GenericCase:
    """Parse and validate one ``case`` element (or document)."""
    if isinstance(document, str):
        try:
            elem = ET.fromstring(document)
        except ET.ParseError as exc:
            raise ContextError(f"malformed document: {exc}", "case") from None
    else:
        elem = document
    if elem.tag != "case":
        raise ContextError(f"expected <case>, found <{elem.tag}>", elem.tag)
    case_id = elem.get("id")
    if not case_id:
        raise ContextError("case needs an id attribute", "case")
    action = elem.get("action", "none")
    path = f"case[@id={case_id!r}]"

    perceptions: list[Perception] = []
    weights: list[float] = []
    for i, sub in enumerate(elem, start=1):
        if sub.tag != "predicate":
            raise ContextError(f"unexpected element <{sub.tag}>", f"{path}/{sub.tag}")
        sub_path = f"{path}/predicate[{i}]"
        name = _attr_or_die(sub, "name", sub_path)
        raw_weight = _attr_or_die(sub, "weight", sub_path)
        try:
            weight = float(raw_weight)
        except ValueError:
            raise ContextError(f"weight {raw_weight!r} is not a number", sub_path) from None
        if weight < 0:
            raise ContextError(f"negative weight {weight}", sub_path)
        values: list[Value] = []
        choice: bool | str | None = None
        for j, node in enumerate(sub, start=1):
            if node.tag == "value":
                values.append(_parse_value(node, f"{sub_path}/value[{j}]"))
            elif node.tag == "choice":
                raw = node.get("val")
                if raw is None:
                    raise ContextError("choice needs a val attribute", f"{sub_path}/choice")
                choice = _parse_choice(raw)
            else:
                raise ContextError(f"unexpected element <{node.tag}>", f"{sub_path}/{node.tag}")
        if choice is None:
            raise ContextError("predicate has no choice element", sub_path)
        p = Perception(name, tuple(values), choice)
        violation = validate_perception(p, ctx)
        if violation is not None:
            raise ContextError(str(violation), sub_path)
        perceptions.append(p)
        weights.append(weight)

    try:
        return GenericCase(case_id, tuple(perceptions), tuple(weights), action)
    except CaseError as exc:
        raise ContextError(str(exc), path) from None


def _attr_or_die(elem, name, path):
    value = elem.get(name)
    if value is None:
        raise ContextError(f"missing {name!r} attribute", path)
    return value


def parse_case_base(document: str, ctx: Context) -> tuple[list[GenericCase], tuple[str, ...]]:
    """Parse a ``caseBase`` document into (cases, priority order).

    Duplicate case ids are errors; the priority element is required and must
    cover every predicate the cases use.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ContextError(f"malformed document: {exc}", "caseBase") from None
    if root.tag != "caseBase":
        raise ContextError(f"expected <caseBase> root, found <{root.tag}>", root.tag)

    priority: tuple[str, ...] | None = None
    cases: list[GenericCase] = []
    seen: set[str] = set()
    for child in root:
        if child.tag == "priority":
            names = [n.strip() for n in (child.text or "").replace(",", " ").split()]
            priority = tuple(names)
        elif child.tag == "case":
            case = parse_case(child, ctx)
            if case.id in seen:
                raise ContextError(f"duplicate case id {case.id!r}", f"case[@id={case.id!r}]")
            seen.add(case.id)
            cases.append(case)
        else:
            raise ContextError(f"unexpected element <{child.tag}>", f"caseBase/{child.tag}")
    if priority is None:
        raise ContextError("caseBase has no priority element", "caseBase")
    return cases, priority


def serialize_case_base(cases: list[GenericCase], priority: tuple[str, ...],
                        ctx: Context) -> str:
    """Emit a caseBase document that parse_case_base reads back identically."""
    q = xml_attribute
    lines = ["<caseBase>", f"  <priority>{escape(','.join(priority))}</priority>"]
    for case in cases:
        lines.append(f'  <case id="{q(case.id)}" action="{q(case.action)}">')
        for p, w in zip(case.perceptions, case.weights):
            lines.append(f'    <predicate name="{q(p.name)}" weight="{w!r}">')
            schema = ctx.predicates.get(p.name)
            for k, v in enumerate(p.values):
                if v.kind == "me":
                    type_name = "Me"
                elif v.kind == "generic":
                    type_name = "GenericAgent"
                elif v.kind == "concrete":
                    type_name = "Agent"
                else:
                    type_name = v.sort or (schema.params[k][1] if schema else "DomainObject")
                lines.append(f'      <value val="{q(v.name)}" type="{q(type_name)}"/>')
            choice = {True: "true", False: "false"}.get(p.choice, p.choice)
            lines.append(f'      <choice val="{q(choice)}"/>')
            lines.append("    </predicate>")
        lines.append("  </case>")
    lines.append("</caseBase>")
    return "\n".join(lines) + "\n"
