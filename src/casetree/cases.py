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
carries the decision attached to the case. Any other attribute is an error.

Unification has one matcher and one binding search. ``TargetCase.completions``
lists every injective way a perception pattern can be bound so that it occurs
in the target, as rows of ids, from an index the target builds when it is
constructed. A target holds each perception once, so a key's rows are sorted
and distinct: a ground pattern, or one with one generic slot, gets a fresh
copy of them and any other is matched row by row. ``_search_bindings`` finds a
case's best injective binding by a bounded depth-first search over those
rows, forward checking each perception's domain as a bitmask over its rows:
it is exact at every agent count and can be interrupted at every search
node. Both follow one label order, which ``pattern_labels`` owns: a row holds
its ids in the sorted order of the pattern's generic labels, and the search
decides labels in that order. ``unify`` and ``similarity.scored_unify`` run
the search over every perception of a case; ``retrieval.scan_tree`` runs it
for each case it searches, over the rows its tree branch has tested.
Acquisition's dedupe, ``case_equivalent``, runs the same matcher and search
with the stored case's labels standing in as concrete ids.

Every search of a case reads two facts that depend on the case alone from
``GenericCase._facts``: each perception's generic labels and a memo of the
weight sums it has scored. A case's first search fills them and later
searches, of any target, reuse them (a memo function in Michie's sense,
Nature 1968). A search's answer is built as it is found: its pairs, sorted
by label and injective, become a ``Substitution`` without the public
constructor's re-sort and check.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable

from .context import (Context, ContextError, _attr, _root, _unknown_attribute,
                      validate_perception, xml_attribute)


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
_AGENT_KINDS = ("generic", "concrete")  # the kinds a pattern's agent slot holds


def generic(label: str) -> Value:
    return Value("generic", label)


def concrete(instance_id: str) -> Value:
    return Value("concrete", instance_id)


def const(name: str, sort: str) -> Value:
    return Value("const", name, sort)


def pattern_labels(values: Iterable[Value]) -> tuple[str, ...]:
    """The distinct generic labels among ``values``, sorted: the column order
    of ``TargetCase.completions`` rows and the order in which the binding
    search decides labels."""
    labels: list[str] = []
    for v in values:
        if v.kind == "generic" and v.name not in labels:
            labels.append(v.name)
    labels.sort()
    return tuple(labels)


@dataclass(frozen=True, slots=True)
class Perception:
    """One (predicate, arguments, choice value) triple."""

    name: str
    values: tuple[Value, ...]
    choice: bool | str

    # a frozen dataclass's own __init__ assigns each field through
    # object.__setattr__; writing through the slots' setters builds one in
    # about two thirds of the time, and elaborate builds one per target
    # perception (about 230 on a 22-player pitch). Assignment still raises
    # FrozenInstanceError, and repr, == and hash are the dataclass's own.
    def __init__(self, name: str, values: tuple[Value, ...], choice: bool | str):
        _set_name(self, name)
        _set_values(self, values)
        _set_choice(self, choice)

    def __str__(self) -> str:
        args = ",".join(str(v) for v in self.values)
        return f"{self.name}({args})={self.choice}"


_set_name, _set_values, _set_choice = (
    Perception.name.__set__, Perception.values.__set__, Perception.choice.__set__)


class CaseError(ValueError):
    """Raised for invalid case structure or case documents."""


@dataclass(frozen=True)
class GenericCase:
    """A stored source case: perceptions, per-perception relevance weights,
    and the action it recommends. ``total_weight``, set at construction, is
    ``mask_weight`` over every index, so a full match's weight factor is
    exactly 1.0 (``similarity.coverage_table``). Derived from the weights, it
    takes no part in ``repr``, ``==`` or ``hash``.

    ``_facts`` holds what every binding search of the case would otherwise
    recompute: each perception's generic labels, by ``pattern_labels``, and
    a ``_WeightSums`` of ``mask_weight`` over the case's weights, one (sum,
    count) per matched mask its searches have met, up to ``_MEMO_CAP``. That
    is at most 2^n sums for n perceptions, so a case of up to 12 perceptions
    keeps every mask it meets; one of more perceptions keeps the first 4,096
    and sums any other mask again at each lookup. ``_case_facts`` fills the
    facts in one assignment at the case's first search, never at
    construction, and only the sums grow after that. The case's value never
    changes, and the facts take no part in ``repr``, ``==`` or ``hash``."""

    id: str
    perceptions: tuple[Perception, ...]
    weights: tuple[float, ...]
    action: str = "none"
    total_weight: float = field(init=False, repr=False, compare=False)
    _facts: tuple[tuple[tuple[str, ...], ...], "_WeightSums"] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise CaseError("a case needs a non-empty id")
        if len(self.perceptions) != len(self.weights):
            raise CaseError(f"case {self.id}: {len(self.weights)} weights for "
                            f"{len(self.perceptions)} perceptions")
        if not all(0 <= w < math.inf for w in self.weights):
            raise CaseError(f"case {self.id}: negative or non-finite weight")
        object.__setattr__(self, "total_weight",
                           mask_weight(self.weights, (1 << len(self.weights)) - 1)[0])
        if self.total_weight <= 0:
            raise CaseError(f"case {self.id}: total weight must be positive")
        if len(set(self.perceptions)) != len(self.perceptions):
            raise CaseError(f"case {self.id}: duplicate perception")
        for p in self.perceptions:
            for v in p.values:
                if v.kind == "concrete":
                    raise CaseError(f"case {self.id}: concrete agent {v.name} in generic case")

    @property
    def generic_labels(self) -> tuple[str, ...]:
        return pattern_labels([v for p in self.perceptions for v in p.values])


@dataclass(frozen=True)
class TargetCase:
    """The current situation: perceptions over ``me`` and concrete agents only.

    ``completions`` answers from ``_index``: each perception's agent ids, in
    argument order, keyed by its predicate, choice and shape (per argument
    None for an agent slot, or the (kind, name) of ``me`` or a constant). A
    perception is its key and one row, and the constructor rejects one given
    twice, so a key's rows are sorted and distinct: ``[()]`` for a ground key,
    answers for a one-agent-slot key. Built with the target, the index never
    changes: ``completions`` returns a fresh list the caller may change, so
    concurrent scans may share a target. Derived from the perceptions, it
    takes no part in ``repr``, ``==`` or ``hash``.
    """

    perceptions: tuple[Perception, ...]
    origin: str = ""
    _index: dict[tuple, list[tuple[str, ...]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[tuple, list[tuple[str, ...]]] = {}
        for p in self.perceptions:
            shape, ids = [], []
            for v in p.values:
                if v.kind == "concrete":
                    shape.append(None)
                    ids.append(v.name)
                elif v.kind == "generic":
                    raise CaseError(f"target from {self.origin or '?'}: generic agent ?{v.name}")
                else:
                    shape.append((v.kind, v.name))
            index.setdefault((p.name, p.choice, tuple(shape)), []).append(tuple(ids))
        for rows in index.values():
            if len(rows) > 1:
                rows.sort()  # elaborate emits one-slot rows sorted: one linear pass
                if len(set(rows)) < len(rows):  # a perception given twice
                    raise CaseError(f"target from {self.origin or '?'}: duplicate perception")
        object.__setattr__(self, "_index", index)

    def completions(self, name: str, values: tuple[Value, ...],
                    desired: bool | str) -> list[tuple[str, ...]]:
        """Every injective way to fill the generic labels of the pattern
        ``name(values)`` so that the instantiated perception occurs here with
        the desired choice value: one row of ids per way, holding them in the
        sorted order of their labels, rows in sorted order. A way that binds one
        id to two labels extends no binding and is left out. A fully ground
        pattern yields ``[()]`` on success and ``[]`` on failure."""
        slots, shape = [], []
        for v in values:
            if v.kind in _AGENT_KINDS:
                slots.append(v)
                shape.append(None)
            else:
                shape.append((v.kind, v.name))
        entries = self._index.get((name, desired, tuple(shape)))
        if not entries:
            return []
        if not slots or (len(slots) == 1 and slots[0].kind == "generic"):
            return entries[:]  # stored sorted and distinct; the copy is the caller's
        labels = pattern_labels(slots)
        out = []  # distinct: distinct stored rows bind distinct rows
        for ids in entries:
            binding: dict[str, str] = {}
            for v, i in zip(slots, ids):
                if v.kind == "generic":
                    if binding.setdefault(v.name, i) != i:
                        break
                elif v.name != i:
                    break
            else:
                row = tuple(map(binding.__getitem__, labels))
                if len(set(row)) == len(row):
                    out.append(row)
        out.sort()
        return out

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

    def __str__(self) -> str:
        return ";".join(f"{l}->{i}" for l, i in self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


NO_SUBSTITUTION = Substitution()
_new_object, _set_attribute = object.__new__, object.__setattr__


def _found_substitution(pairs: tuple[tuple[str, str], ...]) -> Substitution:
    """The ``Substitution`` of a binding search's answer: its pairs are sorted
    by label, with distinct labels and ids, as the search builds them, so the
    constructor's re-sort and injectivity check are skipped. An empty answer
    is the one shared ``NO_SUBSTITUTION``."""
    if not pairs:
        return NO_SUBSTITUTION
    sub = _new_object(Substitution)
    _set_attribute(sub, "pairs", pairs)
    return sub


# ---------------------------------------------------------------------------
# unification

def mask_weight(weights, mask: int) -> tuple[float, int]:
    """(sum, count) of ``weights[i]`` over the set bits ``i`` of ``mask``,
    summed in ascending ``i``: in one fixed order, no subset of the bits sums
    above the whole, rounding included. Every score of the binding search and
    every bound on one sums this way."""
    w, n = 0.0, 0
    while mask:
        low = mask & -mask
        w += weights[low.bit_length() - 1]
        n += 1
        mask ^= low
    return w, n


_MEMO_CAP = 1 << 12  # every mask of a case of up to 12 perceptions


class _WeightSums(dict):
    """``mask -> mask_weight(weights, mask)``, each summed at its first lookup
    and kept while fewer than ``_MEMO_CAP`` are: a case's memo of the weight
    sums its searches score, bounded for a case of many perceptions."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[float, ...]):
        super().__init__()
        self.weights = weights

    def __missing__(self, mask: int) -> tuple[float, int]:
        found = mask_weight(self.weights, mask)
        # scans sharing the case may each pass the check: one sum over per thread
        if len(self) < _MEMO_CAP:
            self[mask] = found
        return found


def _case_facts(case: GenericCase) -> tuple[tuple[tuple[str, ...], ...], _WeightSums]:
    """``case._facts``, filled in one assignment on the first call: each
    perception's generic labels and the case's weight-sum memo. Scans that
    share the case may fill it at once; each then searches with the facts it
    made, which equal the kept ones."""
    facts = case._facts
    if facts is None:
        facts = (tuple(pattern_labels(p.values) for p in case.perceptions),
                 _WeightSums(case.weights))
        _set_attribute(case, "_facts", facts)
    return facts


def _row_masks(rows):
    """Bitmasks over ``rows``, bit j standing for ``rows[j]``: per column, id
    -> the rows holding it there; and id -> the rows holding it anywhere."""
    has, bit = {}, 1
    if len(rows[0]) == 1:  # distinct single ids: a target holds each perception once
        for (cid,) in rows:
            has[cid] = bit
            bit <<= 1
        return [has], has
    at = [{} for _ in rows[0]]
    for row in rows:
        for column, cid in zip(at, row):
            column[cid] = column.get(cid, 0) | bit
            has[cid] = has.get(cid, 0) | bit
        bit <<= 1
    return at, has


def _search_bindings(sums, perceptions, objective, interrupted=None, floor=-math.inf):
    """Maximize ``objective(weight_sum, n_matched)`` over injective bindings.

    ``sums`` is the case's ``_WeightSums``, which gives the (weight sum,
    count) of every mask scored and keeps any it sums. ``perceptions`` holds
    (index into ``sums.weights``, generic labels in sorted order, rows of ids
    binding those labels as ``TargetCase.completions`` gives them) per
    perception that may match; the others never match.

    A bounded depth-first search decides the generic labels in sorted order.
    A node first offers its binding as a candidate, unless its parent already
    did, then binds the next label to each id it can still take, in ascending
    order, and last leaves the label unbound. At the last label the leaves
    are offered inside their parent, in ascending id order, from one pass over
    their domains, and neither they nor the unbound child, which would offer
    nothing, become nodes; nor does anything below a node with no perception
    left that can match. Candidates therefore come in the lexicographic order
    of their (label, id) pairs, so a node is cut as soon as its bound cannot
    beat the incumbent, and the least binding among the optima wins. A
    candidate counts only when each label it binds occurs in a perception it
    matches: it is then the restricted substitution, matching every perception
    it can.

    Each undecided perception keeps as its domain the rows that agree with
    the labels decided so far and give no other label a bound id (forward
    checking), held as a bitmask over its rows; a node's bound adds every
    one whose domain is not empty to the matched perceptions. The first node
    to bind a label, the root, builds each perception's row masks, per id
    and column and per id anywhere, so that a child keeps a domain with one
    AND; a search that ends at its root builds none. Weights are summed by
    ``mask_weight``, for candidates and bounds alike, so rounding cannot put
    a bound below a candidate under it; ``objective`` must not decrease in
    either argument. Returns (best_value, sorted (label, id) pairs, bitmask
    of the matched indices), or None as soon as ``interrupted()`` holds at a
    node; it is asked once per node, also when nothing is left to bind, so
    the work of one node, its leaves' offers and the row masks included,
    still bounds how far a search overruns a stop.

    A node is also cut when its bound cannot beat ``floor`` (branch and bound
    with an outside incumbent): the result is the same whenever the optimum
    beats ``floor``, and otherwise a best_value that does not.
    """
    labels = sorted({label for _, own, rows in perceptions if rows for label in own})
    rank = {label: r for r, label in enumerate(labels)}
    matched = 0  # bitmask of the matched perceptions
    # per undecided perception: its bit, the ranks of its labels in ascending
    # order, the position of its next undecided label, its domain as a bitmask
    # over its rows (bit j stands for rows[j]), the bitmask of its label ranks,
    # and its row masks (``_row_masks``); the root, until it binds a label,
    # holds the rows and None in their place
    live = []
    for i, own, rows in perceptions:
        if rows and not own:
            matched |= 1 << i
        elif rows:
            ranks = [rank[label] for label in own]
            live.append((1 << i, ranks, 0, (1 << len(rows)) - 1, sum(1 << r for r in ranks),
                         rows, None))

    def value(mask: int) -> float:
        return objective(*sums[mask])

    best = value(matched), (), matched
    cut = max(best[0], floor)  # a node whose bound is no higher is cut
    last = len(labels) - 1
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
            cut = max(best[0], floor)
        if not live:  # no candidate below matches more
            continue
        bound, reach = matched, covered
        for bit, _, _, _, ranks, _, _ in live:
            bound, reach = bound | bit, reach | ranks
        # cut, and also when a bound label is in no perception that matches or
        # still can: no candidate below is then a restricted substitution
        if value(bound) <= cut or held & ~reach:
            continue
        if r == last:
            # every undecided perception waits on this label alone: offer each
            # id's leaf here, in ascending order, as popping them would
            leaves: dict[str, tuple[int, int]] = {}  # id -> (matched, covered) it adds
            if r:  # below the root, the ids of each column whose rows dom keeps
                for bit, _, k, dom, ranks, at, _ in live:
                    for cid, where in at[k].items():
                        if dom & where:
                            bits, used = leaves.get(cid, (0, 0))
                            leaves[cid] = bits | bit, used | ranks
            else:  # the root's domains are whole: read its rows
                for bit, _, k, _, ranks, rows, _ in live:
                    for row in rows:
                        bits, used = leaves.get(row[k], (0, 0))
                        leaves[row[k]] = bits | bit, used | ranks
            held |= 1 << r
            for cid in sorted(leaves):
                bits, used = leaves[cid]
                now_matched = matched | bits
                if covered | used == held and value(now_matched) > best[0]:
                    best = value(now_matched), pairs + ((labels[r], cid),), now_matched
                    cut = max(best[0], floor)
            continue
        if not r:  # the root is the first node to bind a label
            live = [(bit, own, k, dom, ranks, *_row_masks(rows))
                    for bit, own, k, dom, ranks, rows, _ in live]
        stack.append((r + 1, pairs, held, covered, matched,
                      [e for e in live if e[1][e[2]] != r], False))
        ids = {cid for _, own, k, dom, _, at, _ in live if own[k] == r
               for cid, where in at[k].items() if dom & where}
        for cid in sorted(ids, reverse=True):
            grown, now_covered, now_matched = [], covered, matched
            for bit, own, k, dom, ranks, at, has in live:
                if own[k] == r:
                    dom, k = dom & at[k].get(cid, 0), k + 1
                else:
                    dom &= ~has.get(cid, 0)
                if dom and k < len(own):
                    grown.append((bit, own, k, dom, ranks, at, has))
                elif dom:
                    now_covered, now_matched = now_covered | ranks, now_matched | bit
            stack.append((r + 1, pairs + ((labels[r], cid),), held | 1 << r, now_covered,
                          now_matched, grown, True))
    return best


def _unify(source: GenericCase, target: TargetCase, objective, interrupted=None):
    """``_search_bindings`` over every perception of ``source`` against
    ``target``, through the case's facts: (best_value, Substitution, bitmask
    of the matched indices), or None once ``interrupted()`` holds."""
    labels, sums = _case_facts(source)
    found = _search_bindings(sums, [
        (i, labels[i], target.completions(p.name, p.values, p.choice))
        for i, p in enumerate(source.perceptions)
    ], objective, interrupted)
    if found is None:
        return None
    best_value, pairs, matched = found
    return best_value, _found_substitution(pairs), matched


def unify(source: GenericCase, target: TargetCase) -> tuple[Substitution, frozenset[int]]:
    """Find the injective substitution maximizing the matched weight sum.

    Returns the substitution (restricted to labels the matched perceptions
    use) and the matched indices into ``source.perceptions``. Both are empty
    when nothing matches.
    """
    _, sub, matched = _unify(source, target, lambda w, n: w)
    return sub, frozenset(i for i in range(matched.bit_length()) if matched >> i & 1)


# ---------------------------------------------------------------------------
# acquisition

GENERIC_LABEL_POOL = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
DEFAULT_WEIGHT = 1.0


def generalize(target: TargetCase, action: str, case_id: str = "acquired") -> GenericCase:
    """Abstract a concrete situation into a generic case.

    Every distinct concrete agent becomes a fresh generic label (in order of
    first appearance); ``me`` is preserved; every perception receives the
    relevance weight ``DEFAULT_WEIGHT``, to be refined by experts later.
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
        weights=(DEFAULT_WEIGHT,) * len(perceptions),
        action=action,
    )


def case_equivalent(a: GenericCase, b: GenericCase) -> bool:
    """True when some bijection of generic labels makes the perception sets
    identical. Weights and actions are ignored.

    ``b`` becomes a target whose concrete ids are its labels, and the shared
    search looks for an injective binding that matches every perception of
    ``a`` there: with equal perception and label counts, that binding renames
    ``a`` onto ``b``. The objective is worth nothing short of all of them, so a
    node is cut as soon as one perception loses its last row.
    """
    if len(a.perceptions) != len(b.perceptions):
        return False
    if len(a.generic_labels) != len(b.generic_labels):
        return False
    b_set = set(b.perceptions)
    labels = _case_facts(a)[0]
    if any(p not in b_set for p, own in zip(a.perceptions, labels) if not own):
        return False
    target = TargetCase(tuple(
        Perception(q.name, tuple(concrete(v.name) if v.kind == "generic" else v
                                 for v in q.values), q.choice)
        for q in b.perceptions))
    size = len(a.perceptions)
    return _unify(a, target, lambda w, n: n == size)[0]


# ---------------------------------------------------------------------------
# parsing / serialization

_BOOL_STRINGS = {"true": True, "false": False}


def _parse_value(elem: ET.Element, path: str) -> Value:
    if len(elem.attrib) > 2:
        _unknown_attribute(elem, path, "val", "type")
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
    elem = _root(document, "case")
    case_id = elem.get("id")
    if not case_id:
        raise ContextError("case needs an id attribute", "case")
    path = f"case[@id={case_id!r}]"
    if len(elem.attrib) > 1 + ("action" in elem.attrib):
        _unknown_attribute(elem, path, "id", "action")
    action = elem.get("action", "none")

    perceptions: list[Perception] = []
    weights: list[float] = []
    for i, sub in enumerate(elem, start=1):
        if sub.tag != "predicate":
            raise ContextError(f"unexpected element <{sub.tag}>", f"{path}/{sub.tag}")
        sub_path = f"{path}/predicate[{i}]"
        if len(sub.attrib) > 2:
            _unknown_attribute(sub, sub_path, "name", "weight")
        name = _attr(sub, "name", sub_path)
        raw_weight = _attr(sub, "weight", sub_path)
        try:
            weight = float(raw_weight)
        except ValueError:
            raise ContextError(f"weight {raw_weight!r} is not a number", sub_path) from None
        if not 0 <= weight < math.inf:
            raise ContextError(f"negative or non-finite weight {weight}", sub_path)
        values: list[Value] = []
        choice: bool | str | None = None
        for j, node in enumerate(sub, start=1):
            if node.tag == "value":
                values.append(_parse_value(node, f"{sub_path}/value[{j}]"))
            elif node.tag == "choice":
                if len(node.attrib) > 1:
                    _unknown_attribute(node, f"{sub_path}/choice", "val")
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
            raise ContextError(violation, sub_path)
        perceptions.append(p)
        weights.append(weight)

    try:
        return GenericCase(case_id, tuple(perceptions), tuple(weights), action)
    except CaseError as exc:
        raise ContextError(str(exc), path) from None


def parse_case_base(document: str, ctx: Context) -> tuple[list[GenericCase], tuple[str, ...]]:
    """Parse a ``caseBase`` document into (cases, priority order).

    Duplicate case ids are errors; exactly one priority element is required.
    ``build_tree``, not parsing, checks that it covers the cases' predicates.
    """
    root = _root(document, "caseBase")
    if root.attrib:
        _unknown_attribute(root, "caseBase")

    priority: tuple[str, ...] | None = None
    cases: list[GenericCase] = []
    seen: set[str] = set()
    for child in root:
        if child.tag == "priority":
            if priority is not None:
                raise ContextError("more than one priority element", "caseBase/priority")
            if child.attrib:
                _unknown_attribute(child, "caseBase/priority")
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
    """Emit a caseBase document that parse_case_base reads back identically.
    Raises ValueError for what it cannot give back: a repeated case id, or a
    priority name that is empty or holds a comma or whitespace."""
    q = xml_attribute
    for name in priority:
        if "," in name or name.split() != [name]:
            raise ValueError(f"case base cannot hold priority name {name!r}")
    lines = ["<caseBase>", f"  <priority>{q(','.join(priority))}</priority>"]
    seen: set[str] = set()
    for case in cases:
        if case.id in seen:
            raise ValueError(f"case base cannot hold case id {case.id!r} twice")
        seen.add(case.id)
        lines.append(f'  <case id="{q(case.id)}" action="{q(case.action)}">')
        for p, w in zip(case.perceptions, case.weights):
            lines.append(f'    <predicate name="{q(p.name)}" weight="{w!r}">')
            schema = ctx.predicates.get(p.name)
            for k, v in enumerate(p.values):
                if v.kind == "me":
                    type_name = "Me"
                elif v.kind == "generic":
                    type_name = "GenericAgent"
                else:
                    type_name = v.sort or (schema.params[k][1] if schema else "DomainObject")
                lines.append(f'      <value val="{q(v.name)}" type="{q(type_name)}"/>')
            choice = {True: "true", False: "false"}.get(p.choice, p.choice)
            lines.append(f'      <choice val="{q(choice)}"/>')
            lines.append("    </predicate>")
        lines.append("  </case>")
    lines.append("</caseBase>")
    return "\n".join(lines) + "\n"
