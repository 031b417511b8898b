"""Independent oracles and generators shared across the test suite.

The brute-force binding enumerator here is deliberately naive and separate
from the library's search: it tries every injective assignment of generic
labels to the target's concrete agents (including leaving labels unbound)
and evaluates the scoring formula directly.
"""

from __future__ import annotations

import itertools
import random

import casetree as ct
from casetree.cases import mask_weight, pattern_labels


def substitute(perception, binding):
    values = []
    for v in perception.values:
        if v.kind == "generic":
            if binding.get(v.name) is None:
                return None
            values.append(ct.concrete(binding[v.name]))
        else:
            values.append(v)
    return ct.Perception(perception.name, tuple(values), perception.choice)


def all_bindings(labels, concrete_ids):
    """Every injective map labels -> ids, any subset of labels left unbound."""
    options = list(concrete_ids) + [None]
    for assignment in itertools.product(options, repeat=len(labels)):
        bound = [a for a in assignment if a is not None]
        if len(set(bound)) != len(bound):
            continue
        yield dict(zip(labels, assignment))


def brute_force_matches(source, target, allowed=None):
    """All (matched index tuple, binding) pairs over every injective binding of
    the labels of the perceptions at ``allowed`` indices (default: all), only
    those perceptions counting as matchable."""
    target_set = set(target.perceptions)
    indices = sorted(range(len(source.perceptions)) if allowed is None else allowed)
    labels = tuple(dict.fromkeys(label for i in indices
                                 for label in pattern_labels(source.perceptions[i].values)))
    ids = sorted({v.name for p in target.perceptions for v in p.values
                  if v.kind == "concrete"})
    for binding in all_bindings(labels, ids):
        matched = tuple(
            i for i in indices
            if (inst := substitute(source.perceptions[i], binding)) is not None
            and inst in target_set
        )
        yield matched, binding


def brute_force_search(weights, perceptions, objective):
    """What ``cases._search_bindings`` must return for the same arguments:
    over every injective binding of the labels of the perceptions with rows,
    each cut down to the labels its matched perceptions use, the best
    objective, the least (label, id) pairs among the bindings reaching it,
    and the bitmask of the perceptions that binding matches."""
    labels = sorted({label for _, own, rows in perceptions if rows for label in own})
    ids = sorted({i for _, _, rows in perceptions for row in rows for i in row})
    best = None
    for binding in all_bindings(labels, ids):
        mask = 0
        for i, own, rows in perceptions:
            if None not in map(binding.get, own) and tuple(map(binding.get, own)) in rows:
                mask |= 1 << i
        pairs = tuple(sorted({(label, binding[label]) for i, own, _ in perceptions
                              if mask >> i & 1 for label in own}))
        candidate = objective(*mask_weight(weights, mask)), pairs, mask
        if best is None or candidate[0] > best[0] or (
                candidate[0] == best[0] and candidate[1] < best[1]):
            best = candidate
    return best


def brute_force_best_weight(source, target):
    """Maximum matched weight sum over all injective bindings."""
    best = 0.0
    for matched, _ in brute_force_matches(source, target):
        best = max(best, sum(source.weights[i] for i in matched))
    return best


def score_of(source, target, matched, alpha):
    """The scoring expression for one matched index tuple."""
    size = len(target.perceptions)
    w = sum(source.weights[i] for i in matched)
    return (w / sum(source.weights)) * (1.0 - alpha * (size - len(matched)) / size)


def restricted(source, binding, matched):
    """The binding cut down to the labels that the matched perceptions use."""
    used = {label for i in matched for label in pattern_labels(source.perceptions[i].values)}
    return ct.Substitution(tuple(pair for pair in binding.items() if pair[0] in used))


def brute_force_optimum(source, target, alpha, allowed=None):
    """(score, substitution, matched index tuple) of the best binding: the
    maximum of the full scoring expression over all injective bindings, and
    among the bindings reaching it the least restricted substitution. Only the
    perceptions at ``allowed`` indices (default: all) can match; the score
    still divides by the whole case's total weight."""
    best = None
    for matched, binding in brute_force_matches(source, target, allowed):
        candidate = (score_of(source, target, matched, alpha),
                     restricted(source, binding, matched), matched)
        if best is None or candidate[0] > best[0] or (
                candidate[0] == best[0] and candidate[1] < best[1]):
            best = candidate
    return best


def brute_force_similarity(source, target, alpha):
    """Maximum of the full scoring expression over all injective bindings."""
    return brute_force_optimum(source, target, alpha)[0]


def brute_force_equivalent(a, b):
    """Whether some injective map of ``a``'s generic labels onto ``b``'s
    renames ``a``'s perception set into ``b``'s."""
    b_set = set(b.perceptions)
    for image in itertools.permutations(b.generic_labels, len(a.generic_labels)):
        mapping = dict(zip(a.generic_labels, image))
        renamed = {ct.Perception(p.name, tuple(ct.generic(mapping[v.name])
                                               if v.kind == "generic" else v
                                               for v in p.values), p.choice)
                   for p in a.perceptions}
        if renamed == b_set:
            return True
    return False


def zero_odd_weights(case):
    """The case with every odd-indexed weight set to zero, so that scores tie."""
    return ct.GenericCase(case.id, case.perceptions,
                          tuple(0.0 if i % 2 else w for i, w in enumerate(case.weights)),
                          case.action)


def xml_text_ok(text: str) -> bool:
    """Whether every character of ``text`` is a Char of the XML 1.0 grammar."""
    return all(c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
               or c >= "\U00010000" for c in text)


# ---------------------------------------------------------------------------
# seeded world-grounded base generation

ACTIONS = ("pass", "shoot", "move", "mark", "call")


def sample_case(rng: random.Random, target: ct.TargetCase, ctx: ct.Context,
                case_id: str, max_perceptions: int = 8,
                mutation_rate: float = 0.25,
                keep_root: bool = True) -> ct.GenericCase:
    """One generic case sampled from a real target, with optional choice-value
    mutations so that negative matches occur. ``keep_root`` biases cases to
    start with a hasBall perception, which is what makes prefixes shareable."""
    pool = list(target.perceptions)
    k = rng.randint(1, min(max_perceptions, len(pool)))
    picks = rng.sample(pool, k)
    if keep_root:
        roots = [p for p in pool if p.name.lower() == "hasball"]
        if roots:
            picks = [rng.choice(roots)] + [p for p in picks if p.name.lower() != "hasball"]
            picks = picks[:max_perceptions]
    mutated = []
    for p in picks:
        if rng.random() < mutation_rate:
            if isinstance(p.choice, bool):
                p = ct.Perception(p.name, p.values, not p.choice)
            else:
                labels = ctx.predicates[p.name].choice.labels
                p = ct.Perception(p.name, p.values, rng.choice(labels))
        if p not in mutated:
            mutated.append(p)
    sampled = ct.TargetCase(perceptions=tuple(mutated), origin="sample")
    case = ct.generalize(sampled, action=rng.choice(ACTIONS), case_id=case_id)
    weights = tuple(round(rng.uniform(0.1, 2.0), 3) for _ in case.perceptions)
    return ct.GenericCase(case.id, case.perceptions, weights, case.action)


def random_base(seed: int, n_cases: int, ctx: ct.Context | None = None,
                max_players: int = 6, max_perceptions: int = 8,
                keep_root: bool = True) -> list[ct.GenericCase]:
    """A deduplicated seeded base sampled from a handful of seeded worlds."""
    ctx = ctx or ct.football_context()
    rng = random.Random(seed)
    targets = []
    for i in range(3):
        world = ct.generate_world(seed * 7 + i, rng.choice(range(2, max_players + 1, 2)))
        t = ct.elaborate(world, world.self_id, ctx=ctx)
        if len(t):
            targets.append(t)
    base: list[ct.GenericCase] = []
    guard = 0
    while len(base) < n_cases and guard < n_cases * 40:
        guard += 1
        case = sample_case(rng, rng.choice(targets), ctx,
                           case_id=f"c{len(base):03d}",
                           max_perceptions=max_perceptions, keep_root=keep_root)
        if not any(ct.case_equivalent(case, b) for b in base):
            base.append(case)
    return base


def random_target(seed: int, ctx: ct.Context | None = None,
                  max_players: int = 6) -> ct.TargetCase:
    ctx = ctx or ct.football_context()
    rng = random.Random(seed)
    world = ct.generate_world(seed, rng.choice(range(2, max_players + 1, 2)))
    return ct.elaborate(world, world.self_id, ctx=ctx)
