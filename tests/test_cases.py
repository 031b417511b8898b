from __future__ import annotations

import dataclasses
import math
import pickle
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from casetree.cases import _search_bindings, _WeightSums, mask_weight
from casetree.similarity import coverage_table, partial_score, scored_unify
from support import (
    brute_force_best_weight,
    brute_force_equivalent,
    brute_force_optimum,
    brute_force_search,
    random_base,
    random_target,
    sample_case,
    xml_text_ok,
    zero_odd_weights,
)


def target(*perceptions: ct.Perception) -> ct.TargetCase:
    return ct.TargetCase(perceptions=perceptions, origin="test")


def P(name, values, choice) -> ct.Perception:
    return ct.Perception(name, tuple(values), choice)


def one_case(body='<value val="me" type="Me"/><choice val="true"/>', case='id="c"',
             predicate='name="hasball" weight="1.0"') -> str:
    """A caseBase document holding one case of one predicate."""
    return (f"<caseBase><priority>hasball</priority><case {case}>"
            f"<predicate {predicate}>{body}</predicate></case></caseBase>")


class TestParseCase:
    def test_case1_fields(self, three_case_base):
        cases, _ = three_case_base
        case1 = cases[0]
        assert case1.id == "case1"
        assert case1.weights == (0.3, 0.7, 0.45)
        assert case1.action == "pass"
        assert [str(p) for p in case1.perceptions] == [
            "hasball(me)=False",
            "partner(?A)=True",
            "distance(ball,?A)=long",
        ]

    def test_single_perception_case(self, small_ctx):
        doc = ('<case id="solo"><predicate name="hasball" weight="1.0">'
               '<value val="me" type="Me"/><choice val="true"/></predicate></case>')
        case = ct.parse_case(doc, small_ctx)
        assert len(case.perceptions) == 1
        assert case.total_weight == 1.0

    def test_negative_weight_rejected(self, small_ctx, fixture_dir):
        text = (fixture_dir / "three.cases.xml").read_text()
        bad = text.replace('weight="0.3"', 'weight="-0.1"')
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(bad, small_ctx)
        assert "negative" in str(err.value)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, small_ctx, fixture_dir, weight):
        text = (fixture_dir / "three.cases.xml").read_text()
        bad = text.replace('weight="0.3"', f'weight="{weight}"', 1)
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(bad, small_ctx)
        assert "non-finite" in str(err.value)
        assert err.value.path == "case[@id='case1']/predicate[1]"

    def test_zero_total_weight_rejected(self, small_ctx):
        doc = ('<case id="z"><predicate name="hasball" weight="0.0">'
               '<value val="me" type="Me"/><choice val="true"/></predicate></case>')
        with pytest.raises(ct.ContextError):
            ct.parse_case(doc, small_ctx)

    def test_schema_violation_reported_with_path(self, small_ctx):
        doc = ('<case id="bad"><predicate name="distance" weight="1.0">'
               '<value val="ball" type="Ball"/><choice val="long"/></predicate></case>')
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case(doc, small_ctx)
        assert "arity" in str(err.value)
        assert "predicate[1]" in str(err.value)

    def test_duplicate_case_id_rejected(self, small_ctx, fixture_dir):
        text = (fixture_dir / "three.cases.xml").read_text()
        bad = text.replace('id="case2"', 'id="case1"')
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(bad, small_ctx)
        assert "duplicate case id" in str(err.value)

    def test_second_priority_element_rejected(self, small_ctx, fixture_dir):
        text = (fixture_dir / "three.cases.xml").read_text()
        bad = text.replace("</caseBase>",
                           "<priority>distance,partner,hasball</priority></caseBase>")
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(bad, small_ctx)
        assert err.value.path == "caseBase/priority"

    @pytest.mark.parametrize("doc,name,path", [
        ("<caseBase version='1'><priority>hasball</priority></caseBase>", "version",
         "caseBase"),
        ("<caseBase><priority order='desc'>hasball</priority></caseBase>", "order",
         "caseBase/priority"),
        (one_case(case='id="c" acton="pass"'), "acton", "case[@id='c']"),
        (one_case(case='id="c" action="pass" note="x"'), "note", "case[@id='c']"),
        (one_case(predicate='name="hasball" weight="1.0" weigth="2"'), "weigth",
         "case[@id='c']/predicate[1]"),
        (one_case('<value val="me" type="Me" sort="Agent"/><choice val="true"/>'), "sort",
         "case[@id='c']/predicate[1]/value[1]"),
        (one_case('<value val="me" type="Me"/><choice val="true" type="Boolean"/>'), "type",
         "case[@id='c']/predicate[1]/choice"),
    ], ids=["caseBase", "priority", "case", "case-with-action", "predicate", "value",
            "choice"])
    def test_unknown_attribute_rejected(self, small_ctx, doc, name, path):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(doc, small_ctx)
        assert str(err.value) == f"unknown attribute {name!r} (at {path})"

    @pytest.mark.parametrize("doc,message,path", [
        (one_case(case=""), "case needs an id attribute", "case"),
        (one_case('<value type="Me"/><choice val="true"/>'),
         "value needs val and type attributes", "case[@id='c']/predicate[1]/value[1]"),
        (one_case('<value val="me"/><choice val="true"/>'),
         "value needs val and type attributes", "case[@id='c']/predicate[1]/value[1]"),
        (one_case('<value val="me" type="Me"/><choice/>'),
         "choice needs a val attribute", "case[@id='c']/predicate[1]/choice"),
        (one_case('<value val="me" type="Me"/>'),
         "predicate has no choice element", "case[@id='c']/predicate[1]"),
        ("<caseBase/>", "caseBase has no priority element", "caseBase"),
        ("<caseBase><priority>hasball</priority><note/></caseBase>",
         "unexpected element <note>", "caseBase/note"),
        ("<caseBase><priority>hasball</priority><case id='c'><note/></case></caseBase>",
         "unexpected element <note>", "case[@id='c']/note"),
        (one_case('<value val="me" type="Me"/><note/><choice val="true"/>'),
         "unexpected element <note>", "case[@id='c']/predicate[1]/note"),
    ], ids=["no-id", "value-without-val", "value-without-type", "choice-without-val",
            "no-choice", "no-priority", "caseBase-child", "case-child", "predicate-child"])
    def test_malformed_document_reports_message_and_path(self, small_ctx, doc, message, path):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(doc, small_ctx)
        assert str(err.value) == f"{message} (at {path})"

    @pytest.mark.parametrize("doc,message,path", [
        (one_case(predicate='name="hasball" weight="heavy"'),
         "weight 'heavy' is not a number", "case[@id='c']/predicate[1]"),
        (one_case('<value val="Agent.1" type="Agent"/><choice val="true"/>'),
         "case c: concrete agent Agent.1 in generic case", "case[@id='c']"),
    ], ids=["weight-not-a-number", "concrete-agent"])
    def test_invalid_value_reports_message_and_path(self, small_ctx, doc, message, path):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_case_base(doc, small_ctx)
        assert str(err.value) == f"{message} (at {path})"

    def test_base_round_trip(self, three_case_base, small_ctx):
        cases, priority = three_case_base
        text = ct.serialize_case_base(cases, priority, small_ctx)
        again, priority2 = ct.parse_case_base(text, small_ctx)
        assert again == cases
        assert priority2 == priority


    @pytest.mark.parametrize("ids, priority, message", [
        (("",), ("hasball",), "a case needs a non-empty id"),
        (("c1", "c2", "c1"), ("hasball",), "case base cannot hold case id 'c1' twice"),
        (("c1",), ("has ball",), "case base cannot hold priority name 'has ball'"),
        (("c1",), ("hasball", "partner,distance"),
         "case base cannot hold priority name 'partner,distance'"),
        (("c1",), ("hasball", ""), "case base cannot hold priority name ''"),
        (("c1",), (" hasball",), "case base cannot hold priority name ' hasball'"),
        (("c1",), ("has\x01ball",), "'has\\x01ball' holds '\\x01', which XML 1.0 forbids"),
    ], ids=["empty-id", "repeated-id", "space", "comma", "empty-name", "padded-name",
            "xml-forbidden"])
    def test_base_it_cannot_give_back_is_refused(self, three_case_base, small_ctx,
                                                 ids, priority, message):
        # parse_case_base refuses, or reads back split, each of these bases
        case = three_case_base[0][0]
        with pytest.raises(ValueError) as err:
            base = [ct.GenericCase(cid, case.perceptions, case.weights) for cid in ids]
            ct.serialize_case_base(base, priority, small_ctx)
        assert str(err.value) == message

    @pytest.mark.parametrize("markup", ["a&b", "a<b", "a>b", 'a"b', '&amp;<c d="e"/>',
                                        "a\tb", "a\nb", "a\rb", "a\r\nb", " a  "])
    def test_markup_in_ids_and_actions_round_trips(self, three_case_base, small_ctx, markup):
        cases, priority = three_case_base
        marked = [ct.GenericCase(c.id + markup, c.perceptions, c.weights, markup + c.action)
                  for c in cases]
        text = ct.serialize_case_base(marked, priority, small_ctx)
        again, _ = ct.parse_case_base(text, small_ctx)
        assert again == marked

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800", "\ufffe"])
    def test_character_xml_forbids_is_rejected(self, three_case_base, small_ctx, char):
        cases, priority = three_case_base
        bad = [ct.GenericCase("a" + char, c.perceptions, c.weights, c.action) for c in cases[:1]]
        with pytest.raises(ValueError):
            ct.serialize_case_base(bad, priority, small_ctx)

    @settings(max_examples=200, deadline=None)
    @given(case_id=st.text(min_size=1), action=st.text())
    def test_arbitrary_ids_and_actions_round_trip(self, three_case_base, small_ctx,
                                                 case_id, action):
        cases, priority = three_case_base
        case = ct.GenericCase(case_id, cases[0].perceptions, cases[0].weights, action)
        if not xml_text_ok(case_id + action):
            with pytest.raises(ValueError):
                ct.serialize_case_base([case], priority, small_ctx)
            return
        again, _ = ct.parse_case_base(ct.serialize_case_base([case], priority, small_ctx),
                                      small_ctx)
        assert again == [case]


class TestUnify:
    def test_full_match(self, case1, exact_case1_target):
        sub, matched = ct.unify(case1, exact_case1_target)
        assert dict(sub.pairs) == {"A": "Agent.1"}
        assert matched == {0, 1, 2}

    def test_empty_target(self, case1):
        sub, matched = ct.unify(case1, target())
        assert not sub and matched == frozenset()

    def test_maximizing_binding_wins(self, case1):
        # A -> Agent.1 matches only partner; A -> Agent.2 matches partner
        # and distance, so it must win.
        t = target(
            P("hasball", [ct.ME], False),
            P("partner", [ct.concrete("Agent.1")], True),
            P("partner", [ct.concrete("Agent.2")], True),
            P("distance", [ct.const("ball", "Ball"), ct.concrete("Agent.2")], "long"),
        )
        sub, matched = ct.unify(case1, t)
        assert dict(sub.pairs) == {"A": "Agent.2"}
        assert len(matched) == 3

    def test_substitution_is_injective(self):
        case = ct.GenericCase("c", (
            P("partner", [ct.generic("A")], True),
            P("partner", [ct.generic("B")], True),
        ), (1.0, 1.0))
        t = target(P("partner", [ct.concrete("Agent.1")], True))
        sub, matched = ct.unify(case, t)
        # only one of A, B can take Agent.1
        assert len(matched) == 1
        assert len(dict(sub.pairs)) == 1

    def test_completion_binding_one_id_twice_is_not_a_match(self):
        case = ct.GenericCase("c", (P("marks", [ct.generic("A"), ct.generic("B")], True),), (1.0,))
        t = target(P("marks", [ct.concrete("Agent.1"), ct.concrete("Agent.1")], True))
        assert ct.unify(case, t) == (ct.Substitution(), frozenset())

    def test_substitution_binds_only_labels_of_matched_perceptions(self):
        # marks(?A, ?B) offers A -> Agent.1; B -> Agent.2 then matches only
        # partner(?B), so the best binding must leave A unbound
        case = ct.GenericCase("c", (P("marks", [ct.generic("A"), ct.generic("B")], True),
                                    P("partner", [ct.generic("B")], True)), (1.0, 2.0))
        t = target(P("partner", [ct.concrete("Agent.2")], True),
                   P("marks", [ct.concrete("Agent.1"), ct.concrete("Agent.3")], True))
        assert ct.unify(case, t) == (ct.Substitution((("B", "Agent.2"),)), frozenset({1}))

    def test_weight_tie_breaks_lexicographically(self):
        case = ct.GenericCase("c", (P("partner", [ct.generic("A")], True),), (1.0,))
        t = target(
            P("partner", [ct.concrete("Agent.1")], True),
            P("partner", [ct.concrete("Agent.2")], True),
        )
        sub, _ = ct.unify(case, t)
        assert dict(sub.pairs) == {"A": "Agent.1"}

    def test_matched_weight_equals_brute_force(self):
        rng = random.Random(5)
        for seed in range(25):
            base = random_base(seed, 6)
            t = random_target(seed + 900)
            if not len(t):
                continue
            for case in base:
                _, matched = ct.unify(case, t)
                got = sum(case.weights[i] for i in matched)
                want = brute_force_best_weight(case, t)
                assert got == pytest.approx(want, abs=1e-12), case.id

    def test_matched_image_lies_in_target(self, case1, exact_case1_target):
        sub, matched = ct.unify(case1, exact_case1_target)
        binding = dict(sub.pairs)
        tset = set(exact_case1_target.perceptions)
        for i in matched:
            values = tuple(
                ct.concrete(binding[v.name]) if v.kind == "generic" else v
                for v in case1.perceptions[i].values
            )
            assert ct.Perception(case1.perceptions[i].name, values,
                                 case1.perceptions[i].choice) in tset


class TestGeneralize:
    def test_single_renaming(self):
        t = target(P("hasball", [ct.concrete("Agent.7")], True))
        case = ct.generalize(t, action="pass")
        assert [str(p) for p in case.perceptions] == ["hasball(?A)=True"]
        assert case.action == "pass"
        assert case.weights == (1.0,)

    def test_consistent_renaming(self):
        t = target(
            P("partner", [ct.concrete("Agent.1")], True),
            P("distance", [ct.const("ball", "Ball"), ct.concrete("Agent.1")], "far"),
        )
        case = ct.generalize(t, action="move")
        labels = {v.name for p in case.perceptions for v in p.values if v.kind == "generic"}
        assert labels == {"A"}

    def test_agents_past_the_label_pool_are_numbered(self):
        t = target(*(P("partner", [ct.concrete(f"Agent.{i}")], True) for i in range(28)))
        case = ct.generalize(t, action="pass")
        labels = [p.values[0].name for p in case.perceptions]
        assert labels == [*"ABCDEFGHIJKLMNOPQRSTUVWXYZ", "G26", "G27"]

    def test_me_is_preserved(self):
        t = target(P("hasball", [ct.ME], False))
        case = ct.generalize(t, action="wait")
        assert case.perceptions[0].values[0].kind == "me"

    def test_alpha_equivalent_to_case1(self, case1, exact_case1_target):
        acquired = ct.generalize(exact_case1_target, action="pass")
        assert ct.case_equivalent(acquired, case1)

    def test_idempotent_up_to_renaming(self):
        for seed in range(10):
            t = random_target(seed + 50)
            if not len(t):
                continue
            a = ct.generalize(t, action="pass", case_id="a")
            b = ct.generalize(t, action="shoot", case_id="b")
            assert ct.case_equivalent(a, b)


class TestCaseEquivalent:
    def test_identity(self, case1):
        assert ct.case_equivalent(case1, case1)

    def test_renamed_labels(self, case1):
        renamed = ct.GenericCase("other", tuple(
            ct.Perception(
                p.name,
                tuple(ct.generic("Z") if v.kind == "generic" else v for v in p.values),
                p.choice,
            ) for p in case1.perceptions
        ), case1.weights)
        assert ct.case_equivalent(case1, renamed)

    def test_different_cases(self, three_case_base):
        cases, _ = three_case_base
        assert not ct.case_equivalent(cases[0], cases[1])
        assert not ct.case_equivalent(cases[0], cases[2])

    def test_label_swap_needs_bijection(self):
        a = ct.GenericCase("a", (
            P("markedBy", [ct.generic("A"), ct.generic("B")], True),
            P("hasball", [ct.generic("A")], True),
        ), (1.0, 1.0))
        b = ct.GenericCase("b", (
            P("markedBy", [ct.generic("A"), ct.generic("B")], True),
            P("hasball", [ct.generic("B")], True),
        ), (1.0, 1.0))
        assert not ct.case_equivalent(a, b)
        swapped = ct.GenericCase("s", (
            P("markedBy", [ct.generic("B"), ct.generic("A")], True),
            P("hasball", [ct.generic("B")], True),
        ), (1.0, 1.0))
        assert ct.case_equivalent(a, swapped)

    def test_weights_and_action_ignored(self, case1):
        reweighted = ct.GenericCase("x", case1.perceptions, (9.0, 9.0, 9.0), "shoot")
        assert ct.case_equivalent(case1, reweighted)

    @staticmethod
    def renamed_shuffled(rng, case):
        """The case with its labels renamed injectively, partly beyond Z, and
        its perceptions shuffled."""
        image = dict(zip(case.generic_labels,
                         rng.sample([f"L{i}" for i in range(40)], len(case.generic_labels))))
        perceptions = [P(p.name, [ct.generic(image[v.name]) if v.kind == "generic" else v
                                  for v in p.values], p.choice) for p in case.perceptions]
        rng.shuffle(perceptions)
        return ct.GenericCase("r", tuple(perceptions), (1.0,) * len(perceptions))

    @staticmethod
    def near_miss(rng, case, edit, ctx):
        """The case with one perception edited: its choice flipped, two of its
        labels swapped, or one of its labels replaced by another of the case's.
        None when no perception admits the edit without duplicating another."""
        perceptions = list(case.perceptions)
        for i in rng.sample(range(len(perceptions)), len(perceptions)):
            p = perceptions[i]
            slots = [k for k, v in enumerate(p.values) if v.kind == "generic"]
            values = list(p.values)
            if edit == "flip" and isinstance(p.choice, bool):
                edited = P(p.name, values, not p.choice)
            elif edit == "flip":
                edited = P(p.name, values, rng.choice(
                    [c for c in ctx.predicates[p.name].choice.labels if c != p.choice]))
            elif edit == "swap" and len(slots) >= 2 and values[slots[0]] != values[slots[1]]:
                values[slots[0]], values[slots[1]] = values[slots[1]], values[slots[0]]
                edited = P(p.name, values, p.choice)
            elif edit == "repeat" and slots and len(case.generic_labels) >= 2:
                k = rng.choice(slots)
                values[k] = ct.generic(rng.choice(
                    [label for label in case.generic_labels if label != values[k].name]))
                edited = P(p.name, values, p.choice)
            else:
                continue
            if edited not in perceptions:
                perceptions[i] = edited
                return ct.GenericCase("m", tuple(perceptions), (1.0,) * len(perceptions))
        return None

    @given(st.integers(0, 10_000), st.sampled_from((6, 8, 22)), st.sampled_from((30, 120)),
           st.sampled_from(("same", "other", "flip", "swap", "repeat")), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, football_ctx, seed, players, radius, edit, rename):
        rng = random.Random(seed)
        worlds = [ct.generate_world(seed + i, players) for i in range(2)]
        pool = [ct.elaborate(w, w.self_id, radius=radius) for w in worlds]
        if not all(len(t) for t in pool):
            return

        def draw(source):
            case = sample_case(rng, source, football_ctx, "c", max_perceptions=6)
            while len(case.generic_labels) > 6:
                case = sample_case(rng, source, football_ctx, "c", max_perceptions=6)
            return case

        a = draw(pool[0])
        if edit == "same":
            b = a
        elif edit == "other":
            b = draw(pool[rng.randrange(2)])
        else:
            b = self.near_miss(rng, a, edit, football_ctx) or a
        if rename:
            b = self.renamed_shuffled(rng, b)
        assert ct.case_equivalent(a, b) == brute_force_equivalent(a, b)
        assert ct.case_equivalent(b, a) == brute_force_equivalent(b, a)


class TestInvariants:
    def test_generic_case_rejects_concrete_agents(self):
        with pytest.raises(ct.CaseError):
            ct.GenericCase("bad", (P("hasball", [ct.concrete("Agent.1")], True),), (1.0,))

    def test_generic_case_rejects_more_weights_than_perceptions(self):
        with pytest.raises(ct.CaseError) as err:
            ct.GenericCase("c", (P("hasball", [ct.ME], True),), (1.0, 1.0))
        assert str(err.value) == "case c: 2 weights for 1 perceptions"

    def test_target_rejects_generic_agents(self):
        with pytest.raises(ct.CaseError):
            ct.TargetCase(perceptions=(P("hasball", [ct.generic("A")], True),))

    def test_target_index_is_whole_when_the_constructor_returns(self):
        # no lookup has been made: each perception's agent ids, keyed by its
        # predicate, choice and per-argument shape
        world = ct.generate_world(5, 22)
        target = ct.elaborate(world, world.self_id, 120.0)
        expected: dict = {}
        for p in target.perceptions:
            shape = tuple(None if v.kind == "concrete" else (v.kind, v.name) for v in p.values)
            expected.setdefault((p.name, p.choice, shape), []).append(
                tuple(v.name for v in p.values if v.kind == "concrete"))
        assert vars(target)["_index"] == expected

    def test_target_index_is_not_part_of_repr_eq_or_hash(self):
        world = ct.generate_world(5, 6)
        target = ct.elaborate(world, world.self_id, 120.0)
        assert "_index" not in repr(target)
        twin = ct.TargetCase(target.perceptions, target.origin)
        object.__setattr__(twin, "_index", {})
        assert twin == target and hash(twin) == hash(target)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_generic_case_rejects_non_finite_weights(self, weight):
        with pytest.raises(ct.CaseError, match="non-finite"):
            ct.GenericCase("bad", (P("hasball", [ct.ME], True),
                                   P("partner", [ct.ME], True)), (1.0, weight))

    def test_total_weight_is_summed_once_left_to_right(self):
        # ten weights of 0.1 sum to 0.9999999999999999 left to right, and to 1.0
        # under the compensated sum of Python 3.12 on
        tenths = ct.GenericCase("tenths", tuple(P("partner", [ct.generic(f"A{i}")], True)
                                                for i in range(10)), (0.1,) * 10)
        for case in [tenths, *random_base(7, 40)]:
            assert case.total_weight.hex() == reduce(add, case.weights, 0.0).hex(), case.id
        assert tenths.total_weight == 0.9999999999999999

    def test_total_weight_is_not_part_of_repr_eq_or_hash(self, case1):
        assert "total_weight" not in repr(case1)
        twin = ct.GenericCase(case1.id, case1.perceptions, case1.weights, case1.action)
        object.__setattr__(twin, "total_weight", 2.0)
        assert twin == case1 and hash(twin) == hash(case1)

    def test_total_weight_is_mask_weight_over_every_index(self):
        tenths = ct.GenericCase("tenths", tuple(P("partner", [ct.generic(f"A{i}")], True)
                                                for i in range(10)), (0.1,) * 10)
        for case in [tenths, *random_base(7, 40)]:
            every = (1 << len(case.weights)) - 1
            assert case.total_weight.hex() == mask_weight(case.weights, every)[0].hex(), case.id

    def test_generic_labels_are_sorted(self):
        # the column order of completion rows, whatever the order of appearance
        marked = P("markedBy", [ct.generic("B"), ct.generic("A")], True)
        assert ct.cases.pattern_labels(marked.values) == ("A", "B")
        case = ct.GenericCase("c", (P("partner", [ct.generic("C")], True), marked), (1.0, 1.0))
        assert case.generic_labels == ("A", "B", "C")

    def test_duplicate_perceptions_rejected(self):
        p = P("hasball", [ct.ME], True)
        with pytest.raises(ct.CaseError):
            ct.GenericCase("dup", (p, p), (1.0, 1.0))

    def test_perception_is_a_frozen_slotted_triple(self):
        # its __init__ writes through the slots' setters; repr, ==, hash,
        # freezing and pickling stay the dataclass's own, and the hash is the
        # field tuple's, so set and dict orders over perceptions do not move
        values = (ct.ME, ct.concrete("Agent.3"))
        p = ct.Perception("distance", values, "long")
        assert repr(p) == ("Perception(name='distance', values=(Value(kind='me', name='me', "
                           "sort=None), Value(kind='concrete', name='Agent.3', sort=None)), "
                           "choice='long')")
        assert p == ct.Perception(name="distance", values=values, choice="long")
        assert p != ct.Perception("distance", values, "short")
        assert hash(p) == hash((p.name, p.values, p.choice))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.choice = "short"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.name
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and repr(copy) == repr(p) and hash(copy) == hash(p)
        assert not hasattr(p, "__dict__")

    def test_substitution_injectivity_enforced(self):
        with pytest.raises(ct.CaseError):
            ct.Substitution((("A", "Agent.1"), ("B", "Agent.1")))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_unify_never_exceeds_brute_force(self, seed):
        base = random_base(seed % 40, 3)
        t = random_target(seed % 40 + 300)
        if not base or not len(t):
            return
        case = base[seed % len(base)]
        _, matched = ct.unify(case, t)
        got = sum(case.weights[i] for i in matched)
        assert got <= brute_force_best_weight(case, t) + 1e-12


class TestLargeTargets:
    """The binding search is exact however many agents the target holds."""

    def target_with(self, n_partners):
        perceptions = [P("hasball", [ct.ME], False)]
        for i in range(1, n_partners + 1):
            perceptions.append(P("partner", [ct.concrete(f"Agent.{i}")], True))
        perceptions.append(
            P("distance", [ct.const("ball", "Ball"), ct.concrete(f"Agent.{n_partners}")], "long")
        )
        return target(*perceptions)

    def test_result_is_a_valid_matching(self, case1):
        t = self.target_with(8)
        sub, matched = ct.unify(case1, t)
        binding = dict(sub.pairs)
        assert len(set(binding.values())) == len(binding)
        tset = set(t.perceptions)
        for i in matched:
            p = case1.perceptions[i]
            values = tuple(
                ct.concrete(binding[v.name]) if v.kind == "generic" else v
                for v in p.values
            )
            assert ct.Perception(p.name, values, p.choice) in tset

    def test_is_deterministic(self, case1):
        t = self.target_with(10)
        assert ct.unify(case1, t) == ct.unify(case1, t)

    def test_exact_at_every_agent_count(self, case1):
        # the binding that also matches the distance perception must win
        for n_partners in (4, 5, 8, 21):
            sub, matched = ct.unify(case1, self.target_with(n_partners))
            assert matched == frozenset({0, 1, 2})
            assert dict(sub.pairs) == {"A": f"Agent.{n_partners}"}

    def test_joint_binding_beats_label_by_label(self):
        # every partner matches partner(?A) alike, but only Agent.7 leaves
        # marks(?A, ?B) matchable: binding A before looking at B loses it
        t = target(*[P("partner", [ct.concrete(f"Agent.{i}")], True) for i in range(1, 8)],
                   P("marks", [ct.concrete("Agent.7"), ct.concrete("Agent.3")], True))
        case = ct.GenericCase("c", (P("partner", [ct.generic("A")], True),
                                    P("marks", [ct.generic("A"), ct.generic("B")], True)),
                              (1.0, 1.0))
        sub, matched = ct.unify(case, t)
        assert (dict(sub.pairs), matched) == ({"A": "Agent.7", "B": "Agent.3"},
                                              frozenset({0, 1}))

    @given(st.integers(0, 10_000), st.sampled_from(range(8, 23, 2)), st.booleans(),
           st.sampled_from((0.0, 0.5)))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_at_many_agents(self, football_ctx, seed, players, zero,
                                                alpha):
        # whole-pitch targets perceive every other player; the cases come from
        # another such world, and zero weights make exact score ties common
        world = ct.generate_world(seed, players)
        t = ct.elaborate(world, world.self_id, radius=120)
        source_world = ct.generate_world(seed + 1, players)
        source = ct.elaborate(source_world, source_world.self_id, radius=120)
        rng = random.Random(seed)
        case = sample_case(rng, source, football_ctx, "c", max_perceptions=4)
        while len(case.generic_labels) > 3:
            case = sample_case(rng, source, football_ctx, "c", max_perceptions=4)
        if zero:
            case = zero_odd_weights(case)
        coverage = coverage_table(len(t), len(case.perceptions), ct.SimilarityParams(alpha))
        score, sub, matched = scored_unify(case, t, coverage)
        want_score, want_sub, want_matched = brute_force_optimum(case, t, alpha)
        assert score == pytest.approx(want_score, abs=1e-12)
        assert sub == want_sub
        assert matched == sum(1 << i for i in want_matched)


@st.composite
def search_inputs(draw):
    """Arguments for ``_search_bindings``: 1-5 perceptions, each with 0-3
    labels from a pool of at most 4 and unique rows of that width over at
    most 6 ids shared by all, weights that include 0, an objective with
    alpha 0 or 0.5, and a floor of -inf or a random value."""
    pool = "ABCD"[:draw(st.integers(1, 4))]
    ids = [f"Agent.{i}" for i in range(1, draw(st.integers(1, 6)) + 1)]
    n = draw(st.integers(1, 5))
    perceptions = []
    for i in range(n):
        own = tuple(sorted(draw(st.sets(st.sampled_from(pool), max_size=min(3, len(pool))))))
        if len(own) > len(ids):
            rows = []
        else:
            rows = sorted(draw(st.lists(st.permutations(ids).map(lambda p: tuple(p[:len(own)])),
                                        unique=True, max_size=6)))
        perceptions.append((i, own, rows))
    weights = tuple(draw(st.lists(st.sampled_from((0.0, 0.3, 0.7, 1.0, 2.5)),
                                  min_size=n, max_size=n)))
    total = mask_weight(weights, (1 << n) - 1)[0] or 1.0
    alpha = draw(st.sampled_from((0.0, 0.5)))
    size = n + draw(st.integers(0, 3))
    floor = draw(st.one_of(st.just(-math.inf), st.floats(0.0, 1.0)))
    return weights, perceptions, lambda w, m: partial_score(w, m, total, size, alpha), floor


def stops_at(k):
    """An interrupt flag that first holds at its ``k``-th question, and the
    list of the questions' ordinals."""
    asked = []

    def interrupted():
        asked.append(len(asked) + 1)
        return len(asked) >= k
    return interrupted, asked


class TestSearchBindings:
    """The binding search, called directly on synthesized rows."""

    @given(search_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, inputs):
        weights, perceptions, objective, floor = inputs
        want = brute_force_search(weights, perceptions, objective)
        got = _search_bindings(_WeightSums(weights), perceptions, objective, None, floor)
        if want[0] > floor:
            assert got == want
        else:
            assert got[0] <= floor

    @given(search_inputs())
    @settings(max_examples=100, deadline=None)
    def test_stops_at_every_question(self, inputs):
        weights, perceptions, objective, floor = inputs
        never, asked = stops_at(math.inf)
        sums = _WeightSums(weights)
        assert _search_bindings(sums, perceptions, objective, never, floor) is not None
        for k in range(1, len(asked) + 1):
            flag, seen = stops_at(k)
            assert _search_bindings(sums, perceptions, objective, flag, floor) is None
            assert len(seen) == k

    def test_nothing_to_bind_still_asks_once(self):
        # a ground perception that matches, one that does not, and one whose
        # labels have no rows: no label is left to bind
        perceptions = [(0, (), [()]), (1, (), []), (2, ("A",), [])]
        never, asked = stops_at(math.inf)
        sums = _WeightSums((1.0, 1.0, 1.0))
        assert _search_bindings(sums, perceptions, lambda w, n: w, never) == (1.0, (), 1)
        assert asked == [1]
        flag, asked = stops_at(1)
        assert _search_bindings(sums, perceptions, lambda w, n: w, flag) is None
        assert asked == [1]
