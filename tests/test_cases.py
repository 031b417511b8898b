from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import casetree as ct
from casetree.similarity import scored_unify
from support import (
    brute_force_best_weight,
    brute_force_optimum,
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

    def test_base_round_trip(self, three_case_base, small_ctx):
        cases, priority = three_case_base
        text = ct.serialize_case_base(cases, priority, small_ctx)
        again, priority2 = ct.parse_case_base(text, small_ctx)
        assert again == cases
        assert priority2 == priority


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
        assert sub.as_dict() == {"A": "Agent.1"}
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
        assert sub.as_dict() == {"A": "Agent.2"}
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
        assert len(sub.as_dict()) == 1

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
        assert sub.as_dict() == {"A": "Agent.1"}

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
        binding = sub.as_dict()
        tset = exact_case1_target.perception_set
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


class TestInvariants:
    def test_generic_case_rejects_concrete_agents(self):
        with pytest.raises(ct.CaseError):
            ct.GenericCase("bad", (P("hasball", [ct.concrete("Agent.1")], True),), (1.0,))

    def test_target_rejects_generic_agents(self):
        with pytest.raises(ct.CaseError):
            ct.TargetCase(perceptions=(P("hasball", [ct.generic("A")], True),))

    def test_duplicate_perceptions_rejected(self):
        p = P("hasball", [ct.ME], True)
        with pytest.raises(ct.CaseError):
            ct.GenericCase("dup", (p, p), (1.0, 1.0))

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
        binding = sub.as_dict()
        assert len(set(binding.values())) == len(binding)
        tset = t.perception_set
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
            assert sub.as_dict() == {"A": f"Agent.{n_partners}"}

    def test_joint_binding_beats_label_by_label(self):
        # every partner matches partner(?A) alike, but only Agent.7 leaves
        # marks(?A, ?B) matchable: binding A before looking at B loses it
        t = target(*[P("partner", [ct.concrete(f"Agent.{i}")], True) for i in range(1, 8)],
                   P("marks", [ct.concrete("Agent.7"), ct.concrete("Agent.3")], True))
        case = ct.GenericCase("c", (P("partner", [ct.generic("A")], True),
                                    P("marks", [ct.generic("A"), ct.generic("B")], True)),
                              (1.0, 1.0))
        sub, matched = ct.unify(case, t)
        assert (sub.as_dict(), matched) == ({"A": "Agent.7", "B": "Agent.3"}, frozenset({0, 1}))

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
        score, sub, matched = scored_unify(case, t, ct.SimilarityParams(alpha))
        want_score, want_sub, want_matched = brute_force_optimum(case, t, alpha)
        assert score == pytest.approx(want_score, abs=1e-12)
        assert sub == want_sub
        assert matched == frozenset(want_matched)
