from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

import casetree as ct
from casetree.context import DISTANCE_LABELS
from support import xml_text_ok


class TestParseContext:
    def test_small_context_contents(self, small_ctx):
        assert list(small_ctx.predicates) == ["hasball", "partner", "distance"]
        hasball = small_ctx.predicates["hasball"]
        assert hasball.params == (("Y1", "Agent"),)
        assert hasball.choice.kind == "boolean"
        distance = small_ctx.predicates["distance"]
        assert distance.params == (("Z1", "PhysicalObject"), ("Z2", "Agent"))
        assert distance.choice.labels == ("close", "far", "long")

    def test_empty_document(self):
        ctx = ct.parse_context("<ctx/>")
        assert ctx.predicates == {}

    def test_duplicate_predicate_reports_name_and_path(self, fixture_dir):
        text = (fixture_dir / "small.ctx.xml").read_text()
        doubled = text.replace(
            "</ctx>",
            '<predicate name="partner">'
            '<variable name="X1" type="Agent"/>'
            '<choice name="X2" type="Boolean"/></predicate></ctx>',
        )
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context(doubled)
        assert "partner" in str(err.value)
        assert "predicate[4]" in str(err.value)

    def test_unknown_sort_reports_path(self):
        doc = ('<ctx><predicate name="p"><variable name="X" type="Starship"/>'
               '<choice name="C" type="Boolean"/></predicate></ctx>')
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context(doc)
        assert "Starship" in str(err.value)

    def test_malformed_document(self):
        with pytest.raises(ct.ContextError):
            ct.parse_context("<ctx><predicate></ctx>")

    def test_undeclared_domain(self):
        doc = ('<ctx><predicate name="p">'
               '<choice name="C" type="speed"/></predicate></ctx>')
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context(doc)
        assert "speed" in str(err.value)

    def test_inline_domain_is_an_unknown_domain(self):
        # a domain is declared only by a <domain> element
        doc = ('<ctx><predicate name="p">'
               '<choice name="C" type="speed" values="slow,fast"/></predicate></ctx>')
        with pytest.raises(ct.ContextError, match="unknown attribute 'values'"):
            ct.parse_context(doc)

    @pytest.mark.parametrize("doc,name,path", [
        ('<ctx version="1"/>', "version", "ctx"),
        ('<ctx><domain name="d" values="a,b" label="a"/></ctx>', "label", "ctx/domain[1]"),
        ('<ctx><predicate name="p" arity="0"><choice name="C" type="Boolean"/></predicate>'
         '</ctx>', "arity", "ctx/predicate[1]"),
        ('<ctx><predicate name="p"><variable name="X" type="Agent" sort="Ball"/>'
         '<choice name="C" type="Boolean"/></predicate></ctx>', "sort",
         "ctx/predicate[1]/variable[1]"),
        # the deleted inline form would otherwise load d's labels, not x and y
        ('<ctx><domain name="d" values="a,b"/><predicate name="p">'
         '<choice name="C" type="d" values="x,y"/></predicate></ctx>', "values",
         "ctx/predicate[1]/choice"),
    ], ids=["ctx", "domain", "predicate", "variable", "choice"])
    def test_unknown_attribute_rejected(self, doc, name, path):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context(doc)
        assert str(err.value) == f"unknown attribute {name!r} (at {path})"

    @pytest.mark.parametrize("doc,message,path", [
        ('<ctx><predicate><choice name="C" type="Boolean"/></predicate></ctx>',
         "missing 'name' attribute", "ctx/predicate[1]"),
        ('<ctx><predicate name="p"><variable name="X" type="Agent"/></predicate></ctx>',
         "predicate has no choice variable", "ctx/predicate[1]"),
        ('<ctx><predicate name="p"><choice name="C" type="Boolean"/>'
         '<choice name="D" type="Boolean"/></predicate></ctx>',
         "more than one choice variable", "ctx/predicate[1]/choice"),
        ('<ctx><domain name="d" values="a,b"/><domain name="d" values="a,c"/></ctx>',
         "domain 'd' declared twice with different labels", "ctx/domain[2]"),
        ('<ctx><domain name="d" values=""/></ctx>', "qualitative domain 'd' has no labels",
         "ctx/domain[1]"),
        ('<ctx><sort name="Starship"/></ctx>', "unexpected element <sort>", "ctx/sort"),
        ('<ctx><predicate name="p"><param name="X"/><choice name="C" type="Boolean"/>'
         '</predicate></ctx>', "unexpected element <param>", "ctx/predicate[1]/param"),
        # elaborate matches names case-insensitively: it would file every
        # partner perception under one spelling, and cases of the other
        # would stop matching
        ('<ctx><predicate name="partner"><variable name="P1" type="Agent"/>'
         '<choice name="V" type="Boolean"/></predicate><predicate name="PARTNER">'
         '<variable name="P1" type="Agent"/><choice name="V" type="Boolean"/></predicate></ctx>',
         "predicate 'PARTNER' differs from 'partner' only in case", "ctx/predicate[2]"),
    ], ids=["missing-attribute", "no-choice", "second-choice", "domain-redeclared",
            "domain-without-labels", "ctx-child", "predicate-child", "case-only-difference"])
    def test_malformed_document_reports_message_and_path(self, doc, message, path):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context(doc)
        assert str(err.value) == f"{message} (at {path})"

    @pytest.mark.parametrize("doc,message", [
        ('<ctx><predicate name="p"><variable name="X" type="Agent"/>'
         '<variable name="X" type="Ball"/><choice name="C" type="Boolean"/></predicate></ctx>',
         "predicate 'p' repeats a parameter name"),
        ('<ctx><predicate name="p"><variable name="X" type="Agent"/>'
         '<choice name="X" type="Boolean"/></predicate></ctx>',
         "predicate 'p' reuses 'X' for its choice"),
    ], ids=["parameter", "choice"])
    def test_repeated_variable_name_reports_path(self, doc, message):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context(doc)
        assert str(err.value) == f"{message} (at ctx/predicate[1])"

    def test_wrong_root_element_rejected(self):
        with pytest.raises(ct.ContextError) as err:
            ct.parse_context("<caseBase/>")
        assert str(err.value) == "expected <ctx> root, found <caseBase> (at caseBase)"

    def test_round_trip(self, small_ctx, football_ctx):
        for ctx in (small_ctx, football_ctx):
            assert ct.parse_context(ct.serialize_context(ctx)) == ctx

    def test_markup_in_names_round_trips(self):
        domain = ct.qualitative('d&<>"', ("a&b", "c<d", 'e>"f'))
        schema = ct.PredicateSchema('p&"', (("X<1", "Agent"),), "Y>&", domain)
        ctx = ct.Context(predicates={schema.name: schema}, domains={domain.domain: domain})
        assert ct.parse_context(ct.serialize_context(ctx)) == ctx

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text(), st.text(), st.text())
    def test_arbitrary_names_round_trip(self, predicate, variable, choice, domain):
        assume(variable != choice and domain != "Boolean")
        values = ct.qualitative(domain, ("a", "b"))
        schema = ct.PredicateSchema(predicate, ((variable, "Agent"),), choice, values)
        ctx = ct.Context(predicates={predicate: schema}, domains={domain: values})
        if not xml_text_ok(predicate + variable + choice + domain):
            with pytest.raises(ValueError):
                ct.serialize_context(ctx)
            return
        assert ct.parse_context(ct.serialize_context(ctx)) == ctx

    @pytest.mark.parametrize("domain,labels", [
        ("Boolean", ("a", "b")),
        ("d", ("a", "")),
        ("d", ("a,b", "c")),
        ("d", (" a", "b")),
        ("d", ("a", "b\n")),
        ("d", ("true", "maybe")),
        ("d", ("false",)),
    ])
    def test_domain_documents_cannot_carry_is_rejected(self, domain, labels):
        with pytest.raises(ValueError):
            ct.qualitative(domain, labels)

    @pytest.mark.parametrize("doc", [
        '<ctx><domain name="Boolean" values="a,b"/></ctx>',
        '<ctx><domain name="d" values="true,maybe"/></ctx>',
        # <choice> carries no values= list, so the bad labels never load
        '<ctx><predicate name="p"><choice name="C" type="d" values="maybe,false"/>'
        '</predicate></ctx>',
        '<ctx><domain name="d" values="maybe,false"/>'
        '<predicate name="p"><choice name="C" type="d"/></predicate></ctx>',
    ])
    def test_domain_documents_cannot_carry_raises_context_error(self, doc):
        with pytest.raises(ct.ContextError):
            ct.parse_context(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.text(), st.lists(st.text(), min_size=1, max_size=4))
    def test_arbitrary_domains_round_trip_or_are_rejected(self, domain, labels):
        try:
            values = ct.qualitative(domain, labels)
        except ValueError:
            return
        schema = ct.PredicateSchema("p", (("X", "Agent"),), "C", values)
        ctx = ct.Context(predicates={"p": schema}, domains={domain: values})
        case = ct.GenericCase("c", tuple(ct.Perception("p", (ct.generic("A"),), label)
                                         for label in labels), (1.0,) * len(labels), "a")
        if xml_text_ok(domain + "".join(labels)):
            assert ct.parse_context(ct.serialize_context(ctx)) == ctx
        else:
            with pytest.raises(ValueError):
                ct.serialize_context(ctx)
        # a case base writes the labels but not the domain name
        if xml_text_ok("".join(labels)):
            again = ct.parse_case_base(ct.serialize_case_base([case], ("p",), ctx), ctx)
            assert again == ([case], ("p",))
        else:
            with pytest.raises(ValueError):
                ct.serialize_case_base([case], ("p",), ctx)

    @pytest.mark.parametrize("domain,labels", [
        ("Flag", ()),
        ("Boolean", ("x",)),
        ("Flag", ("x",)),
    ])
    def test_boolean_sort_is_boolean_without_labels(self, domain, labels):
        # the documents write every boolean sort as type="Boolean", which
        # reads back as BOOLEAN
        with pytest.raises(ValueError):
            ct.ValueSort("boolean", domain, labels)

    def test_double_round_trip_is_stable(self, football_ctx):
        once = ct.serialize_context(football_ctx)
        twice = ct.serialize_context(ct.parse_context(once))
        assert once == twice


class TestValidatePerception:
    def test_conforming(self, small_ctx):
        p = ct.Perception(
            "distance", (ct.const("ball", "Ball"), ct.concrete("Agent.1")), "long"
        )
        assert ct.validate_perception(p, small_ctx) is None

    def test_arity_violation(self, small_ctx):
        p = ct.Perception("distance", (ct.const("ball", "Ball"),), "long")
        v = ct.validate_perception(p, small_ctx)
        assert v is not None and v.startswith("arity: ")

    def test_value_violation(self, small_ctx):
        p = ct.Perception(
            "distance", (ct.const("ball", "Ball"), ct.concrete("Agent.1")), "medium"
        )
        v = ct.validate_perception(p, small_ctx)
        assert v is not None and v.startswith("value: ")
        assert "medium" in v

    def test_unknown_predicate(self, small_ctx):
        p = ct.Perception("teleports", (ct.ME,), True)
        v = ct.validate_perception(p, small_ctx)
        assert v is not None and v.startswith("unknown-predicate: ")

    def test_sort_violation(self, small_ctx):
        # hasball expects an Agent, a Team constant does not conform
        p = ct.Perception("hasball", (ct.const("teamA", "Team"),), True)
        v = ct.validate_perception(p, small_ctx)
        assert v is not None and v.startswith("sort: ")

    def test_subsort_conformance(self, football_ctx):
        # distance ranges over PhysicalObject; Agent and Ball both conform
        p = ct.Perception("distance", (ct.ME, ct.const("ball", "Ball")), "close")
        assert ct.validate_perception(p, football_ctx) is None

    def test_boolean_choice_must_be_bool(self, small_ctx):
        p = ct.Perception("hasball", (ct.ME,), "true")
        v = ct.validate_perception(p, small_ctx)
        assert v is not None and v.startswith("value: ")


class TestQuantizeDistance:
    @pytest.mark.parametrize("meters,label", [
        (12.0, "far"),
        (0.0, "close"),
        (25.0, "long"),
        (7.999, "close"),
        (8.0, "far"),     # boundaries belong to far
        (20.0, "far"),
        (20.001, "long"),
    ])
    def test_bands(self, meters, label):
        assert ct.quantize_distance(meters) == label

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ct.quantize_distance(-0.1)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_total_and_valid(self, meters):
        assert ct.quantize_distance(meters) in DISTANCE_LABELS

    @given(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
    )
    def test_monotone_in_label_order(self, a, b):
        lo, hi = sorted((a, b))
        order = {label: i for i, label in enumerate(DISTANCE_LABELS)}
        assert order[ct.quantize_distance(lo)] <= order[ct.quantize_distance(hi)]
