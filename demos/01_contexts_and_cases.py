"""Contexts, cases, and unification
===================================

The vocabulary an agent perceives with is a *context*: typed predicates
whose observed value is either Boolean or a qualitative label. Stored
cases are *generic*: their agents are placeholders, so one case covers
every concrete situation with the same structure. This script walks
through parsing both, validating perceptions, and unifying a generic
case against a concrete situation.
"""

import casetree as ct

# %% A tiny context: who has the ball, who is a teammate, how far things are.

CONTEXT = """\
<ctx>
  <domain name="distance" values="close,far,long"/>
  <predicate name="hasball">
    <variable name="Y1" type="Agent"/>
    <choice name="Y2" type="Boolean"/>
  </predicate>
  <predicate name="partner">
    <variable name="X1" type="Agent"/>
    <choice name="X2" type="Boolean"/>
  </predicate>
  <predicate name="distance">
    <variable name="Z1" type="PhysicalObject"/>
    <variable name="Z2" type="Agent"/>
    <choice name="Z3" type="distance"/>
  </predicate>
</ctx>
"""

ctx = ct.parse_context(CONTEXT)
print("declared predicates:")
for schema in ctx.predicates.values():
    params = ", ".join(f"{v}:{s}" for v, s in schema.params)
    kind = "Boolean" if schema.choice.kind == "boolean" else schema.choice.labels
    print(f"  {schema.name}({params}) -> {kind}")

# %% Qualitative values abstract numbers: the metric distance collapses
# into the labels experts actually reason with.

for meters in (3.0, 12.0, 47.5):
    print(f"{meters:5.1f} m  ->  {ct.quantize_distance(meters)}")

# %% A generic case: I do not have the ball, some teammate A exists, and
# the ball is long away from A. Each perception carries an expert-set
# relevance weight, and the case recommends an action.

CASE = """\
<case id="case1" action="pass">
  <predicate name="hasball" weight="0.3">
    <value val="me" type="Me"/>
    <choice val="false"/>
  </predicate>
  <predicate name="partner" weight="0.7">
    <value val="A" type="GenericAgent"/>
    <choice val="true"/>
  </predicate>
  <predicate name="distance" weight="0.45">
    <value val="ball" type="Ball"/>
    <value val="A" type="GenericAgent"/>
    <choice val="long"/>
  </predicate>
</case>
"""

case1 = ct.parse_case(CASE, ctx)
print("\ncase1 recommends:", case1.action)
for p, w in zip(case1.perceptions, case1.weights):
    print(f"  {p}  (weight {w})")

# %% Perceptions are validated against the context; violations are
# structured values rather than exceptions.

bad = ct.Perception("distance", (ct.const("ball", "Ball"), ct.concrete("Agent.1")), "medium")
print("\nvalidating distance(...)=medium:", ct.validate_perception(bad, ctx))

# %% Unification binds generic agents to concrete ones, injectively, and
# picks the binding with the largest matched relevance weight. Here
# Agent.2 matches both the partner and the distance perception while
# Agent.1 would match the partner only.

target = ct.TargetCase(perceptions=(
    ct.Perception("hasball", (ct.ME,), False),
    ct.Perception("partner", (ct.concrete("Agent.1"),), True),
    ct.Perception("partner", (ct.concrete("Agent.2"),), True),
    ct.Perception("distance", (ct.const("ball", "Ball"), ct.concrete("Agent.2")), "long"),
), origin="demo")

sub, matched = ct.unify(case1, target)
print(f"\nbest binding: {sub}  ({len(matched)} of {len(case1.perceptions)} matched)")

# %% The offline similarity weighs matched relevance against how much of
# the target stays unexplained; alpha trades breadth for strictness.

for alpha in (0.0, 0.5, 1.0):
    score = ct.similarity(case1, target, ct.SimilarityParams(alpha))
    print(f"alpha={alpha:3.1f}  similarity={score:.4f}")

# %% Acquisition runs the other way: any concrete situation can be
# abstracted back into a generic case, and equivalent abstractions are
# recognized no matter how the placeholder labels are spelled.

acquired = ct.generalize(target, action="pass", case_id="fresh")
print("\nacquired case perceptions:", [str(p) for p in acquired.perceptions])
print("equivalent to a re-acquisition:",
      ct.case_equivalent(acquired, ct.generalize(target, action="x", case_id="y")))
