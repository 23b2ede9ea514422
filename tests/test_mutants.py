"""A register of hand-written mutants of the rewrite engine, each of which
a semantic property must kill.

A mutant is applied by monkeypatch and the property is run under it with
derandomised examples: the mutant is killed when the property fails.  A
golden byte pin that happens to move does not count, since pins move
with every format change and with the BLAS kernel.  A mutant that no
evaluation can tell apart from the program (an equivalent mutant) is
listed in a comment with the reason, and is not counted as killed;
neither mutant below is equivalent.
"""

import itertools

import pytest
from hypothesis import Phase, given, settings, strategies as st

from cqcalc import rewrite as rw
from test_rewrite import merge_keeps_host_evaluation


def _swap_first_same_typed(types, atts):
    """atts with the attachments of the first two equal types swapped."""
    atts = list(atts)
    for i, j in itertools.combinations(range(len(types)), 2):
        if types[i] == types[j]:
            atts[i], atts[j] = atts[j], atts[i]
            break
    return atts


def _merge_swaps_incoming(monkeypatch):
    # merge_step wires the new hole's first two same-typed inputs to each
    # other's host wire
    cut = rw.cut_subdiagram

    def mutant(d, loc):
        sub, ins, outs = cut(d, loc)
        return sub, _swap_first_same_typed(sub.in_types, ins), outs

    monkeypatch.setattr(rw, "cut_subdiagram", mutant)


def _merge_swaps_outgoing(monkeypatch):
    # the twin on the hole's outputs
    cut = rw.cut_subdiagram

    def mutant(d, loc):
        sub, ins, outs = cut(d, loc)
        return sub, ins, _swap_first_same_typed(sub.out_types, outs)

    monkeypatch.setattr(rw, "cut_subdiagram", mutant)


# name: (apply by monkeypatch, the property that must fail under it)
MUTANTS = {
    "merge_step_swaps_first_same_typed_inputs": (_merge_swaps_incoming, merge_keeps_host_evaluation),
    "merge_step_swaps_first_same_typed_outputs": (_merge_swaps_outgoing, merge_keeps_host_evaluation),
}


def _derandomised(prop):
    """prop under the examples every run of the register draws; a
    failure needs no shrinking to count."""
    return settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        phases=[Phase.explicit, Phase.generate],
    )(given(data=st.data(), seed=st.integers(0, 2**16))(prop))


@pytest.mark.parametrize("prop", sorted({prop for _, prop in MUTANTS.values()}, key=lambda f: f.__name__))
def test_property_holds_on_the_program(prop):
    # so that a kill below is the mutant's doing
    _derandomised(prop)()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    apply, prop = MUTANTS[name]
    apply(monkeypatch)
    with pytest.raises(AssertionError):
        _derandomised(prop)()
