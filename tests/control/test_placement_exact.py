"""``plan_placement`` against a verbatim copy of the version without an
early exit.

The planner now returns before its by-heat passes when nothing is
stranded and no placed app has another card with room that would cut
its crossings or is lighter by more than its load. That exit must never
change an answer, so Hypothesis draws small topologies — one to four
cards, some of them dead, homes that strand apps and stretch capacity,
per-``(app, card)`` crossing tables, and zero, equal and skewed loads —
and the plan must equal the reference's: the same assignment (in the
same order) and the same migrations. A profile hook also checks that
the exit is taken: where every card costs an app the same crossings, a
move that is possible is made, so the passes must run exactly when the
plan migrates.
"""

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import plan_placement
from repro.core import DMXSystem, Mode, SystemConfig
from repro.core.system import STANDALONE_APPS_PER_CARD
from repro.workloads import build_benchmark_chains

# -- the replaced code, verbatim ----------------------------------------------


@dataclass(frozen=True)
class ReferencePlan:
    assignment: Dict[int, str]
    migrations: List["tuple[int, str, str]"]


def reference_plan_placement(
    system,
    loads: Dict[int, float],
    alive_cards: Sequence[str],
) -> ReferencePlan:
    if not alive_cards:
        raise ValueError("no cards in service to place chains on")
    cards = sorted(alive_cards)
    alive = set(cards)
    n_apps = len(system.chains)
    capacity = max(
        STANDALONE_APPS_PER_CARD, math.ceil(n_apps / len(cards))
    )

    assignment: Dict[int, str] = {}
    occupancy = {card: 0 for card in cards}
    card_load = {card: 0.0 for card in cards}
    stranded: List[int] = []
    for app_index in range(n_apps):
        home = system.card_of_app(app_index)
        if home in alive:
            assignment[app_index] = home
            occupancy[home] += 1
            card_load[home] += loads.get(app_index, 0.0)
        else:
            stranded.append(app_index)

    def by_heat(apps):
        return sorted(apps, key=lambda a: (-loads.get(a, 0.0), a))

    def best_card(app_index, exclude=None):
        return min(
            (
                card for card in cards
                if card != exclude and occupancy[card] < capacity
            ),
            key=lambda card: (
                system.upstream_crossings(app_index, card),
                card_load[card],
                occupancy[card],
                card,
            ),
        )

    migrations: List["tuple[int, str, str]"] = []
    moved = set()

    def move(app_index, old, new):
        assignment[app_index] = new
        occupancy[new] += 1
        card_load[new] += loads.get(app_index, 0.0)
        migrations.append((app_index, old, new))
        moved.add(app_index)

    for app_index in by_heat(stranded):
        move(app_index, system.card_of_app(app_index), best_card(app_index))

    for app_index in by_heat(list(assignment)):
        if app_index in moved:
            continue
        current = assignment[app_index]
        load = loads.get(app_index, 0.0)
        try:
            candidate = best_card(app_index, exclude=current)
        except ValueError:  # every other card is at capacity
            continue
        crossings_now = system.upstream_crossings(app_index, current)
        crossings_there = system.upstream_crossings(app_index, candidate)
        balance_win = (
            load > 0.0
            and card_load[current] - card_load[candidate] > load
            and crossings_there <= crossings_now
        )
        if crossings_there < crossings_now or balance_win:
            occupancy[current] -= 1
            card_load[current] -= load
            move(app_index, current, candidate)

    return ReferencePlan(assignment=assignment, migrations=migrations)


# -- drawn topologies ---------------------------------------------------------


class _Topology:
    """The three things the planner reads of a system: how many chains,
    where each is homed, and what each ``(app, card)`` pair crosses."""

    def __init__(self, homes, crossings):
        self.chains = list(homes)
        self._homes = homes
        self._crossings = crossings

    def card_of_app(self, app_index):
        return self._homes[app_index]

    def upstream_crossings(self, app_index, card):
        return self._crossings[app_index, card]


CARDS = ["drx.s0", "drx.s1", "drx.s2", "drx.s3"]


@st.composite
def placements(draw, flat=None):
    n_cards = draw(st.integers(1, 4), label="n_cards")
    cards = CARDS[:n_cards]
    alive = draw(
        st.lists(st.sampled_from(cards), min_size=1, unique=True),
        label="alive",
    )
    # Up to three apps per card: homes can overfill a card, strand apps
    # on dead cards, and need capacity stretched past two per card.
    n_apps = draw(st.integers(1, 3 * n_cards), label="n_apps")
    homes = draw(
        st.lists(st.sampled_from(cards), min_size=n_apps, max_size=n_apps),
        label="homes",
    )
    if flat is None:
        flat = draw(st.booleans(), label="flat")
    crossings = {
        (app, card): 0 if flat else draw(st.integers(0, 2))
        for app in range(n_apps) for card in cards
    }
    shape = draw(
        st.sampled_from(["zero", "equal", "skewed", "sparse"]), label="loads"
    )
    if shape == "zero":
        loads = {app: 0.0 for app in range(n_apps)}
    elif shape == "equal":
        level = draw(st.sampled_from([1.0, 3.0, 0.5]))
        loads = {app: level for app in range(n_apps)}
    elif shape == "skewed":
        loads = {
            app: draw(st.sampled_from([0.0, 1.0, 2.0, 5.0, 0.25, 40.0]))
            for app in range(n_apps)
        }
    else:  # apps missing from the table weigh nothing
        loads = draw(st.dictionaries(
            st.integers(0, n_apps - 1),
            st.floats(0.0, 50.0, allow_nan=False),
        ))
    return _Topology(homes, crossings), loads, alive


@settings(deadline=None)
@given(placements())
def test_plan_equals_the_planner_without_an_exit(case):
    system, loads, alive = case
    plan = plan_placement(system, dict(loads), list(alive))
    reference = reference_plan_placement(system, dict(loads), list(alive))
    assert plan.migrations == reference.migrations
    assert list(plan.assignment.items()) == list(
        reference.assignment.items()
    )


#: The by-heat sort of ``plan_placement``; entering it means the passes
#: run.
BY_HEAT = next(
    code for code in plan_placement.__code__.co_consts
    if getattr(code, "co_name", None) == "by_heat"
)


def planned_with_passes(system, loads, alive):
    """``plan_placement``'s plan, and whether its passes ran."""
    reached = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is BY_HEAT:
            reached.append(True)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        plan = plan_placement(system, loads, alive)
    finally:
        sys.setprofile(previous)
    return plan, bool(reached)


@settings(deadline=None)
@given(placements(flat=True))
def test_flat_passes_run_exactly_when_the_plan_migrates(case):
    system, loads, alive = case
    plan, reached = planned_with_passes(system, dict(loads), list(alive))
    assert reached == bool(plan.migrations)


def test_a_lighter_card_without_room_is_no_reason_to_plan():
    # Two full cards: the first is far heavier, but nothing can move.
    system = DMXSystem(
        build_benchmark_chains("sound-detection", 4),
        SystemConfig(mode=Mode.STANDALONE),
    )
    cards = system.standalone_cards()
    assert [system.card_of_app(a) for a in range(4)] == [
        cards[0], cards[0], cards[1], cards[1],
    ]
    loads = {0: 5.0, 1: 5.0, 2: 1.0, 3: 1.0}
    plan, reached = planned_with_passes(system, loads, cards)
    assert plan.migrations == []
    assert not reached
