"""Tenant-chain re-packing across standalone DRX cards.

The STANDALONE placement homes each application chain on one card; a
chain staged on a card that hangs off a *different* switch than its
accelerators pays two upstream (root-complex) crossings per motion
stage. The optimizer improves the chain→card assignment over the cards
currently in service — but as a *local search from the current
assignment*, not a re-pack from scratch: a scratch packer produces one
canonical assignment and migrates every equivalent-but-permuted live
placement into it, churning tenants for zero benefit.

Three kinds of move are emitted, hottest app first:

* **evacuation** — an app homed on a decommissioned card is re-placed
  unconditionally; capacity stretches (``ceil(apps / alive cards)``) so
  a scale-down never strands a chain;
* **crossing win** — a move that strictly lowers the app's upstream
  crossings;
* **balance win** — a move to the least-loaded card when it shrinks the
  donor/recipient load gap by more than the app's own load (the strict
  margin is what makes a balanced placement a fixed point — without it
  equal-load assignments swap tenants forever).

Everything is deterministic: apps are visited hottest-first (observed
load, chain index breaking ties), candidate cards are ranked by
``(crossings, load, occupancy, name)`` — no randomness, no clock
access. With nothing stranded and no app able to make either win (the
usual control tick), the plan returns before visiting anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..core.system import STANDALONE_APPS_PER_CARD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem

__all__ = ["PlacementPlan", "plan_placement"]


@dataclass(frozen=True)
class PlacementPlan:
    """The optimizer's desired assignment, plus the moves to get there."""

    assignment: Dict[int, str]
    #: ``(app_index, from_card, to_card)`` for every app whose desired
    #: card differs from its current one — evacuations off dead cards
    #: first, then improvement moves, hottest app first within each.
    migrations: List["tuple[int, str, str]"]


def _move_possible(
    system: "DMXSystem",
    assignment: Dict[int, str],
    loads: Dict[int, float],
    card_load: Dict[str, float],
    room: List[str],
) -> bool:
    """Whether the improvement pass could move any placed app.

    A move needs another card with ``room`` that either cuts the app's
    crossings or is lighter than the app's card by more than the app's
    own load (a balance win can only pick such a card). Until one app
    moves, every app sees the same occupancy and loads, so when no app
    has such a card the pass moves nothing.
    """
    for app_index, current in assignment.items():
        load = loads.get(app_index, 0.0)
        crossings_now = system.upstream_crossings(app_index, current)
        for card in room:
            if card != current and (
                system.upstream_crossings(app_index, card) < crossings_now
                or (load > 0.0 and card_load[current] - card_load[card] > load)
            ):
                return True
    return False


def plan_placement(
    system: "DMXSystem",
    loads: Dict[int, float],
    alive_cards: Sequence[str],
) -> PlacementPlan:
    """Improve the live chain→card assignment on ``alive_cards``.

    ``loads`` maps app index → observed load (any monotone measure; the
    controller passes recent admitted-request counts, so an idle or
    shed tenant weighs nothing when balancing).
    """
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

    if not stranded and not _move_possible(
        system, assignment, loads, card_load,
        [card for card in cards if occupancy[card] < capacity],
    ):
        return PlacementPlan(assignment=assignment, migrations=[])

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

    return PlacementPlan(assignment=assignment, migrations=migrations)
