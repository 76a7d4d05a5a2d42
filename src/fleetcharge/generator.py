"""Deterministic synthetic scenarios: a depot, retailers, and round trips.

Stands in for confidential fleet itineraries. Tours are chain-consistent by
construction: each truck leaves the depot loaded, dwells at a retailer, and
returns light. Early departures keep pre-dawn charging windows modest so the
instances stay solver-friendly. Identical seeds and parameters reproduce the
scenario byte for byte.
"""

from __future__ import annotations

import random

from .domain import (
    ChargerType,
    PriceSchedule,
    Scenario,
    TimeGrid,
    TripLeg,
    Truck,
    validate_scenario,
)

__all__ = ["default_charger_catalog", "default_price_profile", "generate_synthetic"]

AVERAGE_SPEED_KMH = 60.0
PEAK_PRICE_PER_KW = 25.0
SLACK_BLOCKS = 1  # departure slack of every generated scenario
# Shortest dwell at a retailer. A longer block could round leg 1's arrival
# up past leg 2's rounded-down departure.
MIN_DWELL_MINUTES = 30
# Truck i first leaves the depot about 30 + 45·i minutes past midnight, so
# from the 29th truck on a tour runs past the end of its day.
DEPARTURE_STAGGER_MINUTES = 45
MAX_TRUCKS = 28


def default_charger_catalog() -> tuple[ChargerType, ...]:
    """The five production charger classes used throughout the examples."""
    specs = [
        (1, 60.0, 20_000.0, 0.98),
        (2, 180.0, 50_000.0, 0.98),
        (3, 360.0, 90_000.0, 0.97),
        (4, 720.0, 150_000.0, 0.97),
        (5, 1180.0, 300_000.0, 0.97),
    ]
    return tuple(ChargerType(*spec) for spec in specs)


def default_price_profile(blocks_per_day: int) -> list[float]:
    """Per-block day-ahead style energy prices: cheap nights, two peaks."""
    profile = []
    for block in range(blocks_per_day):
        hour = block * 24.0 / blocks_per_day
        if hour < 6:
            price = 0.12
        elif hour < 12:
            price = 0.28
        elif hour < 18:
            price = 0.17
        elif hour < 20:
            price = 0.30
        else:
            price = 0.14
        profile.append(price)
    return profile


# Faster hardware pays a per-kWh delivery premium, as commercial DC tariffs
# do; index position matches the catalog.
TYPE_PRICE_MARKUP = (1.00, 1.08, 1.15, 1.25, 1.40)


def generate_synthetic(
    seed: int,
    n_trucks: int = 3,
    n_locations: int = 5,
    n_days: int = 2,
    tightness: float = 0.5,
    block_minutes: int = 15,
) -> Scenario:
    """Build a validated scenario with one depot and ``n_locations - 1`` stops.

    ``tightness`` in [0, 1] scales the idle time parked at retailers, i.e.
    the width of mid-tour charging windows: 0 keeps them at the minimum
    width, 1 at the maximum. ``n_trucks`` is at most ``MAX_TRUCKS``.
    ``block_minutes`` must divide a day and be at most
    ``MIN_DWELL_MINUTES``. The scenario has peak weight 1, one block
    of departure slack and a peak price of 25 per kW;
    ``domain.scenario_variant`` plus ``validate_scenario`` varies the
    weight and the slack.
    Deterministic per (seed, parameters).
    """
    if n_trucks <= 0 or n_locations < 2 or n_days <= 0:
        raise ValueError("need at least one truck, two locations, one day")
    if n_trucks > MAX_TRUCKS:
        raise ValueError(
            f"the {DEPARTURE_STAGGER_MINUTES}-minute departure stagger limits a day "
            f"to {MAX_TRUCKS} trucks, got {n_trucks}")
    if not (0.0 <= tightness <= 1.0):
        raise ValueError("tightness must lie in [0, 1]")
    if block_minutes > MIN_DWELL_MINUTES:
        raise ValueError(
            f"block_minutes must be at most {MIN_DWELL_MINUTES}, the shortest "
            f"dwell at a retailer, got {block_minutes}")

    rng = random.Random(seed)
    grid = TimeGrid(block_minutes, n_days)

    depot = "DEPOT"
    retailers = [f"R{i:02d}" for i in range(1, n_locations)]
    locations = (depot, *retailers)

    # One distance per retailer so every visit is geometrically consistent.
    retailer_km = {r: round(rng.uniform(56.0, 64.0), 1) for r in retailers}

    # Identical packs keep the daily energy arithmetic predictable: a day's
    # shortfall always fits one fast block or three slow ones.
    battery = 150.0
    initial = 61.0
    trucks = [
        Truck(
            id=f"T{i + 1:02d}",
            battery_capacity_kwh=battery,
            consumption_kwh_per_km_ton=round(rng.uniform(0.118, 0.128), 3),
            # Trucks start partly drained, so every tour needs real charging
            # and zero installed chargers is always infeasible.
            initial_soe_kwh=initial,
            tare_tons=1.0,
        )
        for i in range(n_trucks)
    ]

    legs = []
    for day in range(n_days):
        for i, truck in enumerate(trucks):
            retailer = retailers[(i + day) % len(retailers)]
            km = retailer_km[retailer]
            travel_min = int(round(km / AVERAGE_SPEED_KMH * 60.0))
            e = truck.consumption_kwh_per_km_ton

            # Staggered pre-dawn departures. The first truck leaves so early
            # that without departure slack its window only fits fast
            # charging; one slack block is enough to switch the whole depot
            # to slow chargers, which is the trade the slack sweep shows.
            dep1 = 30 + DEPARTURE_STAGGER_MINUTES * i + rng.randrange(0, 3) * 5
            arr1 = dep1 + travel_min
            dwell = MIN_DWELL_MINUTES + int(round(tightness * 20)) + rng.randrange(0, 2) * 5
            dep2 = arr1 + dwell
            arr2 = dep2 + travel_min

            # Draw the day's energy shortfall, then back out the payload
            # that produces it: deficit = out + return legs - initial.
            deficit = rng.uniform(41.0, 43.0)
            cons_back = km * truck.tare_tons * e
            cons_out = truck.initial_soe_kwh + deficit - cons_back
            payload_out = round(cons_out / (km * e), 2)

            legs.append(TripLeg(
                truck_id=truck.id, day=day, leg_index=1,
                origin_id=depot, destination_id=retailer,
                departure_clock_min=dep1, arrival_clock_min=arr1,
                distance_km=km, payload_tons=payload_out,
            ))
            legs.append(TripLeg(
                truck_id=truck.id, day=day, leg_index=2,
                origin_id=retailer, destination_id=depot,
                departure_clock_min=dep2, arrival_clock_min=arr2,
                distance_km=km, payload_tons=0.0,
            ))

    legs.sort(key=lambda leg: (leg.truck_id, leg.day, leg.leg_index))

    catalog = default_charger_catalog()
    profile = default_price_profile(grid.blocks_per_day) * n_days
    prices = PriceSchedule(
        energy_price_per_kwh=tuple(
            tuple(round(p * TYPE_PRICE_MARKUP[i], 6) for p in profile)
            for i in range(len(catalog))
        ),
        peak_price_per_kw=PEAK_PRICE_PER_KW,
    )

    scenario = Scenario(
        time_grid=grid,
        trucks=tuple(trucks),
        legs=tuple(legs),
        charger_catalog=catalog,
        location_ids=locations,
        price_schedule=prices,
        slack_blocks=SLACK_BLOCKS,
        name=f"synthetic-depot-seed{seed}",
    )
    return validate_scenario(scenario)
