"""Seeded Figure 1 population, kept in plain Python beside the database.

The rows live here as dicts so every oracle is computed from the
generated data, never read back from the engine under test.  Value
ranges follow ``repro.bench.schemas.populate_vehicles`` (weights uniform
in [1000, 12000], a quarter of the companies in Detroit).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bench.schemas import (
    CITIES,
    DRIVETRAIN_TYPES,
    VEHICLE_CLASSES,
    build_vehicle_schema,
)

COMPANY_CLASSES = ("Company", "AutoCompany", "TruckCompany", "JapaneseAutoCompany")
COLORS = ("red", "blue", "white", "black")
WEIGHT_LOW, WEIGHT_HIGH = 1000, 12000


class VehicleData:
    def __init__(self, seed: int, n_vehicles: int, n_companies: int = 20) -> None:
        rng = random.Random(seed)
        n_detroit = max(1, n_companies // 4)
        self.companies: List[Dict[str, Any]] = [
            {
                "class": COMPANY_CLASSES[i % len(COMPANY_CLASSES)],
                "name": "company-%d" % i,
                "location": "Detroit"
                if i < n_detroit
                else CITIES[1 + rng.randrange(len(CITIES) - 1)],
            }
            for i in range(n_companies)
        ]
        self.vehicles: List[Dict[str, Any]] = []
        for i in range(n_vehicles):
            cls = VEHICLE_CLASSES[i % len(VEHICLE_CLASSES)]
            row = {
                "class": cls,
                "horsepower": 80 + rng.randrange(400),
                "weight": WEIGHT_LOW + rng.randrange(WEIGHT_HIGH - WEIGHT_LOW + 1),
                "color": COLORS[i % len(COLORS)],
                "price": 5000 + rng.randrange(95000),
                "company": rng.randrange(n_companies),
            }
            if cls in ("Automobile", "DomesticAutomobile"):
                row["doors"] = 2 + 2 * (i % 2)
            elif cls == "Truck":
                row["payload"] = 1000 + rng.randrange(20000)
            self.vehicles.append(row)
        #: Filled by :meth:`load`, parallel to ``companies`` / ``vehicles``.
        self.company_oids: List[Any] = []
        self.vehicle_oids: List[Any] = []

    def load(self, db: Any) -> None:
        """Define the Figure 1 schema on ``db`` and store every row."""
        build_vehicle_schema(db)
        with db.transaction():
            for company in self.companies:
                handle = db.new(
                    company["class"],
                    {"name": company["name"], "location": company["location"]},
                )
                self.company_oids.append(handle.oid)
            for i, row in enumerate(self.vehicles):
                drivetrain = db.new(
                    "VehicleDrivetrain",
                    {
                        "type": DRIVETRAIN_TYPES[i % len(DRIVETRAIN_TYPES)],
                        "horsepower": row["horsepower"],
                    },
                )
                values = {
                    "weight": row["weight"],
                    "color": row["color"],
                    "price": row["price"],
                    "drivetrain": drivetrain.oid,
                    "manufacturer": self.company_oids[row["company"]],
                }
                for extra in ("doors", "payload"):
                    if extra in row:
                        values[extra] = row[extra]
                self.vehicle_oids.append(db.new(row["class"], values).oid)

    def indexes_of_class(self, class_name: str) -> List[int]:
        return [i for i, row in enumerate(self.vehicles) if row["class"] == class_name]
