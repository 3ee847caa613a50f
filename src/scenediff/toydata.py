"""Procedural toy scenes: a desk-scale stand-in for outdoor driving datasets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import typed
from .grids import ClassTable, VoxelGrid, label_dtype

# Canonical toy classes; a table of K classes takes the first K rows.
_TOY_CLASSES = [
    ("Free", (0, 0, 0)),
    ("Ground", (175, 0, 75)),
    ("Road", (255, 0, 255)),
    ("Building", (255, 200, 0)),
    ("Vehicles", (100, 150, 245)),
    ("Pole", (255, 240, 150)),
    ("Sidewalk", (75, 0, 75)),
    ("Vegetation", (0, 175, 0)),
    ("Barrier", (255, 120, 50)),
    ("Pedestrian", (255, 30, 30)),
    ("Other", (55, 90, 80)),
]

LABEL_GROUND = 1
LABEL_ROAD = 2
LABEL_BUILDING = 3
LABEL_VEHICLE = 4
LABEL_POLE = 5


def toy_class_table(num_classes: int) -> ClassTable:
    if not (2 <= num_classes <= len(_TOY_CLASSES)):
        raise ValueError(f"toy table supports 2..{len(_TOY_CLASSES)} classes")
    names, colors = zip(*_TOY_CLASSES[:num_classes])
    return ClassTable(names, colors)


@dataclass
class ToySceneParams:
    dims: tuple[Annotated[int, 8], Annotated[int, 8], Annotated[int, 4]] = (16, 16, 4)
    num_classes: Annotated[int, 4] = 5
    num_buildings: int = 2
    num_vehicles: int = 2
    num_poles: int = 2

    __post_init__ = typed  # every rule is on an annotation


def generate_toy_scene(params: ToySceneParams, seed: int) -> VoxelGrid:
    """Deterministic procedural scene: ground plane, road stripe, buildings,
    vehicles, and (given enough classes) poles."""
    x, y, z = params.dims
    k = params.num_classes
    rng = np.random.default_rng(seed)
    labels = np.zeros((x, y, z), dtype=label_dtype(k))

    labels[:, :, 0] = LABEL_GROUND

    # Road: full-length stripe along x at a random y position.
    road_w = max(2, y // 5)
    road_y = int(rng.integers(1, y - road_w))
    labels[:, road_y : road_y + road_w, 0] = LABEL_ROAD

    for _ in range(params.num_buildings):
        bw = int(rng.integers(2, max(3, x // 4) + 1))
        bd = int(rng.integers(2, max(3, y // 4) + 1))
        bh = int(rng.integers(2, z))
        # keep buildings off the road stripe
        side = rng.integers(0, 2)
        by0 = int(rng.integers(0, max(1, road_y - bd))) if side == 0 else int(
            rng.integers(min(road_y + road_w, y - bd), y - bd + 1)
        )
        bx0 = int(rng.integers(0, x - bw + 1))
        labels[bx0 : bx0 + bw, by0 : by0 + bd, 1 : 1 + bh] = LABEL_BUILDING

    if k > LABEL_VEHICLE:
        for _ in range(params.num_vehicles):
            vx0 = int(rng.integers(0, x - 2))
            vy0 = int(rng.integers(road_y, road_y + road_w - 1))
            labels[vx0 : vx0 + 2, vy0 : vy0 + 1, 1] = LABEL_VEHICLE

    if k > LABEL_POLE:
        for _ in range(params.num_poles):
            px = int(rng.integers(0, x))
            py = road_y - 1 if road_y >= 1 else road_y + road_w
            labels[px, py, 1:z] = LABEL_POLE

    return VoxelGrid(labels)


def generate_toy_dataset(params: ToySceneParams, count: int, seed: int) -> list[VoxelGrid]:
    return [generate_toy_scene(params, seed + i) for i in range(count)]
