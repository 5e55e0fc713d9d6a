"""Seeded generator of bi-temporal urban scenes with exact change labels.

Scenes are a flat ground plane plus axis-aligned flat-roofed buildings seen
from nadir: a building contributes roof points at its height and occludes
the ground inside its footprint. Epoch 0 contains persistent and removed
buildings; epoch 1 contains persistent and added ones, sampled at a possibly
different density. Ground-truth labels live on the epoch-1 cloud: 1 on
added-building roofs, 2 on ground inside removed footprints, 0 elsewhere.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .io import CLASS_DEMOLISHED, CLASS_NEW, CLASS_UNCHANGED, PointCloud

STATUS_PERSISTENT = "persistent"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"
_STATUSES = (STATUS_PERSISTENT, STATUS_ADDED, STATUS_REMOVED)

# generate_pair draws each epoch's points at once; a spec that expects more
# is refused before any array is allocated
MAX_POINTS_PER_EPOCH = 10**8


@dataclass(frozen=True)
class Building:
    """Axis-aligned building: footprint (x0, y0, x1, y1), flat roof height."""

    footprint: tuple[float, float, float, float]
    height: float
    status: str

    def __post_init__(self) -> None:
        fp = self.footprint
        numeric = isinstance(fp, (list, tuple)) and all(map(_is_number, fp))
        if not (numeric and len(fp) == 4):
            raise ValueError(
                f"footprint must be 4 numbers [x0, y0, x1, y1], got {fp!r}"
            )
        object.__setattr__(self, "footprint", tuple(fp))
        if not _is_number(self.height):
            raise ValueError(f"height must be a number, got {self.height!r}")
        x0, y0, x1, y1 = self.footprint
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate footprint {self.footprint}")
        if not 0 < self.height < np.inf:
            raise ValueError(f"height must be positive and finite, got {self.height}")
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one synthetic bi-temporal scene.

    ``extent`` is the side of the square ground plane anchored at the
    origin. ``ground_density`` is the epoch-0 sampling density in points
    per square meter; epoch 1 is sampled at ``ground_density *
    density_t1_ratio``, modelling sensors with different resolutions.
    """

    extent: float
    ground_density: float
    density_t1_ratio: float = 1.0
    buildings: tuple[Building, ...] = ()
    noise_sigma_z: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.extent < np.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for density in (self.ground_density, self.density_t1_ratio):
            if not 0 < density < np.inf:
                raise ValueError("densities must be positive and finite")
        if not 0 <= self.noise_sigma_z < np.inf:
            raise ValueError("noise_sigma_z must be nonnegative and finite")
        # a product of floats, not a power: a float power, or an int
        # extent's exact square times a float, raises OverflowError where a
        # float product overflows to inf; an int extent beyond the float
        # range counts as inf. The negated test refuses inf and NaN
        try:
            side = float(self.extent)
        except OverflowError:
            side = np.inf
        expected = (
            side * side * self.ground_density * max(1.0, self.density_t1_ratio)
        )
        if not expected <= MAX_POINTS_PER_EPOCH:
            raise ValueError(
                f"extent {self.extent} at these densities expects {expected:.3g} "
                f"points per epoch; at most {MAX_POINTS_PER_EPOCH:.0e} are generated"
            )
        object.__setattr__(self, "buildings", tuple(self.buildings))
        for b in self.buildings:
            x0, y0, x1, y1 = b.footprint
            if x0 < 0 or y0 < 0 or x1 > self.extent or y1 > self.extent:
                raise ValueError(f"footprint {b.footprint} outside extent")
        for i, a in enumerate(self.buildings):
            for b in self.buildings[i + 1 :]:
                if _rects_overlap(a.footprint, b.footprint):
                    raise ValueError(
                        f"footprints {a.footprint} and {b.footprint} overlap"
                    )


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _rects_overlap(r: tuple, s: tuple) -> bool:
    # interiors only; shared edges are allowed
    return r[0] < s[2] and s[0] < r[2] and r[1] < s[3] and s[1] < r[3]


def _in_rect(xy: np.ndarray, rect: tuple) -> np.ndarray:
    x0, y0, x1, y1 = rect
    return (xy[:, 0] >= x0) & (xy[:, 0] <= x1) & (xy[:, 1] >= y0) & (xy[:, 1] <= y1)


def _sample_rect(rng: np.random.Generator, rect: tuple, density: float) -> np.ndarray:
    """Uniform XY samples in a rectangle, count drawn Poisson(area*density)."""
    x0, y0, x1, y1 = rect
    n = int(rng.poisson((x1 - x0) * (y1 - y0) * density))
    xy = np.empty((n, 2))
    xy[:, 0] = rng.uniform(x0, x1, n)
    xy[:, 1] = rng.uniform(y0, y1, n)
    return xy


def _sample_epoch(
    rng: np.random.Generator,
    spec: SceneSpec,
    density: float,
    visible: tuple[Building, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """One epoch's cloud: (xyz, roof_ids) where roof_ids[i] indexes the
    building a point belongs to, or -1 for ground."""
    scene_rect = (0.0, 0.0, spec.extent, spec.extent)
    ground_xy = _sample_rect(rng, scene_rect, density)
    occluded = np.zeros(len(ground_xy), dtype=bool)
    for b in visible:
        occluded |= _in_rect(ground_xy, b.footprint)
    ground_xy = ground_xy[~occluded]

    parts = [np.column_stack([ground_xy, np.zeros(len(ground_xy))])]
    ids = [np.full(len(ground_xy), -1, dtype=np.int64)]
    for bid, b in enumerate(visible):
        roof_xy = _sample_rect(rng, b.footprint, density)
        parts.append(np.column_stack([roof_xy, np.full(len(roof_xy), b.height)]))
        ids.append(np.full(len(roof_xy), bid, dtype=np.int64))
    xyz = np.vstack(parts)
    xyz[:, 2] += rng.normal(0.0, spec.noise_sigma_z, len(xyz))
    return xyz, np.concatenate(ids)


def generate_pair(spec: SceneSpec) -> tuple[PointCloud, PointCloud]:
    """Generate (pc0, pc1); pc1 carries exact ground-truth change labels.

    Fully deterministic given ``spec.seed``: identical specs produce
    bitwise-identical clouds.
    """
    rng = np.random.default_rng(spec.seed)
    visible_t0 = tuple(
        b for b in spec.buildings if b.status in (STATUS_PERSISTENT, STATUS_REMOVED)
    )
    visible_t1 = tuple(
        b for b in spec.buildings if b.status in (STATUS_PERSISTENT, STATUS_ADDED)
    )
    xyz0, _ = _sample_epoch(rng, spec, spec.ground_density, visible_t0)
    density1 = spec.ground_density * spec.density_t1_ratio
    xyz1, ids1 = _sample_epoch(rng, spec, density1, visible_t1)

    labels = np.full(len(xyz1), CLASS_UNCHANGED, dtype=np.int64)
    added_ids = {i for i, b in enumerate(visible_t1) if b.status == STATUS_ADDED}
    if added_ids:
        labels[np.isin(ids1, sorted(added_ids))] = CLASS_NEW
    ground1 = ids1 == -1
    for b in spec.buildings:
        if b.status == STATUS_REMOVED:
            labels[ground1 & _in_rect(xyz1[:, :2], b.footprint)] = CLASS_DEMOLISHED

    pc0 = PointCloud(xyz=xyz0)
    pc1 = PointCloud(xyz=xyz1, labels=labels)
    return pc0, pc1


# Desk-scale analogs of survey conditions with different resolutions and
# noise levels. The parameter values are this project's own choices.
_PRESETS: dict[str, SceneSpec] = {
    "low_res_low_noise": SceneSpec(
        extent=32.0, ground_density=2.0, density_t1_ratio=1.0, noise_sigma_z=0.05
    ),
    "high_res_low_noise": SceneSpec(
        extent=32.0, ground_density=10.0, density_t1_ratio=1.0, noise_sigma_z=0.05
    ),
    "low_res_high_noise": SceneSpec(
        extent=32.0, ground_density=1.0, density_t1_ratio=1.0, noise_sigma_z=0.3
    ),
    "multi_density": SceneSpec(
        extent=32.0, ground_density=4.0, density_t1_ratio=0.3, noise_sigma_z=0.1
    ),
}


def preset(name: str) -> SceneSpec:
    """A fixed, documented scene spec; see ``preset_names()`` for choices."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choices: {', '.join(sorted(_PRESETS))}"
        ) from None


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def six_buildings(seed: int, preset_name: str = "multi_density") -> SceneSpec:
    """The six-building scene at the densities and noise of preset
    ``preset_name``: extent 48 m, with three added 10 m and three removed
    12 m footprints, all 10 m tall, on a 2 x 3 grid. The removed footprints
    are larger, so the scene destroys net mass."""
    buildings = []
    for k, (y, x) in enumerate((y, x) for y in (3.0, 19.0, 35.0) for x in (5.0, 29.0)):
        status, side = (STATUS_ADDED, 10.0) if k % 2 == 0 else (STATUS_REMOVED, 12.0)
        buildings.append(Building((x, y, x + side, y + side), 10.0, status))
    return replace(
        preset(preset_name), extent=48.0, buildings=tuple(buildings), seed=seed
    )


def buildings_from_list(items) -> tuple[Building, ...]:
    """Buildings from decoded JSON: a list of objects with ``footprint``
    ``[x0, y0, x1, y1]``, ``height`` and ``status``. A missing or ill-typed
    field raises ``ValueError`` naming the building's index and the field."""
    if not isinstance(items, list):
        raise ValueError(f"expected a list of buildings, got {type(items).__name__}")
    buildings = []
    for k, b in enumerate(items):
        try:
            if not isinstance(b, dict):
                raise ValueError(f"expected an object, got {type(b).__name__}")
            buildings.append(Building(b["footprint"], b["height"], b["status"]))
        except KeyError as exc:
            raise ValueError(f"building {k}: missing field {exc}") from None
        except ValueError as exc:
            raise ValueError(f"building {k}: {exc}") from None
    return tuple(buildings)

