"""The multi-cell cellular network.

Builds a hexagonal layout of :class:`~repro.cellular.cell.Cell` objects,
answers neighbour queries from the axial coordinates and maps
mobile-terminal positions to serving cells.  The Shadow Cluster Concept
baseline also queries the network for the cells along a mobile's projected
trajectory.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .cell import Cell
from .geometry import HexCoordinate, Point, Vector, hex_spiral
from .traffic import PAPER_BANDWIDTH_UNITS

__all__ = ["CellularNetwork", "hex_cell_count"]


def hex_cell_count(rings: int) -> int:
    """Number of cells of a hexagonal topology with ``rings`` rings.

    The closed form of ``len(hex_spiral(center, rings))`` — 1, 7, 19, ...
    — shared by everything that sizes work from a topology without
    building it (titles, per-cell sharding).
    """
    if rings < 0:
        raise ValueError(f"rings must be non-negative, got {rings}")
    return 3 * rings * (rings + 1) + 1


class CellularNetwork:
    """A hexagonal cellular network.

    Parameters
    ----------
    rings:
        Number of hexagon rings around the central cell (0 = single cell,
        1 = 7 cells, 2 = 19 cells).
    cell_radius_km:
        Hexagon circumradius in kilometres.
    capacity_bu:
        Bandwidth units per base station (paper default: 40).
    cell_capacities:
        Optional per-cell capacity override, one entry per cell in spiral
        (cell-id) order; ``None`` gives every cell ``capacity_bu``.
    """

    def __init__(
        self,
        rings: int = 2,
        cell_radius_km: float = 2.0,
        capacity_bu: int = PAPER_BANDWIDTH_UNITS,
        cell_capacities: Sequence[int] | None = None,
    ):
        if rings < 0:
            raise ValueError(f"rings must be non-negative, got {rings}")
        if cell_radius_km <= 0:
            raise ValueError(f"cell radius must be positive, got {cell_radius_km}")
        self.rings = rings
        self.cell_radius_km = cell_radius_km
        self.capacity_bu = capacity_bu

        center = HexCoordinate(0, 0)
        coordinates = hex_spiral(center, rings)
        if cell_capacities is not None and len(cell_capacities) != len(coordinates):
            raise ValueError(
                f"cell_capacities must list one capacity per cell "
                f"({len(coordinates)} for rings={rings}), got {len(cell_capacities)}"
            )
        self._cells: dict[HexCoordinate, Cell] = {}
        self._cells_by_id: dict[int, Cell] = {}
        for index, coordinate in enumerate(coordinates, start=1):
            cell = Cell(
                coordinate=coordinate,
                radius_km=cell_radius_km,
                capacity_bu=(
                    capacity_bu
                    if cell_capacities is None
                    else cell_capacities[index - 1]
                ),
                cell_id=index,
            )
            self._cells[coordinate] = cell
            self._cells_by_id[index] = cell

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> list[Cell]:
        return [self._cells_by_id[cid] for cid in sorted(self._cells_by_id)]

    @property
    def center_cell(self) -> Cell:
        return self._cells[HexCoordinate(0, 0)]

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, cell_id: int) -> Cell:
        """Cell by identifier."""
        try:
            return self._cells_by_id[cell_id]
        except KeyError:
            raise KeyError(f"no cell with id {cell_id}") from None

    def cell_at(self, coordinate: HexCoordinate) -> Cell | None:
        """Cell at an axial coordinate, or ``None`` outside the layout."""
        return self._cells.get(coordinate)

    # ------------------------------------------------------------------
    def serving_cell(self, position: Point) -> Cell | None:
        """Cell containing a planar position, or ``None`` outside coverage."""
        coordinate = HexCoordinate.from_point(position, self.cell_radius_km)
        return self._cells.get(coordinate)

    def nearest_cell(self, position: Point) -> Cell:
        """Cell whose base station is closest to a position (never ``None``)."""
        return min(self.cells, key=lambda cell: cell.distance_to(position))

    def neighbors(self, cell_id: int) -> list[Cell]:
        """Adjacent cells of a cell inside the layout, sorted by id."""
        coordinates = self.cell(cell_id).coordinate.neighbors()
        adjacent = [self._cells[c] for c in coordinates if c in self._cells]
        return sorted(adjacent, key=lambda cell: cell.cell_id)

    # ------------------------------------------------------------------
    def cells_along_heading(
        self,
        start: Point,
        heading_deg: float,
        distance_km: float,
        step_km: float = 0.5,
    ) -> list[Cell]:
        """Cells crossed by a straight trajectory from ``start``.

        Samples the ray every ``step_km`` and collects the distinct serving
        cells in order of first crossing — the building block of the shadow
        cluster projection.
        """
        if distance_km < 0:
            raise ValueError(f"distance must be non-negative, got {distance_km}")
        if step_km <= 0:
            raise ValueError(f"step must be positive, got {step_km}")
        visited: list[Cell] = []
        seen: set[int] = set()
        steps = max(int(distance_km / step_km), 1)
        for i in range(steps + 1):
            offset = Vector.from_polar(min(i * step_km, distance_km), heading_deg)
            cell = self.serving_cell(start.translate(offset))
            if cell is not None and cell.cell_id not in seen:
                visited.append(cell)
                seen.add(cell.cell_id)
        return visited

    def total_used_bu(self) -> int:
        """Aggregate bandwidth in use across the whole network."""
        return sum(cell.base_station.used_bu for cell in self.cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CellularNetwork(cells={self.cell_count}, radius={self.cell_radius_km}km, "
            f"capacity={self.capacity_bu}BU)"
        )
