"""Reference SOP algebra: containment-scan insertion, cube-by-cube
division and the uncached, unscreened kernel search."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.sop.cube import Cube, cube_contains, cube_divide, cube_is_contradiction
from repro.sop.kernels import kernels
from repro.sop.sop import Sop


def add_cube(sop: Sop, cube: Cube) -> None:
    """``Sop.add_cube`` as a covered-by scan followed by a filter pass."""
    if cube_is_contradiction(cube):
        return
    for existing in sop.cubes:
        if cube_contains(existing, cube):
            return
    sop.cubes = [c for c in sop.cubes if not cube_contains(cube, c)]
    sop.cubes.append(cube)


def divide(f: Sop, d: Sop) -> Tuple[Sop, Sop]:
    """Weak division through :func:`cube_divide` and re-minimized covers."""
    if d.is_const0():
        return Sop(), f.copy()
    quotient: Optional[set] = None
    for d_cube in d.cubes:
        partial = set()
        for f_cube in f.cubes:
            q = cube_divide(f_cube, d_cube)
            if q is not None:
                partial.add(q)
        if quotient is None:
            quotient = partial
        else:
            quotient &= partial
        if not quotient:
            return Sop(), f.copy()
    q_sop = Sop(sorted(quotient))
    product = q_sop & d
    remainder = Sop(c for c in f.cubes if c not in set(product.cubes))
    return q_sop, remainder


def divide_by_cube(f: Sop, cube: Cube) -> Tuple[Sop, Sop]:
    """Single-cube division inserting every result cube via ``add_cube``."""
    quotient = Sop()
    remainder = Sop()
    for c in f.cubes:
        q = cube_divide(c, cube)
        if q is not None:
            quotient.add_cube(q)
        else:
            remainder.add_cube(c)
    return quotient, remainder


def kernel_value(nodes: Iterable[Sop], kernel: Sop) -> int:
    """Literal saving of *kernel*, dividing every node (no mask screen)."""
    kernel_literals = kernel.num_literals()
    total_saving = 0
    uses = 0
    for node in nodes:
        quotient, remainder = divide(node, kernel)
        if quotient.is_const0():
            continue
        new_cost = (quotient.num_literals() + quotient.num_cubes()
                    + remainder.num_literals())
        old_cost = node.num_literals()
        if new_cost < old_cost:
            total_saving += old_cost - new_cost
            uses += 1
    if uses == 0:
        return -kernel_literals
    return total_saving - kernel_literals


def best_kernel(nodes: List[Sop], max_kernels_per_node: int = 50,
                _cache: Optional[dict] = None) -> Optional[Tuple[Sop, int]]:
    """Best kernel by a fresh enumeration per call; *_cache* is ignored."""
    best: Optional[Sop] = None
    best_value = 0
    seen: set = set()
    for node in nodes:
        for kernel, _cokernel in kernels(node, max_kernels_per_node):
            if kernel.num_cubes() < 2:
                continue
            key = tuple(sorted(kernel.cubes))
            if key in seen:
                continue
            seen.add(key)
            value = kernel_value(nodes, kernel)
            if value > best_value:
                best_value = value
                best = kernel
    if best is None:
        return None
    return best, best_value
