"""Reference BDD operators: the plain recursive ITE formulation."""

from __future__ import annotations

from typing import Tuple

from repro.bdd.manager import FALSE, TRUE, BddManager


class ReferenceBddManager(BddManager):
    """A :class:`BddManager` whose ``ite``/``apply_*`` are the textbook
    recursion: ``min()`` top-variable selection, per-operand cofactoring
    and no binary-op computed table.  Every other manager method runs
    unchanged on top of these operators."""

    def ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._cache_ite.get(key)
        if cached is not None:
            return cached
        top = min(v for v in (self._var[f],
                              self._var[g] if g > 1 else 10 ** 9,
                              self._var[h] if h > 1 else 10 ** 9))
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(top, low, high)
        self._cache_ite[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if node <= 1 or self._var[node] != var:
            return node, node
        return self._low[node], self._high[node]

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.negate(g), g)
