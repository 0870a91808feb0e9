"""Strictly increasing positive frequency ladders (lam_0 = 0)."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InputDomainError, PreconditionError


class FrequencyLadder:
    """lam_1 < lam_2 < ... > 0 with lam_0 = 0, given by a rule or an array
    (whose ladder ends at its last value: a later index is an input error).

    ``gap_bound`` is an optional claimed uniform bound on lam_{k+1} - lam_k;
    it is validated on every scanned range before gap-dependent formulas use
    it."""

    def __init__(self, rule: Callable[[int], float] | Sequence[float], gap_bound: float | None = None, label: str = "custom"):
        if callable(rule):
            self._fn = rule
            self._len = math.inf
        else:
            arr = [float(x) for x in rule]
            self._fn = lambda k: arr[k - 1]
            self._len = len(arr)
        self.gap_bound = gap_bound
        self.label = label
        for k in range(1, min(4, self._len)):
            a, b = self.value(k), self.value(k + 1)
            if not (a > 0 and b > a):
                raise InputDomainError("ladder must be strictly increasing and positive")

    @classmethod
    def integer(cls, gap_bound: float = 1.0) -> "FrequencyLadder":
        return cls(float, gap_bound=gap_bound, label="integer")

    def value(self, k: int) -> float:
        if k < 0:
            raise InputDomainError("ladder index must be >= 0")
        if k > self._len:
            raise InputDomainError(f"ladder index {k} is past the end of a ladder of {self._len} values")
        return 0.0 if k == 0 else float(self._fn(k))

    def values(self, n: int) -> np.ndarray:
        """lam_0..lam_n (empty for n < 0), each ``value(k)`` to the bit: the
        integer ladder from ``np.arange``, any other ladder index by index
        (``math`` and ``numpy`` functions may round a rule's values apart)."""
        if self._fn is float:
            return np.arange(n + 1, dtype=np.float64)
        return np.array([self.value(k) for k in range(n + 1)], dtype=np.float64)

    def check_gap(self, n: int) -> float:
        """Validate the claimed gap bound over indices 1..n; returns it."""
        if self.gap_bound is None:
            raise PreconditionError("ladder carries no gap bound")
        vals = self.values(n)
        worst = float(np.max(np.diff(vals[1:]))) if n >= 2 else 0.0
        if worst > self.gap_bound * (1 + 1e-12):
            raise PreconditionError(
                f"claimed gap bound {self.gap_bound} violated on scanned range (gap {worst})"
            )
        return self.gap_bound
