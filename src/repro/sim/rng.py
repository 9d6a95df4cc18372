"""Deterministic random-number utilities.

Every stochastic element in the simulator (workload generation, TokenB's
randomized exponential backoff, think-time perturbation) draws from a
component-private ``random.Random`` derived from a root seed, so identical
configurations reproduce bit-identical simulations.
"""

from __future__ import annotations

import random


def derive_rng(root_seed: int, *scope: object) -> random.Random:
    """Return a ``random.Random`` seeded from ``root_seed`` and a scope path.

    The scope path (e.g. ``("sequencer", node_id)``) namespaces streams so
    adding a new consumer never perturbs existing ones.

    Example:
        >>> a = derive_rng(1, "backoff", 3)
        >>> b = derive_rng(1, "backoff", 3)
        >>> a.random() == b.random()
        True
    """
    key = f"{root_seed}/" + "/".join(str(part) for part in scope)
    return random.Random(key)


class ExponentialBackoff:
    """Randomized exponential backoff, "much like ethernet" (Section 4.2).

    Each call to :meth:`next_delay` returns a uniformly random delay in
    ``[0, window)`` where the window doubles per attempt up to a cap.  The
    TokenB reissue timer adds this on top of twice the recent average miss
    latency.
    """

    def __init__(
        self,
        rng: random.Random,
        initial_window: float,
        max_window: float,
    ) -> None:
        if initial_window <= 0 or max_window < initial_window:
            raise ValueError("need 0 < initial_window <= max_window")
        self._rng = rng
        self._max = max_window
        self._window = initial_window

    def next_delay(self) -> float:
        """Draw a delay from the current window, then double the window."""
        delay = self._rng.random() * self._window
        self._window = min(self._window * 2.0, self._max)
        return delay
