"""Wide-area analytics across federated sites (C10; [125], [129]).

Two C10 requirements become executable:

- *Efficient wide-area analytics* (JetStream [125]): federated queries
  over geo-distributed data under a bandwidth budget, with
  **aggregation** and **degradation** (sampling) as the accuracy /
  traffic trade-off — "aggregation and degradation in JetStream".
- *Computation on protected data* ([129], P²-SWAN): a secure
  additive-masking sum, so the federation learns the total "without
  analyzing in the clear and exposing data on compromised (or
  malicious) sites" — each site only ever reveals a masked share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = ["SiteData", "QueryResult", "WideAreaAnalytics", "WideAreaLink",
           "min_lookahead", "secure_sum"]


@dataclass(frozen=True)
class WideAreaLink:
    """One wide-area link between two regions, with a one-way latency.

    The typed cross-shard channel of the sharded simulation: every
    message between two per-region event loops travels over a declared
    link, and the link's latency is the physical guarantee behind
    conservative coupling — a message sent at time *t* cannot take
    effect before *t + latency*, so the minimum latency over all links
    (:func:`min_lookahead`) bounds how far shards may run ahead of each
    other without risking causality.
    """

    src: str
    dst: str
    latency: float

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise ValueError("a wide-area link needs two region names")
        if self.src == self.dst:
            raise ValueError(
                f"link endpoints must differ, got {self.src!r} twice")
        if not self.latency > 0:
            raise ValueError(
                f"link {self.src!r}->{self.dst!r} needs a positive "
                f"latency, got {self.latency}; zero-latency links make "
                f"conservative lookahead vanish")

    @property
    def pair(self) -> tuple[str, str]:
        """The endpoints as an order-independent (sorted) pair."""
        return tuple(sorted((self.src, self.dst)))  # type: ignore[return-value]


def min_lookahead(links: Sequence[WideAreaLink]) -> float:
    """The conservative lookahead a set of links permits.

    The smallest one-way latency over all links — the classic
    conservative-synchronization bound: inside a window of this width
    no shard can observe an effect another shard caused within the
    same window.  An empty link set means the shards are fully
    decoupled and returns ``inf``.
    """
    if not links:
        return float("inf")
    return min(link.latency for link in links)


@dataclass(frozen=True)
class SiteData:
    """One site's local records (numeric measurements)."""

    site: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"site {self.site!r} has no data")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a federated query."""

    strategy: str
    estimate: float
    exact: float
    bytes_transferred: int

    @property
    def relative_error(self) -> float:
        """|estimate - exact| / |exact| (0 when exact is 0 and matched)."""
        if self.exact == 0:
            return abs(self.estimate)
        return abs(self.estimate - self.exact) / abs(self.exact)


#: Bytes to ship one float record across the wide area.
_RECORD_BYTES = 8


class WideAreaAnalytics:
    """Federated mean queries under three transfer strategies.

    - ``"full"``: ship every record (exact, maximal traffic);
    - ``"aggregate"``: each site ships (sum, count) — exact for the
      mean, constant traffic per site;
    - ``"sample"``: each site ships a random fraction of records —
      degraded accuracy, proportional traffic (the JetStream
      degradation knob).
    """

    def __init__(self, sites: Sequence[SiteData],
                 rng: random.Random | None = None) -> None:
        if not sites:
            raise ValueError("need at least one site")
        names = [s.site for s in sites]
        if len(set(names)) != len(names):
            raise ValueError("site names must be unique")
        self.sites = list(sites)
        self.rng = rng or random.Random(0)

    def _exact_mean(self) -> float:
        values = [v for site in self.sites for v in site.values]
        return sum(values) / len(values)

    def query_mean(self, strategy: str = "aggregate",
                   sample_fraction: float = 0.1) -> QueryResult:
        """Run a federated mean query under the chosen strategy."""
        exact = self._exact_mean()
        if strategy == "full":
            n = sum(len(site.values) for site in self.sites)
            return QueryResult("full", exact, exact, n * _RECORD_BYTES)
        if strategy == "aggregate":
            # Each site ships exactly two numbers.
            transferred = len(self.sites) * 2 * _RECORD_BYTES
            total = sum(sum(site.values) for site in self.sites)
            count = sum(len(site.values) for site in self.sites)
            return QueryResult("aggregate", total / count, exact,
                               transferred)
        if strategy == "sample":
            if not 0.0 < sample_fraction <= 1.0:
                raise ValueError("sample_fraction must be in (0, 1]")
            shipped: list[float] = []
            for site in self.sites:
                k = max(1, round(len(site.values) * sample_fraction))
                shipped.extend(self.rng.sample(list(site.values), k))
            estimate = sum(shipped) / len(shipped)
            return QueryResult("sample", estimate, exact,
                               len(shipped) * _RECORD_BYTES)
        raise ValueError(f"unknown strategy {strategy!r}")

    def pareto_frontier(self, sample_fractions: Sequence[float] = (
            0.01, 0.05, 0.1, 0.25, 0.5)) -> list[QueryResult]:
        """The accuracy/traffic trade-off curve across strategies."""
        results = [self.query_mean("aggregate"),
                   self.query_mean("full")]
        results.extend(self.query_mean("sample", sample_fraction=fraction)
                       for fraction in sample_fractions)
        return sorted(results, key=lambda r: r.bytes_transferred)


def secure_sum(site_values: Mapping[str, float],
               rng: random.Random | None = None,
               mask_range: float = 1e6) -> tuple[float, dict[str, float]]:
    """Additive-masking secure aggregation ([129]).

    Every site splits its value into random shares, one per peer, such
    that the shares sum to the value; each site then publishes only the
    sum of the shares it *received*.  The grand total equals the true
    sum, yet no published number reveals any single site's value.

    Returns ``(total, published)`` where ``published`` maps each site
    to the masked aggregate it revealed.
    """
    if len(site_values) < 2:
        raise ValueError("secure aggregation needs at least two sites")
    rng = rng or random.Random(0)
    names = sorted(site_values)
    received: dict[str, float] = {name: 0.0 for name in names}
    for name in names:
        value = site_values[name]
        shares = [rng.uniform(-mask_range, mask_range)
                  for _ in range(len(names) - 1)]
        last_share = value - sum(shares)
        all_shares = shares + [last_share]
        for peer, share in zip(names, all_shares):
            received[peer] += share
    total = sum(received.values())
    return total, received
