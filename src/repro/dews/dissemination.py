"""Dissemination channels.

The paper's motivation section laments "the absence of smart billboards
placed at strategic locations, smart phones, IP radios and semantic web" as
dissemination channels.  Each channel here models the reach, latency and
failure characteristics of one of those outputs; the
:class:`DisseminationHub` fans every alert out to all channels and keeps the
per-channel accounting the E7 benchmark reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dews.alerts import DroughtAlert
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import RDF, RDFS
from repro.semantics.rdf.term import Literal
from repro.semantics.rdf.triple import Triple
from repro.ontologies.vocabulary import AFRICRID, DROUGHT


@dataclass
class Delivery:
    """One alert delivered (or not) through one channel."""

    channel: str
    district: str
    issue_day: float
    delivered: bool
    latency_seconds: float
    recipients: int


@dataclass
class ChannelStatistics:
    """Aggregated per-channel delivery accounting."""

    attempted: int = 0
    delivered: int = 0
    recipients_reached: int = 0
    total_latency: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        """Fraction of attempted deliveries that succeeded."""
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency over successful deliveries (seconds)."""
        return self.total_latency / self.delivered if self.delivered else 0.0


class DisseminationChannel:
    """Base class: a channel turns an alert into a rendered delivery."""

    name = "channel"

    def __init__(
        self,
        reach: int,
        base_latency: float,
        failure_probability: float = 0.0,
        seed: int = 0,
    ):
        self.reach = reach
        self.base_latency = base_latency
        self.failure_probability = failure_probability
        self._rng = random.Random(seed)
        self.statistics = ChannelStatistics()
        self.log: List[Delivery] = []

    def render(self, alert: DroughtAlert) -> str:
        """Render the alert in the channel's native format."""
        return alert.headline()

    def minimum_level(self) -> int:
        """Alerts below this rank are not pushed on this channel."""
        return 0

    def deliver(self, alert: DroughtAlert) -> Delivery:
        """Attempt to deliver one alert."""
        self.statistics.attempted += 1
        failed = self._rng.random() < self.failure_probability
        latency = self.base_latency * (0.7 + 0.6 * self._rng.random())
        delivery = Delivery(
            channel=self.name,
            district=alert.district,
            issue_day=alert.issue_day,
            delivered=not failed,
            latency_seconds=0.0 if failed else latency,
            recipients=0 if failed else self.reach,
        )
        if delivery.delivered:
            self.statistics.delivered += 1
            self.statistics.recipients_reached += delivery.recipients
            self.statistics.total_latency += delivery.latency_seconds
            self.render(alert)
        self.log.append(delivery)
        return delivery


class SmartBillboardChannel(DisseminationChannel):
    """Roadside smart billboards at strategic locations."""

    name = "smart_billboard"

    def __init__(self, boards: int = 12, seed: int = 0):
        super().__init__(reach=boards * 400, base_latency=60.0,
                         failure_probability=0.05, seed=seed)

    def minimum_level(self) -> int:
        return 1  # billboards only show Watch and above

    def render(self, alert: DroughtAlert) -> str:
        return f"{alert.district.upper()} | {alert.level.upper()} | DVI {alert.vulnerability:.2f}"


class MobileAppChannel(DisseminationChannel):
    """Smartphone push notifications / SMS broadcast to registered farmers."""

    name = "mobile_app"

    def __init__(self, subscribers: int = 2500, seed: int = 0):
        super().__init__(reach=subscribers, base_latency=20.0,
                         failure_probability=0.08, seed=seed)

    def render(self, alert: DroughtAlert) -> str:
        return json.dumps(
            {
                "title": f"Drought {alert.level} - {alert.district}",
                "probability": round(alert.drought_probability, 2),
                "lead_time_days": alert.lead_time_days,
                "advisory": alert.advisory,
            }
        )


class IpRadioChannel(DisseminationChannel):
    """Community IP radio bulletins (read out on a schedule)."""

    name = "ip_radio"

    def __init__(self, listeners: int = 15000, seed: int = 0):
        super().__init__(reach=listeners, base_latency=3 * 3600.0,
                         failure_probability=0.02, seed=seed)

    def minimum_level(self) -> int:
        return 1

    def render(self, alert: DroughtAlert) -> str:
        return (
            f"Drought bulletin for {alert.district}: level {alert.level}. "
            f"{alert.advisory}"
        )


class SemanticWebChannel(DisseminationChannel):
    """A machine-readable endpoint publishing alerts as RDF.

    Other systems (provincial dashboards, research portals) consume the
    alert graph; ``reach`` counts integrated systems rather than people.
    """

    name = "semantic_web"

    def __init__(self, consumers: int = 5, seed: int = 0):
        super().__init__(reach=consumers, base_latency=2.0,
                         failure_probability=0.01, seed=seed)
        self.graph = Graph()
        self._counter = 0

    def render(self, alert: DroughtAlert) -> str:
        """The alert's own triples as Turtle; ``graph`` keeps accumulating
        every alert delivered for the consumers that query it."""
        self._counter += 1
        alert_iri = AFRICRID[f"alert/{self._counter}"]
        triples = [
            Triple(alert_iri, RDF.type, DROUGHT.DroughtAlert),
            Triple(alert_iri, DROUGHT.hasAlertLevel, DROUGHT[f"Level{alert.level}"]),
            Triple(alert_iri, DROUGHT.hasProbability, Literal(alert.drought_probability)),
            Triple(alert_iri, DROUGHT.hasLeadTimeDays, Literal(alert.lead_time_days)),
            Triple(alert_iri, RDFS.label, Literal(alert.headline())),
            Triple(alert_iri, AFRICRID.forDistrict, Literal(alert.district)),
        ]
        self.graph.add_all(triples)
        document = Graph()
        document.add_all(triples)
        return document.serialize("turtle")


class DisseminationHub:
    """Fans alerts out to every registered channel."""

    def __init__(self, channels: Optional[List[DisseminationChannel]] = None, seed: int = 0):
        self.channels: List[DisseminationChannel] = channels if channels is not None else [
            SmartBillboardChannel(seed=seed),
            MobileAppChannel(seed=seed + 1),
            IpRadioChannel(seed=seed + 2),
            SemanticWebChannel(seed=seed + 3),
        ]
        self.deliveries: List[Delivery] = []

    def disseminate(self, alerts: List[DroughtAlert]) -> List[Delivery]:
        """Send each alert on every channel whose minimum level it meets."""
        deliveries: List[Delivery] = []
        for alert in alerts:
            for channel in self.channels:
                if alert.rank < channel.minimum_level():
                    continue
                deliveries.append(channel.deliver(alert))
        self.deliveries.extend(deliveries)
        return deliveries

    def statistics(self) -> Dict[str, ChannelStatistics]:
        """Per-channel delivery statistics."""
        return {channel.name: channel.statistics for channel in self.channels}

    def total_recipients_reached(self) -> int:
        """Total recipient count across channels (double counting accepted)."""
        return sum(channel.statistics.recipients_reached for channel in self.channels)
