"""The end-to-end Drought Early Warning System.

Wires the whole reproduction together and runs it over simulated time:

1. Every simulated day the WSN motes sample and route their raw
   heterogeneous records to their district sink; weather stations report on
   their own cadence; mobile observers send coarse reports and IK indicator
   sightings.  Everything reaches the SMS gateway, which uploads SenML
   batches to the cloud store.
2. The middleware's interface protocol layer polls the cloud, the ontology
   segment layer mediates and (optionally) annotates each record, and the
   application layer publishes canonical events.
3. The DEWS aggregates canonical observations to daily per-district values,
   feeds the aggregates (and the IK sightings, which the middleware already
   routed) through the CEP engine, and lets the fusion forecaster accumulate
   the derived evidence.
4. On the forecast cadence the three forecasters (statistical baseline,
   IK-only, fusion) each issue a forecast per district; the fused forecast
   drives the vulnerability index, alerts and dissemination.
5. At the end of the run the forecasts are scored against the climate's
   ground-truth drought mask.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.cep.event import DerivedEvent, Event
from repro.core.api import HealthReport, IngestReceipt, StandingViewHandle
from repro.core.mediator import Mediator
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.dews.alerts import DroughtAlert, build_alerts
from repro.dews.cloud import CloudStore
from repro.dews.dissemination import DisseminationHub
from repro.forecasting.evaluation import ForecastSkill, evaluate_forecasts
from repro.forecasting.fusion import Forecast, FusionForecaster, IndigenousForecaster
from repro.forecasting.statistical import StatisticalForecaster
from repro.forecasting.vulnerability import compute_vulnerability
from repro.ik.elicitation import ElicitationCampaign
from repro.ik.knowledge_base import IndigenousKnowledgeBase
from repro.ontologies.library import OntologyLibrary
from repro.sensors.gateway import SmsGateway
from repro.streams.scheduler import DAY, SimulationScheduler
from repro.workloads.climate import ClimateGenerator
from repro.workloads.scenario import DeploymentScenario

#: Properties aggregated to daily district values for forecasting and CEP.
AGGREGATED_PROPERTIES = [
    "rainfall",
    "soil_moisture",
    "air_temperature",
    "water_level",
    "vegetation_index",
    "relative_humidity",
]


@dataclass
class DewsConfig:
    """Run configuration of the end-to-end system."""

    days: int = 730
    sampling_rounds_per_day: int = 1
    station_reports_per_day: int = 1
    observer_reports_every_days: int = 3
    forecast_every_days: int = 10
    forecast_start_day: int = 60
    annotate_observations: bool = False
    use_indigenous_knowledge: bool = True
    use_semantic_mediation: bool = True
    elicit_knowledge_base: bool = True
    climatology_years: int = 5
    drought_threshold: float = 0.5
    seed: int = 0
    #: Per-district graph partitions in the middleware (1 = single graph).
    #: Districts are natural shard keys: each gateway's uploads touch one
    #: partition, so other districts' caches and closures stay warm.
    shards: int = 1
    #: Shard execution model: ``"inline"`` (per-shard graphs in-process)
    #: or ``"process"`` (one worker process per shard).  ``None`` defers
    #: to the ``REPRO_SHARD_BACKEND`` environment variable.
    shard_backend: Optional[str] = None
    #: Directory for the middleware's durable state (per-shard WAL +
    #: snapshots); ``None`` runs fully in-memory.  Pointing a new run at a
    #: previous run's directory recovers its graphs and standing views.
    data_dir: Optional[str] = None
    #: Serve partial (marked) federated query results when a shard worker
    #: is unavailable instead of failing the warning pipeline outright.
    #: An early-warning system prefers a degraded forecast over none.
    degraded_reads: bool = False
    #: RPC deadline for shard worker calls (process backend); ``None``
    #: defers to ``REPRO_SHARD_RPC_TIMEOUT``.
    shard_rpc_timeout: Optional[float] = None
    #: Deterministic fault-injection plan for resilience drills; ``None``
    #: defers to ``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED``.
    fault_plan: Optional[object] = None


@dataclass
class DewsRunResult:
    """Everything a run produces, consumed by benchmarks and examples."""

    config: DewsConfig
    forecasts: Dict[str, List[Forecast]]
    skills: Dict[str, ForecastSkill]
    alerts: List[DroughtAlert]
    daily_series: Dict[str, Dict[str, np.ndarray]]
    middleware_statistics: dict
    wsn_statistics: dict
    gateway_statistics: dict
    dissemination_statistics: dict
    derived_event_count: int

    def skill_table(self) -> List[dict]:
        """One row per forecasting method (the E4 table)."""
        return [skill.as_row() for skill in self.skills.values()]


class _DailyAggregator:
    """Accumulates canonical observations into daily per-district means."""

    def __init__(self) -> None:
        self._sums: Dict[tuple, float] = defaultdict(float)
        self._counts: Dict[tuple, int] = defaultdict(int)

    def add(self, event: Event) -> None:
        day = int(event.timestamp // DAY)
        key = (event.area or "unknown", event.event_type, day)
        self._sums[key] += event.value
        self._counts[key] += 1

    def value(self, area: str, property_key: str, day: int) -> float:
        key = (area, property_key, day)
        count = self._counts.get(key, 0)
        if count == 0:
            return float("nan")
        return self._sums[key] / count

    def series(self, area: str, property_key: str, days: int) -> np.ndarray:
        return np.asarray(
            [self.value(area, property_key, day) for day in range(days)], dtype=float
        )


class DroughtEarlyWarningSystem:
    """The assembled IoT-based DEWS of the paper's case study."""

    def __init__(
        self,
        scenario: DeploymentScenario,
        config: Optional[DewsConfig] = None,
        library: Optional[OntologyLibrary] = None,
    ):
        self.scenario = scenario
        self.config = config or DewsConfig()
        self.scheduler = SimulationScheduler()
        self.cloud = CloudStore(availability=0.98, seed=self.config.seed)

        # --- indigenous knowledge -------------------------------------- #
        if self.config.elicit_knowledge_base:
            campaign = ElicitationCampaign(
                community="free-state-workshop", respondents=30, seed=self.config.seed
            )
            self.knowledge_base = campaign.run()
        else:
            self.knowledge_base = IndigenousKnowledgeBase()

        # --- the middleware --------------------------------------------- #
        mediator: Optional[Mediator] = None
        if not self.config.use_semantic_mediation:
            from repro.core.mediator import passthrough_mediator

            mediator = passthrough_mediator()
        middleware_config = MiddlewareConfig(
            annotate_observations=self.config.annotate_observations,
            install_ik_rules=self.config.use_indigenous_knowledge,
            cep_per_record=False,
            shards=self.config.shards,
            shard_backend=self.config.shard_backend,
            data_dir=self.config.data_dir,
            degraded_reads=self.config.degraded_reads,
            shard_rpc_timeout=self.config.shard_rpc_timeout,
            fault_plan=self.config.fault_plan,
        )
        self.middleware = SemanticMiddleware(
            scheduler=self.scheduler,
            knowledge_base=self.knowledge_base,
            library=library,
            mediator=mediator,
            config=middleware_config,
        )
        self.middleware.attach_cloud_store(self.cloud)

        # --- gateways (one per district sink) ---------------------------- #
        self.gateways: Dict[str, SmsGateway] = {
            district.name: SmsGateway(
                self.scheduler,
                self.cloud.ingest,
                upload_interval=6 * 3600.0,
                outage_probability=0.05,
                seed=self.config.seed + index,
            )
            for index, district in enumerate(scenario.districts)
        }

        # --- forecasting and dissemination ------------------------------- #
        self.aggregator = _DailyAggregator()
        for key in AGGREGATED_PROPERTIES:
            self.middleware.subscribe_property(key, self.aggregator.add)
        self.fusion = FusionForecaster(self.knowledge_base)
        self.indigenous = IndigenousForecaster(self.knowledge_base)
        self.statistical = StatisticalForecaster()
        self.middleware.subscribe_derived("#", self.fusion.observe)
        self.dissemination = DisseminationHub(seed=self.config.seed)
        self.derived_events: List[DerivedEvent] = []
        self.middleware.ontology_layer.cep.on_derived_event(self.derived_events.append)

        # climatology reference for the statistical indices and the anomaly
        # event streams the sensor-side CEP rules watch: the scenario's own
        # climate without its drought episodes, i.e. the local seasonal
        # normal an operational service would have learned from history
        self._reference_climate = ClimateGenerator(seed=scenario.climate.seed)
        self._climatology: Dict[str, Dict[str, np.ndarray]] = {}
        self._reference_rain = self._reference_climate.daily_series(
            "rainfall", 365 * self.config.climatology_years
        )
        self._reference_soil = self._reference_climate.daily_series(
            "soil_moisture", 365 * self.config.climatology_years
        )
        self._build_climatology()

    def _build_climatology(self) -> None:
        """Per-property day-of-year normals (mean, std) from the reference climate."""
        years = self.config.climatology_years
        for key in AGGREGATED_PROPERTIES:
            series = self._reference_climate.daily_series(key, 365 * years)
            stacked = series[: 365 * years].reshape(years, 365)
            mean = stacked.mean(axis=0)
            std = stacked.std(axis=0)
            # smooth over +/- 7 days so single-year noise does not dominate
            kernel = np.ones(15) / 15.0
            padded_mean = np.concatenate([mean[-7:], mean, mean[:7]])
            padded_std = np.concatenate([std[-7:], std, std[:7]])
            mean = np.convolve(padded_mean, kernel, mode="valid")
            std = np.maximum(np.convolve(padded_std, kernel, mode="valid"), 1e-3)
            self._climatology[key] = {"mean": mean, "std": std}

    def _anomaly(self, key: str, day: int, value: float) -> float:
        """Standardised departure of a daily value from its seasonal normal."""
        climatology = self._climatology[key]
        doy = day % 365
        return float((value - climatology["mean"][doy]) / climatology["std"][doy])

    # ------------------------------------------------------------------ #
    # event plumbing
    # ------------------------------------------------------------------ #

    def _feed_daily_aggregates(self, day: int) -> None:
        """Inject aggregate and anomaly events per property per district.

        The raw aggregate keeps the canonical property key; the anomaly
        event (``<property>_anomaly``, standardised against the seasonal
        climatology) is what the sensor-side process-detection rules watch.
        The whole day's events go to the CEP engine as one batch.
        """
        daily_events: List[Event] = []
        for district in self.scenario.districts:
            for key in AGGREGATED_PROPERTIES:
                value = self.aggregator.value(district.name, key, day)
                if np.isnan(value):
                    continue
                timestamp = (day + 1) * DAY - 1.0
                daily_events.append(
                    Event(
                        event_type=key,
                        value=float(value),
                        timestamp=timestamp,
                        source_id=f"aggregate:{district.name}",
                        source_kind="aggregate",
                        area=district.name,
                    )
                )
                daily_events.append(
                    Event(
                        event_type=f"{key}_anomaly",
                        value=self._anomaly(key, day, value),
                        timestamp=timestamp,
                        source_id=f"aggregate:{district.name}",
                        source_kind="aggregate",
                        area=district.name,
                    )
                )
        self.middleware.inject_events(daily_events)

    # ------------------------------------------------------------------ #
    # the simulated day loop
    # ------------------------------------------------------------------ #

    def _run_physical_layer(self, day: int) -> None:
        config = self.config
        for district in self.scenario.districts:
            gateway = self.gateways[district.name]
            for round_index in range(config.sampling_rounds_per_day):
                timestamp = day * DAY + (round_index + 1) * DAY / (
                    config.sampling_rounds_per_day + 1
                )
                outcomes = district.network.sample_and_deliver(timestamp)
                for outcome in outcomes:
                    if outcome.delivered:
                        gateway.receive(outcome.records)
            for station in district.stations:
                for report_index in range(config.station_reports_per_day):
                    timestamp = day * DAY + (report_index + 0.5) * DAY / config.station_reports_per_day
                    gateway.receive(station.report(timestamp))
            if day % config.observer_reports_every_days == 0:
                for observer in district.observers:
                    timestamp = day * DAY + DAY / 2
                    gateway.receive(observer.report_conditions(timestamp))
                    gateway.receive(observer.report_sightings(timestamp))

    def _issue_forecasts(
        self, day: int, forecasts: Dict[str, Dict[str, List[Forecast]]]
    ) -> List[DroughtAlert]:
        """Issue per-district forecasts from all three methods and alert."""
        fused_by_district: Dict[str, Forecast] = {}
        for district in self.scenario.districts:
            observed_rain = self.aggregator.series(district.name, "rainfall", day + 1)
            observed_soil = self.aggregator.series(district.name, "soil_moisture", day + 1)
            # Days with no delivered observation are filled with the seasonal
            # normal, not with zero -- treating missing data as "no rain"
            # would manufacture droughts out of sensor outages.
            days_index = np.arange(day + 1) % 365
            rain_filled = np.where(
                np.isnan(observed_rain),
                self._climatology["rainfall"]["mean"][days_index],
                observed_rain,
            )
            soil_filled = np.where(
                np.isnan(observed_soil),
                self._climatology["soil_moisture"]["mean"][days_index],
                observed_soil,
            )

            statistical = self.statistical.forecast_series(
                rain_filled,
                soil_filled,
                area=district.name,
                issue_every_days=1,
                reference_rainfall=self._reference_rain,
                reference_soil_moisture=self._reference_soil,
            )
            if statistical:
                # the forecast issued at the most recent day is the
                # operational one for this cadence point
                forecasts["statistical"][district.name].append(statistical[-1])

            ik_summary = self.indigenous.drought_probability_at(float(day))
            ik_forecast = Forecast(
                issue_day=float(day),
                lead_time_days=self.knowledge_base.mean_lead_time("drier") or 30.0,
                drought_probability=ik_summary["probability"],
                confidence=min(1.0, 0.25 + 0.75 * (ik_summary["drier"] + ik_summary["wetter"])),
                method="indigenous",
                area=district.name,
                evidence={"net_drier": ik_summary["net_drier"]},
            )
            forecasts["indigenous"][district.name].append(ik_forecast)

            fused_probability = self.fusion.drought_probability_at(float(day), district.name)
            fused = Forecast(
                issue_day=float(day),
                lead_time_days=max(10.0, 0.5 * self.knowledge_base.mean_lead_time("drier")),
                drought_probability=fused_probability,
                confidence=0.7,
                method="fusion",
                area=district.name,
                evidence=self.fusion._evidence_at(float(day), district.name),
            )
            forecasts["fusion"][district.name].append(fused)
            fused_by_district[district.name] = fused

        vulnerability = {
            index.district: index
            for index in compute_vulnerability(
                {name: forecast.drought_probability for name, forecast in fused_by_district.items()}
            )
        }
        alerts = build_alerts(fused_by_district, vulnerability)
        self.dissemination.disseminate([alert for alert in alerts if alert.actionable])
        return alerts

    # ------------------------------------------------------------------ #
    # the unified embedding API (shared with SemanticMiddleware)
    # ------------------------------------------------------------------ #

    @property
    def broker(self):
        """The middleware's broker — the bus serving gateways attach to."""
        return self.middleware.broker

    def ingest_batch(self, records: Iterable) -> IngestReceipt:
        """Ingest raw observation records directly, bypassing the cloud hop.

        The serving gateway (and any operational feed) pushes records here
        rather than through the simulated SMS-gateway → cloud-store path;
        the staged middleware pipeline treats them identically.
        """
        return self.middleware.ingest_batch(records)

    def subscribe(
        self, pattern: str, handler: Callable, subscriber_name: str = "application"
    ):
        """Subscribe to a broker topic pattern (full messages, see
        :meth:`SemanticMiddleware.subscribe`)."""
        return self.middleware.subscribe(
            pattern, handler, subscriber_name=subscriber_name
        )

    def statistics(self) -> dict:
        """The middleware's merged statistics snapshot across its layers."""
        return self.middleware.statistics()

    def query(self, text: str, entail: bool = False):
        """Run a SPARQL-like query over the middleware's semantic graph.

        Dashboards and post-run analyses ask the same handful of queries
        repeatedly; they are served through the middleware's cost-based
        planner with version-keyed plan / result caching, and with
        ``entail`` the answers also include reasoner-inferred triples.
        """
        return self.middleware.query(text, entail=entail)

    def register_standing(
        self, text: str, name: Optional[str] = None, push: bool = False
    ) -> StandingViewHandle:
        """Register a dashboard query as a delta-maintained standing view.

        The query is then served from a materialized view that each
        ingest updates in O(|delta|) — the right shape for the queries a
        DEWS dashboard re-runs every poll cycle.  With ``push`` the view's
        itemised deltas are also published on ``views/<name>`` so CEP
        subscribers can follow the standing result without re-polling.
        """
        return self.middleware.register_standing(text, name=name, push=push)

    def health(self) -> HealthReport:
        """Fault-tolerance state of the middleware's shard serving path.

        What an operations dashboard polls between forecast cycles: which
        district partitions are up, tripped or restarting, how much ingest
        is parked awaiting recovery, and how deep the dead-letter journal
        of quarantined batches and rejected records runs.
        """
        return self.middleware.health()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the middleware's owned resources (idempotent).

        Graceful shutdown of the shard worker processes and the
        persistence layer; see :meth:`SemanticMiddleware.close`.
        """
        self.middleware.close()

    def __enter__(self) -> "DroughtEarlyWarningSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self) -> DewsRunResult:
        """Run the full pipeline for ``config.days`` simulated days."""
        config = self.config
        forecasts: Dict[str, Dict[str, List[Forecast]]] = {
            "statistical": defaultdict(list),
            "indigenous": defaultdict(list),
            "fusion": defaultdict(list),
        }
        all_alerts: List[DroughtAlert] = []

        for day in range(config.days):
            self._run_physical_layer(day)
            # let gateway uploads, cloud polls and broker deliveries run
            self.scheduler.run_until((day + 1) * DAY)
            self._feed_daily_aggregates(day)
            if day >= config.forecast_start_day and day % config.forecast_every_days == 0:
                all_alerts.extend(self._issue_forecasts(day, forecasts))

        # ----------------------------------------------------------------- #
        # evaluation against ground truth
        # ----------------------------------------------------------------- #
        truth = self.scenario.climate.drought_truth(config.days)
        episodes = self.scenario.climate.episodes
        skills: Dict[str, ForecastSkill] = {}
        flat_forecasts: Dict[str, List[Forecast]] = {}
        for method, per_district in forecasts.items():
            flat = [forecast for series in per_district.values() for forecast in series]
            flat_forecasts[method] = flat
            if flat:
                skills[method] = evaluate_forecasts(
                    flat, truth, episodes, threshold=config.drought_threshold
                )

        daily_series = {
            district.name: {
                key: self.aggregator.series(district.name, key, config.days)
                for key in AGGREGATED_PROPERTIES
            }
            for district in self.scenario.districts
        }
        return DewsRunResult(
            config=config,
            forecasts=flat_forecasts,
            skills=skills,
            alerts=all_alerts,
            daily_series=daily_series,
            middleware_statistics=self.middleware.statistics(),
            wsn_statistics={
                district.name: district.network.statistics
                for district in self.scenario.districts
            },
            gateway_statistics={
                name: gateway.statistics for name, gateway in self.gateways.items()
            },
            dissemination_statistics=self.dissemination.statistics(),
            derived_event_count=len(self.derived_events),
        )
