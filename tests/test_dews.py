"""Tests for the DEWS application: cloud, alerts, dissemination, end-to-end."""

import time

import numpy as np
import pytest

from repro.dews.alerts import DroughtAlert, alert_level_name, build_alerts
from repro.dews.cloud import CloudStore
from repro.dews.dissemination import (
    DisseminationHub,
    IpRadioChannel,
    MobileAppChannel,
    SemanticWebChannel,
    SmartBillboardChannel,
)
from repro.dews.system import DewsConfig, DroughtEarlyWarningSystem
from repro.forecasting.fusion import Forecast
from repro.forecasting.vulnerability import compute_vulnerability
from repro.ontologies.drought import ALERT_LEVELS
from repro.ontologies.vocabulary import DROUGHT
from repro.workloads import DroughtEpisode, build_free_state_scenario


class TestCloudStore:
    def test_ingest_and_incremental_fetch(self):
        cloud = CloudStore()
        cloud.ingest("doc1", 0.0)
        cloud.ingest("doc2", 10.0)
        documents, cursor = cloud.fetch_since(0)
        assert documents == ["doc1", "doc2"]
        cloud.ingest("doc3", 20.0)
        documents, cursor = cloud.fetch_since(cursor)
        assert documents == ["doc3"]

    def test_fetch_window(self):
        cloud = CloudStore()
        cloud.ingest("a", 0.0)
        cloud.ingest("b", 100.0)
        assert cloud.fetch_window(50.0, 150.0) == ["b"]

    def test_unavailable_store_rejects(self):
        cloud = CloudStore(availability=0.0001, seed=1)
        accepted = sum(cloud.ingest("x", 0.0) for _ in range(50))
        assert accepted < 5
        assert cloud.statistics.rejected_uploads > 40

    def test_availability_validation(self):
        with pytest.raises(ValueError):
            CloudStore(availability=0.0)


def forecast(probability, district="Mangaung", day=100.0):
    return Forecast(issue_day=day, lead_time_days=20.0, drought_probability=probability,
                    confidence=0.8, method="fusion", area=district)


class TestAlerts:
    def test_alert_level_name(self):
        assert alert_level_name(DROUGHT.LevelWatch) == "Watch"

    def test_build_alerts_levels_follow_probability(self):
        forecasts = {"Mangaung": forecast(0.1), "Xhariep": forecast(0.9)}
        vulnerability = {v.district: v for v in compute_vulnerability(
            {name: f.drought_probability for name, f in forecasts.items()})}
        alerts = {a.district: a for a in build_alerts(forecasts, vulnerability)}
        assert alerts["Mangaung"].level == "Normal"
        assert alerts["Xhariep"].level == "Emergency"
        assert not alerts["Mangaung"].actionable
        assert alerts["Xhariep"].actionable

    def test_high_vulnerability_escalates(self):
        forecasts = {"Xhariep": forecast(0.5), "Mangaung": forecast(0.5)}
        vulnerability = {v.district: v for v in compute_vulnerability(
            {"Xhariep": 0.5, "Mangaung": 0.5})}
        alerts = {a.district: a for a in build_alerts(forecasts, vulnerability)}
        # Xhariep is the more vulnerable district and gets bumped a level
        assert ALERT_LEVELS.index(alerts["Xhariep"].level) >= ALERT_LEVELS.index(alerts["Mangaung"].level)

    def test_headline_and_rank(self):
        alert = DroughtAlert("Xhariep", 100.0, "Warning", 0.7, 0.4, 20.0, "advice")
        assert "XHARIEP" in alert.headline().upper()
        assert alert.rank == 2


class TestDissemination:
    def make_alert(self, level="Warning"):
        return DroughtAlert("Mangaung", 100.0, level, 0.7, 0.35, 20.0, "Reduce stocking rates.")

    def test_hub_fans_out_to_all_channels(self):
        hub = DisseminationHub(seed=1)
        deliveries = hub.disseminate([self.make_alert()])
        assert len(deliveries) == 4
        assert hub.total_recipients_reached() > 0

    def test_normal_alert_skips_billboard_and_radio(self):
        hub = DisseminationHub(seed=1)
        deliveries = hub.disseminate([self.make_alert("Normal")])
        channels = {d.channel for d in deliveries}
        assert "smart_billboard" not in channels and "ip_radio" not in channels
        assert "mobile_app" in channels

    def test_channel_statistics(self):
        channel = MobileAppChannel(subscribers=100, seed=2)
        for _ in range(20):
            channel.deliver(self.make_alert())
        stats = channel.statistics
        assert stats.attempted == 20
        assert 0.5 <= stats.delivery_ratio <= 1.0
        assert stats.mean_latency > 0

    def test_billboard_render_is_short(self):
        text = SmartBillboardChannel(seed=1).render(self.make_alert())
        assert len(text) < 80

    def test_radio_bulletin_contains_advisory(self):
        assert "stocking" in IpRadioChannel(seed=1).render(self.make_alert())

    def test_semantic_web_channel_builds_graph(self):
        channel = SemanticWebChannel(seed=1)
        channel.deliver(self.make_alert())
        channel.deliver(self.make_alert("Emergency"))
        assert len(channel.graph) >= 10
        assert len(list(channel.graph.subjects(None, DROUGHT.DroughtAlert))) == 2

    def test_semantic_web_render_does_not_grow_with_history(self):
        """A delivery renders its own alert, not every alert ever sent."""
        channel = SemanticWebChannel(seed=1)
        alert = self.make_alert()

        def timed_render():
            started = time.perf_counter()
            text = channel.render(alert)
            return time.perf_counter() - started, text

        early = [timed_render() for _ in range(20)]
        for _ in range(600):
            channel.render(alert)
        late = [timed_render() for _ in range(20)]
        # the consumers' graph still accumulates every alert ...
        assert len(list(channel.graph.subjects(None, DROUGHT.DroughtAlert))) == 640
        # ... but a rendered document holds one: same size but for the
        # digits of the alert counter, and no slower (best of 20 each side,
        # with room for scheduler noise; the whole-graph render was ~300x)
        assert all(text.count("DroughtAlert") == 1 for _, text in early + late)
        assert max(len(text) for _, text in late) <= min(len(t) for _, t in early) + 4
        assert min(s for s, _ in late) < 10 * min(s for s, _ in early)


class TestEndToEndDews:
    @pytest.fixture(scope="class")
    def result(self):
        scenario = build_free_state_scenario(
            districts=["Mangaung"], motes_per_district=6, observers_per_district=8,
            stations_per_district=1,
            episodes=[DroughtEpisode(200.0, 300.0, 0.85)], seed=7,
        )
        config = DewsConfig(days=330, forecast_every_days=15, forecast_start_day=45, seed=7)
        return DroughtEarlyWarningSystem(scenario, config).run()

    def test_all_three_forecasters_produce_forecasts(self, result):
        assert set(result.forecasts) == {"statistical", "indigenous", "fusion"}
        for series in result.forecasts.values():
            assert len(series) >= 15

    def test_skills_computed_for_each_method(self, result):
        assert set(result.skills) == {"statistical", "indigenous", "fusion"}
        for skill in result.skills.values():
            assert skill.forecasts_evaluated > 10
            assert 0.0 <= skill.pod <= 1.0

    def test_fusion_detects_the_embedded_drought(self, result):
        fusion = result.skills["fusion"]
        assert fusion.pod >= 0.4

    def test_mediation_resolves_most_heterogeneous_records(self, result):
        mediation = result.middleware_statistics["mediation"]
        assert mediation.records_seen > 3000
        assert mediation.resolution_rate > 0.75

    def test_daily_series_collected(self, result):
        series = result.daily_series["Mangaung"]["soil_moisture"]
        assert np.isfinite(series[60:300]).mean() > 0.8

    def test_wsn_delivered_data(self, result):
        stats = result.wsn_statistics["Mangaung"]
        assert stats.delivery_ratio > 0.3
        assert stats.records_delivered > 1000

    def test_gateway_uploaded_data(self, result):
        stats = result.gateway_statistics["Mangaung"]
        assert stats.upload_success_ratio > 0.8

    def test_alerts_issued_and_disseminated(self, result):
        assert result.alerts
        actionable = [a for a in result.alerts if a.actionable]
        assert actionable
        dissemination = result.dissemination_statistics
        assert dissemination["mobile_app"].attempted >= len(actionable)

    def test_derived_events_flow(self, result):
        assert result.derived_event_count > 5

    def test_skill_table_rows(self, result):
        rows = result.skill_table()
        assert len(rows) == 3
        assert {row["method"] for row in rows} == {"statistical", "indigenous", "fusion"}
