"""The interface protocol layer.

The bottom tier of the paper's middleware (Fig. 3): "the interface
protocols liaise with the storage database in the cloud for downloading the
semi-processed sensory reading".  Concretely this layer polls the simulated
cloud store for newly uploaded SenML documents, decodes them back into raw
observation records and hands them to the ontology segment layer (or
publishes them on the ``raw/...`` broker topics).

Each poll forwards all of its decoded records to the ``batch_sink`` in one
call so the ontology segment layer's staged pipeline can amortise
per-record overhead (batched mediation and annotation, deferred CEP flush).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.streams.broker import Broker
from repro.streams.messages import ObservationRecord, SenMLCodec
from repro.streams.scheduler import SimulationScheduler

RecordBatchSink = Callable[[List[ObservationRecord]], None]


@dataclass
class InterfaceLayerStatistics:
    """Counters for the middleware-layer benchmark (E2)."""

    documents_downloaded: int = 0
    records_decoded: int = 0
    decode_failures: int = 0
    polls: int = 0
    batches_forwarded: int = 0


class InterfaceProtocolLayer:
    """Downloads semi-processed readings from the cloud store.

    Parameters
    ----------
    cloud_store:
        An object exposing ``fetch_since(cursor) -> (documents, new_cursor)``
        -- normally :class:`repro.dews.cloud.CloudStore`.
    batch_sink:
        Callback receiving all records of one poll at once (normally the
        middleware facade's ``ingest_batch``).
    broker / raw_topic_prefix:
        When given, every decoded record is also published on
        ``<prefix>/<source_kind>/<source_id>`` so other subscribers (e.g.
        archiving, debugging dashboards) see the raw stream.
    scheduler / poll_interval:
        When given, the layer polls the store periodically on the simulated
        clock; otherwise call :meth:`poll` explicitly.
    on_poll:
        Callback invoked with the poll's records *after* dispatch — on
        every poll, including empty ones.  The middleware facade hooks its
        standing-view refresh here, so continuous queries and their
        broker-pushed deltas advance once per poll cycle even when a cycle
        delivers nothing.
    """

    def __init__(
        self,
        cloud_store,
        batch_sink: Optional[RecordBatchSink] = None,
        broker: Optional[Broker] = None,
        raw_topic_prefix: str = "raw",
        scheduler: Optional[SimulationScheduler] = None,
        poll_interval: float = 900.0,
        on_poll: Optional[RecordBatchSink] = None,
    ):
        self.cloud_store = cloud_store
        self.batch_sink = batch_sink
        self.broker = broker
        self.raw_topic_prefix = raw_topic_prefix
        self.scheduler = scheduler
        self.on_poll = on_poll
        self.statistics = InterfaceLayerStatistics()
        self._cursor = 0
        if scheduler is not None:
            scheduler.schedule_repeating(poll_interval, self.poll)

    def poll(self) -> List[ObservationRecord]:
        """Fetch and dispatch everything uploaded since the last poll."""
        self.statistics.polls += 1
        documents, self._cursor = self.cloud_store.fetch_since(self._cursor)
        records: List[ObservationRecord] = []
        for document in documents:
            self.statistics.documents_downloaded += 1
            try:
                decoded = SenMLCodec.decode(document)
            except (ValueError, KeyError, TypeError):
                self.statistics.decode_failures += 1
                continue
            records.extend(decoded)
        if records:
            self.statistics.records_decoded += len(records)
            if self.broker is not None:
                for record in records:
                    topic = f"{self.raw_topic_prefix}/{record.source_kind}/{record.source_id}"
                    self.broker.publish(topic, record, timestamp=record.timestamp)
            if self.batch_sink is not None:
                self.statistics.batches_forwarded += 1
                self.batch_sink(records)
        if self.on_poll is not None:
            self.on_poll(records)
        return records

    def __repr__(self) -> str:
        return (
            f"<InterfaceProtocolLayer decoded={self.statistics.records_decoded} "
            f"polls={self.statistics.polls}>"
        )
