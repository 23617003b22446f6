"""The mediator: eliminating data heterogeneity.

The mediator turns a raw :class:`~repro.streams.messages.ObservationRecord`
(vendor spelling, vendor unit, vendor schema) into a *canonical
observation*: canonical property key, value in canonical units, resolved
feature of interest and area.  This is the concrete mechanism behind the
paper's claim that the middleware "hide[s] the complexities and eliminate[s]
the data heterogeneity from multiple data sources".

Resolution steps per record:

1. **Naming heterogeneity** -- the term aligner maps the source's property
   spelling to a canonical property (exact / synonym / fuzzy match against
   the alignment ontology).
2. **Unit (cognitive) heterogeneity** -- the reported unit is converted to
   the canonical unit of the property's dimension; missing units are
   assumed canonical (and flagged).
3. **Schema heterogeneity** -- source-specific metadata fields are folded
   into a uniform metadata map keyed by the unified vocabulary.
4. IK sightings bypass property alignment (their "property" is an indicator
   key) but are still normalised and routed.

Unresolvable records are not silently dropped: they are returned as failed
outcomes with a reason, and counted, because the mediation benchmark (E1)
and the ablation benchmark (E9) need exactly those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ik.indicators import INDICATOR_CATALOGUE
from repro.ontologies.alignment import AlignmentResult, TermAligner
from repro.ontologies.units import UnitConversionError, canonical_symbol, to_canonical
from repro.sensors.modality import MODALITIES
from repro.streams.messages import ObservationRecord


@dataclass
class CanonicalObservation:
    """A fully mediated observation in the unified vocabulary."""

    property_key: str
    value: float
    unit: str
    timestamp: float
    source_id: str
    source_kind: str
    location: Optional[Tuple[float, float]] = None
    area: Optional[str] = None
    original_term: str = ""
    original_unit: Optional[str] = None
    alignment_method: str = "exact"
    alignment_confidence: float = 1.0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def is_indicator_sighting(self) -> bool:
        """Whether this observation is an IK indicator sighting."""
        return self.source_kind == "ik_sighting"


@dataclass
class MediationOutcome:
    """The result of mediating one raw record."""

    record: ObservationRecord
    observation: Optional[CanonicalObservation]
    failure_reason: Optional[str] = None

    @property
    def resolved(self) -> bool:
        """Whether mediation produced a canonical observation."""
        return self.observation is not None


@dataclass
class MediatorStatistics:
    """Counters the heterogeneity benchmarks read off the mediator."""

    records_seen: int = 0
    resolved: int = 0
    unresolved_term: int = 0
    unresolved_unit: int = 0
    invalid_value: int = 0
    by_method: Dict[str, int] = field(default_factory=dict)

    @property
    def resolution_rate(self) -> float:
        """Fraction of records fully mediated."""
        if self.records_seen == 0:
            return 0.0
        return self.resolved / self.records_seen


class Mediator:
    """Resolves heterogeneous raw records into canonical observations.

    Parameters
    ----------
    aligner:
        The term aligner to use; pass one with ``fuzzy_threshold=1.0`` and
        no synonyms to emulate the "no semantic mediation" ablation.
    area_resolver:
        Optional callable mapping a record to a district / area name
        (defaults to using the record's metadata or the source id prefix).
    strict_units:
        When true, records whose unit cannot be interpreted are rejected;
        when false the value is passed through unchanged (and flagged),
        which is what a naive standards-only pipeline would do.
    """

    def __init__(
        self,
        aligner: Optional[TermAligner] = None,
        area_resolver=None,
        strict_units: bool = True,
    ):
        self.aligner = aligner or TermAligner()
        self.area_resolver = area_resolver or self._default_area
        self.strict_units = strict_units
        self.statistics = MediatorStatistics()

    # ------------------------------------------------------------------ #
    # area resolution
    # ------------------------------------------------------------------ #

    @staticmethod
    def _default_area(record: ObservationRecord) -> Optional[str]:
        area = record.metadata.get("area")
        if isinstance(area, str):
            return area
        # source ids in the scenario are "<district>-mote-03" etc.
        if "-" in record.source_id:
            return record.source_id.rsplit("-", 2)[0]
        return None

    # ------------------------------------------------------------------ #
    # mediation
    # ------------------------------------------------------------------ #

    def mediate(self, record: ObservationRecord) -> MediationOutcome:
        """Mediate one raw record (a batch of one)."""
        return self.mediate_many([record])[0]

    def _mediate_aligned(
        self, record: ObservationRecord, alignment: AlignmentResult
    ) -> MediationOutcome:
        """Resolve units, range and schema given an already-aligned term."""
        if not alignment.resolved:
            self.statistics.unresolved_term += 1
            return MediationOutcome(
                record, None, failure_reason=f"unresolved term: {record.property_name!r}"
            )

        canonical_key = alignment.canonical_key
        modality = MODALITIES.get(canonical_key)
        canonical_unit = modality.canonical_unit if modality else None

        value = record.value
        original_unit = record.unit
        if original_unit and canonical_unit and original_unit != canonical_unit:
            try:
                value = to_canonical(value, original_unit)
                resolved_unit = canonical_symbol(original_unit)
                if canonical_unit and resolved_unit != canonical_unit:
                    raise UnitConversionError(
                        f"{original_unit!r} is not a unit of the dimension of {canonical_key!r}"
                    )
            except UnitConversionError as exc:
                if self.strict_units:
                    self.statistics.unresolved_unit += 1
                    return MediationOutcome(record, None, failure_reason=str(exc))
                # pass the raw number through, flagged
                value = record.value
        unit = canonical_unit or (original_unit or "unknown")

        if modality is not None and not (
            modality.minimum - 1e6 <= value <= modality.maximum + 1e6
        ):
            self.statistics.invalid_value += 1
            return MediationOutcome(
                record, None, failure_reason=f"value out of physical range: {value!r}"
            )

        observation = CanonicalObservation(
            property_key=canonical_key,
            value=float(value),
            unit=unit,
            timestamp=record.timestamp,
            source_id=record.source_id,
            source_kind=record.source_kind,
            location=record.location,
            area=self.area_resolver(record),
            original_term=record.property_name,
            original_unit=original_unit,
            alignment_method=alignment.method,
            alignment_confidence=alignment.confidence,
            metadata=dict(record.metadata),
        )
        self._record_success(alignment)
        return MediationOutcome(record, observation)

    def _mediate_sighting(self, record: ObservationRecord) -> MediationOutcome:
        indicator_key = record.property_name
        if indicator_key not in INDICATOR_CATALOGUE:
            self.statistics.unresolved_term += 1
            return MediationOutcome(
                record, None, failure_reason=f"unknown indicator: {indicator_key!r}"
            )
        observation = CanonicalObservation(
            property_key=indicator_key,
            value=float(record.value),
            unit="index",
            timestamp=record.timestamp,
            source_id=record.source_id,
            source_kind=record.source_kind,
            location=record.location,
            area=self.area_resolver(record),
            original_term=indicator_key,
            original_unit=None,
            alignment_method="indicator",
            alignment_confidence=1.0,
            metadata=dict(record.metadata),
        )
        self.statistics.resolved += 1
        self.statistics.by_method["indicator"] = (
            self.statistics.by_method.get("indicator", 0) + 1
        )
        return MediationOutcome(record, observation)

    def _record_success(self, alignment: AlignmentResult) -> None:
        self.statistics.resolved += 1
        self.statistics.by_method[alignment.method] = (
            self.statistics.by_method.get(alignment.method, 0) + 1
        )

    def mediate_many(self, records: Iterable[ObservationRecord]) -> List[MediationOutcome]:
        """Mediate a batch of records, aligning each distinct term once.

        Term alignment (unicode normalisation, synonym and fuzzy lookup) is
        by far the most expensive mediation step and is a pure function of
        the vendor spelling, so a batch resolves every distinct
        ``property_name`` once and reuses the alignment for all records
        carrying it.  The aligner's own counters therefore see one
        ``align`` call per distinct term, not per record.
        """
        alignments: Dict[str, AlignmentResult] = {}
        outcomes: List[MediationOutcome] = []
        for record in records:
            self.statistics.records_seen += 1
            if record.source_kind == "ik_sighting":
                outcomes.append(self._mediate_sighting(record))
                continue
            alignment = alignments.get(record.property_name)
            if alignment is None:
                alignment = self.aligner.align(record.property_name)
                alignments[record.property_name] = alignment
            outcomes.append(self._mediate_aligned(record, alignment))
        return outcomes


def passthrough_mediator() -> Mediator:
    """A mediator with semantic alignment disabled (the E9 ablation arm).

    Only exact canonical spellings resolve; synonyms, other languages and
    fuzzy matches all fail, and units are passed through unconverted --
    i.e. the behaviour of a fixed-schema, standards-only pipeline.
    """
    aligner = TermAligner(fuzzy_threshold=1.0)
    aligner._lookup = {  # keep only the canonical keys themselves
        key: value for key, value in aligner._lookup.items()
        if value.replace("_", " ") == key or value == key
    }
    return Mediator(aligner=aligner, strict_units=False)
