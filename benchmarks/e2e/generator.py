"""The seeded generator of every workload's inputs and expectations.

One seed fixes the whole op script: the records of every poll (with their
vendor-phrased, unresolvable and non-finite members at seeded positions),
the pre-encoded request bodies, and what the program must answer — how
many records of each poll are rejected and which observation times the
alert view must push.  The program under test only ever sees the records.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.sensors.heterogeneity import VENDOR_PROFILES

DISTRICTS = [f"district{index}" for index in range(8)]

#: Simulated seconds one poll covers: the interface layer's cloud poll
#: interval, so ``sim_days_per_s`` reads the same way on every workload.
POLL_SIM_SECONDS = 900.0

#: (canonical spelling, unit, key, low, span) — values stay below 90.
PROPERTIES = [
    ("soil moisture", "percent", "soil_moisture", 20.0, 40.0),
    ("rainfall", "mm", "rainfall", 0.0, 25.0),
    ("air temperature", "degC", "air_temperature", 12.0, 20.0),
    ("relative humidity", "percent", "relative_humidity", 40.0, 45.0),
]

#: Only planted spikes exceed this; the alert view and the generator's
#: expectation both hang off it.
ALERT_THRESHOLD = 90

VENDOR_SHARE = 0.15
UNRESOLVABLE_SHARE = 0.02
NON_FINITE_SHARE = 0.01
UNRESOLVABLE_TERMS = ["quantum_flux", "zzqx-17", "flux capacitor", "xylophone index"]

#: canonical value -> the value a vendor reporting in this unit would send
_TO_VENDOR_UNIT = {
    "degF": lambda celsius: celsius * 9.0 / 5.0 + 32.0,
    "in": lambda millimetres: millimetres / 25.4,
}


def _vendor_spellings() -> Dict[str, List[Tuple[str, str]]]:
    out: Dict[str, List[Tuple[str, str]]] = {}
    for _, unit, key, _, _ in PROPERTIES:
        out[key] = [
            (profile.spell(key), profile.unit_for(key, unit))
            for profile in VENDOR_PROFILES.values()
            if key in profile.property_names
        ]
    return out


VENDOR_SPELLINGS = _vendor_spellings()

PREFIX_FEATURE = "http://africrid.example.org/resource/feature/"

ALERT_QUERY = (
    "SELECT ?t ?v WHERE { ?obs ssn:observationResultTime ?t . "
    "?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . "
    f"FILTER (?v > {ALERT_THRESHOLD}) }}"
)
OBSERVATION_COUNT_QUERY = "SELECT ?obs WHERE { ?obs rdf:type ssn:Observation }"


@dataclass
class Poll:
    """One district gateway upload and what the program must do with it."""

    index: int
    district: str
    records: List[dict]
    rejected: int
    #: observation times of the planted exceedances (the alert frame's rows)
    alert_times: Tuple[float, ...]
    #: observation times of the records the pipeline must accept
    accepted_times: Tuple[float, ...]

    @property
    def sent(self) -> int:
        return len(self.records)

    def body(self) -> bytes:
        return json.dumps({"records": self.records}, separators=(",", ":")).encode()


@dataclass
class Panel:
    name: str
    text: str
    entail: bool = False

    def body(self) -> bytes:
        payload = {"query": self.text}
        if self.entail:
            payload["entail"] = True
        return json.dumps(payload, separators=(",", ":")).encode()


def _count(rng: random.Random, size: int, share: float) -> int:
    exact = size * share
    whole = int(exact)
    return whole + (1 if rng.random() < exact - whole else 0)


def make_poll(seed: int, index: int, size: int) -> Poll:
    """Poll ``index`` of the stream ``seed`` fixes (districts round-robin)."""
    rng = random.Random(seed * 1_000_003 + index)
    district = DISTRICTS[index % len(DISTRICTS)]
    order = list(range(size))
    rng.shuffle(order)
    vendor = set(order[: _count(rng, size, VENDOR_SHARE)])
    cursor = len(vendor)
    unresolvable = set(order[cursor : cursor + _count(rng, size, UNRESOLVABLE_SHARE)])
    cursor += len(unresolvable)
    non_finite = set(order[cursor : cursor + _count(rng, size, NON_FINITE_SHARE)])
    cursor += len(non_finite)
    humid = [i for i in order[cursor:] if i % len(PROPERTIES) == 3]
    spikes = set(humid[: rng.choice((0, 1, 1, 2, 2, 3))])

    records: List[dict] = []
    alert_times: List[float] = []
    accepted_times: List[float] = []
    step = POLL_SIM_SECONDS / size
    for i in range(size):
        name, unit, key, low, span = PROPERTIES[i % len(PROPERTIES)]
        value = round(low + rng.random() * span, 2)
        timestamp = round(index * POLL_SIM_SECONDS + i * step, 3)
        if i in spikes:
            value = round(ALERT_THRESHOLD + 1 + rng.random() * 8, 2)
            alert_times.append(timestamp)
        elif i in vendor:
            name, unit = rng.choice(VENDOR_SPELLINGS[key])
            convert = _TO_VENDOR_UNIT.get(unit)
            if convert is not None:
                value = round(convert(value), 3)
        elif i in unresolvable:
            name, unit = rng.choice(UNRESOLVABLE_TERMS), "?"
        elif i in non_finite:
            value = float("nan") if rng.random() < 0.5 else float("inf")
        if i not in unresolvable and i not in non_finite:
            accepted_times.append(timestamp)
        records.append(
            {
                "source_id": f"{district}-mote-{i % 5:02d}",
                "source_kind": "wsn_mote",
                "property_name": name,
                "value": value,
                "unit": unit,
                "timestamp": timestamp,
                "location": [-29.0 - 0.1 * (index % 8), 26.0 + 0.1 * (index % 8)],
                "metadata": {"area": district},
            }
        )
    return Poll(
        index=index,
        district=district,
        records=records,
        rejected=len(unresolvable) + len(non_finite),
        alert_times=tuple(alert_times),
        accepted_times=tuple(accepted_times),
    )


def make_polls(seed: int, first: int, count: int, size: int) -> List[Poll]:
    return [make_poll(seed, index, size) for index in range(first, first + count)]


def district_panel(district: str, threshold: float) -> str:
    return (
        f"SELECT ?obs ?v WHERE {{ ?obs ssn:featureOfInterest <{PREFIX_FEATURE}{district}> . "
        f"?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > {threshold}) }}"
    )


def dashboard_panels(recent_after: float) -> List[Panel]:
    """The 14-panel dashboard: 6 global shapes + one panel per district.

    The shapes are the ``DASHBOARD_SUITE`` ones of
    ``benchmarks/test_bench_sharding.py`` (exceedance scans, a DISTINCT
    device list, a recency window, the mediation-method panel, an ASK),
    with thresholds set for this generator's value ranges.
    """
    panels = [
        Panel("exceed-obs", "SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation . "
              "?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 82) }"),
        Panel("devices", "SELECT DISTINCT ?sensor WHERE { ?obs ssn:observedBy ?sensor . "
              "?sensor rdf:type ssn:SensingDevice . }"),
        Panel("recent", "SELECT ?obs ?t WHERE { ?obs ssn:observationResultTime ?t . "
              f"?obs rdf:type ssn:Observation . FILTER (?t > {recent_after}) }}"),
        Panel("exceed-out", "SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput . "
              "?r ssn:hasValue ?v . FILTER (?v > 83) }"),
        Panel("fuzzy", "SELECT ?obs ?m WHERE { ?obs africrid:alignmentMethod ?m . "
              '?obs rdf:type ssn:Observation . FILTER (?m = "fuzzy") }'),
        Panel("any-extreme", "ASK WHERE { ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . "
              "FILTER (?v > 100) }"),
    ]
    panels += [Panel(f"area-{d}", district_panel(d, 80)) for d in DISTRICTS]
    return panels


#: the three Free State districts the DEWS scenario deploys into
DEWS_DISTRICTS = ["Mangaung", "Xhariep", "Lejweleputswa"]
DEWS_THRESHOLDS = (100, 500, 800)


def season_panels(recent_after: float) -> List[Panel]:
    """Post-season analysis over the DEWS graph: the same six global shapes
    plus each district swept over thresholds.  The exceedance panels share
    the last threshold, so the districts' answers must add up to the
    global one."""
    panels = dashboard_panels(recent_after)[:6]
    top = DEWS_THRESHOLDS[-1]
    panels[0] = Panel("exceed-obs", panels[0].text.replace("?v > 82", f"?v > {top}"))
    panels[3] = Panel("exceed-out", panels[3].text.replace("?v > 83", f"?v > {top}"))
    panels += [
        Panel(f"area-{district}-{threshold}", district_panel(district, threshold))
        for threshold in DEWS_THRESHOLDS
        for district in DEWS_DISTRICTS
    ]
    return panels


def entail_panels() -> List[Panel]:
    """Three small panels asked with entailment.

    They are cheap on purpose: the first one of a tick pays the reasoner's
    top-up for the poll just ingested, and that is the work this workload
    exists to expose.  ``sensors`` has rows only through the closure
    (``SensingDevice`` is a subclass of ``Sensor``).
    """
    return [
        Panel("sensors", "SELECT DISTINCT ?s WHERE { ?s rdf:type ssn:Sensor }", True),
        Panel("area-district0", district_panel("district0", 80), True),
        Panel("any-alert", "ASK WHERE { ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . "
              f"FILTER (?v > {ALERT_THRESHOLD}) }}", True),
    ]


def tail_panel(after: float) -> Panel:
    return Panel(
        "tail",
        "SELECT ?t WHERE { ?obs rdf:type ssn:Observation . "
        f"?obs ssn:observationResultTime ?t . FILTER (?t > {after}) }}",
    )


@dataclass
class Script:
    """Everything one served run sends, in order, plus its expectations."""

    workload: str
    seed: int
    poll_size: int
    preload_polls: int
    ticks: List[Poll]
    panels: List[Panel]
    #: indices into ``panels`` asked a second time each tick (cache hits)
    reasked: List[int] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """The byte-exact wire script (what determinism is asserted on)."""
        parts = [f"{self.workload}:{self.seed}:{self.preload_polls}".encode()]
        for poll in self.ticks:
            parts.append(poll.body())
        for panel in self.panels:
            parts.append(panel.body())
        parts.append(json.dumps(self.reasked).encode())
        return b"\n".join(parts)

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()[:16]


def build_script(
    workload: str,
    seed: int,
    poll_size: int,
    preload_polls: int,
    ticks: int,
    entail: bool = False,
    reask: int = 6,
) -> Script:
    polls = make_polls(seed, preload_polls, ticks, poll_size)
    if entail:
        panels, reasked = entail_panels(), []
    else:
        # the recency panel opens late in the window, so its result stays
        # a few hundred rows instead of growing with the whole stream
        recent_after = round((preload_polls + int(0.85 * ticks)) * POLL_SIM_SECONDS, 1)
        panels = dashboard_panels(recent_after)
        # re-ask the district panels of the districts the poll did not
        # touch and the cheapest globals: identical bytes, so the gateway
        # answers them from its response cache
        reasked = list(range(len(panels)))[-reask:] if reask else []
    return Script(workload, seed, poll_size, preload_polls, polls, panels, reasked)


def sim_days(polls: Sequence[Poll]) -> float:
    return len(polls) * POLL_SIM_SECONDS / 86400.0
