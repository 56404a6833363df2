"""ICD-to-Phecode mapping and the named code groups used for labels.

Phecodes group ICD-9/10 diagnosis codes into clinically similar classes;
the integer part defines the hierarchy, so range-style groups ("295 to
307") are integer-prefix ranges covering all fractional children.

Four named groups drive the rest of the pipeline:
  smi:       the label-defining severe mental illness codes
  psych:     the broad psychological category, minus smi (benchmark 1)
  axis1:     DSM-IV axis I clinical disorders (benchmark 2)
  substance: substance/alcohol/tobacco conditions (use-case indexing and
             the benchmark exclusion flag)

Scans never map events one by one: `code_tags` maps each distinct code of
an event table once, into one bit per group, and callers test the bits of
a person's event range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .datamodel import ClinicalEvent, Code, read_table
from .errors import DataError

_PHECODE_RE = re.compile(r"^\d{1,4}(\.\d{1,2})?$")

MAP_HEADER = ["icd_version", "icd_code", "phecode"]
ICD_VERSIONS = frozenset({"ICD9", "ICD10"})

# code_tags bits, one per named group
TAG_SMI = 1
TAG_PSYCH = 2
TAG_AXIS1 = 4
TAG_SUBSTANCE = 8


@dataclass(frozen=True, slots=True)
class Phecode:
    value: str

    def __post_init__(self) -> None:
        if not _PHECODE_RE.match(self.value):
            raise DataError(f"malformed phecode {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "Phecode":
        """Canonicalize: drop trailing fractional zeros ('295.10' -> '295.1')."""
        value = text.strip()
        if "." in value:
            value = value.rstrip("0").rstrip(".")
        return cls(value)

    @property
    def integer_part(self) -> int:
        return int(self.value.split(".", 1)[0])

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PhecodeMap:
    """(icd_version, icd_code) -> Phecode lookup table."""

    entries: dict[tuple[str, str], Phecode]

    def lookup(self, icd_version: str, icd_code: str) -> Phecode | None:
        return self.entries.get((icd_version, icd_code))

    def codes_for(self, targets: "PhecodeSet") -> list[tuple[str, str]]:
        """All ICD keys mapping into the given set, sorted for determinism."""
        return sorted(k for k, v in self.entries.items() if targets.contains(v))


@dataclass(frozen=True)
class PhecodeSet:
    """Named group of phecodes with exact or integer-range membership."""

    name: str
    match_mode: str  # EXACT or INTEGER_RANGE
    members: frozenset[Phecode] = frozenset()
    int_range: tuple[int, int] | None = None
    exclude: frozenset[Phecode] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.match_mode == "EXACT" and not self.members:
            raise DataError(f"phecode set {self.name!r}: EXACT sets must be non-empty")
        if self.match_mode == "INTEGER_RANGE" and self.int_range is None:
            raise DataError(f"phecode set {self.name!r}: INTEGER_RANGE needs bounds")

    def contains(self, p: Phecode) -> bool:
        if self.match_mode == "EXACT":
            return p in self.members
        lo, hi = self.int_range  # type: ignore[misc]
        return lo <= p.integer_part <= hi and p not in self.exclude


def parse_phecode_map(path: str) -> PhecodeMap:
    """Load a mapping CSV; identical duplicates collapse, conflicts reject."""
    entries: dict[tuple[str, str], Phecode] = {}
    for where, (version, icd_code, phecode_raw) in read_table(path, "phecode_map.csv", MAP_HEADER):
        if version not in ICD_VERSIONS:
            raise DataError(f"{where}: unknown icd_version {version!r}")
        try:
            phecode = Phecode.parse(phecode_raw)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        key = (version, icd_code)
        existing = entries.get(key)
        if existing is not None and existing != phecode:
            raise DataError(
                f"{where}: conflicting duplicate for ({version},{icd_code}): {existing} vs {phecode}"
            )
        entries[key] = phecode
    return PhecodeMap(entries)


def load_default_map() -> PhecodeMap:
    """Curated mapping shipped with the package (psychiatric codes plus
    a handful of common chronic-disease codes)."""
    with resources.as_file(resources.files("smiscreen.data") / "phecode_map.csv") as path:
        return parse_phecode_map(str(path))


def map_event(e: ClinicalEvent | Code, m: PhecodeMap) -> Phecode | None:
    """Phecode for a DX event (or code) with a mapping entry; None otherwise.

    Medication fills never map: phecodes classify diagnoses only.
    """
    if e.kind != "DX":
        return None
    return m.lookup(e.system, e.code)


def code_tags(m: PhecodeMap, codes: list[Code]) -> np.ndarray:
    """uint8 TAG_* bits of each code under `m`; unmapped codes get 0."""
    groups = (
        (TAG_SMI, smi_set()),
        (TAG_PSYCH, psych_category_set()),
        (TAG_AXIS1, axis1_set()),
        (TAG_SUBSTANCE, substance_set()),
    )
    tags = np.zeros(len(codes), dtype=np.uint8)
    for i, c in enumerate(codes):
        phecode = map_event(c, m)
        if phecode is not None:
            tags[i] = sum(bit for bit, group in groups if group.contains(phecode))
    return tags


def _exact(name: str, values: list[str]) -> PhecodeSet:
    return PhecodeSet(name, "EXACT", members=frozenset(Phecode(v) for v in values))


def smi_set() -> PhecodeSet:
    """Schizophrenia/schizoaffective (295.1), psychosis (295.3), bipolar (296.1)."""
    return _exact("smi", ["295.1", "295.3", "296.1"])


def psych_category_set() -> PhecodeSet:
    """Psychological condition category, integer range 295..307, minus smi."""
    return PhecodeSet(
        "psych_category",
        "INTEGER_RANGE",
        int_range=(295, 307),
        exclude=smi_set().members,
    )


def axis1_set() -> PhecodeSet:
    """DSM-IV axis I disorders (deduplicated phecode list)."""
    return _exact(
        "axis1",
        ["296.2", "300.1", "300.12", "300.13", "300.3", "300.4", "300.9",
         "304", "305.2", "312", "313.1", "316", "317"],
    )


def substance_set() -> PhecodeSet:
    """Substance addiction/disorder (316), alcohol (317), tobacco (318)."""
    return _exact("substance", ["316", "317", "318"])
