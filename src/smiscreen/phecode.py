"""ICD-to-Phecode mapping and the named code groups used for labels.

Phecodes group ICD-9/10 diagnosis codes into clinically similar classes;
the integer part defines the hierarchy, so range-style groups ("295 to
307") are integer-prefix ranges covering all fractional children.

Four named groups drive the rest of the pipeline, each one TAG_* bit:
  SMI:         the label-defining severe mental illness codes
  PSYCH_RANGE: the broad psychological category, minus SMI (benchmark 1)
  AXIS1:       DSM-IV axis I clinical disorders (benchmark 2)
  SUBSTANCE:   substance/alcohol/tobacco conditions (use-case indexing and
               the benchmark exclusion flag)

`phecode_tags` is the one membership test: it gives the bits of the groups
that hold a phecode. Scans never map events one by one: `code_tags` maps
each distinct code of an event table once, and callers test the bits of a
person's event range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .datamodel import SYSTEMS_FOR_KIND, ClinicalEvent, Code, read_table
from .errors import DataError

_PHECODE_RE = re.compile(r"[0-9]{1,4}(\.[0-9]{1,2})?")

MAP_HEADER = ["icd_version", "icd_code", "phecode"]

# code_tags bits, one per named group
TAG_SMI = 1
TAG_PSYCH = 2
TAG_AXIS1 = 4
TAG_SUBSTANCE = 8


@dataclass(frozen=True, slots=True)
class Phecode:
    value: str

    def __post_init__(self) -> None:
        if not _PHECODE_RE.fullmatch(self.value):
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


def _group(*values: str) -> frozenset[Phecode]:
    return frozenset(Phecode(v) for v in values)


# schizophrenia/schizoaffective (295.1), psychosis (295.3), bipolar (296.1)
SMI = _group("295.1", "295.3", "296.1")
# psychological category: integer parts 295..307, SMI excluded
PSYCH_RANGE = (295, 307)
# DSM-IV axis I disorders (deduplicated phecode list)
AXIS1 = _group(
    "296.2", "300.1", "300.12", "300.13", "300.3", "300.4", "300.9",
    "304", "305.2", "312", "313.1", "316", "317",
)
# substance addiction/disorder (316), alcohol (317), tobacco (318)
SUBSTANCE = _group("316", "317", "318")


def phecode_tags(p: Phecode) -> int:
    """TAG_* bits of the named groups that hold `p`."""
    lo, hi = PSYCH_RANGE
    bits = TAG_SMI if p in SMI else TAG_PSYCH if lo <= p.integer_part <= hi else 0
    if p in AXIS1:
        bits |= TAG_AXIS1
    if p in SUBSTANCE:
        bits |= TAG_SUBSTANCE
    return bits


@dataclass(frozen=True)
class PhecodeMap:
    """(icd_version, icd_code) -> Phecode lookup table."""

    entries: dict[tuple[str, str], Phecode]

    def lookup(self, icd_version: str, icd_code: str) -> Phecode | None:
        return self.entries.get((icd_version, icd_code))


def parse_phecode_map(path: str) -> PhecodeMap:
    """Load a mapping CSV; identical duplicates collapse, conflicts reject."""
    entries: dict[tuple[str, str], Phecode] = {}
    for line, version, icd_code, phecode_raw in read_table(path, "phecode_map.csv", MAP_HEADER):
        where = f"{path}:{line}"
        if version not in SYSTEMS_FOR_KIND["DX"]:  # the ICD systems that events.csv accepts
            raise DataError(f"{where}: unknown icd_version {version!r}")
        try:
            phecode = Phecode.parse(phecode_raw)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        key = (version, icd_code)
        existing = entries.get(key)
        if existing is not None and existing != phecode:
            raise DataError(f"{where}: conflicting duplicate for ({version},{icd_code}): {existing} vs {phecode}")
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
    return np.array(
        [0 if (p := map_event(c, m)) is None else phecode_tags(p) for c in codes], dtype=np.uint8
    )
