"""Code vocabularies and model-ready feature vectors.

The discrete feature space is the set of namespaced code strings
("dx:ICD10:F20.0", "rx:NDC:1234") seen inside training-split windows;
ICD9 and ICD10 spellings stay distinct entries by design. An example's
features are the in-vocabulary codes present in its window (presence
encoding, deduplicated) plus a small dense demographic vector. Everything
is window-bounded: no event after window.end can influence a vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .cohort import CohortExample, example_windows
from .datamodel import ClinicalEvent, Code, Dataset, read_text
from .errors import DataError

DEMOGRAPHICS_DIM = 4  # age_norm, gender one-hot F/M/U
_GENDER_SLOT = {"F": 1, "M": 2, "U": 3}


def namespaced_code(e: ClinicalEvent | Code) -> str:
    return f"{e.kind.lower()}:{e.system}:{e.code}"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered code list with dense indices; order is lexicographic, so a
    rebuild from the same windows is always index-identical."""

    entries: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def index(self) -> dict[str, int]:
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {code: i for i, code in enumerate(self.entries)}
            object.__setattr__(self, "_index", cached)
        return cached

    def fingerprint(self) -> str:
        digest = hashlib.sha256("\n".join(self.entries).encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class FeatureVector:
    code_indices: np.ndarray  # sorted unique int64 indices into the vocabulary
    demographics: np.ndarray  # float64 [age_norm, F, M, U]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return np.array_equal(self.code_indices, other.code_indices) and np.array_equal(
            self.demographics, other.demographics
        )


def _vocab_indices(v: Vocabulary, codes: list[Code]) -> np.ndarray:
    """Vocabulary index of each code of an event table, -1 if absent."""
    index = v.index
    return np.array([index.get(namespaced_code(c), -1) for c in codes], dtype=np.int64)


def build_vocabulary(train_examples: list[CohortExample], d: Dataset) -> Vocabulary:
    """Union of namespaced codes inside training windows, sorted."""
    if not train_examples:
        raise DataError("cannot build a vocabulary from an empty training set")
    positions, _ = d.window_events(*example_windows(train_examples, d))
    entries = d.table.codes.entries
    seen = np.unique(d.table.code[positions])
    return Vocabulary(tuple(sorted({namespaced_code(entries[c]) for c in seen.tolist()})))


def intersect_vocabularies(a: Vocabulary, b: Vocabulary) -> Vocabulary:
    shared = set(a.entries) & set(b.entries)
    if not shared:
        raise DataError("vocabulary intersection is empty; cross-source evaluation impossible")
    return Vocabulary(tuple(sorted(shared)))


def featurize_split(examples: list[CohortExample], d: Dataset, v: Vocabulary) -> list[FeatureVector]:
    """Feature vector of each example; out-of-vocabulary codes are skipped."""
    positions, owner = d.window_events(*example_windows(examples, d))
    index = d.per_code(_vocab_indices, v)[d.table.code[positions]]
    hit = index >= 0
    # sorted unique (example, index) keys: each example's indices come out sorted and unique
    keys = np.unique(owner[hit] * len(v) + index[hit])
    bounds = np.searchsorted(keys // len(v), np.arange(len(examples) + 1)).tolist()
    code_indices = keys % len(v)
    persons = [d.persons_by_id[ex.person_id] for ex in examples]
    demographics = np.zeros((len(examples), DEMOGRAPHICS_DIM), dtype=np.float64)
    end_years = np.array([ex.window.end.year for ex in examples], dtype=np.int64)
    demographics[:, 0] = (end_years - [p.birth_year for p in persons]) / 100.0
    demographics[np.arange(len(examples)), [_GENDER_SLOT[p.gender] for p in persons]] = 1.0
    return [
        FeatureVector(code_indices[lo:hi], demographics[i])
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def featurize(ex: CohortExample, d: Dataset, v: Vocabulary) -> FeatureVector:
    """Feature vector of one example: `featurize_split` of a one-element split."""
    return featurize_split([ex], d, v)[0]


def write_vocabulary(v: Vocabulary, path: str) -> None:
    """vocabulary.txt: one namespaced code per line, line number = index."""
    with open(path, "w", encoding="utf-8") as fh:
        for code in v.entries:
            fh.write(code + "\n")


def load_vocabulary(path: str) -> Vocabulary:
    entries = tuple(line.removesuffix("\r") for line in read_text(path).split("\n") if line.strip())
    if not entries:
        raise DataError(f"{path}: empty vocabulary")
    return Vocabulary(entries)
