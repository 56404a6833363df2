"""Code vocabularies and model-ready feature matrices.

The discrete feature space is the set of namespaced code strings
("dx:ICD10:F20.0", "rx:NDC:1234") seen inside training-split windows;
ICD9 and ICD10 spellings stay distinct entries by design. A split's
features are one `FeatureMatrix`, a row per example: the in-vocabulary codes
in its window (presence encoding, deduplicated) plus a small dense demographic
vector. Everything is window-bounded: no event after window.end counts.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, CohortExample
from .datamodel import ClinicalEvent, Code, Dataset, distinct, read_text
from .dates import civil_from_days
from .errors import DataError

DEMOGRAPHICS_DIM = 4  # age_norm, then gender one-hot in GENDERS order (F/M/U)


def namespaced_code(e: ClinicalEvent | Code) -> str:
    return f"{e.kind.lower()}:{e.system}:{e.code}"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered code list with dense indices; order is lexicographic, so a
    rebuild from the same windows is always index-identical."""

    entries: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.entries)}

    def fingerprint(self) -> str:
        digest = hashlib.sha256("\n".join(self.entries).encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Compressed sparse rows: row i holds the vocabulary indices indices[indptr[i]:indptr[i + 1]]
    and the demographics[i] vector. Each row's indices strictly increase: `featurize_split`
    builds them so, `rows` and `stack` keep them so, and the network refuses any other row."""

    indptr: np.ndarray  # (n + 1,) int64, indptr[0] == 0
    indices: np.ndarray  # int64 indices into the vocabulary
    demographics: np.ndarray  # (n, DEMOGRAPHICS_DIM) float64

    def __len__(self) -> int:
        return len(self.demographics)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def rows(self, sel: np.ndarray) -> "FeatureMatrix":
        """Rows `sel` in that order; a row may be selected more than once."""
        lo, counts = self.indptr[sel], self.indptr[sel + 1] - self.indptr[sel]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        positions = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], counts)
        return FeatureMatrix(indptr, self.indices[positions], self.demographics[sel])

    @staticmethod
    def stack(parts: list["FeatureMatrix"]) -> "FeatureMatrix":
        """The rows of `parts`, in order, as one matrix."""
        indptr = np.concatenate([[0]] + [np.diff(p.indptr) for p in parts]).cumsum()
        indices = np.concatenate([p.indices for p in parts])
        return FeatureMatrix(indptr, indices, np.concatenate([p.demographics for p in parts]))


def _vocab_indices(v: Vocabulary, codes: list[Code]) -> np.ndarray:
    """Vocabulary index of each code of a code table, -1 if absent."""
    index = v.index
    return np.array([index.get(namespaced_code(c), -1) for c in codes], dtype=np.int64)


def build_vocabulary(train: Cohort, d: Dataset) -> Vocabulary:
    """Union of namespaced codes inside training windows, sorted."""
    if not train:
        raise DataError("cannot build a vocabulary from an empty training set")
    positions, _ = d.window_events(train.row, train.start, train.end)
    entries = d.codes.entries
    seen = distinct(d.code[positions])
    return Vocabulary(tuple(sorted({namespaced_code(entries[c]) for c in seen.tolist()})))


def intersect_vocabularies(a: Vocabulary, b: Vocabulary) -> Vocabulary:
    shared = set(a.entries) & set(b.entries)
    if not shared:
        raise DataError("vocabulary intersection is empty; cross-source evaluation impossible")
    return Vocabulary(tuple(sorted(shared)))


def featurize_split(c: Cohort, d: Dataset, v: Vocabulary) -> FeatureMatrix:
    """One row per example; out-of-vocabulary codes are skipped."""
    positions, owner = d.window_events(c.row, c.start, c.end)
    index = _vocab_indices(v, d.codes.entries)[d.code[positions]]
    hit = index >= 0
    # sorted unique (example, index) keys: each row's indices come out sorted and unique
    keys = distinct(owner[hit] * len(v) + index[hit])
    indptr = np.searchsorted(keys // len(v), np.arange(len(c) + 1))
    demographics = np.zeros((len(c), DEMOGRAPHICS_DIM), dtype=np.float64)
    demographics[:, 0] = (civil_from_days(c.end)[0] - d.birth_year[c.row]) / 100.0
    demographics[np.arange(len(c)), 1 + d.gender[c.row]] = 1.0
    return FeatureMatrix(indptr, keys % len(v), demographics)


def featurize(ex: CohortExample, d: Dataset, v: Vocabulary) -> FeatureMatrix:
    """One-row feature matrix of one example: `featurize_split` of a one-element split."""
    return featurize_split(Cohort.of([ex], d), d, v)


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
