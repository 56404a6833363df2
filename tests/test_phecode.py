"""Phecode parsing, the mapping table, and the named code groups."""

import numpy as np
import pytest

from conftest import make_event
from smiscreen.errors import DataError
from smiscreen.datamodel import Code
from smiscreen.phecode import (
    AXIS1,
    SMI,
    SUBSTANCE,
    TAG_AXIS1,
    TAG_PSYCH,
    TAG_SMI,
    TAG_SUBSTANCE,
    Phecode,
    code_tags,
    load_default_map,
    map_event,
    parse_phecode_map,
    phecode_tags,
)

MAP_HEADER = "icd_version,icd_code,phecode\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestPhecode:
    def test_parse_canonicalizes_trailing_zeros(self):
        assert Phecode.parse("295.10").value == "295.1"
        assert Phecode.parse("316.00").value == "316"
        assert Phecode.parse("316").value == "316"

    @pytest.mark.parametrize("bad", ["", "abc", "12345", "1.234", ".5", "295.", "-295", "\u0662\u0669\u0668", "295\n"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataError):
            Phecode(bad)

    def test_integer_part(self):
        assert Phecode("295.1").integer_part == 295
        assert Phecode("316").integer_part == 316


class TestParseMap:
    def test_direct_parse(self, tmp_path):
        m = parse_phecode_map(write(tmp_path / "m.csv", MAP_HEADER + "ICD10,F20.0,295.1\n"))
        assert m.lookup("ICD10", "F20.0") == Phecode("295.1")
        assert m.lookup("ICD10", "zzz") is None

    def test_identical_duplicates_collapse(self, tmp_path):
        text = MAP_HEADER + "ICD9,295.30,295.1\nICD9,295.30,295.1\n"
        m = parse_phecode_map(write(tmp_path / "m.csv", text))
        assert len(m.entries) == 1

    def test_conflicting_duplicates_rejected(self, tmp_path):
        text = MAP_HEADER + "ICD9,295.30,295.1\nICD9,295.30,296.1\n"
        with pytest.raises(DataError, match="295.30"):
            parse_phecode_map(write(tmp_path / "m.csv", text))

    def test_malformed_phecode_rejected(self, tmp_path):
        with pytest.raises(DataError, match=":2"):
            parse_phecode_map(write(tmp_path / "m.csv", MAP_HEADER + "ICD10,F20.0,banana\n"))

    def test_non_ascii_digits_rejected(self, tmp_path):
        text = MAP_HEADER + "ICD10,F20.0,295.1\nICD10,F41.9,\u0662\u0669\u0668\n"
        path = write(tmp_path / "m.csv", text)
        with pytest.raises(DataError, match=f"{path}:3"):
            parse_phecode_map(path)

    def test_unknown_version_rejected(self, tmp_path):
        with pytest.raises(DataError, match="ICD11"):
            parse_phecode_map(write(tmp_path / "m.csv", MAP_HEADER + "ICD11,F20.0,295.1\n"))


class TestMapEvent:
    def test_dx_lookup(self, phemap):
        e = make_event("p1", "2012-01-01", system="ICD10", code="F20.0")
        assert map_event(e, phemap) == Phecode("295.1")

    def test_rx_never_maps(self, phemap):
        e = make_event("p1", "2012-01-01", kind="RX", system="NDC", code="12345-678")
        assert map_event(e, phemap) is None

    def test_unmapped_dx_absent(self, phemap):
        e = make_event("p1", "2012-01-01", code="Z99.99")
        assert map_event(e, phemap) is None

    def test_pure_function(self, phemap):
        e = make_event("p1", "2012-01-01", code="F31.9")
        assert map_event(e, phemap) == map_event(e, phemap) == Phecode("296.1")


PSYCH_AXIS1 = TAG_PSYCH | TAG_AXIS1
AXIS1_SUBSTANCE = TAG_AXIS1 | TAG_SUBSTANCE


class TestNamedSets:
    @pytest.mark.parametrize(
        "value, bits",
        [
            ("294.9", 0),
            ("295", TAG_PSYCH),
            ("295.1", TAG_SMI),  # SMI leaves the psych category
            ("295.3", TAG_SMI),
            ("296.1", TAG_SMI),
            ("296.2", PSYCH_AXIS1),
            ("300.1", PSYCH_AXIS1),
            ("300.4", PSYCH_AXIS1),
            ("307.9", TAG_PSYCH),
            ("308", 0),
            ("313.1", TAG_AXIS1),
            ("316", AXIS1_SUBSTANCE),
            ("317", AXIS1_SUBSTANCE),
            ("318", TAG_SUBSTANCE),
        ],
    )
    def test_boundary_bits(self, value, bits):
        assert phecode_tags(Phecode(value)) == bits

    def test_axis1_members(self):
        assert len(AXIS1) == 13

    def test_pairwise_overlaps(self):
        assert SMI & AXIS1 == set()
        assert SUBSTANCE & SMI == set()
        assert AXIS1 & SUBSTANCE == {Phecode("316"), Phecode("317")}

    def test_psych_never_contains_smi(self):
        for p in SMI:
            assert not phecode_tags(p) & TAG_PSYCH

    def test_code_tags_follow_phecode_tags(self):
        m = load_default_map()
        keys = sorted(m.entries)
        codes = [Code("DX", *k) for k in keys]
        codes += [Code("RX", "NDC", "12345-678"), Code("DX", "ICD10", "Z99.99")]
        expected = [phecode_tags(m.entries[k]) for k in keys] + [0, 0]
        tags = code_tags(m, codes)
        assert tags.dtype == np.uint8
        assert tags.tolist() == expected


class TestDefaultMap:
    def test_covers_label_and_benchmark_sets(self):
        m = load_default_map()
        phecodes = set(m.entries.values())
        for p in SMI | AXIS1 | SUBSTANCE:
            assert p in phecodes, f"curated map missing {p}"

    def test_both_icd_versions_present(self):
        m = load_default_map()
        versions = {version for version, _ in m.entries}
        assert versions == {"ICD9", "ICD10"}
