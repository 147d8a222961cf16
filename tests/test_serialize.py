import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimfuncs.errors import PimFuncsError, TableFormatError
from pimfuncs.fixedpoint import to_fixed
from pimfuncs.lut import (build_dllut, build_dlut, build_fixed_llut,
                          build_llut, build_mlut, dllut_query_interp,
                          dlut_query_interp, dump_table, fixed_llut_query,
                          fixed_llut_query_interp, llut_query,
                          llut_query_interp, load_table, load_table_file,
                          mapped, mlut_query, mlut_query_interp, save_table)

# The table hosts: libm functions lifted to float64 arrays.
EXP, SIN, TANH = (partial(mapped, f) for f in (math.exp, math.sin, math.tanh))


def _tables():
    """Each M/L table twice: the "_i" one is read by interpolated queries.
    Both queries read one table, so each pair is built alike."""
    return {
        "mlut": build_mlut(SIN, 0.0, 5.0, 64),
        "mlut_i": build_mlut(SIN, 0.0, 5.0, 64),
        "llut": build_llut(EXP, 0.0, 1.0, 128),
        "llut_i": build_llut(EXP, 0.0, 1.0, 128),
        "fixed": build_fixed_llut(SIN, 0.0, 6.0, 256),
        "fixed_i": build_fixed_llut(SIN, 0.0, 6.0, 256),
        "dlut": build_dlut(TANH, -8, 8, 6),
        "dllut": build_dllut(TANH, 0, 16, 6),
    }


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(_tables()))
    def test_dump_load_dump_is_identity(self, name):
        t = _tables()[name]
        blob = dump_table(t)
        assert dump_table(load_table(blob)) == blob

    def test_magic(self):
        blob = dump_table(_tables()["mlut"])
        assert blob[:4] == b"TPL4"

    def test_entries_bit_exact(self):
        for t in _tables().values():
            back = load_table(dump_table(t))
            assert np.array_equal(np.asarray(t.entries),
                                  np.asarray(back.entries))

    def test_flags_preserved(self):
        tb = _tables()
        for name, t in tb.items():
            back = load_table(dump_table(t))
            assert back.fixed == t.fixed, name
            assert back.spec.kind == t.spec.kind, name


class TestQueriesAfterReload:
    def test_mlut(self):
        t = _tables()["mlut"]
        back = load_table(dump_table(t))
        xs = np.array([0.3, 2.2, 4.9])
        assert np.array_equal(mlut_query(back, xs), mlut_query(t, xs))

    def test_mlut_interp(self):
        t = _tables()["mlut_i"]
        back = load_table(dump_table(t))
        xs = np.array([0.3, 2.2, 4.9])
        assert np.array_equal(mlut_query_interp(back, xs),
                              mlut_query_interp(t, xs))

    def test_llut(self):
        t, ti = _tables()["llut"], _tables()["llut_i"]
        tb, tib = load_table(dump_table(t)), load_table(dump_table(ti))
        xs = np.array([0.1, 0.55, 0.99])
        assert np.array_equal(llut_query(tb, xs), llut_query(t, xs))
        assert np.array_equal(llut_query_interp(tib, xs),
                              llut_query_interp(ti, xs))

    def test_fixed(self):
        t, ti = _tables()["fixed"], _tables()["fixed_i"]
        tb, tib = load_table(dump_table(t)), load_table(dump_table(ti))
        raw = to_fixed(np.array([0.1, 2.5, 5.9]))
        assert np.array_equal(fixed_llut_query(tb, raw),
                              fixed_llut_query(t, raw))
        assert np.array_equal(fixed_llut_query_interp(tib, raw),
                              fixed_llut_query_interp(ti, raw))

    def test_dlut_and_dllut(self):
        d, dl = _tables()["dlut"], _tables()["dllut"]
        db, dlb = load_table(dump_table(d)), load_table(dump_table(dl))
        xs = np.array([0.01, 0.7, 3.3])
        assert np.array_equal(dlut_query_interp(db, xs),
                              dlut_query_interp(d, xs))
        assert np.array_equal(dllut_query_interp(dlb, xs),
                              dllut_query_interp(dl, xs))


class TestValidation:
    def test_bad_magic(self):
        blob = bytearray(dump_table(_tables()["mlut"]))
        blob[0] = ord("X")
        with pytest.raises(ValueError):
            load_table(bytes(blob))

    def test_trailing_bytes(self):
        blob = dump_table(_tables()["mlut"]) + b"\x00"
        with pytest.raises(ValueError):
            load_table(blob)

    def test_file_round_trip(self, tmp_path):
        t = _tables()["llut_i"]
        path = tmp_path / "table.bin"
        save_table(t, path)
        back = load_table_file(path)
        assert dump_table(back) == dump_table(t)


_DUMPS = {name: dump_table(t) for name, t in _tables().items()}


def _loads_or_rejects(blob: bytes) -> None:
    try:
        load_table(blob)
    except PimFuncsError:
        pass


class TestUntrustedInput:
    @pytest.mark.parametrize("name", sorted(_DUMPS))
    def test_every_truncation_is_rejected(self, name):
        blob = _DUMPS[name]
        for end in range(len(blob)):
            with pytest.raises(TableFormatError):
                load_table(blob[:end])

    def test_unknown_kind_tag(self):
        blob = bytearray(_DUMPS["llut"])
        blob[4] = 9
        with pytest.raises(TableFormatError, match="kind tag"):
            load_table(bytes(blob))

    def test_count_past_the_buffer(self):
        blob = bytearray(_DUMPS["mlut"])
        struct.pack_into("<I", blob, 48, 0xFFFFFFFF)
        with pytest.raises(TableFormatError, match="past the end"):
            load_table(bytes(blob))

    def test_dlut_record_without_guard_entry(self):
        # Whole octaves but no guard entry: an interpolating query in the
        # top cell would read past the end.
        entries = len(_tables()["dlut"].entries) - 1
        blob = bytearray(_DUMPS["dlut"][:-4])
        struct.pack_into("<I", blob, 48, entries)
        with pytest.raises(TableFormatError, match="guard entry"):
            load_table(bytes(blob))

    def test_nested_dl_record(self):
        """A DL record of the earlier nested form, a header counting no
        entries of its own followed by an L and a D record, is refused:
        its count does not fill the L cells and octaves its fields name."""
        head = bytearray(_DUMPS["dllut"][:52])
        struct.pack_into("<I", head, 48, 0)
        blob = bytes(head) + dump_table(build_llut(
            TANH, 0.0, 1.0, 64)) + dump_table(build_dlut(TANH, 0, 16, 6))
        with pytest.raises(TableFormatError, match="do not fill"):
            load_table(blob)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(_DUMPS)), data=st.data())
    def test_changed_bytes_load_or_raise_library_errors(self, name, data):
        blob = bytearray(_DUMPS[name])
        position = (st.integers(0, 51)  # the record's fixed-size header
                    | st.integers(0, len(blob) - 1))
        changes = data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                     min_size=1, max_size=8))
        for pos, value in changes:
            blob[pos] = value
        _loads_or_rejects(bytes(blob))
        _loads_or_rejects(bytes(blob[:data.draw(st.integers(0, len(blob)))]))


def _sample_configs():
    """Seeded (kind, build, lo, hi, size) draws, the sine M-LUT of 1,000
    cells on [0, 2*pi] first."""
    rng = np.random.default_rng(13)
    float_ranges = [(0.0, 2 * math.pi), (0.0, 1.0), (1.0, 2.0), (0.5, 2.0),
                    (-3.0, 7.5), (1e-3, 0.1), (-100.0, 250.0)]
    # Fixed ranges of width <= 2, whose expanded range stays inside Q3.28.
    fixed_ranges = [(0.0, 1.0), (1.0, 2.0), (0.5, 2.0), (-1.0, 1.0),
                    (-3.5, -1.5)]
    kinds = [("M", build_mlut, float_ranges), ("L", build_llut, float_ranges),
             ("fixed-L", build_fixed_llut, fixed_ranges)]
    configs = [("M", build_mlut, 0.0, 2 * math.pi, 1000)]
    for _ in range(240):
        kind, build, ranges = kinds[rng.integers(len(kinds))]
        lo, hi = ranges[rng.integers(len(ranges))]
        configs.append((kind, build, lo, hi, int(rng.integers(2, 5000))))
    return configs


# Each kind's nearest and interpolated queries, and its edge inputs.
_EDGE_QUERIES = {
    "M": ((mlut_query, mlut_query_interp), np.asarray),
    "L": ((llut_query, llut_query_interp), np.asarray),
    "fixed-L": ((fixed_llut_query, fixed_llut_query_interp), to_fixed),
}


class TestLayoutRoundTrip:
    def test_spec_and_edge_queries_survive_a_round_trip(self):
        mismatches = []
        for kind, build, lo, hi, size in _sample_configs():
            t = build(SIN, lo, hi, size)
            back = load_table(dump_table(t))
            queries, inputs = _EDGE_QUERIES[kind]
            edges = inputs(np.array([t.spec.lo, t.spec.hi]))
            if back.spec != t.spec or not all(
                    np.array_equal(q(back, edges), q(t, edges))
                    for q in queries):
                mismatches.append((kind, lo, hi, size))
        assert mismatches == []

    def test_sine_mlut_keeps_its_range(self):
        t = build_mlut(SIN, 0.0, 2 * math.pi, 1000)
        back = load_table(dump_table(t))
        assert (back.spec.lo, back.spec.hi) == (0.0, 2 * math.pi)
        assert mlut_query(back, np.array([0.0]))[0] == mlut_query(
            t, np.array([0.0]))[0]


class TestLayoutFields:
    """Record fields that no layout accepts are refused as malformed."""

    def test_d_entries_disagree_with_the_octaves(self):
        # The fields say 16 octaves; keep the entries of 3 and the guard.
        t = _tables()["dlut"]
        cells = 3 << t.spec.mant_bits
        blob = bytearray(_DUMPS["dlut"][:52])
        struct.pack_into("<I", blob, 48, cells + 1)
        blob += np.asarray(t.entries[:cells + 1], dtype="<f4").tobytes()
        with pytest.raises(TableFormatError, match="octaves"):
            load_table(bytes(blob))

    # A D record's base_exponent, hi_exponent and mant_bits fields.
    @pytest.mark.parametrize("offset, value", [
        (24, 2 ** 40), (24, -2 ** 40), (24, 2 ** 63 - 1), (24, -2 ** 63),
        (32, 2 ** 62), (32, 129), (32, -8), (40, 24), (40, 2 ** 62),
        (24, 120), (24, -160), (40, 0), (40, 21)],  # octaves float32
        # cannot reach, or none, cells without mantissa bits, or 16 octaves
        # of 2**21 cells, beyond the MAX_CELLS cap
        ids=["base-2^40", "base--2^40", "base-max", "base-min",
             "hi-2^62", "hi-129", "hi--8", "mant_bits-24",
             "mant_bits-2^62", "base-120", "base--160", "mant_bits-0",
             "mant_bits-over-cap"])
    def test_d_field_out_of_bounds(self, offset, value):
        for name in ("dlut", "dllut"):
            blob = bytearray(_DUMPS[name])
            struct.pack_into("<q", blob, offset, value)
            with pytest.raises(TableFormatError):
                load_table(bytes(blob))

    @pytest.mark.parametrize("name, offset, value", [
        ("mlut", 8, math.nan), ("mlut", 16, math.inf), ("mlut", 8, 5.0),
        ("mlut", 8, -math.inf), ("mlut", 16, 1e-320),
        ("llut", 16, 0.5), ("llut", 16, 1024.0), ("llut", 16, -1075.0),
        ("llut", 16, math.nan), ("llut", 16, -1070.0), ("llut", 8, math.inf),
        ("fixed", 16, 29.0), ("fixed", 16, -1.0), ("fixed", 8, -8.0),
        ("fixed", 8, 7.0),
        # ranges [0, hi] and an L density 2**-245 beyond float32 queries
        ("mlut", 16, 1e300), ("mlut", 16, 1e200), ("mlut", 16, 1e-300),
        ("llut", 16, -245.0)])
    def test_m_and_l_field_out_of_bounds(self, name, offset, value):
        blob = bytearray(_DUMPS[name])
        struct.pack_into("<d", blob, offset, value)
        with pytest.raises(TableFormatError):
            load_table(bytes(blob))

    def test_previous_magic_is_refused(self):
        # TPL2 stored a D-LUT's exp_bits where later records store
        # hi_exponent, and a TPL3 nearest-entry M/L record's entries sit at
        # centred nodes.
        for magic in (b"TPLT", b"TPL2", b"TPL3"):
            blob = magic + _DUMPS["mlut"][4:]
            with pytest.raises(TableFormatError, match="magic"):
                load_table(blob)

    @pytest.mark.parametrize("name", ("mlut", "fixed", "dlut"))
    def test_interpolated_flag_is_refused(self, name):
        # TPL3's flag bit 0 marked an interpolated table; TPL4 has none.
        blob = bytearray(_DUMPS[name])
        blob[5] |= 1
        with pytest.raises(TableFormatError, match="unknown flags"):
            load_table(bytes(blob))


class TestDLParts:
    """A DL record is one table: 2**mant_bits L cells from 0, then the D
    octaves, whose fields it stores."""

    def test_seeded_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(24):
            octaves, mant_bits, base = (int(rng.integers(lo, hi))
                                        for lo, hi in ((1, 33), (1, 9), (-20, 8)))
            t = build_dllut(TANH, base, base + octaves, mant_bits)
            blob = dump_table(t)
            back = load_table(blob)
            assert dump_table(back) == blob
            assert back.spec == t.spec
            assert np.array_equal(back.entries, t.entries)
            split = 2.0 ** base
            top = float(np.nextafter(np.float32(t.spec.hi), 0))  # [lo, hi)
            xs = np.concatenate([[0.0, split / 2, split, top],
                                 rng.uniform(0.0, top, 16)])
            assert np.array_equal(dllut_query_interp(back, xs),
                                  dllut_query_interp(t, xs))


class TestOctaveCounts:
    """A TPL4 record stores hi_exponent, so any count of octaves, not
    only a power of two, round-trips."""

    @pytest.mark.parametrize("build, base, hi", [
        (build_dlut, -16, 3), (build_dllut, 0, 3)], ids=["D-19", "DL-3"])
    def test_round_trip(self, build, base, hi):
        t = build(TANH, base, hi, 8)
        blob = dump_table(t)
        assert blob[:4] == b"TPL4"
        back = load_table(blob)
        assert dump_table(back) == blob and back.spec == t.spec
        d = back.spec
        assert (d.base_exponent, d.hi_exponent, d.size) == (
            base, hi, (hi - base + (build is build_dllut)) << 8)
        top = float(np.nextafter(np.float32(2.0 ** hi), 0))
        xs = np.array([2.0 ** base, 1.5, top])
        query = (dllut_query_interp if build is build_dllut
                 else dlut_query_interp)
        assert np.array_equal(query(back, xs), query(t, xs))
