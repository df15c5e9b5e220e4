import contextlib
import io
import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalboot import (
    ConfigError,
    DataError,
    ObservationTable,
    draw_subset,
    load_csv,
    load_external_scores,
    subset_size,
)
from causalboot import data as cbdata
from causalboot import rng as cbrng
from causalboot.cli import main
from oracles import load_csv_longhand
from test_cli import analyze_args, export_dgm_csv


class TestObservationTable:
    def test_counts(self, small_table):
        assert small_table.n == 8
        assert small_table.n0 == 4
        assert small_table.n1 == 4
        assert small_table.n0 + small_table.n1 == small_table.n
        assert small_table.n1 == int(small_table.w.sum())

    def test_arrays_are_frozen(self, small_table):
        with pytest.raises(ValueError):
            small_table.y[0] = 99.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            ObservationTable(y=np.zeros(3), w=np.zeros(2, dtype=int), x=np.zeros((3, 1)))

    def test_repeated_covariate_name_is_refused(self):
        # the balance report keys its SMDs by name, so a repeat would hide one
        with pytest.raises(DataError, match="repeat a name"):
            ObservationTable(y=np.zeros(3), w=np.array([0, 1, 0]), x=np.zeros((3, 2)),
                             covariate_names=("x1", "x1"))

    def test_non_binary_treatment(self):
        with pytest.raises(DataError, match="non-binary"):
            ObservationTable(y=np.zeros(3), w=np.array([0, 1, 2]), x=np.zeros((3, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            ObservationTable(
                y=np.array([1.0, np.nan]), w=np.array([0, 1]), x=np.zeros((2, 1))
            )

    @pytest.mark.parametrize("column", ["y", "x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_value_rejected(self, column, value):
        arrays = {"y": np.array([1.0, 2.0]), "w": np.array([0, 1]), "x": np.zeros((2, 1))}
        arrays[column][-1] = value
        with pytest.raises(DataError, match="non-finite"):
            ObservationTable(**arrays)

    @pytest.mark.parametrize("bad,message", [
        (0.5, "non-binary treatment value 0.5"),
        (1.7, "non-binary treatment value 1.7"),
        (-0.3, "non-binary treatment value -0.3"),
        (float("nan"), "non-binary treatment value nan"),
        ("a", "non-numeric treatment value: could not convert string to float"),
    ])
    def test_treatment_checked_before_the_integer_cast(self, bad, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            ObservationTable(y=np.zeros(3), w=[0.0, bad, 1.0], x=np.zeros((3, 1)))

    @pytest.mark.parametrize("w", [
        np.array([False, True, False]),
        np.array([0.0, 1.0, -0.0]),
        np.array([0, 1, 0], dtype=np.uint8),
        np.array([0, 1, 0], dtype=np.int64),
    ], ids=["bool", "float", "uint8", "int64"])
    def test_binary_treatments_accepted(self, w):
        table = ObservationTable(y=np.zeros(3), w=w, x=np.zeros((3, 1)))
        assert table.w.dtype == np.int8 and table.w.tolist() == [0, 1, 0]

    def test_treated_count_is_exact_beyond_the_int8_range(self):
        w = np.ones(1000, dtype=np.int8)
        w[500] = 0
        table = ObservationTable(y=np.zeros(1000), w=w, x=np.arange(1000.0))
        assert (table.n1, table.n0) == (999, 1)

    @pytest.mark.parametrize("column,values", [
        ("y", ["1", "a"]), ("y", [1.0, {}]), ("x", [["b"], ["2"]]),
    ])
    def test_non_numeric_outcome_or_covariate_is_a_data_error(self, column, values):
        arrays = {"y": np.zeros(2), "w": np.array([0, 1]), "x": np.zeros((2, 1)), column: values}
        name = {"y": "outcome", "x": "covariate"}[column]
        with pytest.raises(DataError, match=f"^non-numeric {name} value: "):
            ObservationTable(**arrays)

    def test_validation_makes_no_column_sized_temporary(self, traced):
        # float64 y and x and int8 w are kept as they are, and checked
        # without a copy or a mask
        n = 200_000
        y, x = np.linspace(-1.0, 1.0, n), np.ones((n, 3))
        w = (np.arange(n) % 2).astype(np.int8)
        table, peak = traced(lambda: ObservationTable(y=y, w=w, x=x))
        assert table.y is y and table.w is w and table.x is x
        assert peak < n // 8

    def test_int64_treatment_costs_one_byte_column(self, traced):
        # checked by its range, without a temporary, then copied once
        n = 200_000
        y, x = np.linspace(-1.0, 1.0, n), np.ones((n, 3))
        w = np.arange(n, dtype=np.int64) % 2
        table, peak = traced(lambda: ObservationTable(y=y, w=w, x=x))
        assert table.y is y and table.x is x
        assert table.w.dtype == np.int8 and np.array_equal(table.w, w)
        assert n <= peak < n + n // 8


class TestLoadCsv:
    def test_basic_load(self, write_csv):
        path = write_csv(
            "basic.csv",
            ["y", "w", "x1"],
            [[1.0, 0, 0.5], [2.0, 1, -0.5], [3.0, 0, 1.5], [4.0, 1, 0.0]],
        )
        table = load_csv(path, "y", "w", ["x1"])
        assert table.n == 4
        assert table.n0 == 2
        assert table.n1 == 2
        assert table.dropped_rows == 0
        # row order is file order
        assert list(table.y) == [1.0, 2.0, 3.0, 4.0]

    def test_non_binary_treatment_value(self, write_csv):
        path = write_csv("bad_w.csv", ["y", "w", "x1"], [[1.0, 0, 0.5], [2.0, 2, 1.0]])
        with pytest.raises(DataError, match="non-binary treatment"):
            load_csv(path, "y", "w", ["x1"])

    def test_drop_policy_counts_dropped_rows(self, write_csv):
        path = write_csv(
            "missing.csv",
            ["y", "w", "x1"],
            [[1.0, 0, 0.5], [2.0, 1, ""], [3.0, 0, 1.5], [4.0, 1, 0.25]],
        )
        table = load_csv(path, "y", "w", ["x1"], na_policy="drop")
        assert table.n == 3
        assert table.dropped_rows == 1

    def test_reject_policy_errors_on_missing(self, write_csv):
        path = write_csv("missing2.csv", ["y", "w", "x1"], [[1.0, 0, ""], [2.0, 1, 0.5]])
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, "y", "w", ["x1"])

    def test_reject_policy_errors_on_garbage(self, write_csv):
        path = write_csv("garbage.csv", ["y", "w", "x1"], [[1.0, 0, "abc"], [2.0, 1, 0.5]])
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path, "y", "w", ["x1"])

    def test_missing_column(self, write_csv):
        path = write_csv("cols.csv", ["y", "w"], [[1.0, 0], [2.0, 1]])
        with pytest.raises(DataError, match="missing column"):
            load_csv(path, "y", "w", ["x1"])

    def test_empty_after_drops(self, write_csv):
        path = write_csv("all_missing.csv", ["y", "w", "x1"], [["", 0, 1.0], ["", 1, 2.0]])
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path, "y", "w", ["x1"], na_policy="drop")

    def test_unused_columns_ignored(self, write_csv):
        path = write_csv(
            "extra.csv",
            ["id", "y", "w", "x1", "junk"],
            [[7, 1.0, 0, 0.5, "zzz"], [8, 2.0, 1, -0.5, "qqq"]],
        )
        table = load_csv(path, "y", "w", ["x1"])
        assert table.n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", "y", "w", ["x1"])

    @pytest.mark.parametrize("outcome, treatment, covariates, column", [
        ("w", "w", ["x1"], "w"),
        ("y", "w", ["x1", "x1"], "x1"),
        ("y", "w", ["w", "x1"], "w"),
        ("y", "w", ["x1", "y"], "y"),
    ])
    def test_column_in_two_roles_is_refused_before_opening(self, tmp_path, outcome, treatment,
                                                           covariates, column):
        # the file does not exist: the refusal comes before it is opened
        with pytest.raises(ConfigError, match=f"column '{column}' is used twice"):
            load_csv(tmp_path / "nope.csv", outcome, treatment, covariates)


class TestSubsetSize:
    def test_reference_value(self):
        # 10000**0.7 = 630.957...
        assert subset_size(10000, 0.7) == 631

    def test_identity_exponent(self):
        for n in (2, 17, 10000):
            assert subset_size(n, 1.0) == n

    def test_high_precision_oracle_value(self):
        # mpmath (50 digits): 20000**0.8 = 2759.4593..., half-up -> 2759
        assert subset_size(20000, 0.8) == 2759

    def test_half_up_rounding(self):
        # 4**0.5 = 2 exactly; 6**0.5 = 2.449 -> 2; 8**0.5 = 2.83 -> 3
        assert subset_size(4, 0.5) == 2
        assert subset_size(6, 0.5) == 2
        assert subset_size(8, 0.5) == 3

    def test_clamped_to_at_least_two(self):
        assert subset_size(1000, 0.01) == 2

    def test_monotone_in_n_and_gamma(self):
        ns = [10, 100, 1000, 20000]
        gammas = [0.3, 0.5, 0.7, 0.9, 1.0]
        for g in gammas:
            sizes = [subset_size(n, g) for n in ns]
            assert sizes == sorted(sizes)
        for n in ns:
            sizes = [subset_size(n, g) for g in gammas]
            assert sizes == sorted(sizes)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            subset_size(1, 0.5)
        with pytest.raises(ConfigError):
            subset_size(100, 0.0)
        with pytest.raises(ConfigError):
            subset_size(100, 1.5)


def rows_table(n):
    """A table of ``n`` rows, alternately control and treated."""
    return ObservationTable(y=np.zeros(n), w=np.arange(n) % 2, x=np.zeros((n, 1)))


class TestDrawSubset:
    def test_full_size_subset_is_whole_index_set(self, small_table):
        idx = draw_subset(small_table, small_table.n, cbrng.substream(5, 1, 0, 0))
        assert list(idx) == list(range(small_table.n))

    def test_indices_distinct_and_sorted(self, dgm_table):
        idx = draw_subset(dgm_table, 50, cbrng.substream(5, 1, 1, 0))
        assert len(set(idx.tolist())) == 50
        assert list(idx) == sorted(idx.tolist())

    def test_same_stream_key_reproduces(self, dgm_table):
        a = draw_subset(dgm_table, 25, cbrng.substream(5, 1, 2, 0))
        b = draw_subset(dgm_table, 25, cbrng.substream(5, 1, 2, 0))
        assert np.array_equal(a, b)

    def test_independent_substreams_differ(self, small_table):
        # pinned regression values for seed 5, n=8, b=4
        a = draw_subset(small_table, 4, cbrng.substream(5, 1, 0, 0))
        b = draw_subset(small_table, 4, cbrng.substream(5, 1, 1, 0))
        assert set(a.tolist()) != set(b.tolist())

    def test_uniformity_binomial_bands(self, small_table):
        # each of 10 indices appears in a b=2 draw w.p. 0.2; over 10000
        # draws the count is Binomial(10000, 0.2): mean 2000, sd 40
        table = ObservationTable(
            y=np.arange(10.0), w=np.tile([0, 1], 5), x=np.zeros((10, 1))
        )
        counts = np.zeros(10)
        stream = cbrng.substream(11, 1, 0, 0)
        for _ in range(10000):
            for i in draw_subset(table, 2, stream):
                counts[i] += 1
        assert (np.abs(counts - 2000) < 5 * 40).all()

    @pytest.mark.parametrize("n, b", [(10, 2), (2000, 205), (2000, 2000), (10_000, 199),
                                      (10_000, 3000)])
    def test_one_block_matches_choice(self, n, b):
        # up to 10,000 rows the subset is that of numpy's own draw, which
        # permutes an arange beyond n/50 rows at larger n
        idx = draw_subset(rows_table(n), b, cbrng.substream(5, 1, n, b))
        expected = np.sort(cbrng.substream(5, 1, n, b).choice(n, b, replace=False))
        assert np.array_equal(idx, expected)

    @pytest.mark.parametrize("b", [2, 9_999, 25_000])
    def test_blocks_give_distinct_sorted_rows(self, b):
        idx = draw_subset(rows_table(25_000), b, cbrng.substream(5, 1, 3, 0))
        assert idx.shape == (b,) and idx.dtype == np.int64
        assert (np.diff(idx) > 0).all() and 0 <= idx[0] and idx[-1] < 25_000

    def test_memory_is_of_the_subset_not_the_table(self, traced):
        # numpy's choice over all 10**6 rows peaks at 8.6 MiB.  Beyond the
        # 0.96 MiB int64 result, the blocks' Floyd draws hold about 33 KiB;
        # a numpy that permuted each block of 10,000 rows instead, as it
        # does above its Floyd cutoff, would hold about 85 KiB
        table, stream = rows_table(1_000_000), cbrng.substream(5, 1, 4, 0)
        idx, peak = traced(lambda: draw_subset(table, 125_893, stream))
        assert len(np.unique(idx)) == 125_893
        assert peak < 1.5 * 2**20
        assert peak - idx.nbytes < 2**16

    def test_row_inclusion_frequencies_are_binomial(self):
        # n = 25,000 rows in blocks of 10,000, 10,000 and 5,000: each row is
        # in a b = 6,000 draw with probability 0.24, so over 2,000 draws its
        # frequency has SD sqrt(0.24 * 0.76 / 2000) = 0.00955 about 0.24
        n, b, draws = 25_000, 6_000, 2_000
        table = rows_table(n)
        counts = np.zeros(n)
        for k in range(draws):
            counts[draw_subset(table, b, cbrng.substream(13, 1, k, 0))] += 1
        freq, rate = counts / draws, b / n
        expected_sd = np.sqrt(rate * (1 - rate) / draws)
        # the SD of 25,000 row frequencies has a relative SE of about 0.45%
        assert freq.std() == pytest.approx(expected_sd, rel=0.03)
        assert np.abs(freq - rate).max() < 6 * expected_sd
        # each block holds its share of the draws on average
        for block in (freq[:10_000], freq[10_000:20_000], freq[20_000:]):
            assert abs(block.mean() - rate) < 4 * expected_sd / np.sqrt(block.size)

    def test_out_of_range(self, small_table):
        with pytest.raises(ConfigError):
            draw_subset(small_table, 1, cbrng.substream(5, 1, 0, 0))
        with pytest.raises(ConfigError):
            draw_subset(small_table, small_table.n + 1, cbrng.substream(5, 1, 0, 0))


# ---------------------------------------------------------------------
# Vectorized ingestion: the fast path against the row parser
# ---------------------------------------------------------------------

USED = ("y", "w", ["x1", "x2"])


def table_outcome(load):
    """A table's arrays as bytes plus its drop count, or the DataError's
    type and message, for ``load()``."""
    try:
        table = load()
    except DataError as exc:
        return type(exc), str(exc)
    return table.y.tobytes(), table.w.tobytes(), table.x.tobytes(), table.dropped_rows


def load_outcome(path, na_policy, fast=True, block_chars=None):
    """``load_csv``'s outcome; ``fast=False`` forces the row parser on
    every block and ``block_chars`` sets the block size."""
    with contextlib.ExitStack() as stack:
        if not fast:
            stack.enter_context(mock.patch.object(cbdata, "_parse_fast", lambda *args: None))
        if block_chars is not None:
            stack.enter_context(mock.patch.object(cbdata, "_BLOCK_CHARS", block_chars))
        return table_outcome(lambda: load_csv(path, *USED, na_policy=na_policy))


def longhand_outcome(path, na_policy):
    """The outcome of the cell-by-cell ``csv.DictReader`` oracle."""
    def load():
        y, w, x, dropped = load_csv_longhand(path, *USED, na_policy=na_policy)
        return ObservationTable(y=np.asarray(y), w=np.asarray(w), x=np.asarray(x),
                                covariate_names=USED[2], dropped_rows=dropped)
    return table_outcome(load)


def assert_all_parsers_agree(path, na_policy, block_chars):
    expected = longhand_outcome(path, na_policy)
    assert load_outcome(path, na_policy) == expected
    assert load_outcome(path, na_policy, block_chars=block_chars) == expected
    assert load_outcome(path, na_policy, fast=False, block_chars=block_chars) == expected


def took_fast_path(path, na_policy, block_chars=None):
    """Whether no block of the file went to the row parser."""
    with contextlib.ExitStack() as stack:
        rows = stack.enter_context(
            mock.patch.object(cbdata, "_parse_rows", wraps=cbdata._parse_rows))
        if block_chars is not None:
            stack.enter_context(mock.patch.object(cbdata, "_BLOCK_CHARS", block_chars))
        with contextlib.suppress(DataError):
            load_csv(path, *USED, na_policy=na_policy)
    return not rows.called


# (id, file text, whether the fast path takes the file whole in one block)
EDGE_CASES = [
    ("padding", "y,w,x1,x2\n 1.5 ,0,\t2 , 3\n2,1,3,4\n", True),
    ("quotes", 'y,w,x1,x2\n"1.5","0",2,3\n2,1,"3",4\n', True),
    ("quote_then_tail", 'y,w,x1,x2\n"1"5,0,2,3\n2,1,3,4\n', False),
    ("hash", "y,w,x1,x2\n1,0,2,3#4\n2,1,3,4\n", False),
    ("duplicate_header", "y,w,x1,x2,y\n1,0,2,3,9\n2,1,3,4,8\n", True),
    ("duplicate_header_short_row", "y,w,x1,x2,y\n1,0,2,3\n2,1,3,4,8\n", False),
    ("crlf", "y,w,x1,x2\r\n1,0,2,3\r\n2,1,3,4\r\n", True),
    ("cr_only", "y,w,x1,x2\r1,0,2,3\r2,1,3,4\r", True),
    ("underscore", "y,w,x1,x2\n1_000,0,2,3\n2,1,3,4\n", False),
    ("extra_cells", "y,w,x1,x2\n1,0,2,3,7,7\n2,1,3,4\n", True),
    ("short_row", "y,w,x1,x2\n1,0,2\n2,1,3,4\n", False),
    ("blank_line", "y,w,x1,x2\n1,0,2,3\n\n2,1,3,4\n", True),
    ("whitespace_line", "y,w,x1,x2\n1,0,2,3\n   \n2,1,3,4\n", False),
    ("nan", "y,w,x1,x2\nNaN,0,2,3\n2,1,3,4\n", False),
    ("inf", "y,w,x1,x2\n1,0,inf,3\n2,1,3,4\n", False),
    ("hex_float", "y,w,x1,x2\n0x1p3,0,2,3\n2,1,3,4\n", False),
    ("treatment_one_point_zero", "y,w,x1,x2\n1,1.0,2,3\n2,0.0,3,4\n", True),
    ("treatment_minus_zero", "y,w,x1,x2\n1,-0,2,3\n2,1,3,4\n", True),
    ("treatment_one_half", "y,w,x1,x2\n1,0.5,2,3\n2,1,3,4\n", False),
    ("header_only", "y,w,x1,x2\n", True),
    ("quoted_newline", 'y,w,x1,x2\n"1\n",0,2,3\n2,1,"x\ny",4\n', False),
    ("quoted_newline_unused", 'y,w,x1,x2,id\n1,0,2,3,"a\nb"\n2,1,3,4,"c,\n\nd"\n', True),
    ("open_quote_at_end", 'y,w,x1,x2,id\n1,0,2,3\n2,1,3,4,"c\n', False),
    ("quote_in_unquoted_cell", 'y,w,x1,x2,id\n1,0,2,3,a"b\n2,1,3,4,"c"\n', True),
]


class TestFastPathEdgeCases:
    @pytest.mark.parametrize("text,fast", [c[1:] for c in EDGE_CASES],
                             ids=[c[0] for c in EDGE_CASES])
    @pytest.mark.parametrize("na_policy", ["reject", "drop"])
    @pytest.mark.parametrize("block_chars", [1, 24])
    def test_same_outcome_as_row_parser(self, tmp_path, text, fast, na_policy, block_chars):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_all_parsers_agree(path, na_policy, block_chars)
        assert took_fast_path(path, na_policy) == fast

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "-Infinity"])
    @pytest.mark.parametrize("na_policy", ["reject", "drop"])
    def test_non_finite_cell_is_named(self, tmp_path, cell, na_policy):
        path = tmp_path / "non_finite.csv"
        path.write_text(f"y,w,x1,x2\n1,0,2,3\n2,1,{cell},4\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=f"^non-finite value '{cell}' in column 'x1' at data row 2$"):
            load_csv(path, *USED, na_policy=na_policy)

    def test_only_declined_blocks_are_row_parsed(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("y,w,x1,x2\n" + "1,0,2,3\n" * 3 + "1,0,NA,3\n" + "2,1,3,4\n" * 3,
                        encoding="utf-8")
        with mock.patch.object(cbdata, "_BLOCK_CHARS", 1), mock.patch.object(
            cbdata, "_parse_rows", wraps=cbdata._parse_rows
        ) as rows:
            table = load_csv(path, *USED, na_policy="drop")
            assert rows.call_count == 1 and table.n == 6 and table.dropped_rows == 1
            with pytest.raises(DataError, match="column 'x1' at data row 4$"):
                load_csv(path, *USED)

    def test_generated_file_is_read_fast_and_exactly(self, tmp_path):
        path = export_dgm_csv(tmp_path / "dgm.csv", n=500)
        assert took_fast_path(path, "reject")
        assert took_fast_path(path, "reject", block_chars=4096)
        assert_all_parsers_agree(path, "reject", 4096)
        fast = load_csv(path, *USED)
        assert fast.y.flags.c_contiguous and fast.x.flags.c_contiguous
        with mock.patch.object(cbdata, "_parse_fast", lambda *args: None):
            rows = load_csv(path, *USED)
        assert fast.w.dtype == rows.w.dtype == np.int8 and fast.n == rows.n == 500


# (id, file text, na_policy, rows kept)
KEPT_ROWS_CASES = [
    ("no_final_newline", "y,w,x1,x2\n1,0,2,3\n2,1,3,4", "reject", 2),
    ("blank_lines", "y,w,x1,x2\n\n1,0,2,3\n\n\n2,1,3,4\n\n", "reject", 2),
    ("quoted_newlines", 'y,w,x1,x2,id\n1,0,2,3,"a\nb\r\nc"\n2,1,3,4,"\n"\n', "reject", 2),
    ("dropped_rows", "y,w,x1,x2\n1,0,2,3\n1,0,NA,3\n2,1,3,4\n,1,3,4\n", "drop", 2),
    ("mixed_endings", "y,w,x1,x2\r1,0,2,3\r\n2,1,3,4\n3,0,4,5\r", "reject", 3),
]


class TestKeptRows:
    @pytest.mark.parametrize("text,na_policy,n", [c[1:] for c in KEPT_ROWS_CASES],
                             ids=[c[0] for c in KEPT_ROWS_CASES])
    @pytest.mark.parametrize("block_chars", [1, 24, None])
    def test_table_holds_exactly_the_kept_rows(self, tmp_path, text, na_policy, n,
                                               block_chars):
        path = tmp_path / "kept.csv"
        path.write_bytes(text.encode("utf-8"))
        with contextlib.ExitStack() as stack:
            if block_chars is not None:
                stack.enter_context(mock.patch.object(cbdata, "_BLOCK_CHARS", block_chars))
            table = load_csv(path, *USED, na_policy=na_policy)
        for column in (table.y, table.w, table.x):
            assert column.shape[0] == n and column.flags.c_contiguous
        assert table_outcome(lambda: table) == load_outcome(path, na_policy, fast=False)


class TestLineCapacity:
    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.sampled_from(["1", ",", "\n", "\r", '"']), max_size=40),
           block_chars=st.integers(1, 8))
    def test_counts_each_line_ending_once(self, text, block_chars):
        # the endings of the lines the text reader splits, whatever the
        # chunk boundaries, so a \r\n split by them counts once
        lines = io.TextIOWrapper(io.BytesIO(text.encode()), newline="").readlines()
        endings = sum(line.endswith(("\n", "\r")) for line in lines)
        with mock.patch.object(cbdata, "_BLOCK_CHARS", block_chars):
            assert cbdata._line_capacity(io.BytesIO(text.encode())) == endings


class TestBuildMemory:
    def test_load_csv_holds_the_table_and_one_block(self, tmp_path, traced, table_bytes):
        # the traced peak over the table's own bytes is the same at n and
        # 3n rows: a block of lines and its parse, never a second table
        excess = []
        for n in (50_000, 150_000):
            path = export_dgm_csv(tmp_path / f"rows{n}.csv", n=n)
            table, peak = traced(lambda: load_csv(path, *USED))
            assert table.n == n
            excess.append(peak - table_bytes(table))
        assert max(excess) <= 4 * cbdata._BLOCK_CHARS
        assert abs(excess[1] - excess[0]) <= cbdata._BLOCK_CHARS / 4


NA_CELLS = ["", "NA", "na", "Na", "nan", "NaN", "NAN", "null", "NULL", "Null", " na "]
HOSTILE_CELLS = NA_CELLS + [
    "inf", "-Infinity", "1_000", "0x1p3", "#", "1#2", "abc", "2", "0.5", "1e999",
    '"1.5"', '" 3 "', '"1"5', '1"5"', '"1,5"', '"-0"', "  ", "\t7\t", "1e5", ".5",
    '"1\n5"', '"\n"', '"2\r\n"', '"x', 'x"', "\x1c1", "1\u2003", "\u0661",
]
CLEAN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f" {v!r} "),
    st.floats(-1e3, 1e3).map(lambda v: f'"{v!r}"'),
)
CLEAN_TREATMENTS = st.sampled_from(["0", "1", "0.0", "1.0", "-0", " 1 ", '"0"', "1e0"])
TREATMENT_JUNK = ["2", "0.5", "-1", "1.5", "nan", "inf", "true", ""]
HOSTILITY = ["cells", "ragged", "blank_lines", "comments", "treatment"]


@st.composite
def hostile_csv(draw):
    """A CSV text whose header holds y, w, x1 and x2 (maybe repeated, with
    extra columns) and whose cells are clean numbers, plus any mix of
    hostile cells, ragged rows, blank lines, ``#`` tails and non-binary
    treatment values."""
    header = draw(st.permutations(["y", "w", "x1", "x2"]))
    header += draw(st.lists(st.sampled_from(["y", "w", "x1", "x2", "id"]), max_size=3))
    header = draw(st.permutations(header))
    kinds = draw(st.sets(st.sampled_from(HOSTILITY)))
    w_col = max(j for j, name in enumerate(header) if name == "w")

    def sometimes(kind):
        return kind in kinds and draw(st.integers(0, 7)) == 0

    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if sometimes("blank_lines"):
            lines.append(draw(st.sampled_from(["", "  ", '""', ","])))
            continue
        width = len(header) + (draw(st.integers(-2, 2)) if "ragged" in kinds else 0)
        cells = []
        for j in range(width):
            if j == w_col:
                pool = TREATMENT_JUNK if sometimes("treatment") else None
                cells.append(draw(st.sampled_from(pool) if pool else CLEAN_TREATMENTS))
            elif sometimes("cells"):
                cells.append(draw(st.sampled_from(HOSTILE_CELLS)))
            else:
                cells.append(draw(CLEAN_NUMBERS))
        tail = draw(st.sampled_from(["#", " # note", "#1,2"])) if sometimes("comments") else ""
        lines.append(",".join(cells) + tail)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + ending.join(lines) + draw(st.sampled_from([ending, ""]))


class TestFastPathProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=hostile_csv(), block_chars=st.integers(1, 96))
    def test_fast_path_matches_row_parser(self, tmp_path, text, block_chars):
        path = tmp_path / "generated.csv"
        path.write_bytes(text.encode("utf-8"))
        for na_policy in ("reject", "drop"):
            assert_all_parsers_agree(path, na_policy, block_chars)


class TestInputFiles:
    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = export_dgm_csv(tmp_path / "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_outcome(marked, "reject") == load_outcome(plain, "reject")
        assert load_outcome(marked, "reject", fast=False) == load_outcome(plain, "reject")
        assert main(analyze_args(plain, tmp_path / "a")) == 0
        assert main(analyze_args(marked, tmp_path / "b")) == 0
        payloads = [
            json.loads((tmp_path / d / "result.json").read_text())["payload"]
            for d in ("a", "b")
        ]
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("good_rows", [0, 20_000])
    def test_non_utf8_csv_is_a_data_error(self, tmp_path, fast, good_rows):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,w,x1,x2\n" + b"1,0,2,3\n" * good_rows + b"1,0,caf\xe9,3\n")
        error, message = load_outcome(path, "reject", fast=fast)
        assert error is DataError
        assert str(path) in message and "UTF-8" in message

    def test_cell_over_csv_field_limit_is_a_data_error(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("y,w,x1,x2\n1,0,2,3\n2,1," + "z" * 140_000 + ",4\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv(path, *USED, na_policy="drop")

    def test_non_utf8_csv_exits_3_naming_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,w,x1,x2\n1,0,caf\xe9,3\n2,1,3,4\n")
        assert main(analyze_args(path, tmp_path)) == 3
        assert str(path) in capsys.readouterr().err

    def test_non_utf8_scores_exit_3_naming_file(self, tmp_path, capsys):
        csv_path = export_dgm_csv(tmp_path / "dgm.csv")
        scores = tmp_path / "scores.txt"
        scores.write_bytes(b"0.5\n" * 1199 + b"0.\xe9\n")
        code = main(analyze_args(csv_path, tmp_path, **{"--method": f"external:{scores}"}))
        assert code == 3
        assert str(scores) in capsys.readouterr().err


class TestExternalScoresNonFinite:
    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_score_names_its_line(self, tmp_path, token):
        path = tmp_path / "scores.txt"
        path.write_text(f"0.5\n\n{token}\n0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"non-finite score '{token}' at line 3"):
            load_external_scores(path, 3)

    def test_nan_score_exits_3(self, tmp_path, capsys):
        csv_path = export_dgm_csv(tmp_path / "dgm.csv")
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n" * 700 + "nan\n" + "0.5\n" * 499, encoding="utf-8")
        code = main(analyze_args(csv_path, tmp_path, **{"--method": f"external:{scores}"}))
        assert code == 3
        assert "non-finite score 'nan' at line 701" in capsys.readouterr().err


@pytest.mark.parametrize("load", [lambda path: load_csv(path, "y", "w", ["x1"]),
                                  lambda path: load_external_scores(path, 2)],
                         ids=["load_csv", "load_external_scores"])
def test_loaders_refuse_a_file_descriptor(load):
    # open() would read an integer as a descriptor, and close it
    read, write = os.pipe()
    os.write(write, b"0.5\n0.5\n")
    os.close(write)
    try:
        with pytest.raises(ConfigError, match=rf"^path must be a str or os.PathLike, got {read}$"):
            load(read)
        assert os.read(read, 64) == b"0.5\n0.5\n"  # still open, nothing read
    finally:
        os.close(read)
