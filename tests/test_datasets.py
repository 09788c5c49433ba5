"""Tests for the dataset substrates and the CSV loader."""

import pytest

from repro import SchemaError, TableSchema
from repro.datasets import (
    ANTICORRELATED,
    CORRELATED,
    INDEPENDENT,
    dimension_space,
    generate_nba,
    generate_synthetic,
    generate_weather,
    load_rows,
    measure_space,
    nba_rows,
    nba_schema,
    save_rows,
    synthetic_rows,
    synthetic_schema,
    weather_rows,
    weather_schema,
)


class TestNBA:
    def test_row_count(self):
        assert len(list(generate_nba(137))) == 137

    def test_deterministic_for_seed(self):
        assert list(generate_nba(50, seed=3)) == list(generate_nba(50, seed=3))

    def test_different_seed_differs(self):
        assert list(generate_nba(50, seed=3)) != list(generate_nba(50, seed=4))

    def test_rows_have_all_attributes(self):
        (row,) = list(generate_nba(1))
        for attr in dimension_space(8) + measure_space(7):
            assert attr in row

    def test_measures_non_negative_ints(self):
        for row in generate_nba(200):
            for m in measure_space(7):
                assert isinstance(row[m], int) and row[m] >= 0

    def test_seasons_are_chronological(self):
        seasons = [row["season"] for row in generate_nba(300)]
        assert seasons == sorted(seasons)

    def test_projection_matches_schema(self):
        schema = nba_schema(4, 5)
        rows = nba_rows(10, d=4, m=5)
        for row in rows:
            assert set(row) == set(schema.dimensions) | set(schema.measures)

    def test_paper_parameter_tables(self):
        assert dimension_space(5) == ("player", "season", "month", "team", "opp_team")
        assert measure_space(4) == ("points", "rebounds", "assists", "blocks")
        with pytest.raises(ValueError):
            dimension_space(3)
        with pytest.raises(ValueError):
            measure_space(9)

    def test_min_preferences_on_fouls_turnovers(self):
        schema = nba_schema(5, 7)
        assert schema.preference("fouls") == "min"
        assert schema.preference("turnovers") == "min"
        assert schema.preference("points") == "max"


class TestWeather:
    def test_row_count_and_determinism(self):
        rows = list(generate_weather(77, seed=1))
        assert len(rows) == 77
        assert rows == list(generate_weather(77, seed=1))

    def test_schema_projection(self):
        schema = weather_schema(5, 7)
        for row in weather_rows(5, d=5, m=7):
            assert set(row) == set(schema.dimensions) | set(schema.measures)

    def test_all_measures_max_preferred(self):
        schema = weather_schema(7, 7)
        assert all(schema.preference(m) == "max" for m in schema.measures)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            weather_schema(0, 7)
        with pytest.raises(ValueError):
            weather_schema(5, 99)

    def test_months_progress_through_year(self):
        months = [r["month"] for r in generate_weather(240)]
        assert months[0] == "Dec"
        assert len(set(months)) == 12


class TestSynthetic:
    def test_distributions(self):
        for dist in (INDEPENDENT, CORRELATED, ANTICORRELATED):
            rows = synthetic_rows(30, 2, 3, dist)
            assert len(rows) == 30
            for row in rows:
                assert set(row) == {"d0", "d1", "m0", "m1", "m2"}

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            synthetic_rows(5, 2, 2, "zipfian")

    def test_cardinalities_respected(self):
        rows = synthetic_rows(100, 2, 1, cardinalities=[2, 5])
        assert len({r["d0"] for r in rows}) <= 2
        assert len({r["d1"] for r in rows}) <= 5

    def test_cardinality_length_mismatch(self):
        with pytest.raises(ValueError):
            synthetic_rows(5, 2, 1, cardinalities=[2])

    def test_correlated_has_smaller_skyline_than_anticorrelated(self):
        """Sanity: correlation shrinks skylines, anti-correlation grows
        them (the classic skyline-benchmark property)."""
        from repro.core.record import Table
        from repro.core.skyline import skyline_bnl

        schema = synthetic_schema(1, 4)
        sizes = {}
        for dist in (CORRELATED, ANTICORRELATED):
            table = Table(schema)
            for row in synthetic_rows(400, 1, 4, dist, seed=42):
                table.append(row)
            sizes[dist] = len(skyline_bnl(list(table), 0b1111))
        assert sizes[CORRELATED] < sizes[ANTICORRELATED]


class TestLoader:
    def test_roundtrip(self, tmp_path):
        schema = nba_schema(4, 4)
        rows = nba_rows(20, d=4, m=4)
        path = str(tmp_path / "rows.csv")
        save_rows(path, schema, rows)
        back = list(load_rows(path, schema))
        assert len(back) == 20
        assert back[0] == rows[0]

    def test_float_measures_preserved(self, tmp_path):
        schema = weather_schema(2, 2)
        rows = weather_rows(5, d=2, m=2)
        path = str(tmp_path / "w.csv")
        save_rows(path, schema, rows)
        back = list(load_rows(path, schema))
        assert back[0]["wind_speed_day"] == pytest.approx(rows[0]["wind_speed_day"])

    def test_missing_column_raises(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("player,points\nA,3\n")
        schema = nba_schema(4, 4)
        with pytest.raises(SchemaError, match="missing columns"):
            list(load_rows(path, schema))

    def test_bad_cell_names_file_line_and_column(self, tmp_path):
        """Rows before the malformed one are yielded; the error names
        where to look."""
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("player,team,points\nA,X,3\nB,Y,notanumber\nC,Z,4\n")
        schema = TableSchema(("player", "team"), ("points",))
        rows = load_rows(path, schema)
        assert next(rows) == {"player": "A", "team": "X", "points": 3}
        with pytest.raises(SchemaError) as err:
            next(rows)
        assert str(err.value) == f"{path}:3: points: not a number: 'notanumber'"

    @pytest.mark.parametrize(
        "line, column", [("B,Y", "points"), ("B", "team")],
        ids=["short-of-a-measure", "short-of-a-dimension"],
    )
    def test_short_row_names_file_line_and_column(self, tmp_path, line, column):
        path = str(tmp_path / "short.csv")
        with open(path, "w") as fh:
            fh.write(f"player,team,points\nA,X,3\n{line}\n")
        schema = TableSchema(("player", "team"), ("points",))
        with pytest.raises(SchemaError) as err:
            list(load_rows(path, schema))
        assert str(err.value) == f"{path}:3: {column}: missing (the row is short)"
