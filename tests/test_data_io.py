import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectomo import (FormatError, MatchResult, export_pgm16,
                      load_attenuation_csv, load_matrix, parse_config,
                      save_attenuation_csv, save_matrix)
from spectomo.data_io import (METHOD_PARAMS, load_config, matrix_shape,
                              method_config, source_from_csv,
                              write_history_csv, write_results_csv)
from spectomo.solvers import IterationRecord
from spectomo.spectral import ChannelBinning, kedge_attenuation_table

# the 42 hard materials carried by the bundled dictionary listing
MATERIALS_42 = [
    "Vanadium", "Chromium", "Manganese", "Iron", "Cobalt", "Nickel",
    "Copper", "Zinc", "Gallium", "Germanium", "Arsenic", "Selenium",
    "Bromine", "Krypton", "Rubidium", "Strontium", "Yttrium", "Zirconium",
    "Niobium", "Molybdenum", "Technetium", "Ruthenium", "Rhodium",
    "Palladium", "Silver", "Cadmium", "Indium", "Tin", "Antimony",
    "Tellurium", "Iodine", "Xenon", "Cesium", "Barium", "Lanthanum",
    "Cerium", "Praseodymium", "Neodymium", "Promethium", "Samarium",
    "Terbium", "Gadolinium",
]


class TestAttenuationCsv:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "att.csv"
        path.write_text("energy_keV,iron\n10.0,1.25\n20.0,0.5\n")
        t = load_attenuation_csv(path)
        assert t.material_names == ["iron"]
        assert np.array_equal(t.energy_grid, [10.0, 20.0])
        assert np.array_equal(t.mu, [[1.25, 0.5]])

    def test_save_load_round_trip_exact(self, tmp_path):
        table = kedge_attenuation_table(["a", "b", "c"], 5.0, 35.0, n_energies=50)
        path = tmp_path / "table.csv"
        save_attenuation_csv(path, table)
        back = load_attenuation_csv(path)
        assert back.material_names == table.material_names
        assert np.array_equal(back.energy_grid, table.energy_grid)
        assert np.array_equal(back.mu, table.mu)

    def test_descending_energy_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("energy_keV,m\n10.0,1.0\n9.0,1.0\n")
        with pytest.raises(FormatError, match=r"bad\.csv:3"):
            load_attenuation_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("energy_keV,m1,m2\n10.0,1.0,2.0\n20.0,1.0\n")
        with pytest.raises(FormatError, match=r"ragged\.csv:3"):
            load_attenuation_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("energy_keV,m\n10.0,-1.0\n20.0,1.0\n")
        with pytest.raises(FormatError, match="negative"):
            load_attenuation_csv(path)

    def test_not_a_number_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("energy_keV,m\n10.0,abc\n")
        with pytest.raises(FormatError, match=r"nan\.csv:2"):
            load_attenuation_csv(path)

    def test_full_dictionary_listing_loads(self, tmp_path):
        table = kedge_attenuation_table(MATERIALS_42, 5.0, 35.0, n_energies=80)
        path = tmp_path / "dictionary42.csv"
        save_attenuation_csv(path, table)
        back = load_attenuation_csv(path)
        assert len(back.material_names) == 42
        assert back.material_names == MATERIALS_42
        assert back.mu.shape == (42, 80)


class TestSourceCsv:
    """A source CSV is a one-column attenuation table named `intensity`."""

    def write(self, tmp_path, text):
        path = tmp_path / "src.csv"
        path.write_text(text)
        return path

    def test_round_trip_and_binning(self, tmp_path):
        path = self.write(tmp_path, "energy_keV,intensity\n5.0,100.0\n35.0,400.0\n")
        src = source_from_csv(path, ChannelBinning(np.array([5.0, 20.0, 35.0])))
        assert src.intensity.tolist() == [100.0, 250.0, 400.0]

    @pytest.mark.parametrize("header, values", [("energy_keV,counts", "1"),
                                                ("energy_keV,intensity,extra", "1,1")])
    def test_another_header_rejected(self, tmp_path, header, values):
        path = self.write(tmp_path, f"{header}\n5,{values}\n35,{values}\n")
        with pytest.raises(FormatError, match=r"src\.csv:1: header must be "
                                              r"'energy_keV,intensity'$"):
            source_from_csv(path, ChannelBinning(np.array([20.0])))

    def test_nonpositive_intensity_rejected(self, tmp_path):
        path = self.write(tmp_path, "energy_keV,intensity\n5.0,1.0\n20.0,0.0\n35.0,1.0\n")
        with pytest.raises(FormatError, match="intensity at 20.0 keV must be positive"):
            source_from_csv(path, ChannelBinning(np.array([10.0])))

    def test_negative_intensity_reports_line(self, tmp_path):
        path = self.write(tmp_path, "energy_keV,intensity\n5.0,1.0\n35.0,-1.0\n")
        with pytest.raises(FormatError, match=r"src\.csv:3: negative value"):
            source_from_csv(path, ChannelBinning(np.array([10.0])))

    def test_centers_outside_the_table_name_the_file(self, tmp_path):
        path = self.write(tmp_path, "energy_keV,intensity\n5.0,1.0\n35.0,1.0\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: channel centers [20.0, 40.0] keV fall outside the "
                "tabulated range [5.0, 35.0] keV")):
            source_from_csv(path, ChannelBinning(np.array([20.0, 40.0])))


class TestMatrixFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 3))
        path = tmp_path / "m.adjm"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    def test_empty_matrix_allowed(self, tmp_path):
        path = tmp_path / "empty.adjm"
        save_matrix(path, np.zeros((0, 0)))
        assert load_matrix(path).shape == (1, 0) or load_matrix(path).size == 0

    def test_known_bytes_and_checksum(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.5]])
        path = tmp_path / "fixture.adjm"
        save_matrix(path, m)
        blob = path.read_bytes()
        expected = (b"ADJM" + struct.pack("<II", 2, 2)
                    + struct.pack("<4d", 1.0, 2.0, 3.0, 4.5))
        assert blob == expected
        assert hashlib.sha256(blob).hexdigest() == hashlib.sha256(expected).hexdigest()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.adjm"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.adjm"
        path.write_bytes(b"ADJM" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(FormatError, match="expected"):
            load_matrix(path)

    def test_load_holds_one_copy(self, tmp_path):
        m = np.ones((23040, 32))
        path = tmp_path / "m.adjm"
        save_matrix(path, m)
        tracemalloc.start()
        try:
            loaded = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, m)
        assert peak <= 1.1 * m.nbytes

    def test_shape_read_from_the_header(self, tmp_path):
        path = tmp_path / "m.adjm"
        save_matrix(path, np.ones((7, 3)))
        assert matrix_shape(path) == (7, 3)
        path.write_bytes(b"ADJM" + struct.pack("<II", 2, 2))     # no payload
        assert matrix_shape(path) == (2, 2)
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            matrix_shape(path)
        path.write_bytes(b"ADJM\x02")
        with pytest.raises(FormatError, match="truncated header"):
            matrix_shape(path)


def read_pgm16(path):
    """Tiny independent PGM reader used as the round-trip oracle."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, _, rest = blob.partition(b"\n")
    dims, _, rest = rest.partition(b"\n")
    maxval, _, payload = rest.partition(b"\n")
    assert header == b"P5"
    w, h = (int(v) for v in dims.split())
    assert int(maxval) == 65535
    data = np.frombuffer(payload, dtype=">u2").reshape(h, w)
    return data


class TestPgmExport:
    def test_constant_image(self, tmp_path):
        path = tmp_path / "c.pgm"
        export_pgm16(path, np.full((4, 6), 0.5), 0.0, 1.0)
        data = read_pgm16(path)
        assert data.shape == (4, 6)
        assert np.all(data == round(0.5 * 65535))

    def test_endpoints_hit_limits(self, tmp_path):
        path = tmp_path / "e.pgm"
        export_pgm16(path, np.array([[0.0, 1.0, 2.0, -1.0]]), 0.0, 1.0)
        data = read_pgm16(path)
        assert data[0, 0] == 0
        assert data[0, 1] == 65535
        assert data[0, 2] == 65535          # clamped above
        assert data[0, 3] == 0              # clamped below

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(8, 8))
        path = tmp_path / "r.pgm"
        export_pgm16(path, img, 0.0, 1.0)
        back = read_pgm16(path).astype(np.float64) / 65535.0
        assert np.max(np.abs(back - img)) <= 1.0 / 65535.0

    def test_bad_range(self, tmp_path):
        with pytest.raises(ValueError):
            export_pgm16(tmp_path / "x.pgm", np.ones((2, 2)), 1.0, 1.0)


def valid_config(**overrides):
    raw = {
        "config_version": 1,
        "seed": 7,
        "output_dir": "runs/demo",
        "phantom": {"kind": "disks", "size": 32, "count": 4},
        "geometry": {"angles": {"count": 20, "start": 0.0, "stop": np.pi},
                     "detectors": 32},
        "binning": {"channels": 8, "energy_min": 5.0, "energy_max": 35.0},
        "dictionary": {"type": "synthetic", "materials": 6},
        "source": {"type": "flat", "photons": 10000.0},
        "noise": {"poisson": True, "gaussian_percent": 0.0},
        "method": "adjust",
        "method_params": {"max_iter": 10},
    }
    raw.update(overrides)
    return raw


# the two array fields, each given a value that is not a JSON array
NOT_ARRAYS = [
    ("material_rows", {"material_rows": 3}),
    ("material_rows", {"material_rows": "13"}),
    ("geometry", {"geometry": {"angles": {"list": "0.5"}, "detectors": 32}}),
]
NOT_ARRAY_IDS = ["rows-number", "rows-text", "angle-list-text"]


class TestRunConfig:
    def test_valid_config_parses(self):
        cfg = parse_config(valid_config())
        assert cfg.raw["method"] == "adjust"
        assert cfg.grid().nx == 32
        assert cfg.parallel_geometry().n_angles == 20
        assert cfg.binning.n_channels == 8
        assert cfg.material_rows.size == 4

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(valid_config()))
        cfg = load_config(path)
        assert cfg.seed == 7

    def test_unknown_method_rejected(self):
        with pytest.raises(FormatError, match="method"):
            parse_config(valid_config(method="magic"))

    def test_bad_angle_range_rejected(self):
        bad = valid_config()
        bad["geometry"] = {"angles": {"count": 8, "start": 0.0,
                                      "stop": 2 * np.pi + 0.1}}
        with pytest.raises(FormatError, match="angle"):
            parse_config(bad)

    def test_explicit_angle_list_supported(self):
        cfg = parse_config(valid_config(
            geometry={"angles": {"list": [0.0, 0.5, 1.0]}, "detectors": 32}))
        assert cfg.parallel_geometry().n_angles == 3

    def test_empty_angle_list_rejected(self):
        bad = valid_config(geometry={"angles": {"list": []}, "detectors": 32})
        with pytest.raises(FormatError, match="geometry.angles.list must be nonempty"):
            parse_config(bad)

    def test_nan_in_angle_list_rejected(self):
        bad = valid_config(geometry={"angles": {"list": [0.0, float("nan")]},
                                     "detectors": 32})
        with pytest.raises(FormatError, match="explicit angles"):
            parse_config(bad)

    def test_missing_dictionary_file_rejected(self, tmp_path):
        bad = valid_config(dictionary={"type": "csv", "path": "absent.csv"})
        with pytest.raises(FormatError, match="does not exist"):
            parse_config(bad, base_dir=tmp_path)

    def test_version_checked(self):
        with pytest.raises(FormatError, match="config_version"):
            parse_config(valid_config(config_version=2))

    def test_unknown_phantom_rejected(self):
        with pytest.raises(FormatError, match="phantom"):
            parse_config(valid_config(phantom={"kind": "cube", "size": 8}))

    def test_missing_phantom_field_rejected(self):
        with pytest.raises(FormatError, match="missing key"):
            parse_config(valid_config(phantom={"kind": "disks", "size": 8}))

    @pytest.mark.parametrize("section,override", [
        ("binning", {"binning": {"energy_min": 5.0, "energy_max": 35.0}}),
        ("phantom", {"phantom": {"kind": "disks", "count": 4}}),
        ("phantom", {"phantom": {"kind": "disks", "size": 0, "count": 4}}),
        ("geometry", {"geometry": {"angles": {"count": 0, "stop": np.pi},
                                   "detectors": 32}}),
        ("material_rows", {"phantom": {"kind": "disks", "size": 32, "count": 7}}),
    ], ids=["no-channels", "no-size", "zero-size", "zero-angles",
            "more-materials-than-entries"])
    def test_unbuildable_section_rejected(self, section, override):
        with pytest.raises(FormatError, match=f"^{section} section"):
            parse_config(valid_config(**override))

    @pytest.mark.parametrize("section, override", [
        ("phantom", {"phantom": {"kind": "disks", "size": 32, "count": 4,
                                 "pixel_size": float("inf")}}),
        ("geometry", {"geometry": {"angles": {"count": 20, "stop": np.pi},
                                   "detectors": 32,
                                   "detector_spacing": float("inf")}}),
    ], ids=["pixel_size", "detector_spacing"])
    def test_infinite_spacing_in_a_config_file_rejected(self, tmp_path, section,
                                                        override):
        # the JSON reader accepts Infinity
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(valid_config(**override)))
        assert "Infinity" in path.read_text()
        with pytest.raises(FormatError, match=f"^{section} section invalid: "
                                              ".* must be positive and finite"):
            load_config(path)

    @pytest.mark.parametrize("method,params", [
        ("adjust", {"bogus": 1}),
        ("adjust", {"rho": 2.0}),
        ("ru", {"nmf_restarts": 0}),
        ("adjust", {"max_iter": 0}),
        ("adjust", {"step0": 0}),
        ("cjoint", {"max_iter": 0}),
        ("cjoint", {"step0": 0}),
    ], ids=["unknown-name", "bad-rho", "bad-restarts", "adjust-max_iter",
            "adjust-step0", "cjoint-max_iter", "cjoint-step0"])
    def test_bad_method_params_rejected(self, method, params):
        with pytest.raises(FormatError, match="^method_params"):
            parse_config(valid_config(method=method, method_params=params))

    @pytest.mark.parametrize("method", ["adjust", "cjoint"])
    def test_step0_is_an_unknown_parameter(self, method):
        with pytest.raises(FormatError, match=r"^method_params section invalid: "
                                              r"unknown method parameters: \['step0'\]"):
            parse_config(valid_config(method=method,
                                      method_params={"step0": 1.0}))

    @pytest.mark.parametrize("selection", [
        {"count": 0}, {"count": 9}, {"count": "abc"}, {"count": 2.0},
        {"count": True}, {}, 3,
    ], ids=["zero", "above-channels", "text", "float", "bool", "no-count",
            "not-a-section"])
    def test_bad_channel_selection_rejected(self, selection):
        with pytest.raises(FormatError, match="^channel_selection"):
            parse_config(valid_config(channel_selection=selection))

    @pytest.mark.parametrize("count", ["dictionary", 1, 8])
    def test_channel_selection_accepted(self, count):
        cfg = parse_config(valid_config(channel_selection={"count": count}))
        assert cfg.raw["channel_selection"] == {"count": count}

    def test_method_table_matches_configs_and_docs(self):
        for method, kinds in METHOD_PARAMS.items():
            config = method_config(method, {})
            assert set(kinds) <= {f.name for f in dataclasses.fields(config)}
            for name, kind in kinds.items():
                assert type(getattr(config, name)) is kind, (method, name)
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        words = {float: "number", int: "integer", bool: "boolean"}
        documented = {}
        for label, body in re.findall(r"^  - ([\w /]+): (.*(?:\n    .*)*)", doc,
                                      flags=re.M):
            for method in label.split(" / "):
                documented[method] = dict(re.findall(r"`(\w+)` \((\w+)\)", body))
        assert documented == {m: {n: words[k] for n, k in kinds.items()}
                              for m, kinds in METHOD_PARAMS.items()}

    @pytest.mark.parametrize("doc", ["README.md", "docs/formats.md"])
    def test_sample_configs_in_the_docs_load(self, doc):
        text = (Path(__file__).parents[1] / doc).read_text()
        samples = [block for block in re.findall(r"^```json\n(.*?)^```", text,
                                                 flags=re.M | re.S)
                   if "config_version" in block]
        assert samples
        for sample in samples:
            parse_config(json.loads(sample))

    @pytest.mark.parametrize("section,override", [
        ("noise", {"noise": {"poisson": False, "gaussian_percent": float("nan")}}),
        ("noise", {"noise": {"poisson": False, "gaussian_percent": float("inf")}}),
        ("noise", {"noise": {"poisson": "no"}}),
        ("noise", {"noise": {"poisson": 1}}),
        ("material_rows", {"material_rows": [0.9, 2.7, 3, 4]}),
        ("material_rows", {"material_rows": [0, 1, 2.0, 3]}),
        ("phantom", {"phantom": [1]}),
        ("noise", {"noise": 3}),
        ("dictionary", {"dictionary": "x"}),
        ("geometry", {"geometry": {"angles": [0.0, 1.0]}}),
        ("method_params", {"method_params": {"random_init": "no"}}),
        ("output_dir", {"output_dir": None}),
        *NOT_ARRAYS,
    ], ids=["gaussian-nan", "gaussian-inf", "poisson-text", "poisson-int",
            "rows-fractional", "rows-float", "phantom-list", "noise-number",
            "dictionary-text", "angles-list", "random_init-text",
            "output_dir-null", *NOT_ARRAY_IDS])
    def test_loosely_typed_value_rejected(self, section, override):
        with pytest.raises(FormatError, match=f"^{section} section invalid"):
            parse_config(valid_config(**override))

    @pytest.mark.parametrize("override,message", [
        ({"colour": "red"}, "unknown key 'colour' in the config"),
        ({"noise": {"poison": True}},
         "noise section invalid: unknown key 'poison' in noise"),
        ({"geometry": {"angles": {"count": 20, "stop": np.pi}, "detector": 7}},
         "geometry section invalid: unknown key 'detector' in geometry"),
        ({"geometry": {"angles": {"list": [0.0, 1.0], "count": 2}}},
         "geometry section invalid: unknown key 'count' in geometry.angles"),
        ({"phantom": {"kind": "shepp_logan", "size": 32, "materials": 3,
                      "count": 3}},
         "phantom section invalid: unknown key 'count' in phantom"),
        ({"binning": {"channels": 8, "energy_min": 5.0, "energy_max": 35.0,
                      "energy_step": 1.0}},
         "binning section invalid: unknown key 'energy_step' in binning"),
        ({"dictionary": {"type": "synthetic", "materials": 6, "path": "mu.csv"}},
         "dictionary section invalid: unknown key 'path' in dictionary"),
        ({"source": {"type": "flat", "photons": 1e4, "scale": 2.0}},
         "source section invalid: unknown key 'scale' in source"),
        ({"channel_selection": {"count": 3, "rule": "greedy"}},
         "channel_selection section invalid: unknown key 'rule' in "
         "channel_selection"),
    ], ids=["top-level", "noise", "geometry", "angles", "phantom", "binning",
            "dictionary", "source", "channel_selection"])
    def test_key_nothing_reads_rejected(self, override, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}; expected"):
            parse_config(valid_config(**override))

    @pytest.mark.parametrize("section,override", NOT_ARRAYS, ids=NOT_ARRAY_IDS)
    def test_array_field_that_is_not_an_array_rejected(self, section, override):
        with pytest.raises(FormatError, match=f"^{section} section invalid: "
                                              r"[\w.]+ must be a JSON array"):
            parse_config(valid_config(**override))

    @pytest.mark.parametrize("section,key,override", [
        ("phantom", "size", {"phantom": {"kind": "disks", "size": 16.9,
                                         "count": 4}}),
        ("phantom", "count", {"phantom": {"kind": "disks", "size": 32,
                                          "count": "4"}}),
        ("phantom", "pixel_size", {"phantom": {"kind": "disks", "size": 32,
                                               "count": 4, "pixel_size": "1"}}),
        ("geometry", "count", {"geometry": {"angles": {"count": "6",
                                                       "stop": np.pi}}}),
        ("geometry", "stop", {"geometry": {"angles": {"count": 6, "stop": "3"}}}),
        ("geometry", "angle", {"geometry": {"angles": {"list": [0.0, "1"]}}}),
        ("geometry", "detectors", {"geometry": {"angles": {"count": 6,
                                                           "stop": np.pi},
                                                "detectors": 32.0}}),
        ("binning", "channels", {"binning": {"channels": 8.5, "energy_min": 5.0,
                                             "energy_max": 35.0}}),
        ("binning", "energy_min", {"binning": {"channels": 8, "energy_min": True,
                                               "energy_max": 35.0}}),
        ("dictionary", "materials", {"dictionary": {"type": "synthetic",
                                                    "materials": "6"}}),
        ("source", "photons", {"source": {"type": "flat", "photons": "100"}}),
        ("noise", "gaussian_percent", {"noise": {"poisson": False,
                                                 "gaussian_percent": True}}),
        ("noise", "gaussian_percent", {"noise": {"poisson": False,
                                                 "gaussian_percent": "5"}}),
        ("seed", "seed", {"seed": 7.5}),
        ("seed", "seed", {"seed": "7"}),
        ("seed", "seed", {"seed": -1}),
        ("method_params", "eps_abs_tol", {"method_params": {"eps_abs_tol": True}}),
        ("method_params", "nmf_restarts", {"method": "ru",
                                           "method_params": {"nmf_restarts": True}}),
        ("method_params", "nmf_iters", {"method": "ru",
                                        "method_params": {"nmf_iters": 2.5}}),
        ("method_params", "cg_max_iter", {"method": "ru",
                                          "method_params": {"cg_max_iter": 2.5}}),
        ("method_params", "eps_rel_tol", {"method_params": {"eps_rel_tol": "1"}}),
        ("method_params", "tol", {"method": "cjoint",
                                  "method_params": {"tol": None}}),
    ], ids=["size-fractional", "count-text", "pixel_size-text", "angles-text",
            "stop-text", "angle-list-text", "detectors-float",
            "channels-fractional", "energy-bool", "materials-text",
            "photons-text", "gaussian-bool", "gaussian-text", "seed-fractional",
            "seed-text", "seed-negative", "eps_abs_tol-bool",
            "nmf_restarts-bool", "nmf_iters-fractional",
            "cg_max_iter-fractional", "eps_rel_tol-text", "tol-null"])
    def test_number_that_is_not_a_json_number_rejected(self, section, key,
                                                        override):
        with pytest.raises(FormatError,
                           match=f"^{section} section invalid: {key} must be"):
            parse_config(valid_config(**override))

    @pytest.mark.parametrize("raw", [[1, 2], "config", 3, None],
                             ids=["list", "string", "number", "null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, raw):
        with pytest.raises(FormatError, match="^a config must be a JSON object"):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "
                                              "a config must be a JSON object"):
            load_config(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(FormatError, match=r"broken\.json:2"):
            load_config(path)


class TestCsvWriters:
    def test_history_csv_round_trip(self, tmp_path):
        records = [IterationRecord(1, 2.5, 0.5, 0.25, 1.0, 0.5),
                   IterationRecord(2, 1.25, 0.4, 0.125, 2.0, 1.0)]
        path = tmp_path / "history.csv"
        write_history_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,objective,eps_abs,eps_rel,alpha,beta"
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == 2.5

    def test_results_csv_saturates_infinite_psnr(self, tmp_path):
        match = MatchResult(pairs=[(0, 0), (1, 1)], mse_values=[0.0, 1.0],
                            psnr_values=[np.inf, 20.0], ssim_values=[1.0, 0.5])
        path = tmp_path / "results.csv"
        write_results_csv(path, "adjust", match)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,material_rec,material_gt,mse,psnr,ssim"
        assert float(lines[1].split(",")[4]) == 99.0
        avg = lines[-1].split(",")
        assert avg[1] == "average"
        assert float(avg[4]) == pytest.approx((99.0 + 20.0) / 2)
