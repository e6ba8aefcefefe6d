"""File formats: CSV tables, binary matrices, 16-bit PGM images, run configs.

All formats are documented in ``docs/formats.md``.  Loaders validate
eagerly and report the offending line; a failed load never returns a
partially filled object.  CSV files use a period as the decimal separator
regardless of locale.
"""

from __future__ import annotations

import copy
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import phantoms, solvers, spectral
from .evaluation import PSNR_SATURATION_DB
from .spectral import (AttenuationTable, ChannelBinning, NoiseConfig,
                       SourceSpectrum, SpectralDictionary)
from .tomo import Grid2D, ParallelGeometry, equispaced_angles

MATRIX_MAGIC = b"ADJM"
CONFIG_VERSION = 1
# the method_params each method accepts, fields of its solver config, and
# the JSON kind of each (see `_value`)
METHOD_PARAMS = {
    "adjust": {"rho": float, "max_iter": int, "eps_abs_tol": float,
               "eps_rel_tol": float, "random_init": bool},
    "cjoint": {"max_iter": int, "tol": float},
    **dict.fromkeys(("ru", "ur"), {"tikhonov_lambda": float, "cg_max_iter": int,
                                   "cg_tol": float, "nmf_iters": int,
                                   "nmf_restarts": int}),
}
# each phantom kind is the name of its generator in `phantoms`, mapped to
# the key of the phantom section that holds its material count
PHANTOM_KINDS = {"shepp_logan": "materials", "disks": "count",
                 "mixed_disks": "materials"}
# the sections every config holds, then its optional top-level keys
_REQUIRED_KEYS = ("phantom", "geometry", "binning", "dictionary", "source",
                  "method", "output_dir")
_OPTIONAL_KEYS = ("config_version", "seed", "noise", "method_params",
                  "material_rows", "channel_selection")


class FormatError(ValueError):
    """Malformed input file; the message carries the position when known."""


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def load_attenuation_csv(path) -> AttenuationTable:
    """Read a table of curves on one energy grid, attenuations or a source
    spectrum: header ``energy_keV,<name1>,...``, one row per energy,
    energies strictly ascending, values nonnegative."""
    path = Path(path)
    lines = _read_csv_lines(path)
    header = lines[0][1]
    if len(header) < 2 or header[0] != "energy_keV":
        raise FormatError(f"{path}:1: header must be 'energy_keV,<name1>,...', "
                          f"got {','.join(header)!r}")
    names = header[1:]
    energies, rows = [], []
    for ln, fields in lines[1:]:
        if len(fields) != len(header):
            raise FormatError(f"{path}:{ln}: expected {len(header)} fields, "
                              f"got {len(fields)}")
        values = [_parse_float(path, ln, f) for f in fields]
        if energies and values[0] <= energies[-1]:
            raise FormatError(f"{path}:{ln}: energy {values[0]} does not "
                              f"ascend past {energies[-1]}")
        if any(v < 0 for v in values[1:]):
            raise FormatError(f"{path}:{ln}: negative value")
        energies.append(values[0])
        rows.append(values[1:])
    if len(energies) < 2:
        raise FormatError(f"{path}: need at least two energy rows")
    return AttenuationTable(material_names=names,
                            energy_grid=np.array(energies),
                            mu=np.array(rows).T)


def save_attenuation_csv(path, table: AttenuationTable) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("energy_keV," + ",".join(table.material_names) + "\n")
        for i, e in enumerate(table.energy_grid):
            row = ",".join(_fmt(v) for v in table.mu[:, i])
            fh.write(f"{_fmt(e)},{row}\n")


def source_from_csv(path, binning: ChannelBinning, scale: float = 1.0) -> SourceSpectrum:
    """A tabulated source spectrum, header ``energy_keV,intensity``, times
    `scale`: a one-column table read and sampled at the channel centers as
    a dictionary is, with every intensity positive."""
    table = load_attenuation_csv(path)
    if table.material_names != ["intensity"]:
        raise FormatError(f"{path}:1: header must be 'energy_keV,intensity'")
    zero = table.energy_grid[table.mu[0] <= 0]
    if zero.size:
        raise FormatError(f"{path}: intensity at {zero[0]} keV must be positive")
    try:
        dictionary = spectral.bin_attenuation(table, binning)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return SourceSpectrum(scale * dictionary.T[0])


def _read_csv_lines(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == "":
            continue
        out.append((ln, [f.strip() for f in raw.split(",")]))
    if not out:
        raise FormatError(f"{path}: empty file")
    return out


def _parse_float(path, ln, text) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise FormatError(f"{path}:{ln}: not a number: {text!r}") from exc
    if not np.isfinite(value):
        raise FormatError(f"{path}:{ln}: non-finite value: {text!r}")
    return value


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# binary matrix format
# ---------------------------------------------------------------------------

def save_matrix(path, matrix: np.ndarray) -> None:
    """Write magic ``ADJM``, u32 rows, u32 cols, then row-major
    little-endian float64 payload."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_matrix(path) -> np.ndarray:
    """The matrix in the file at `path`; its size is checked against the
    header first, and the payload is read straight into the result."""
    path = Path(path)
    with open(path, "rb") as fh:
        rows, cols = _matrix_header(path, fh.read(12))
        expected = 12 + rows * cols * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatError(f"{path}: expected {expected} bytes for "
                              f"{rows}x{cols}, got {size}")
        data = np.fromfile(fh, dtype="<f8", count=rows * cols)
    return data.reshape(rows, cols).astype(np.float64, copy=False)


def matrix_shape(path) -> tuple[int, int]:
    """The (rows, cols) in the header of the matrix file at `path`, read
    without its payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _matrix_header(path, fh.read(12))


def _matrix_header(path: Path, head: bytes) -> tuple[int, int]:
    if head[:4] != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}")
    if len(head) < 12:
        raise FormatError(f"{path}: truncated header")
    return struct.unpack("<II", head[4:12])


# ---------------------------------------------------------------------------
# 16-bit PGM export
# ---------------------------------------------------------------------------

def export_pgm16(path, image: np.ndarray, vmin: float, vmax: float) -> None:
    """Binary 16-bit PGM with linear scaling of [vmin, vmax] to [0, 65535];
    values outside the range are clamped.  Samples are big-endian per the
    PGM specification."""
    if not vmin < vmax:
        raise ValueError(f"need vmin < vmax, got [{vmin}, {vmax}]")
    img = np.atleast_2d(np.asarray(image, dtype=np.float64))
    scaled = np.clip((img - vmin) / (vmax - vmin), 0.0, 1.0)
    q = np.rint(scaled * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii"))
        fh.write(q.tobytes())


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """A checked experiment description; see docs/formats.md for the schema.

    `parse_config` builds every section once and keeps it here, so the CSV
    files are read once, and `simulate` uses what was checked.  `raw` is
    the checked config, read for its strings (`method`, `output_dir`,
    `phantom.kind`) and recorded whole in the manifest.  The commands after
    `simulate` never see a `RunConfig`: they read the run directory, whose
    manifest records the geometry `simulate` used and keeps `raw` for the
    method and its `method_params`."""

    raw: dict
    seed: int
    binning: ChannelBinning
    dictionary: SpectralDictionary
    source: SourceSpectrum
    noise: NoiseConfig
    material_rows: np.ndarray       # the dictionary row of each phantom material
    channel_count: int | None       # the channels `channel_selection` keeps

    def grid(self) -> Grid2D:
        return _grid(self.raw)

    def parallel_geometry(self) -> ParallelGeometry:
        return _parallel_geometry(self.raw)

    def phantom_map(self, grid: Grid2D) -> phantoms.MaterialMap:
        """Render the phantom on `grid`; a limit of its generator raises a
        `FormatError` naming the phantom section."""
        generate = getattr(phantoms, self.raw["phantom"]["kind"])
        return _build("phantom", generate, grid.nx, self.material_rows.size, grid)


# what `_value` calls each JSON kind in its errors
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", dict: "a JSON object", list: "a JSON array"}


def _value(value, name: str, kind: type = float):
    """`value` if it is a JSON value of `kind` (`float`, `int`, `bool`,
    `str`, `dict` or `list`), a number as a float where `kind` is `float`;
    anything else (a bool as a number, a string or a fraction as a count)
    raises `TypeError`."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _seed(value) -> int:
    seed = _value(value, "seed", int)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def method_config(method: str, params: dict, seed: int = 0, callback=None):
    """The solver config of `method` built from its `method_params` and
    `seed`, each read as the JSON kind `METHOD_PARAMS` gives it; an unknown
    method or name, a value of another kind, a negative seed or a value the
    config rejects raises `FormatError`."""
    if method not in METHOD_PARAMS:
        raise FormatError(f"unknown method {method!r}; "
                          f"choose from {tuple(METHOD_PARAMS)}")
    kinds = METHOD_PARAMS[method]
    unknown = set(params) - set(kinds)
    if unknown:
        raise FormatError(f"unknown method parameters: {sorted(unknown)}; "
                          f"supported: {sorted(kinds)}")
    try:
        seed = _seed(seed)
        params = {name: _value(v, name, kinds[name]) for name, v in params.items()}
        if method == "adjust":
            return solvers.AapmConfig(seed=seed, callback=callback, **params)
        if method == "cjoint":
            return solvers.CjointConfig(callback=callback, **params)
        return solvers.TwoStepConfig(seed=seed, **params)
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def read_json(path):
    """The JSON value in the file at `path`; text that is not JSON raises a
    `FormatError` naming the file and the line."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def load_config(path, edit=None) -> RunConfig:
    """Read and check a JSON config file; `edit`, if given, rewrites the
    raw dict before the check (the CLI's preset and flag overrides)."""
    path = Path(path)
    raw = read_json(path)
    _check_object(raw, f"{path}: ")
    if edit is not None:
        raw = edit(raw)
    return parse_config(raw, base_dir=path.parent)


def config_output_dir(path) -> str:
    """The `output_dir` of the config file at `path`, all that the commands
    after `simulate` take from a config; the rest of it is not read."""
    raw = read_json(path)
    _check_object(raw, f"{path}: ")
    return _build("output_dir", _value, raw.get("output_dir"), "output_dir", str)


def parse_config(raw: dict, base_dir: Path | str = ".") -> RunConfig:
    """Check a config and return it as a `RunConfig` that holds its own copy
    of it, with the CSV paths resolved against `base_dir`.  Every value is
    read through `_value`, and each section is built here once, by one
    builder below, and kept in the `RunConfig`, so a bad one fails before
    anything is simulated or written, with a `FormatError` that starts with
    its name; only the phantom generator's own limits wait for `simulate`,
    which reports them the same way.  A key that nothing reads, at the top
    level or in a section, is refused."""
    _check_object(raw)
    raw = copy.deepcopy(raw)
    version = raw.get("config_version")
    if version != CONFIG_VERSION:
        raise FormatError(f"unsupported config_version {version!r}, "
                          f"expected {CONFIG_VERSION}")
    _only(raw, "the config", _REQUIRED_KEYS + _OPTIONAL_KEYS)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise FormatError(f"config missing required section {key!r}")

    method = _build("method", _value, raw["method"], "method", str)
    _build("output_dir", _value, raw["output_dir"], "output_dir", str)
    seed = _build("seed", _seed, raw.get("seed", 0))
    for section in ("dictionary", "source"):
        _build(section, _resolve_csv_path, raw, section, base_dir)
    _build("phantom", _grid, raw)
    n_materials = _build("phantom", _n_phantom_materials, raw)
    _build("geometry", _parallel_geometry, raw)
    binning = _build("binning", _channel_binning, raw)
    dictionary = _build("dictionary", _spectral_dictionary, raw, binning)
    n_dict = dictionary.n_materials
    source = _build("source", _source_spectrum, raw, binning)
    noise = _build("noise", _noise_config, raw)
    rows = _build("material_rows", _dictionary_rows, raw, n_materials, n_dict)
    count = _build("channel_selection", _channel_count, raw, n_dict,
                   binning.n_channels)
    _build("method", method_config, method, {})
    params = _build("method_params", _value, raw.get("method_params", {}),
                    "method_params", dict)
    _build("method_params", method_config, method, params)
    return RunConfig(raw=raw, seed=seed, binning=binning, dictionary=dictionary,
                     source=source, noise=noise, material_rows=rows,
                     channel_count=count)


def _resolve_csv_path(raw: dict, section: str, base_dir) -> None:
    """Make the ``path`` of a ``csv`` section absolute or relative to the
    working directory, in place in `raw`; the file must exist."""
    spec = _section(raw, section)
    if spec.get("type") == "csv":
        csv_path = Path(base_dir) / _value(spec["path"], "path", str)
        if not csv_path.exists():
            raise ValueError(f"file does not exist: {csv_path}")
        spec["path"] = str(csv_path)


def _section(raw: dict, name: str, keys=None) -> dict:
    """The config section `name`, which must be a JSON object, holding no
    key outside `keys` if they are given."""
    spec = _value(raw.get(name, {}), name, dict)
    return spec if keys is None else _only(spec, name, keys)


def _only(spec: dict, name: str, keys) -> dict:
    """`spec`, the config object `name`, if it holds no key outside `keys`:
    nothing would read such a key, so a misspelt one would go unnoticed."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise FormatError(f"unknown key {unknown[0]!r} in {name}; expected "
                          f"one of {', '.join(keys)}")
    return spec


def _grid(raw: dict) -> Grid2D:
    phantom = _section(raw, "phantom")
    n = _value(phantom["size"], "size", int)
    return Grid2D(n, n, _value(phantom.get("pixel_size", 1.0), "pixel_size"))


def _parallel_geometry(raw: dict) -> ParallelGeometry:
    spec = _section(raw, "geometry", ("angles", "detectors", "detector_spacing"))
    ang = _value(spec["angles"], "angles", dict)
    _only(ang, "geometry.angles",
          ("list",) if "list" in ang else ("count", "start", "stop"))
    if "list" in ang:
        angles = np.array([_value(a, "angle")
                           for a in _value(ang["list"], "angles.list", list)],
                          dtype=np.float64)
        if angles.size == 0:
            raise ValueError("geometry.angles.list must be nonempty")
        if not np.all((angles >= 0) & (angles < 2 * np.pi)):
            raise ValueError("explicit angles must lie in [0, 2*pi)")
    else:
        start = _value(ang.get("start", 0.0), "start")
        stop = _value(ang["stop"], "stop")
        if not 0.0 <= start < stop <= 2 * np.pi:
            raise ValueError(f"angle range [{start}, {stop}) must be a "
                             "subset of [0, 2*pi)")
        angles = equispaced_angles(_value(ang["count"], "count", int),
                                   start, stop)
    n_det = _value(spec.get("detectors", _section(raw, "phantom")["size"]),
                   "detectors", int)
    spacing = _value(spec.get("detector_spacing", 1.0), "detector_spacing")
    return ParallelGeometry(angles=angles, n_det=n_det, det_spacing=spacing)


def _n_phantom_materials(raw: dict) -> int:
    phantom = _section(raw, "phantom")
    kind = _value(phantom["kind"], "kind", str)
    if kind not in PHANTOM_KINDS:
        raise ValueError(f"unknown phantom kind {kind!r}; "
                         f"choose from {tuple(PHANTOM_KINDS)}")
    key = PHANTOM_KINDS[kind]
    _only(phantom, "phantom", ("kind", "size", "pixel_size", key))
    return _value(phantom[key], key, int)


def _channel_binning(raw: dict) -> ChannelBinning:
    b = _section(raw, "binning", ("channels", "energy_min", "energy_max"))
    return ChannelBinning.equidistant(_value(b["channels"], "channels", int),
                                      _value(b["energy_min"], "energy_min"),
                                      _value(b["energy_max"], "energy_max"))


def _spectral_dictionary(raw: dict, binning: ChannelBinning) -> SpectralDictionary:
    spec = _section(raw, "dictionary")
    if spec["type"] == "synthetic":
        _only(spec, "dictionary", ("type", "materials", "peak", "edge_jump"))
        return spectral.kedge_dictionary(
            _value(spec["materials"], "materials", int), binning,
            peak=_value(spec.get("peak", 0.1), "peak"),
            edge_jump=_value(spec.get("edge_jump", 6.0), "edge_jump"))
    if spec["type"] == "csv":
        _only(spec, "dictionary", ("type", "path"))
        return spectral.bin_attenuation(load_attenuation_csv(spec["path"]),
                                        binning)
    raise ValueError(f"unknown dictionary type {spec['type']!r}")


def _source_spectrum(raw: dict, binning: ChannelBinning) -> SourceSpectrum:
    spec = _section(raw, "source")
    if spec["type"] == "flat":
        _only(spec, "source", ("type", "photons"))
        return SourceSpectrum.flat(
            binning.n_channels, _value(spec.get("photons", 1e4), "photons"))
    if spec["type"] == "csv":
        _only(spec, "source", ("type", "path", "scale"))
        return source_from_csv(spec["path"], binning,
                               scale=_value(spec.get("scale", 1.0), "scale"))
    raise ValueError(f"unknown source type {spec['type']!r}")


def _noise_config(raw: dict) -> NoiseConfig:
    noise = _section(raw, "noise", ("poisson", "gaussian_percent"))
    return NoiseConfig(
        poisson=_value(noise.get("poisson", False), "poisson", bool),
        gaussian_percent=_value(noise.get("gaussian_percent", 0.0),
                                "gaussian_percent"))


def _dictionary_rows(raw: dict, m: int, n_dict: int) -> np.ndarray:
    """The dictionary row of each of the `m` phantom materials:
    `material_rows`, or by default rows spread evenly over the dictionary."""
    if m > n_dict:
        raise ValueError(f"phantom has {m} materials but the dictionary "
                         f"only {n_dict} entries")
    if raw.get("material_rows") is None:
        return np.round(np.linspace(0, n_dict - 1, m)).astype(int)
    rows = np.array([_value(r, "each row", int) for r in
                     _value(raw["material_rows"], "material_rows", list)],
                    dtype=int)
    if rows.size != m or len(set(rows.tolist())) != m:
        raise ValueError("must list one distinct dictionary row per "
                         "phantom material")
    if rows.min() < 0 or rows.max() >= n_dict:
        raise ValueError(f"rows must lie in [0, {n_dict - 1}], "
                         f"got {rows.tolist()}")
    return rows


def _channel_count(raw: dict, n_dict: int, n_channels: int) -> int | None:
    """How many of the `n_channels` channels `simulate` keeps by
    `channel_selection`, or None to keep them all; ``"dictionary"`` means
    one per dictionary entry."""
    if raw.get("channel_selection") is None:
        return None
    count = _section(raw, "channel_selection", ("count",)).get("count")
    k = n_dict if count == "dictionary" else count
    if not (type(k) is int and 1 <= k <= n_channels):
        raise ValueError(f"count must be an integer in [1, {n_channels}] "
                         "or 'dictionary' (one channel per dictionary "
                         f"entry, {n_dict} here), got {count!r}")
    return k


def _check_object(raw, where: str = "") -> None:
    if not isinstance(raw, dict):
        raise FormatError(f"{where}a config must be a JSON object, "
                          f"got {type(raw).__name__}")


def _build(section: str, build, *args):
    """``build(*args)``, with its error raised as a `FormatError` naming `section`."""
    try:
        return build(*args)
    except KeyError as exc:
        raise FormatError(f"{section} section missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{section} section invalid: {exc}") from exc


@contextmanager
def history_csv(path):
    """Open an iteration-history CSV and yield a function that appends one
    `IterationRecord` as a row and flushes it, so a run that is cut short
    leaves every row written so far."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,objective,eps_abs,eps_rel,alpha,beta\n")

        def write(r):
            fh.write(f"{r.iteration},{_fmt(r.objective)},{_fmt(r.eps_abs)},"
                     f"{_fmt(r.eps_rel)},{_fmt(r.alpha)},{_fmt(r.beta)}\n")
            fh.flush()

        yield write


def write_history_csv(path, records) -> None:
    with history_csv(path) as write:
        for r in records:
            write(r)


def capped_psnr(match) -> tuple[list[float], float]:
    """The per-pair PSNR values with ``+inf`` (an exact match) as
    `PSNR_SATURATION_DB`, and their mean: the ``psnr_avg`` of both
    ``results.csv`` and ``report.json``."""
    psnr = [PSNR_SATURATION_DB if p == np.inf else p for p in match.psnr_values]
    return psnr, float(np.mean(psnr))


def write_results_csv(path, method: str, match) -> None:
    """Per-pair metric rows plus an ``average`` row; ``+inf`` PSNR values
    are written as `PSNR_SATURATION_DB`."""
    psnr, psnr_avg = capped_psnr(match)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,material_rec,material_gt,mse,psnr,ssim\n")
        for (i, j), m, p, s in zip(match.pairs, match.mse_values, psnr,
                                   match.ssim_values):
            fh.write(f"{method},{i},{j},{_fmt(m)},{_fmt(p)},{_fmt(s)}\n")
        fh.write(f"{method},average,average,{_fmt(match.mse_avg)},"
                 f"{_fmt(psnr_avg)},{_fmt(match.ssim_avg)}\n")


def write_spectra_csv(path, F: np.ndarray, centers) -> None:
    """Recovered spectra, one row per channel: the channel index, its
    center energy, then one column per material."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ",".join(f"material_{m}" for m in range(F.shape[0]))
        fh.write(f"channel,energy_keV,{cols}\n")
        for c in range(F.shape[1]):
            vals = ",".join(_fmt(v) for v in F[:, c])
            fh.write(f"{c},{_fmt(centers[c])},{vals}\n")
