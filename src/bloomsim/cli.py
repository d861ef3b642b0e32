"""Configuration-driven command line entry point.

Every run is described by a JSON config file and a subcommand choosing the
pipeline: ``ode``, ``stability``, ``sim1d``, ``sim2d``, or ``sobol``.
Outputs land in a chosen directory together with ``manifest.json`` recording
the config hash, the seed, library versions, and the produced files, so a
rerun of the same config is reproducible (bit-identical CSVs up to
platform floating-point differences).  Numbers are written by
``bloomsim._textio`` with 17 significant digits (round-trip exact).

Flags: ``--config PATH --out DIR [--seed N] [--threads N]``; environment
variables ``BLOOM_CONFIG``, ``BLOOM_OUT``, ``BLOOM_SEED``, ``BLOOM_THREADS``
stand in for flags not given (empty counts as unset, malformed is a usage
error).  Stochastic subcommands (``sobol``) refuse to run without a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._textio import export_csv
from .core import DomainError, HomState, ModelParams, b_bar, default_params, q_hat, r0
from .mesh import load_gmsh_mesh, synthetic_lake_mesh, write_msh22
from .ode import extinction_state, find_equilibrium, integrate_homogeneous
from .sensitivity import (
    FACTOR_BOUNDS,
    FACTOR_NAMES,
    SobolProblem,
    run_sensitivity,
    write_report_csv,
    write_rows_csv,
)
from .solver1d import Field1D, Grid1D, integrate_1d, write_trajectory_csv
from .solver2d import Field2D, simulate_2d
from .stability import mode_sweep, write_spectrum_csv
from .vtkio import write_vtk
from .wind import SyntheticWind, aggregate_daily, parse_wind_records

__all__ = ["main", "run_config", "export_csv"]

SUBCOMMANDS = ("ode", "stability", "sim1d", "sim2d", "sobol")

_TOP_KEYS = {"schema_version", "params"} | set(SUBCOMMANDS)
_SECTION_KEYS = {
    "ode": {"initial", "t_end", "rtol", "atol", "samples"},
    "stability": {"equilibrium", "n_max", "wind_speed"},
    "sim1d": {"L", "Nx", "t_end", "rtol", "atol", "samples", "wind", "initial"},
    "sim2d": {"mesh", "dt", "t_end", "output_times", "wind", "initial"},
    "sobol": {
        "N", "L", "Nx", "horizon", "bin_days", "sample_every", "wind",
        "initial", "ranges",
    },
    "wind": {"mode", "amplitude", "period", "phase", "csv", "daily"},
    "initial_1d": {"kind", "B", "Q", "P", "B_base", "B_peak", "Q0", "P0", "center", "width"},
    "initial_2d": {"kind", "B", "Q", "P", "B_base", "B_peak", "Q0", "P0", "width"},
}
_PARAM_KEYS = {f.name for f in ModelParams.__dataclass_fields__.values()}


class ConfigError(ValueError):
    """Invalid run configuration."""


@contextmanager
def _reading(what: str):
    """Report a TypeError or ValueError raised while ``what`` (a config
    section or an input file it names) is read into objects as a
    :class:`ConfigError` naming it.  Solvers run outside these blocks, so
    their errors are never reported as usage errors."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _integer(section: dict, key: str, default: int) -> int:
    """``section[key]`` as an int; a ValueError, which :func:`_reading`
    reports as a :class:`ConfigError`, unless the value is integral."""
    value = section.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        pass
    else:
        if number.is_integer():
            return int(number)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _positive(section: dict, key: str, default: float) -> float:
    """``section[key]`` as a float; a ValueError, which :func:`_reading`
    reports as a :class:`ConfigError`, unless it is positive."""
    value = float(section.get(key, default))
    if not value > 0:
        raise ValueError(f"{key} must be positive, got {value!r}")
    return value


def _sample_times(section: dict, t_end: float, default: int) -> np.ndarray:
    """``section["samples"]`` times evenly spaced over [0, t_end]; a
    ValueError, which :func:`_reading` reports as a :class:`ConfigError`,
    unless there is at least one."""
    samples = _integer(section, "samples", default)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return np.linspace(0.0, t_end, samples)


def _reject_unknown(mapping: dict, allowed: set, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"bad {context} section: must be a JSON object, not {mapping!r}")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")


def load_config(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")
    version = config.get("schema_version", 1)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}")
    params_cfg = config.get("params", {})
    _reject_unknown(params_cfg, _PARAM_KEYS, "params")
    for name, keys in _SECTION_KEYS.items():
        if name in config and name in SUBCOMMANDS:
            _reject_unknown(config[name], keys, name)
    return config


def _params_from(config: dict) -> ModelParams:
    return default_params(**config.get("params", {}))


def _wind_from(section: dict | None, base_dir: Path):
    if not section:
        return None
    _reject_unknown(section, _SECTION_KEYS["wind"], "wind")
    mode = section.get("mode", "none")
    if mode == "none":
        return None
    if mode == "synthetic":
        return SyntheticWind(
            float(section.get("amplitude", 5.0)),
            float(section.get("period", 10.0)),
            float(section.get("phase", 0.0)),
        )
    if mode == "csv":
        if "csv" not in section:
            raise ValueError("wind mode 'csv' needs a 'csv' key naming the wind file")
        path = base_dir / section["csv"]
        if not path.exists():
            raise ConfigError(f"wind file not found: {path}")
        with _reading(f"wind file {path}"), open(path, "r", encoding="utf-8") as fh:
            series = parse_wind_records(fh)
        if section.get("daily", True):
            series = aggregate_daily(series)
        return series
    raise ConfigError(f"unknown wind mode {mode!r}")


def _initial(field_cls, section: dict | None, domain, params: ModelParams,
             keys: set, context: str):
    # validated initial fields of sim1d (Field1D on a grid) and sim2d (Field2D on a mesh)
    section = dict(section or {"kind": "bump"})
    _reject_unknown(section, keys, context)
    kind = section.pop("kind", "bump")
    if kind == "uniform":
        field = field_cls.uniform(
            domain,
            float(section.get("B", 5.0)),
            float(section.get("Q", 0.02)),
            float(section.get("P", params.P_h)),
        )
    elif kind == "bump":
        section.setdefault("P0", params.P_h if params.P_h > 0 else 0.005)
        field = field_cls.bump(domain, **{k: float(v) for k, v in section.items()})
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")
    field.validate(params)
    return field


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir: Path, config: dict, subcommand: str, seed, outputs, extra=None):
    manifest = {
        "subcommand": subcommand,
        "config_hash": _config_hash(config),
        "config": config,
        "seed": seed,
        "versions": {
            "bloomsim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": sorted(str(p.name) for p in outputs),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _run_ode(config, params, out_dir, seed, threads, base_dir):
    section = config.get("ode", {})
    with _reading("ode section"):
        initial = HomState(*[float(v) for v in section.get("initial", [5.0, 0.1, 0.15])])
        initial.check_quota(params)
        t_end = _positive(section, "t_end", 4000.0)
        t_eval = _sample_times(section, t_end, 401)
        rtol, atol = _positive(section, "rtol", 1e-8), _positive(section, "atol", 1e-11)
    traj = integrate_homogeneous(initial, params, t_end, rtol=rtol, atol=atol, t_eval=t_eval)
    rows = [
        (float(t), float(B), float(p), float(P), float(q))
        for t, B, p, P, q in zip(traj.t, traj.B, traj.p, traj.P, traj.quota())
    ]
    traj_path = out_dir / "trajectory.csv"
    export_csv(rows, ["t", "B", "p", "P", "Q"], traj_path)
    final = HomState(*np.maximum(traj.y[:, -1], 0.0))
    final_path = out_dir / "final_state.csv"
    export_csv(
        [(final.B, final.p, final.P, final.quota(params), r0(params))],
        ["B", "p", "P", "Q", "R0"],
        final_path,
    )
    return [traj_path, final_path], {"final_state": [final.B, final.p, final.P],
                                     "counters": traj.counters}


def _run_stability(config, params, out_dir, seed, threads, base_dir):
    section = config.get("stability", {})
    which = section.get("equilibrium", "extinction")
    with _reading("stability section"):
        n_max, wind_speed = _integer(section, "n_max", 30), float(section.get("wind_speed", 1.0))
        # the sweep's largest advection term, n_max a v, must be finite too
        if n_max < 1 or not np.isfinite(n_max * max(params.advection_scalars) * wind_speed):
            raise ValueError(f"need n_max >= 1 and a finite wind_speed up to mode n_max, "
                             f"got n_max={n_max}, wind_speed={wind_speed!r}")
    try:
        if which == "extinction":
            eq = extinction_state(params)
        elif which == "positive":
            eq, kind = find_equilibrium(params)
            if kind != "positive":
                raise ConfigError("no positive equilibrium exists for these parameters (R0 <= 1)")
        else:
            raise ConfigError(f"unknown equilibrium {which!r}")
    except DomainError as exc:  # no equilibrium at all (D = 0 with P_in > 0)
        raise ConfigError(f"bad stability section: {exc}") from exc
    spectra, verdict = mode_sweep(eq, n_max, wind_speed, params)
    spectrum_path = out_dir / "spectrum.csv"
    write_spectrum_csv(spectra, spectrum_path)
    summary_path = out_dir / "summary.csv"
    export_csv(
        [(r0(params), q_hat(params), b_bar(params), eq.B, eq.p, eq.P, verdict)],
        ["R0", "q_hat", "b_bar", "B", "p", "P", "verdict"],
        summary_path,
    )
    print(f"R0 = {r0(params):.6g}; {which} equilibrium is {verdict}")
    return [spectrum_path, summary_path], {"verdict": verdict, "R0": r0(params)}


def _run_sim1d(config, params, out_dir, seed, threads, base_dir):
    section = config.get("sim1d", {})
    with _reading("sim1d section"):
        grid = Grid1D(float(section.get("L", 1000.0)), _integer(section, "Nx", 101))
        wind = _wind_from(section.get("wind"), base_dir)
        initial = _initial(Field1D, section.get("initial"), grid, params,
                           _SECTION_KEYS["initial_1d"], "sim1d.initial")
        t_end = _positive(section, "t_end", 365.0)
        sample_times = _sample_times(section, t_end, 25)
        rtol, atol = _positive(section, "rtol", 1e-8), _positive(section, "atol", 1e-10)
    traj = integrate_1d(initial, grid, wind, params, t_end, rtol=rtol, atol=atol,
                        sample_times=sample_times)
    sol_path = out_dir / "solution.csv"
    write_trajectory_csv(traj, grid, sol_path)
    B_final = traj.B[:, -1]
    extinct = bool(np.abs(B_final).max() < 1e-3 * np.abs(initial.B).max())
    print(f"extinction: {'true' if extinct else 'false'}")
    summary_path = out_dir / "summary.csv"
    export_csv(
        [(t_end, float(B_final.max()), float(B_final.min()), "true" if extinct else "false")],
        ["t_end", "B_max", "B_min", "extinction"],
        summary_path,
    )
    return [sol_path, summary_path], {"extinction": extinct, "counters": traj.counters}


def _run_sim2d(config, params, out_dir, seed, threads, base_dir):
    section = config.get("sim2d", {})
    mesh_ref = section.get("mesh", "synthetic")
    with _reading("sim2d section"):
        if mesh_ref == "synthetic":
            mesh = synthetic_lake_mesh()
            write_msh22(mesh, out_dir / "mesh_used.msh")
        else:
            path = base_dir / mesh_ref
            if not path.exists():
                raise ConfigError(f"mesh file not found: {path}")
            with _reading(f"mesh file {path}"):
                mesh = load_gmsh_mesh(path)
        wind = _wind_from(section.get("wind"), base_dir)
        initial = _initial(Field2D, section.get("initial"), mesh, params,
                           _SECTION_KEYS["initial_2d"], "sim2d.initial")
        t_end = float(section.get("t_end", 50.0))
        output_times = [float(t) for t in
                        section.get("output_times", np.linspace(0.0, t_end, 6))]
        if not (output_times and all(0.0 <= t <= t_end for t in output_times)):
            raise ValueError(f"output_times must lie in [0, t_end = {t_end:g}]")
        dt = _positive(section, "dt", 0.5)
    snaps = simulate_2d(initial, mesh, wind, params, dt, t_end, output_times)
    Q = snaps.quota()
    outputs = []
    manifest_rows = []
    for i, t in enumerate(snaps.t):
        name = f"state_t{t:08.2f}.vtk"
        point_data = {"B": snaps.B[:, i], "p": snaps.p[:, i], "P": snaps.P[:, i], "Q": Q[:, i]}
        write_vtk(mesh, out_dir / name, point_data, title=f"lake state at t={t:g} d")
        outputs.append(out_dir / name)
        manifest_rows.append((float(t), name))
    index_path = out_dir / "snapshots.csv"
    export_csv(manifest_rows, ["t", "filename"], index_path)
    outputs.append(index_path)
    return outputs, {"n_snapshots": len(manifest_rows), "counters": snaps.counters}


def _run_sobol(config, params, out_dir, seed, threads, base_dir):
    if seed is None:
        raise ConfigError("the sobol subcommand requires an explicit --seed")
    section = config.get("sobol", {})
    with _reading("sobol section"):
        ranges = section.get("ranges", {})
        _reject_unknown(ranges, set(FACTOR_NAMES), "sobol.ranges")
        bounds = tuple(
            tuple(ranges.get(name, FACTOR_BOUNDS[name])) for name in FACTOR_NAMES
        )
        initial = dict(section.get("initial", {}))
        _reject_unknown(initial, {"B_base", "B_peak", "Q0", "P0"}, "sobol.initial")
        problem = SobolProblem(
            base_params=params,
            bounds=bounds,
            L=float(section.get("L", 1000.0)),
            Nx=_integer(section, "Nx", 41),
            horizon=float(section.get("horizon", 365.0)),
            bin_days=float(section.get("bin_days", 60.0)),
            sample_every=float(section.get("sample_every", 5.0)),
            wind=_wind_from(section.get("wind"), base_dir),
            **{k: float(v) for k, v in initial.items()},
        )
        N = _integer(section, "N", 256)
        if N < 2:
            raise ValueError(f"N must be at least 2, got {N}")
    report = run_sensitivity(problem, N, seed, n_jobs=threads)
    report_path = out_dir / "sobol_indices.csv"
    write_report_csv(report, report_path)
    rows_path = out_dir / "sobol_rows.csv"
    write_rows_csv(report, rows_path)
    ranking = sorted(
        zip(report.factors, report.ST_mean.mean(axis=1)), key=lambda kv: -kv[1]
    )
    print("mean total-order ranking: " + ", ".join(f"{k}={v:.3f}" for k, v in ranking))
    return [report_path, rows_path], {
        "ranking": [k for k, _ in ranking],
        "n_failed_blocks": report.n_failed_blocks,
        "row_failures": report.failures,
        "counters": report.counters,
    }


_HANDLERS = {"ode": _run_ode, "stability": _run_stability, "sim1d": _run_sim1d,
             "sim2d": _run_sim2d, "sobol": _run_sobol}


def run_config(
    config_path,
    subcommand: str,
    out_dir,
    seed: int | None = None,
    threads: int = 1,
) -> Path:
    """Execute one subcommand of a config file; returns the manifest path."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    config_path = Path(config_path)
    config = load_config(config_path)
    with _reading("params section"):
        params = _params_from(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_dir = config_path.parent

    outputs, extra = _HANDLERS[subcommand](config, params, out_dir, seed, threads, base_dir)
    return _write_manifest(out_dir, config, subcommand, seed, outputs, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bloomsim",
        description="Stoichiometric lake bloom model: ODE, stability, 1D/2D solvers, Sobol analysis.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=os.environ.get("BLOOM_CONFIG"), help="JSON config path")
    parser.add_argument("--out", default=os.environ.get("BLOOM_OUT") or "out", help="output directory")
    # argparse applies type=int to string defaults too: a malformed variable exits 2
    parser.add_argument("--seed", type=int, default=os.environ.get("BLOOM_SEED") or None,
                        help="seed for stochastic subcommands")
    parser.add_argument("--threads", type=int, default=os.environ.get("BLOOM_THREADS") or 1,
                        help="parallel model evaluations")
    args = parser.parse_args(argv)
    if not args.config:
        parser.error("--config is required (or set BLOOM_CONFIG)")

    try:
        manifest = run_config(args.config, args.subcommand, args.out, args.seed, args.threads)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
