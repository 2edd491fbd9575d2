"""Command-line front end.

Exit codes: 0 success, 2 usage errors (including non-finite numbers,
negative rates and durations, a --shift-deg of 0 or less or below
2**-511 rad (8.55e-153 degrees), more than 2**53 expected counts per
bin, 2**53 or more pooled over a sensing run's bins, --varphi-prime
without --pipeline, a manifest path that names an input or output of the
command, lies in a missing directory or is a directory, a tomography
setting with counts but a duration of 0, a tomography count or a dataset
total of 2**63 or more, files that cannot be read or written, and sizes
too large to allocate), 3 degenerate data (empty counts, vanishing
post-selection), 4 numerical failures (optimizers, fits, a fringe fit
that dips below zero counts).
Graph weights and phases are given in radians; physical waveplate
angles are reported in lab-frame degrees. Every command takes a seed
(flag or the WGSTATE_SEED environment variable) and its outputs are
byte-reproducible. Each output is written once from memory, then a JSON
manifest of the parameters and the outputs' sha256 digests. A failed run leaves
no file of its own, so if a manifest exists, its outputs exist and match it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .measurement import (Observable, _analyzer_axis, _axis_angles,
                          general_axis_observable, outcome_probabilities,
                          pauli_observable, solve_projector_batch, WaveplateSolverError)
from .metrology import (DerivativeVanishesError, SearchError, encoding_unitary,
                        general_axis_search, limits, pauli_search,
                        qfi_closed_form, sense)
from .qmath import PureState2Q, concurrence, fidelity
from .stategen import (DegeneratePostselectionError, NoiseModel, apply_noise,
                       canonical_config, mzi_phase_condition,
                       simulate_generation, weighted_graph_state)
from .stats import (MIN_SHIFT, BinnedCounts, CosineFitError, DegenerateDataError,
                    bootstrap_sensing, cosine_fit, visibility)
from .tomography import (ReconstructionError, dataset_csv, monte_carlo_report,
                         read_dataset_csv, simulate_tomography)

SCHEMA_VERSION = 1

_USAGE_EXIT = 2
_DEGENERATE_EXIT = 3
_NUMERICAL_EXIT = 4

# the largest expected count a float64 holds exactly; past it the Poisson
# draw and the rounding to int64 counts fail
_MAX_EXPECTED_COUNTS = 2 ** 53


def _finite_float(text: str) -> float:
    """argparse type for every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for rates and durations: finite and >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def _json_default(value):
    """What json.dumps cannot encode itself: an array as nested lists and
    a complex number as its [real, imag] pair."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot encode a {type(value).__name__} as JSON")


def _json_bytes(payload) -> bytes:
    """The one JSON encoding of every output and manifest, with the schema version."""
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return (json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n").encode()


def _outputs(args) -> list:
    """The command's output paths, in the order its manifest lists them;
    the --out of sense and fringe is the basename of a .json and a .csv."""
    if args.command in ("sense", "fringe"):
        return [args.out + ".json", args.out + ".csv"]
    return [args.out]


def _manifest_path(args) -> str:
    return args.manifest or _outputs(args)[0] + ".manifest.json"


def _emit(args, outputs: dict) -> None:
    """Write the outputs ({path: bytes}), then the manifest of their digests,
    each under a temporary name moved into place with os.replace, once any old
    manifest is removed. A failure removes every file written so far and re-raises."""
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": {os.path.basename(p): hashlib.sha256(data).hexdigest()
                    for p, data in outputs.items()},
    }
    if not args.no_timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    path = _manifest_path(args)
    files = {**outputs, path: _json_bytes(manifest)}
    suffix = f".{os.urandom(4).hex()}.tmp"
    written = []
    try:
        if os.path.lexists(path):
            os.remove(path)
        for path, data in files.items():
            with open(path + suffix, "xb") as fh:   # open's own mode: 0o666 less the umask
                written.append(path + suffix)
                fh.write(data)
            os.replace(path + suffix, path)
            written.append(path)
    except BaseException as exc:
        for name in written:
            with contextlib.suppress(OSError):
                os.remove(name)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _parse_observable(spec: str) -> Observable:
    """Observable spec: Pauli labels like 'ZY'/'Z,Y' or 'axis:b1,a1,b2,a2' (deg)."""
    spec = spec.strip()
    if spec.lower().startswith("axis:"):
        parts = spec[5:].split(",")
        if len(parts) != 4:
            raise ValueError("axis spec needs four comma-separated angles (degrees)")
        try:
            angles = [np.radians(_finite_float(p)) for p in parts]
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--observable {spec!r}: {exc}") from None
        return general_axis_observable(*angles)
    labels = [p.strip().upper() for p in (spec.split(",") if "," in spec else list(spec))]
    if len(labels) != 2:
        raise ValueError(f"cannot parse observable spec {spec!r}")
    return pauli_observable(labels[0], labels[1])


def _observable_payload(obs: Observable) -> dict:
    payload = {"label": obs.label, "weights": obs.weights}
    if obs.pauli_labels:
        payload["pauli_labels"] = list(obs.pauli_labels)
    if obs.axis_angles:
        payload["axis_angles_deg"] = [float(np.degrees(a)) for a in obs.axis_angles]
    return payload


def _observable_waveplates(obs: Observable) -> dict:
    """Lab waveplate settings for both projectors of both photons."""
    b1, a1, b2, a2 = obs.axis_angles or [angle for row in obs.coefficients
                                         for angle in _axis_angles(_analyzer_axis(row))]
    settings = solve_projector_batch([b1, b1, b2, b2], [a1, a1, a2, a2], ["+", "-", "+", "-"])
    return {f"photon{1 + k // 2}_{('plus', 'minus')[k % 2]}": {
                "hwp_deg": s.hwp_deg, "qwp_deg": s.qwp_deg, "residual": s.residual}
            for k, s in enumerate(settings)}


# ----------------------------------------------------------------- state

def _cmd_state(args) -> tuple[dict, str]:
    if args.varphi_prime is not None and not args.pipeline:
        raise ValueError("--varphi-prime applies only with --pipeline")
    if args.pipeline:
        cfg = canonical_config(args.phi12)
        if args.varphi_prime is not None:
            cfg = dataclasses.replace(cfg, varphi_prime=args.varphi_prime)
        result = simulate_generation(cfg)
        state = result.state
        payload = {
            "phi12": args.phi12,
            "method": "pipeline",
            "postselect_probability": result.postselect_probability,
            "mzi_phase_condition": mzi_phase_condition(args.phi12),
        }
    else:
        state = weighted_graph_state(args.phi12)
        payload = {"phi12": args.phi12, "method": "direct"}
    if args.noise:
        noise = NoiseModel(*args.noise)
        rho = apply_noise(state, noise)
        payload["density_matrix"] = rho.matrix
        payload["noise"] = vars(noise)
    else:
        rho = state.density()
        payload["amplitudes"] = state.amplitudes
    payload["fidelity_to_ideal"] = fidelity(rho, weighted_graph_state(args.phi12))
    payload["concurrence"] = concurrence(rho)
    return {args.out: _json_bytes(payload)}, (
        f"state(phi12={args.phi12:.4f}): fidelity to ideal "
        f"{payload['fidelity_to_ideal']:.2f}, concurrence {payload['concurrence']:.2f}")


# ------------------------------------------------------------------- qfi

def _cmd_qfi(args) -> tuple[dict, str]:
    if args.grid is not None:
        if args.grid < 2:
            raise ValueError("--grid needs at least two points")
        weights = np.linspace(0.0, np.pi, args.grid)
    else:
        weights = np.array([args.phi12])
    sql, hl = limits()
    lines = ["phi12,F_Q,QCRB,SQL,HL"]
    for w in weights:
        fq = qfi_closed_form(w)
        lines.append(f"{float(w)!r},{fq!r},{1.0 / fq!r},{sql!r},{hl!r}")
    return ({args.out: ("\n".join(lines) + "\n").encode()},
            f"qfi: wrote {len(weights)} rows to {args.out}")


# -------------------------------------------------------------- optimize

def _cmd_optimize(args) -> tuple[dict, str]:
    search = pauli_search if args.kind == "pauli" else general_axis_search
    obs, result = search(args.phi12, args.theta_star)
    payload = {
        "kind": args.kind,
        "phi12": args.phi12,
        "observable": _observable_payload(obs),
        **vars(result),
        "qcrb": 1.0 / qfi_closed_form(args.phi12),
        "waveplates": _observable_waveplates(obs),
    }
    return {args.out: _json_bytes(payload)}, (
        f"optimize[{args.kind}] phi12={args.phi12:.4f}: "
        f"(Dtheta)^2={result.estimator_variance:.2f}, |d<A>|={result.derivative_magnitude:.2f}")


# ----------------------------------------------------------------- sense

def _simulate_bins(state_amps, obs, theta, rate, duration, n_bins, rng):
    """n_bins acquisition bins of one setting, drawn in one Poisson call;
    it equals n_bins sequential draws of four counts and leaves the
    generator in the same state."""
    u = encoding_unitary(theta)
    probs = outcome_probabilities(PureState2Q(u @ state_amps), obs)
    return BinnedCounts(rng.poisson(rate * duration * probs, size=(n_bins, 4)), duration)


def _cmd_sense(args) -> tuple[dict, str]:
    if args.bins < 2:
        raise ValueError("--bins must be at least 2")
    if args.replicates < 100:
        raise ValueError("--replicates must be at least 100")
    if args.shift_deg <= 0:
        raise ValueError(f"--shift-deg must be > 0, got {args.shift_deg:g}")
    h = np.radians(args.shift_deg)
    if h < MIN_SHIFT:
        raise ValueError(f"--shift-deg must be at least {np.degrees(MIN_SHIFT):.3g} "
                         f"(2**-511 rad), got {args.shift_deg:g}")
    obs = _parse_observable(args.observable)
    if args.rate <= 0:
        raise DegenerateDataError("rate must be positive to accumulate counts")
    state = weighted_graph_state(args.phi12)
    rng = np.random.default_rng(args.seed)
    thetas = {"center": args.theta_star,
              "plus": args.theta_star + h,
              "minus": args.theta_star - h}
    bins = {name: _simulate_bins(state.amplitudes, obs, theta, args.rate,
                                 args.duration, args.bins, rng)
            for name, theta in thetas.items()}

    boot = bootstrap_sensing(bins["center"], bins["plus"], bins["minus"], h,
                             obs.weights, mu=args.replicates, seed=args.seed)

    def block(result):
        out = {"mean": result.mean, "ci95": [result.ci_low, result.ci_high]}
        if result.n_clamped:
            out["n_clamped"] = result.n_clamped
        return out

    ideal = sense(state, obs, args.theta_star)
    payload = {
        "phi12": args.phi12,
        "observable": _observable_payload(obs),
        "theta_star": args.theta_star,
        "shift_deg": args.shift_deg,
        "rate": args.rate, "duration": args.duration, "bins": args.bins,
        **{name: block(result) for name, result in vars(boot).items()},
        "ideal": vars(ideal),
    }
    # the shortest text that reads back as the same float: 10.0 is "10"
    duration = np.format_float_positional(args.duration, trim="-")
    csv_text = "setting,bin_index,n_pp,n_pm,n_mp,n_mm,duration\n" + "".join(
        f"{name},{i},{pp},{pm},{mp},{mm},{duration}\n"
        for name in bins for i, (pp, pm, mp, mm) in enumerate(bins[name].counts))
    json_path, csv_path = _outputs(args)
    ratio = boot.estimator_variance
    return {json_path: _json_bytes(payload), csv_path: csv_text.encode()}, (
        f"sense phi12={args.phi12:.4f} {obs.label}: (Dtheta)^2 = "
        f"{ratio.mean:.2f} [{ratio.ci_low:.2f}, {ratio.ci_high:.2f}]")


# ------------------------------------------------------------------ tomo

def _cmd_tomo_simulate(args) -> tuple[dict, str]:
    state = weighted_graph_state(args.phi12)
    if args.noise:
        state = apply_noise(state, NoiseModel(*args.noise))
    dataset = simulate_tomography(state, args.rate, args.duration,
                                  seed=args.seed, poisson=args.poisson)
    return ({args.out: dataset_csv(dataset).encode()},
            f"tomo simulate phi12={args.phi12:.4f}: total counts {dataset.total}")


def _cmd_tomo_reconstruct(args) -> tuple[dict, str]:
    if args.mc < 2:
        raise ValueError("--mc must be at least 2")
    dataset = read_dataset_csv(args.infile)
    target = weighted_graph_state(args.phi12)
    report = monte_carlo_report(dataset, target, n=args.mc, seed=args.seed,
                                likelihood=args.likelihood)
    payload = {
        "phi12": args.phi12,
        "mc_samples": report.mc_samples,
        "likelihood": args.likelihood,
        "density_matrix": report.rho.matrix,
        "fidelity_to_target": {"mean": report.fidelity_to_target,
                               "stdev": report.fidelity_stdev},
        "concurrence": {"mean": report.concurrence,
                        "stdev": report.concurrence_stdev},
        "point_fidelity": report.point_fidelity,
        "point_concurrence": report.point_concurrence,
    }
    return {args.out: _json_bytes(payload)}, (
        f"tomo reconstruct: fidelity {report.fidelity_to_target:.2f} "
        f"+/- {report.fidelity_stdev:.2f}, concurrence {report.concurrence:.2f} "
        f"+/- {report.concurrence_stdev:.2f}")


# ---------------------------------------------------------------- fringe

def _cmd_fringe(args) -> tuple[dict, str]:
    if args.steps < 4:
        raise ValueError("--steps must be at least 4")
    if not 0 <= args.contrast <= 1:
        raise ValueError("--contrast must lie in [0, 1]")
    start, stop = args.varphi_range
    if start == stop:
        raise ValueError("--varphi-range needs START != STOP")
    varphis = start + (stop - start) * np.arange(args.steps) / args.steps
    probs = (1 + args.contrast * np.cos(varphis)) / 2
    means = args.rate * args.duration * probs
    if args.exact:
        counts = means
    else:
        rng = np.random.default_rng(args.seed)
        counts = rng.poisson(means).astype(float)
    if counts.max() <= 0:
        raise DegenerateDataError("sweep recorded no counts")
    normalized = counts / counts.max()
    fit = cosine_fit(np.arange(args.steps, dtype=float), normalized)
    # counts are non-negative, so a fringe's minimum d - |a| is at most noise below 0
    if fit.d - abs(fit.a) < -1:
        raise CosineFitError(
            f"the fit dips to d - |a| = {fit.d - abs(fit.a):.3g} times the peak count, which "
            f"no fringe of counts does: the frequency is not identifiable from the span "
            f"--varphi-range {start:g} {stop:g}")
    vis = visibility(float(counts.max()), float(counts.min()))

    csv_text = "step,varphi,counts,normalized\n" + "".join(
        f"{i},{float(v)!r},{float(c)!r},{float(n)!r}\n"
        for i, (v, c, n) in enumerate(zip(varphis, counts, normalized)))
    payload = {
        "steps": args.steps, "rate": args.rate, "duration": args.duration,
        "contrast": args.contrast, "exact": bool(args.exact),
        "varphi_range": [start, stop],
        "fit": vars(fit),
        "visibility": vis,
    }
    json_path, csv_path = _outputs(args)
    return {json_path: _json_bytes(payload), csv_path: csv_text.encode()}, (
        f"fringe: visibility {vis:.2f}, fitted amplitude {abs(fit.a):.2f}")


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, whose ``--seed`` default is the current WGSTATE_SEED.

    The parser is built once per seed text and reused; parsing does not
    change it.
    """
    return _build_parser(os.environ.get("WGSTATE_SEED", "12345"))


@functools.lru_cache(maxsize=1)
def _build_parser(default_seed: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgstate",
        description="Simulation toolkit for tunable-weight two-qubit graph "
                    "states: generation, tomography, phase sensing and "
                    "bootstrap statistics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(parent, name, func, help, out_help=None, **defaults):
        """A subcommand with the options every command shares."""
        p = parent.add_parser(name, help=help)
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--seed", type=int, default=default_seed,
                       help="RNG seed (default: WGSTATE_SEED or 12345)")
        p.add_argument("--manifest", default=None,
                       help="manifest path (default: first output + .manifest.json)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from the manifest")
        p.set_defaults(func=func, **defaults)
        return p

    p = add_command(sub, "state", _cmd_state, "construct or simulate the weighted graph state")
    p.add_argument("--phi12", type=_finite_float, required=True,
                   help="graph weight (radians)")
    p.add_argument("--pipeline", action="store_true",
                   help="propagate through the optical train instead of the "
                        "direct construction")
    p.add_argument("--varphi-prime", type=_finite_float, default=None,
                   help="override the arm-phase difference (radians; pipeline only)")
    p.add_argument("--noise", nargs=2, type=_finite_float, metavar=("P", "SIGMA"),
                   default=None, help="depolarizing weight and phase-jitter sigma")

    p = add_command(sub, "qfi", _cmd_qfi, "quantum Fisher information and precision limits")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, default=None,
                       help="number of weights on [0, pi]")
    group.add_argument("--phi12", type=_finite_float, default=None)

    p = add_command(sub, "optimize", _cmd_optimize, "search for the best local measurement")
    p.add_argument("--phi12", type=_finite_float, required=True)
    p.add_argument("--kind", choices=("pauli", "general"), required=True)
    p.add_argument("--theta-star", type=_finite_float, default=0.0)

    p = add_command(sub, "sense", _cmd_sense, "simulate a sensing run with bootstrap errors",
                "output basename (.json/.csv)")
    p.add_argument("--phi12", type=_finite_float, required=True)
    p.add_argument("--observable", required=True,
                   help="'ZY', 'I,Y' or 'axis:b1,a1,b2,a2' (degrees)")
    p.add_argument("--rate", type=_non_negative_float, default=150.0,
                   help="coincidences/second")
    p.add_argument("--duration", type=_non_negative_float, default=10.0,
                   help="seconds per bin")
    p.add_argument("--bins", type=int, default=6)
    p.add_argument("--theta-star", type=_finite_float, default=0.0)
    p.add_argument("--shift-deg", type=_finite_float, default=5.0)
    p.add_argument("--replicates", type=int, default=10000)

    p = sub.add_parser("tomo", help="tomography simulation and reconstruction")
    tomo_sub = p.add_subparsers(dest="tomo_command", required=True)

    p = add_command(tomo_sub, "simulate", _cmd_tomo_simulate, "write a 16-setting dataset CSV",
                command="tomo simulate")
    p.add_argument("--phi12", type=_finite_float, required=True)
    p.add_argument("--rate", type=_non_negative_float, default=150.0)
    p.add_argument("--duration", type=_non_negative_float, default=10.0)
    p.add_argument("--poisson", action="store_true")
    p.add_argument("--noise", nargs=2, type=_finite_float, metavar=("P", "SIGMA"),
                   default=None)

    p = add_command(tomo_sub, "reconstruct", _cmd_tomo_reconstruct,
                "MLE + Monte Carlo from a dataset CSV", command="tomo reconstruct")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--phi12", type=_finite_float, required=True,
                   help="target graph weight for the fidelity report")
    p.add_argument("--mc", type=int, default=100)
    p.add_argument("--likelihood", choices=("gaussian", "poisson"),
                   default="gaussian")

    p = add_command(sub, "fringe", _cmd_fringe, "sweep the arm phase and fit the fringe",
                "output basename (.json/.csv)")
    p.add_argument("--varphi-range", nargs=2, type=_finite_float,
                   default=(0.0, 2 * np.pi), metavar=("START", "STOP"))
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--rate", type=_non_negative_float, default=150.0)
    p.add_argument("--duration", type=_non_negative_float, default=10.0)
    p.add_argument("--contrast", type=_finite_float, default=1.0,
                   help="fringe contrast of the simulated law")
    p.add_argument("--exact", action="store_true", help="skip Poisson sampling")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    expected = getattr(args, "rate", 0.0) * getattr(args, "duration", 0.0)
    if expected > _MAX_EXPECTED_COUNTS:
        parser.error(f"--rate * --duration must be at most 2**53 expected counts, "
                     f"got {expected:g}")
    # the bootstrap pools all bins of a setting; its sums are exact below 2**53
    pooled = expected * getattr(args, "bins", 0)
    if pooled >= _MAX_EXPECTED_COUNTS:
        parser.error(f"--rate * --duration * --bins must stay below 2**53 pooled "
                     f"counts, got {pooled:g}")
    # the manifest holds the outputs' digests, so it may replace no file the command uses
    manifest = _manifest_path(args)
    files = _outputs(args) + ([args.infile] if hasattr(args, "infile") else [])
    if os.path.abspath(manifest) in map(os.path.abspath, files):
        parser.error(f"manifest path {manifest} names an input or output of the command")
    # a manifest path known to be unwritable is refused before any computing starts
    if args.manifest and not os.path.isdir(os.path.dirname(manifest) or "."):
        parser.error(f"manifest path {manifest} is in a directory that does not exist")
    if os.path.isdir(manifest):
        parser.error(f"manifest path {manifest} is a directory")
    try:
        outputs, summary = args.func(args)
        _emit(args, outputs)
    except (DegenerateDataError, DegeneratePostselectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DEGENERATE_EXIT
    except (SearchError, WaveplateSolverError, CosineFitError,
            ReconstructionError, DerivativeVanishesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except MemoryError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
