"""Command-line front end.

Exit codes: 0 success, 2 usage errors (including non-finite numbers,
negative rates and durations, more than 2**53 expected counts, files
that cannot be read or written, and sizes too large to allocate),
3 degenerate data (empty counts, vanishing post-selection), 4 numerical
failures (optimizers, fits, a fringe fit that dips below zero counts).
Graph weights and phases are given in radians; physical waveplate
angles are reported in lab-frame degrees. Every command takes a seed
(flag or the WGSTATE_SEED environment variable) and its outputs are
byte-reproducible; a JSON manifest listing parameters up front and
sha256 digests of the outputs is written alongside them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .measurement import (Observable, general_axis_observable,
                          outcome_probabilities, pauli_observable,
                          solve_projector_waveplates, WaveplateSolverError)
from .metrology import (DerivativeVanishesError, SearchError, SensingConfig,
                        encoding_unitary, general_axis_search, limits,
                        pauli_search, qfi_closed_form, sense)
from .qmath import PureState2Q, concurrence, fidelity
from .stategen import (DegeneratePostselectionError, GenerationConfig,
                       NoiseModel, apply_noise, canonical_config,
                       mzi_phase_condition, simulate_generation,
                       weighted_graph_state)
from .stats import (BinnedCounts, BootstrapConfig, CosineFitError,
                    DegenerateDataError, bootstrap_sensing, cosine_fit,
                    visibility)
from .tomography import (ReconstructionError, monte_carlo_report,
                         read_dataset_csv, simulate_tomography,
                         write_dataset_csv)

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


def _complex_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def _matrix_pairs(matrix) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _write_manifest(args, outputs: list) -> None:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    if not args.no_timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(args.manifest or (outputs[0] + ".manifest.json"), manifest)


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


_PAULI_AXES = {"I": (0.0, 0.0), "Z": (0.0, 0.0),
               "X": (np.pi / 2, 0.0), "Y": (np.pi / 2, np.pi / 2)}


def _observable_waveplates(obs: Observable) -> dict:
    """Lab waveplate settings for both projectors of both photons."""
    if obs.axis_angles is not None:
        axes = [(obs.axis_angles[0], obs.axis_angles[1]),
                (obs.axis_angles[2], obs.axis_angles[3])]
    else:
        axes = [_PAULI_AXES[l] for l in obs.pauli_labels]
    out = {}
    for photon, (beta, alpha) in enumerate(axes, start=1):
        for outcome in "+-":
            setting = solve_projector_waveplates(beta, alpha, outcome)
            out[f"photon{photon}_{'plus' if outcome == '+' else 'minus'}"] = {
                "hwp_deg": setting.hwp_deg, "qwp_deg": setting.qwp_deg,
                "residual": setting.residual,
            }
    return out


# ----------------------------------------------------------------- state

def _cmd_state(args) -> int:
    if args.pipeline:
        cfg = canonical_config(args.phi12)
        if args.varphi_prime is not None:
            cfg = GenerationConfig(hwp_r2=cfg.hwp_r2, hwp_l2=cfg.hwp_l2,
                                   phi_prime_12=cfg.phi_prime_12,
                                   varphi_prime=args.varphi_prime)
        result = simulate_generation(cfg)
        state = result.state
        payload = {
            "schema_version": SCHEMA_VERSION,
            "phi12": args.phi12,
            "method": "pipeline",
            "postselect_probability": result.postselect_probability,
            "mzi_phase_condition": mzi_phase_condition(args.phi12),
        }
    else:
        state = weighted_graph_state(args.phi12)
        payload = {"schema_version": SCHEMA_VERSION, "phi12": args.phi12,
                   "method": "direct"}
    if args.noise:
        p, sigma = args.noise
        rho = apply_noise(state, NoiseModel(depolarizing_p=p, phase_jitter_sigma=sigma))
        payload["density_matrix"] = _matrix_pairs(rho.matrix)
        payload["noise"] = {"depolarizing_p": p, "phase_jitter_sigma": sigma}
        payload["fidelity_to_ideal"] = fidelity(rho, weighted_graph_state(args.phi12))
        payload["concurrence"] = concurrence(rho)
    else:
        payload["amplitudes"] = _complex_pairs(state.amplitudes)
        payload["fidelity_to_ideal"] = fidelity(state.density(),
                                                weighted_graph_state(args.phi12))
        payload["concurrence"] = concurrence(state.density())
    _write_json(args.out, payload)
    _write_manifest(args, [args.out])
    print(f"state(phi12={args.phi12:.4f}): fidelity to ideal "
          f"{payload['fidelity_to_ideal']:.2f}, concurrence {payload['concurrence']:.2f}")
    return 0


# ------------------------------------------------------------------- qfi

def _cmd_qfi(args) -> int:
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
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(args, [args.out])
    print(f"qfi: wrote {len(weights)} rows to {args.out}")
    return 0


# -------------------------------------------------------------- optimize

def _cmd_optimize(args) -> int:
    cfg = SensingConfig(phi12=args.phi12, theta_star=args.theta_star,
                        h=np.radians(args.shift_deg))
    if args.kind == "pauli":
        obs, result = pauli_search(args.phi12, cfg)
    else:
        obs, result = general_axis_search(args.phi12, cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": args.kind,
        "phi12": args.phi12,
        "observable": _observable_payload(obs),
        "expectation": result.expectation,
        "derivative_magnitude": result.derivative_magnitude,
        "single_shot_variance": result.single_shot_variance,
        "estimator_variance": result.estimator_variance,
        "qcrb": 1.0 / qfi_closed_form(args.phi12),
        "waveplates": _observable_waveplates(obs),
    }
    _write_json(args.out, payload)
    _write_manifest(args, [args.out])
    print(f"optimize[{args.kind}] phi12={args.phi12:.4f}: "
          f"(Dtheta)^2={result.estimator_variance:.2f}, "
          f"|d<A>|={result.derivative_magnitude:.2f}")
    return 0


# ----------------------------------------------------------------- sense

def _simulate_bins(state_amps, obs, theta, rate, duration, n_bins, rng):
    """n_bins acquisition bins of one setting, drawn in one Poisson call;
    it equals n_bins sequential draws of four counts and leaves the
    generator in the same state."""
    u = encoding_unitary(theta)
    probs = outcome_probabilities(PureState2Q(u @ state_amps), obs)
    return BinnedCounts(rng.poisson(rate * duration * probs, size=(n_bins, 4)), duration)


def _cmd_sense(args) -> int:
    if args.bins < 2:
        raise ValueError("--bins must be at least 2")
    if args.replicates < 100:
        raise ValueError("--replicates must be at least 100")
    obs = _parse_observable(args.observable)
    if args.rate <= 0:
        raise DegenerateDataError("rate must be positive to accumulate counts")
    state = weighted_graph_state(args.phi12)
    h = np.radians(args.shift_deg)
    rng = np.random.default_rng(args.seed)
    thetas = {"center": args.theta_star,
              "plus": args.theta_star + h,
              "minus": args.theta_star - h}
    bins = {name: _simulate_bins(state.amplitudes, obs, theta, args.rate,
                                 args.duration, args.bins, rng)
            for name, theta in thetas.items()}

    boot = bootstrap_sensing(bins["center"], bins["plus"], bins["minus"], h,
                             obs.weights,
                             BootstrapConfig(mu=args.replicates, seed=args.seed))

    def block(result):
        out = {"mean": result.mean, "ci95": [result.ci_low, result.ci_high]}
        if result.n_clamped:
            out["n_clamped"] = result.n_clamped
        return out

    ideal = sense(state, obs, SensingConfig(phi12=args.phi12,
                                            theta_star=args.theta_star, h=h))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "phi12": args.phi12,
        "observable": _observable_payload(obs),
        "theta_star": args.theta_star,
        "shift_deg": args.shift_deg,
        "rate": args.rate, "duration": args.duration, "bins": args.bins,
        **{name: block(result) for name, result in vars(boot).items()},
        "ideal": {
            "expectation": ideal.expectation,
            "derivative_magnitude": ideal.derivative_magnitude,
            "single_shot_variance": ideal.single_shot_variance,
            "estimator_variance": ideal.estimator_variance,
        },
    }
    json_path = args.out + ".json"
    csv_path = args.out + ".csv"
    _write_json(json_path, payload)
    with open(csv_path, "w") as fh:
        fh.write("setting,bin_index,n_pp,n_pm,n_mp,n_mm,duration\n")
        for name in ("center", "plus", "minus"):
            for i, (pp, pm, mp, mm) in enumerate(bins[name].counts):
                fh.write(f"{name},{i},{pp},{pm},{mp},{mm},{bins[name].duration:g}\n")
    _write_manifest(args, [json_path, csv_path])
    ratio = boot.estimator_variance
    print(f"sense phi12={args.phi12:.4f} {obs.label}: (Dtheta)^2 = "
          f"{ratio.mean:.2f} [{ratio.ci_low:.2f}, {ratio.ci_high:.2f}]")
    return 0


# ------------------------------------------------------------------ tomo

def _cmd_tomo_simulate(args) -> int:
    state = weighted_graph_state(args.phi12)
    if args.noise:
        p, sigma = args.noise
        state = apply_noise(state, NoiseModel(depolarizing_p=p,
                                              phase_jitter_sigma=sigma))
    dataset = simulate_tomography(state, args.rate, args.duration,
                                  seed=args.seed, poisson=args.poisson)
    write_dataset_csv(args.out, dataset)
    _write_manifest(args, [args.out])
    print(f"tomo simulate phi12={args.phi12:.4f}: total counts {dataset.total}")
    return 0


def _cmd_tomo_reconstruct(args) -> int:
    if args.mc < 2:
        raise ValueError("--mc must be at least 2")
    dataset = read_dataset_csv(args.infile)
    target = weighted_graph_state(args.phi12)
    report = monte_carlo_report(dataset, target, n=args.mc, seed=args.seed,
                                likelihood=args.likelihood)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "phi12": args.phi12,
        "mc_samples": report.mc_samples,
        "likelihood": args.likelihood,
        "density_matrix": _matrix_pairs(report.rho.matrix),
        "fidelity_to_target": {"mean": report.fidelity_to_target,
                               "stdev": report.fidelity_stdev},
        "concurrence": {"mean": report.concurrence,
                        "stdev": report.concurrence_stdev},
        "point_fidelity": fidelity(report.rho, target),
        "point_concurrence": concurrence(report.rho),
    }
    _write_json(args.out, payload)
    _write_manifest(args, [args.out])
    print(f"tomo reconstruct: fidelity {report.fidelity_to_target:.2f} "
          f"+/- {report.fidelity_stdev:.2f}, concurrence {report.concurrence:.2f} "
          f"+/- {report.concurrence_stdev:.2f}")
    return 0


# ---------------------------------------------------------------- fringe

def _cmd_fringe(args) -> int:
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

    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    with open(csv_path, "w") as fh:
        fh.write("step,varphi,counts,normalized\n")
        for i, (v, c, n) in enumerate(zip(varphis, counts, normalized)):
            fh.write(f"{i},{float(v)!r},{float(c)!r},{float(n)!r}\n")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "steps": args.steps, "rate": args.rate, "duration": args.duration,
        "contrast": args.contrast, "exact": bool(args.exact),
        "varphi_range": [start, stop],
        "fit": {"a": fit.a, "b": fit.b, "c": fit.c, "d": fit.d,
                "residual": fit.residual},
        "visibility": vis,
    }
    _write_json(json_path, payload)
    _write_manifest(args, [json_path, csv_path])
    print(f"fringe: visibility {vis:.2f}, fitted amplitude {abs(fit.a):.2f}")
    return 0


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

    def add_common(p):
        p.add_argument("--seed", type=int, default=default_seed,
                       help="RNG seed (default: WGSTATE_SEED or 12345)")
        p.add_argument("--manifest", default=None,
                       help="manifest path (default: first output + .manifest.json)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from the manifest")

    p = sub.add_parser("state", help="construct or simulate the weighted graph state")
    p.add_argument("--phi12", type=_finite_float, required=True,
                   help="graph weight (radians)")
    p.add_argument("--pipeline", action="store_true",
                   help="propagate through the optical train instead of the "
                        "direct construction")
    p.add_argument("--varphi-prime", type=_finite_float, default=None,
                   help="override the arm-phase difference (radians; pipeline only)")
    p.add_argument("--noise", nargs=2, type=_finite_float, metavar=("P", "SIGMA"),
                   default=None, help="depolarizing weight and phase-jitter sigma")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("qfi", help="quantum Fisher information and precision limits")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, default=None,
                       help="number of weights on [0, pi]")
    group.add_argument("--phi12", type=_finite_float, default=None)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_qfi)

    p = sub.add_parser("optimize", help="search for the best local measurement")
    p.add_argument("--phi12", type=_finite_float, required=True)
    p.add_argument("--kind", choices=("pauli", "general"), required=True)
    p.add_argument("--theta-star", type=_finite_float, default=0.0)
    p.add_argument("--shift-deg", type=_finite_float, default=5.0)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sense", help="simulate a sensing run with bootstrap errors")
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
    p.add_argument("--out", required=True, help="output basename (.json/.csv)")
    add_common(p)
    p.set_defaults(func=_cmd_sense)

    p = sub.add_parser("tomo", help="tomography simulation and reconstruction")
    tomo_sub = p.add_subparsers(dest="tomo_command", required=True)

    ps = tomo_sub.add_parser("simulate", help="write a 16-setting dataset CSV")
    ps.add_argument("--phi12", type=_finite_float, required=True)
    ps.add_argument("--rate", type=_non_negative_float, default=150.0)
    ps.add_argument("--duration", type=_non_negative_float, default=10.0)
    ps.add_argument("--poisson", action="store_true")
    ps.add_argument("--noise", nargs=2, type=_finite_float, metavar=("P", "SIGMA"),
                    default=None)
    ps.add_argument("--out", required=True)
    add_common(ps)
    ps.set_defaults(func=_cmd_tomo_simulate, command="tomo simulate")

    pr = tomo_sub.add_parser("reconstruct", help="MLE + Monte Carlo from a dataset CSV")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--phi12", type=_finite_float, required=True,
                    help="target graph weight for the fidelity report")
    pr.add_argument("--mc", type=int, default=100)
    pr.add_argument("--likelihood", choices=("gaussian", "poisson"),
                    default="gaussian")
    pr.add_argument("--out", required=True)
    add_common(pr)
    pr.set_defaults(func=_cmd_tomo_reconstruct, command="tomo reconstruct")

    p = sub.add_parser("fringe", help="sweep the arm phase and fit the fringe")
    p.add_argument("--varphi-range", nargs=2, type=_finite_float,
                   default=(0.0, 2 * np.pi), metavar=("START", "STOP"))
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--rate", type=_non_negative_float, default=150.0)
    p.add_argument("--duration", type=_non_negative_float, default=10.0)
    p.add_argument("--contrast", type=_finite_float, default=1.0,
                   help="fringe contrast of the simulated law")
    p.add_argument("--exact", action="store_true", help="skip Poisson sampling")
    p.add_argument("--out", required=True, help="output basename (.json/.csv)")
    add_common(p)
    p.set_defaults(func=_cmd_fringe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    expected = getattr(args, "rate", 0.0) * getattr(args, "duration", 0.0)
    if expected > _MAX_EXPECTED_COUNTS:
        parser.error(f"--rate * --duration must be at most 2**53 expected counts, "
                     f"got {expected:g}")
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
