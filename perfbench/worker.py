"""One round of one workload, in a fresh Python process.

Usage (run.py starts it; the arguments are internal):
    python3 perfbench/worker.py WORKLOAD SEED TRACE CHECKS WORKDIR

A fresh process per round keeps entbound's lazily cached eigensystems cold
in every round, as they are in every new CLI or library session. The
round builds its inputs from SEED (set-up), runs the timed phase, then runs
the checks of `checks.py` on the outputs. The last line of standard output
is one JSON object; run.py aggregates the rounds.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import entbound as eb
import entbound.verify
from entbound.bounds import gr_tangent_ratio

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

# large_n: dense eigh dominates; two sizes, one operation each.
LARGE_N_SIZES = (1000, 2000)
LARGE_N_SHOTS = 3000
# many_shots: the paper's N with per-shot Python work dominating.
MANY_SHOTS_N = 476
MANY_SHOTS_ROTATE = 50_000
MANY_SHOTS_SPLIT = 25_000
MANY_SHOTS_P = 0.5
# split_gains: (N, nominal mu, split probability) around the paper point.
SPLIT_CASES = ((100, 0.0092, 0.5), (476, 0.005, 0.3))
# oracle_sandwich: one pure and one mixed squeezed two-qubit state.
SANDWICH_MIX = (False, True)
WERNER_STATES = 1
PURE_STATES = 1
WITNESS_N = 8
WITNESS_STARTS = 100


def _jitter(rng, nominal: float, width: float) -> float:
    return float(nominal * (1.0 + width * rng.uniform(-1.0, 1.0)))


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Round:
    """Counts operations and collects check failures of one round."""

    def __init__(self, workdir: str, trace: bool, full_checks: bool):
        self.workdir = workdir
        self.trace = trace
        self.full_checks = full_checks
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.child_peak_mb = 0.0
        self.cli_walls: list[float] = []
        self.cli_imports: list[float] = []
        self.child_traces: list[dict] = []

    def op(self, fn, *args, **kwargs):
        """Run one counted operation; a raise counts as failed, returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return None

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.errors.append(f"check {fn.__name__}: {exc}")

    def cli(self, name: str, argv: list[str]) -> bool:
        """One CLI invocation as its own process; peak RSS from os.wait4."""
        self.attempted += 1
        log = os.path.join(self.workdir, f"{name}.stderr")
        if self.trace:
            trace_path = os.path.join(self.workdir, f"{name}.trace.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "entbound.cli", *argv]
        start = time.perf_counter()
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cli_walls.append(time.perf_counter() - start)
        self.child_peak_mb = max(self.child_peak_mb, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            self.failed += 1
            with open(log, encoding="utf-8") as fh:
                self.failures.append(f"{name} exited {proc.returncode}: {fh.read()[-2000:]}")
            return False
        if self.trace:
            with open(trace_path, encoding="utf-8") as fh:
                rec = json.load(fh)
            self.cli_imports.append(rec["import_s"])
            self.child_traces.append(rec)
        return True


# ---------------------------------------------------------------------------
# large_n: in-process library pipeline at two sizes


def large_n_inputs(rng):
    return [
        {"n": n, "mu": _jitter(rng, 0.5 * n ** (-2 / 3), 0.1),
         "shot_seed": int(rng.integers(2**31))}
        for n in LARGE_N_SIZES
    ]


def _pipeline(case):
    state = eb.oat_evolve(eb.css_x(case["n"]), case["mu"])
    state = eb.rotate_x(state, eb.optimal_squeezing_rotation(state))
    exact = eb.exact_moments(state)
    shots = eb.sample_shots(state, n_shots=LARGE_N_SHOTS, seed=case["shot_seed"])
    est = eb.estimate_moments(shots)
    return exact, shots, est, eb.wineland_bounds(est)


def large_n_run(inputs, rnd: Round):
    return [rnd.op(_pipeline, case) for case in inputs]


def _check_wineland_report(rnd: Round, est, bsa: float, gr: float):
    n = est.n_particles
    jx = est.mean_value(0)
    crit = eb.wineland_criterion(n)
    ratios = [gr_tangent_ratio(crit, est, t) for t in np.linspace(0, jx / n, 41)[1:]]
    rnd.check(checks.check_wineland, n, jx, est.variance("z"), bsa, gr, ratios)


def large_n_check(inputs, outputs, rnd: Round):
    for case, out in zip(inputs, outputs):
        if out is None:
            continue
        exact, shots, est, rep = out
        rnd.check(checks.check_kitagawa_ueda, case["n"], case["mu"], exact.mean[0],
                  exact.covariance[2, 2])
        cols = checks.shot_columns((s.shot_id, s.setting, s.region, s.n1, s.n2) for s in shots)
        stats = checks.single_shot_stats(cols)
        rnd.check(checks.check_single_estimate, stats, est.mean, est.covariance,
                  est.n_particles)
        rnd.check(checks.check_single_sampling, stats, exact.mean, exact.covariance)
        if rnd.full_checks:
            shuffled = list(shots)
            random.Random(case["shot_seed"]).shuffle(shuffled)
            est2 = eb.estimate_moments(shuffled)
            rnd.check(checks.check_shuffle_invariant, est.mean, est.covariance, est2.mean,
                      est2.covariance)
        _check_wineland_report(rnd, est, rep.bsa.value, rep.gr.value)


# ---------------------------------------------------------------------------
# many_shots: the CLI chain simulate -> estimate -> wineland, and a split chain


def many_shots_inputs(rng):
    return {"mu": _jitter(rng, 0.005, 0.1), "seed": int(rng.integers(2**31)),
            "split_seed": int(rng.integers(2**31))}


def many_shots_run(inputs, rnd: Round):
    w = rnd.workdir
    run, split = os.path.join(w, "run"), os.path.join(w, "split")
    n, mu = str(MANY_SHOTS_N), repr(inputs["mu"])
    ok = {}
    ok["simulate"] = rnd.cli("simulate", [
        "simulate", "--n", n, "--mu", mu, "--rotate", "--shots", str(MANY_SHOTS_ROTATE),
        "--seed", str(inputs["seed"]), "--output", run])
    ok["estimate"] = ok["simulate"] and rnd.cli("estimate", [
        "estimate", "--shots", run + ".shots.csv", "--output", run + ".est.json"])
    ok["wineland"] = ok["estimate"] and rnd.cli("wineland", [
        "wineland", "--moments", run + ".est.json", "--format", "json",
        "--output", run + ".wineland.json"])
    ok["split_simulate"] = rnd.cli("split_simulate", [
        "simulate", "--n", n, "--mu", mu, "--rotate", "--split", str(MANY_SHOTS_P),
        "--shots", str(MANY_SHOTS_SPLIT), "--seed", str(inputs["split_seed"]),
        "--output", split])
    ok["split_estimate"] = ok["split_simulate"] and rnd.cli("split_estimate", [
        "estimate", "--shots", split + ".shots.csv", "--output", split + ".est.json"])
    return ok


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _shuffled_estimate(rnd: Round, csv_path: str, seed: int):
    """Moments JSON from `estimate` on a row-shuffled copy of a shots CSV."""
    with open(csv_path, encoding="utf-8") as fh:
        header, rows = fh.readline(), fh.readlines()
    random.Random(seed).shuffle(rows)
    shuffled = csv_path + ".shuffled.csv"
    with open(shuffled, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(rows)
    out = shuffled + ".est.json"
    proc = subprocess.run(
        [sys.executable, "-m", "entbound.cli", "estimate", "--shots", shuffled, "--output", out],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        rnd.errors.append(f"estimate on shuffled shots exited {proc.returncode}: {proc.stderr}")
        return None
    return _load_json(out)


def _nan(values):
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def many_shots_check(inputs, ok, rnd: Round):
    w = rnd.workdir
    run, split = os.path.join(w, "run"), os.path.join(w, "split")
    if ok["simulate"]:
        exact = _load_json(run + ".moments.json")
        rnd.check(checks.check_kitagawa_ueda, MANY_SHOTS_N, inputs["mu"], exact["mean"][0],
                  exact["covariance"][2][2])
    if ok["estimate"]:
        est = _load_json(run + ".est.json")
        stats = checks.single_shot_stats(checks.read_shots_csv(run + ".shots.csv"))
        rnd.check(checks.check_single_estimate, stats, _nan(est["mean"]), est["covariance"],
                  est["n_particles"])
        rnd.check(checks.check_single_sampling, stats, exact["mean"], exact["covariance"])
        if rnd.full_checks:
            est2 = _shuffled_estimate(rnd, run + ".shots.csv", inputs["seed"])
            if est2 is not None:
                rnd.check(checks.check_shuffle_invariant, _nan(est["mean"]), est["covariance"],
                          _nan(est2["mean"]), est2["covariance"])
    if ok["wineland"]:
        rep = _load_json(run + ".wineland.json")
        md = eb.load_moments(run + ".est.json")
        _check_wineland_report(rnd, md, rep["bsa_bound"], rep["gr_bound"])
    if ok["split_estimate"]:
        exact = _load_json(split + ".moments.json")
        est = _load_json(split + ".est.json")
        stats = checks.bipartite_shot_stats(checks.read_shots_csv(split + ".shots.csv"))
        rnd.check(checks.check_bipartite_estimate, stats, _nan(est["mean_A"]),
                  _nan(est["mean_B"]), est["covariance"])
        rnd.check(checks.check_bipartite_sampling, stats, exact["mean_A"], exact["mean_B"],
                  exact["covariance"])
        if rnd.full_checks:
            est2 = _shuffled_estimate(rnd, split + ".shots.csv", inputs["split_seed"])
            if est2 is not None:
                rnd.check(checks.check_shuffle_invariant,
                          _nan(est["mean_A"] + est["mean_B"]), est["covariance"],
                          _nan(est2["mean_A"] + est2["mean_B"]), est2["covariance"])


# ---------------------------------------------------------------------------
# split_gains: giovannetti_bounds on exact split moments


def split_gains_inputs(rng):
    cases = []
    for n, mu, p in SPLIT_CASES:
        state = eb.oat_evolve(eb.css_x(n), _jitter(rng, mu, 0.05))
        state = eb.rotate_x(state, eb.optimal_squeezing_rotation(state))
        cases.append({"state": state, "p": p})
    return cases


def _giovannetti(case):
    m = eb.split_state_moments(case["state"], eb.SplitConfig(case["p"]))
    return m, eb.giovannetti_bounds(m)


def split_gains_run(inputs, rnd: Round):
    return [rnd.op(_giovannetti, case) for case in inputs]


# Gain grid of the check; deliberately not the program's own start grid.
CHECK_GAIN_MAGS = np.logspace(-1.2, 1.2, 7)


def split_gains_check(inputs, outputs, rnd: Round):
    for out in outputs:
        if out is None:
            continue
        m, rep = out
        g2 = checks.giovannetti_g2(m.covariance, m.mean_a, m.mean_b, *rep.bsa.gains)
        sign_a = -1.0 if m.mean_a[0] < 0 else 1.0
        sign_b = -1.0 if m.mean_b[0] < 0 else 1.0
        grid_bsa, grid_gr = [], []
        for mz in CHECK_GAIN_MAGS:
            for my in CHECK_GAIN_MAGS:
                for sz in (1.0, -1.0):
                    for sy in (1.0, -1.0):
                        crit = eb.giovannetti_criterion(m.n_a, m.n_b, sz * mz, sy * my,
                                                        sign_a, sign_b)
                        grid_bsa.append(eb.bsa_from_product(crit, m).value)
                        grid_gr.append(eb.gr_from_product(crit, m).value)
        rnd.check(checks.check_giovannetti, rep.g2, g2, rep.bsa.value, rep.gr.value,
                  grid_bsa, grid_gr)


# ---------------------------------------------------------------------------
# oracle_sandwich: two-qubit oracles against Wineland bounds and closed forms


def oracle_sandwich_inputs(rng, seed: int):
    iso = eb.symmetric_embedding(2)
    squeezed = []
    for k, mixed in enumerate(SANDWICH_MIX):
        state = eb.oat_evolve(eb.css_x(2), float(rng.uniform(0.1, 1.3)))
        state = eb.rotate_x(state, eb.optimal_squeezing_rotation(state))
        psi = iso @ state.amplitudes
        mix = float(rng.uniform(0.05, 0.5)) if mixed else 0.0
        rho = (1 - mix) * np.outer(psi, psi.conj()) + mix * np.eye(4) / 4
        squeezed.append({"rho": eb.DensityMatrix(rho), "seed": seed + k})
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    werner = []
    for _ in range(WERNER_STATES):
        p = float(rng.uniform(0.4, 0.95))
        werner.append({"p": p, "rho": eb.DensityMatrix(
            p * np.outer(bell, bell) + (1 - p) * np.eye(4) / 4)})
    pure = []
    for _ in range(PURE_STATES):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        pure.append({"psi": v, "rho": eb.DensityMatrix(np.outer(v, v.conj()))})
    state = eb.oat_evolve(eb.css_x(WITNESS_N), float(rng.uniform(0.2, 0.4)))
    state = eb.rotate_x(state, eb.optimal_squeezing_rotation(state))
    md = eb.exact_moments(state)
    crit = eb.wineland_criterion(WITNESS_N)
    t = float(np.sqrt(md.covariance[2, 2] / (4 * WITNESS_N)))
    params = eb.WitnessParams(eb.criteria.optimal_shifts(crit, md).s, t)
    witness = eb.witness_product(crit, params, eb.qubit_context(WITNESS_N))
    return {"squeezed": squeezed, "werner": werner, "pure": pure, "witness": witness,
            "seed": seed}


def oracle_sandwich_run(inputs, rnd: Round):
    out = {"squeezed": [], "werner": [], "pure": []}
    for case in inputs["squeezed"]:
        mean, cov = checks.two_qubit_spin_moments(case["rho"].entries)
        rep = eb.wineland_bounds(eb.MomentData(2.0, mean, cov))
        ppt = rnd.op(eb.gr_ppt, case["rho"], (2, 2))
        upper = rnd.op(eb.bsa_upper, case["rho"], (2, 2), seed=case["seed"],
                       nm_max_fev=300, polish=False)
        out["squeezed"].append((rep, ppt, upper))
    for case in inputs["werner"]:
        out["werner"].append(rnd.op(eb.gr_ppt, case["rho"], (2, 2)))
    for case in inputs["pure"]:
        out["pure"].append(rnd.op(eb.gr_ppt, case["rho"], (2, 2)))
    out["witness"] = rnd.op(eb.min_over_product_states, inputs["witness"], (2,) * WITNESS_N,
                            n_starts=WITNESS_STARTS, seed=inputs["seed"])
    out["verify"] = rnd.op(entbound.verify.run_checks)
    return out


def oracle_sandwich_check(inputs, out, rnd: Round):
    for rep, ppt, upper in out["squeezed"]:
        if ppt is not None and upper is not None:
            rnd.check(checks.check_sandwich, rep.bsa.value, rep.gr.value, upper, ppt)
    for case, gr in zip(inputs["werner"], out["werner"]):
        if gr is not None:
            rnd.check(checks.check_value, gr, checks.werner_gr(case["p"]), 1e-6,
                      f"Werner GR at p={case['p']:.4f}")
    for case, gr in zip(inputs["pure"], out["pure"]):
        if gr is not None:
            rnd.check(checks.check_value, gr, checks.pure_gr(case["psi"]), 1e-6,
                      "pure-state GR vs Schmidt robustness")
    if out["witness"] is not None:
        rnd.check(checks.check_witness_minimum, out["witness"])
    if out["verify"] is not None:
        rnd.check(checks.check_run_checks, [(r.name, r.passed) for r in out["verify"]])


# ---------------------------------------------------------------------------
# per-layer metrics of a traced round


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(summ: dict, rnd: Round) -> dict:
    def get(name, key="self_s"):
        return float(summ.get(name, {}).get(key, 0.0))

    out = {}
    for name in (
        "simulator.rotate_x", "simulator.sample_shots", "operators.collective_spin",
        "simulator.exact_moments", "simulator.optimal_squeezing_rotation",
        "simulator.split_state_moments", "moments.save_shots", "moments.load_shots",
        "moments.estimate_moments", "moments.estimate_bipartite_moments",
        "bounds.giovannetti_bounds", "bounds.wineland_bounds", "oracle.gr_ppt",
        "oracle.bsa_upper", "oracle.min_over_product_states", "verify.run_checks",
    ):
        out[f"{name}_s"] = (get(name), "s")
    out["simulator.rotate_x_peak_mb"] = (get("simulator.rotate_x", "peak_mb"), "MB")
    out["moments.load_shots_peak_mb"] = (get("moments.load_shots", "peak_mb"), "MB")
    records = get("moments.estimate_moments", "records") + get(
        "moments.estimate_bipartite_moments", "records")
    busy = get("moments.load_shots") + get("moments.estimate_moments") + get(
        "moments.estimate_bipartite_moments")
    out["moments.shots_per_s"] = (records / busy if busy > 0 else 0.0, "1/s")
    out["cli.import_s"] = (_median(rnd.cli_imports), "s")
    out["cli.invocation_s"] = (_median(rnd.cli_walls), "s")
    giov = get("bounds.giovannetti_bounds", "calls")
    for name in ("bounds.gr_from_product", "criteria.product_value",
                 "criteria.spectral_constants"):
        out[f"{name}_calls"] = (get(name, "calls") / giov if giov else 0.0, "count")
    gr_calls = get("bounds.gr_from_product", "calls")
    iterations = get("bounds.gr_from_product", "iterations")
    out["optimize.golden_section_iterations"] = (
        iterations / gr_calls if gr_calls else 0.0, "count")
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    workload, seed, trace, check_mode, workdir = sys.argv[1:6]
    seed, trace = int(seed), trace == "1"
    rng = np.random.default_rng(seed)
    if workload == "large_n":
        inputs, run, check = large_n_inputs(rng), large_n_run, large_n_check
    elif workload == "many_shots":
        inputs, run, check = many_shots_inputs(rng), many_shots_run, many_shots_check
    elif workload == "split_gains":
        inputs, run, check = split_gains_inputs(rng), split_gains_run, split_gains_check
    elif workload == "oracle_sandwich":
        inputs = oracle_sandwich_inputs(rng, seed)
        run, check = oracle_sandwich_run, oracle_sandwich_check
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    ready = time.perf_counter()

    rnd = Round(workdir, trace, check_mode == "full")
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    cpu0 = _rusage_cpu()
    start = time.perf_counter()
    outputs = run(inputs, rnd)
    wall = time.perf_counter() - start
    cpu = _rusage_cpu() - cpu0
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, rnd.child_peak_mb)
    if tracer:
        tracer.uninstall()

    checked = time.perf_counter()
    check(inputs, outputs, rnd)
    result = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
        "check_s": time.perf_counter() - checked,
        "attempted": rnd.attempted, "failed": rnd.failed, "errors": rnd.errors,
        "failures": rnd.failures,
    }
    if tracer:
        summ = spans.summary([tracer.record(), *rnd.child_traces])
        result["layers"] = layer_metrics(summ, rnd)
        result["layers"]["trace.overhead_s"] = (spans.overhead_s(summ), "s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
