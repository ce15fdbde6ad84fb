"""Per-call times of single layers, for the table in METRICS.md.

    python3 bench/layer_times.py

Each case runs its call in batches and reports the median over batches of
the time per call, untraced.  The inputs are fixed: the metric
G = [[1,0,0],[0,1,.5],[0,.5,1]] on r3_a with a = 0.5 (lambda = -1/sqrt(3)).
"""

import statistics
import subprocess
import sys
import time

import envinfo

BATCHES = 7
BATCH_S = 0.2
COLD_RUNS = 5


def per_call_us(fn) -> float:
    n = 1
    while True:  # grow the batch until it lasts BATCH_S
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BATCH_S / 4:
            break
        n *= 2
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times) * 1e6


def cold_cli_s(family: str) -> float:
    cmd = [sys.executable, "-m", "solvgeo.cli", "verify", "--family", family,
           "--format", "json"]
    times = []
    for i in range(COLD_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=envinfo.ROOT, env=envinfo.child_env(), check=True,
                       capture_output=True, timeout=120)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    envinfo.use_source()
    import numpy as np

    from solvgeo import cli, curvature, derivations, lie_core, moduli, orbit_geometry

    fam = lie_core.Family("r3_a", 0.5)
    sc = lie_core.make_family(fam)
    sc_exact = lie_core.make_family(fam, exact=True)
    gram = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    md = curvature.metric_data(sc, gram)
    g = moduli.metric_to_group(gram)
    rep = moduli.rep_matrix(fam, -1 / np.sqrt(3))
    u = derivations.conjugate_subspace(
        derivations.scalar_plus(derivations.derivation_algebra(sc)), rep)
    cfg = cli.RunConfig(family=fam, grid=(-1 / np.sqrt(3),))

    cases = [
        ("`ricci_operator` (one metric)", lambda: curvature.ricci_operator(md)),
        ("`derivation_algebra` float", lambda: derivations.derivation_algebra(sc)),
        ("`derivation_algebra` exact", lambda: derivations.derivation_algebra(sc_exact)),
        ("`reduce`", lambda: moduli.reduce(fam, g)),
        ("`orbit_data`", lambda: orbit_geometry.orbit_data(u)),
        ("`orbit_at`", lambda: orbit_geometry.orbit_at(fam, rep)),
        ("one verify row", lambda: cli.verify_main_theorem(cfg)),
    ]
    print("| layer | per call |")
    print("|---|---|")
    for label, fn in cases:
        print(f"| {label} | {per_call_us(fn):.0f} us |")
    print(f"| cold CLI verify, `r3a:a=0` (51 rows) | {cold_cli_s('r3a:a=0'):.3f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
