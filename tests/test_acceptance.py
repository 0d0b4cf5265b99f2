"""End-to-end acceptance gates.

Each test prints one ``[acceptance NN] name: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts.  Gates are numbered 01-12; every numbered
gate runs at its stated scale and tolerance, nothing is downsized.  Gate 09
includes a finite-size connectivity target that current measurements do not
reach; it is asserted as stated rather than weakened, so a FAIL there is a
faithful report, not a broken harness (see the gate's printed detail).
Gates 05, 08 (its arrival-time half), 09 and 11 sweep their seeds through
``run_ensemble`` with the ``EXPERIMENTS`` entry they check, and read the
per-time means and standard errors from the report's aggregates.
"""

import math

import numpy as np
import pytest

import glpsim as g
from glpsim import cli


def report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# ----------------------------------------------------------------------
# 01 conservation


def test_criterion_01_conservation():
    ok = True
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        steps = 10**5
        seed = int(p * 100)
        gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
        z = g.make_rng(seed).random(steps) < p  # documented kind stream
        ok &= gr.degrees.sum() == 2 * (steps + 1)
        ok &= gr.endpoints.size == 2 * (steps + 1)
        ok &= gr.total_degree() == 2 * (steps + 1)
        ok &= gr.num_vertices == 1 + int(z.sum())
    assert report(1, "conservation", ok, "p in {0,0.25,0.5,0.75,1}, t=1e5, exact")


# ----------------------------------------------------------------------
# 02 sampling exactness


def test_criterion_02_sampling_tv():
    ep = np.array([1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1], dtype=np.int64)
    gr = g.GlpGraph.from_endpoints(ep, p=0.5, seed=0)
    exact = gr.degrees / gr.total_degree()
    rng = g.make_rng(42)
    n = 10**6
    counts = np.zeros(gr.num_vertices + 1)
    for _ in range(n):
        counts[g.sample_endpoint(gr, rng)] += 1
    tv = 0.5 * np.abs(counts[1:] / n - exact).sum()
    assert report(2, "sampling exactness", tv < 0.005, f"TV={tv:.5f} < 0.005")


# ----------------------------------------------------------------------
# 03 one-step drift identity


def test_criterion_03_drift_identity():
    p, n = 0.5, 10**6
    gr = g.run(g.ProcessParams(p=p, steps=1000, seed=77)).graph
    D = gr.total_degree()
    rng = g.make_rng(1234)
    # one-step increments per the documented sampling contract: a kind draw,
    # then one endpoint draw (vertex-step) or two (edge-step)
    kinds = rng.random(n) < p
    first = gr.endpoints[rng.integers(0, gr.endpoints.size, size=n)]
    second = gr.endpoints[rng.integers(0, gr.endpoints.size, size=n)]
    ok = True
    details = []
    for v in (1, 2, 10, 100, 500):
        inc = (first == v).astype(np.float64)
        inc += np.where(kinds, 0.0, (second == v).astype(np.float64))
        se = inc.std(ddof=1) / math.sqrt(n)
        exact = (2 - p) * gr.degree(v) / D
        dev = abs(inc.mean() - exact)
        ok &= dev < 3 * se
        details.append(f"v{v}:{dev / se:.2f}se")
    assert report(3, "drift identity", ok, "1e6 trials, " + " ".join(details))


# ----------------------------------------------------------------------
# 04 martingale constancy


def test_criterion_04_martingale():
    ok = True
    details = []
    for p in (0.5, 0.75):
        rep = g.martingale_check(p, (100, 1000, 10000), replicas=10**4, base_seed=0)
        dev = rep.max_rel_dev()
        ok &= dev < 0.03
        details.append(f"p={p}: {dev * 100:.2f}%")
    assert report(4, "martingale constancy", ok, "; ".join(details) + " (limit 3%)")


# ----------------------------------------------------------------------
# 05 max-degree exponent


def test_criterion_05_max_degree_exponent():
    times = (10**4, 10**5, 10**6)
    rep = g.run_ensemble(g.EnsembleConfig(
        "maxdeg", p_grid=(0.5,), steps=10**6, replicas=20, base_seed=100,
        params={"snapshot_times": times},
    ))
    assert not rep.failures
    fit = g.fit_exponent([(a["t"], a["mean"]) for a in rep.aggregates])
    ok = 0.70 <= fit.estimate <= 0.80

    res0 = g.run(g.ProcessParams(p=0.0, steps=10**6, seed=1, snapshot_times=times))
    fit0 = g.fit_exponent([(s.t, s.max_degree) for s in res0.snapshots])
    # deterministic case: max degree is 2(t+1), so the log-log slope carries
    # a tiny curvature term; 1e-3 absorbs it (measured ~2e-5)
    ok0 = abs(fit0.estimate - 1.0) < 1e-3
    assert report(
        5, "max-degree exponent", ok and ok0,
        f"p=0.5 slope {fit.estimate:.4f} in [0.70,0.80]; p=0 slope {fit0.estimate:.6f}",
    )


# ----------------------------------------------------------------------
# 06 degree envelope


def test_criterion_06_upper_bound():
    total = 0
    for p in (0.25, 0.5, 0.75):
        for s in range(50):
            gr = g.run(g.ProcessParams(p=p, steps=10**5, seed=200 + s)).graph
            total += g.upper_bound_check(gr, 4.0).size
    assert report(
        6, "degree envelope C1=4", total == 0,
        f"{total} violations over 3 p-values x 50 seeds",
    )


# ----------------------------------------------------------------------
# 07 hitting-time domination


def test_criterion_07_domination():
    rep = g.domination_experiment(
        p=0.5, m=4, j=260, k=16,
        t_grid=[2**i for i in range(8, 15)],
        replicas=10**4, dominating_samples=10**5, base_seed=0, gamma=0.4,
    )
    last = rep.rows[-1]
    assert report(
        7, "hitting-time domination", rep.passed,
        f"all grid points 2^8..2^14 ok; at t=2^14 empirical "
        f"{last.empirical:.4f} <= dominating {last.dominating:.4f}",
    )


# ----------------------------------------------------------------------
# 08 arrival moments


def test_criterion_08_arrival_moments():
    p, j, m = 0.5, 5, 2
    waits = j * m - 1
    samp = g.sample_arrival(j, m, p, g.make_rng(9), size=10**6).astype(np.float64)
    mean_cf = 1 + waits / p
    var_cf = waits * (1 - p) / p**2
    e2_cf = var_cf + mean_cf**2
    se1 = samp.std(ddof=1) / 1000
    sq = samp**2
    se2 = sq.std(ddof=1) / 1000
    ok = abs(samp.mean() - mean_cf) < 3 * se1 and abs(sq.mean() - e2_cf) < 3 * se2

    vertex = 20
    rep = g.run_ensemble(g.EnsembleConfig(
        "arrival", p_grid=(p,), steps=200, replicas=4000, base_seed=5000,
        params={"vertex": vertex},
    ))
    assert not rep.failures
    (agg,) = rep.aggregates
    target = (vertex - 1) / p
    ok2 = abs(agg["mean"] - target) < 3 * agg["stderr"]
    assert report(
        8, "arrival moments", ok and ok2,
        f"NB mean/2nd-moment within 3se; arrival_time({vertex}) "
        f"{agg['mean']:.2f} vs {target}",
    )


# ----------------------------------------------------------------------
# 09 clique growth


def test_criterion_09_clique_growth():
    """Leader pair fraction at t = 10^4/10^5/10^6 (p = 0.5, 10 seeds).

    The 0.9 level fails, and it is kept as stated. For the latest leaders,
    the pair intensity grows like t^{eps(1-p)}, which is t^0.05 at p = 0.5
    and eps = 0.1. ROADMAP's re-anchor measurements on these runs: over
    (t, 2t] the mean gain per pair matches the exact compensator Lambda
    (0.113/0.185/0.240 against 0.121/0.178/0.237). Counting pairs joined at
    t as 1 and the others as 1 - exp(-Lambda) predicts fractions of
    0.269/0.350/0.389 against the observed 0.263/0.350/0.393.
    """
    times = (10**4, 10**5, 10**6)
    rep = g.run_ensemble(g.EnsembleConfig(
        "cliquegrowth", p_grid=(0.5,), steps=2 * 10**6, replicas=10,
        params={"t_values": times, "m": 10, "eps": 0.1, "eps_prime": 0.05, "topk": 64},
    ))
    assert not rep.failures
    mean = {(a["t"], a["metric"]): a["mean"] for a in rep.aggregates}
    fseq = [mean[t, "pair_fraction"] for t in times]
    kseq = [mean[t, "topk_clique_size"] for t in times]
    ok_mono = all(a <= b + 1e-12 for a, b in zip(fseq, fseq[1:]))
    ok_level = fseq[-1] >= 0.9
    ok_topk = all(a <= b + 1e-12 for a, b in zip(kseq, kseq[1:]))
    detail = (
        f"pair fraction {fseq[0]:.3f}/{fseq[1]:.3f}/{fseq[2]:.3f} over t=1e4/1e5/1e6, "
        f"topk64 {kseq[0]:.1f}/{kseq[1]:.1f}/{kseq[2]:.1f}"
    )
    report(9, "clique growth: nondecreasing fraction", ok_mono, detail)
    report(9, "clique growth: fraction >= 0.9 at t=1e6", ok_level,
           f"measured {fseq[-1]:.3f}")
    report(9, "clique growth: nondecreasing topk cliques", ok_topk, detail)
    assert ok_mono and ok_level and ok_topk


# ----------------------------------------------------------------------
# 10 exact clique oracle


def _mitm_max_clique(masks):
    """Exhaustive max clique by meet-in-the-middle over <=30 vertices."""
    n = len(masks)
    h = n // 2
    nb = n - h
    full_b = (1 << nb) - 1
    best_in = [0] * (1 << nb)  # best clique inside a subset of the top half
    for mask in range(1, 1 << nb):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        adj = (masks[h + v] >> h) & full_b
        best_in[mask] = max(best_in[rest], 1 + best_in[rest & adj])
    best = 0
    for s in range(1 << h):
        size = 0
        common = full_b
        ok = True
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            if (s & ~(1 << v)) & ~masks[v]:
                ok = False
                break
            common &= (masks[v] >> h) & full_b
            size += 1
        if ok:
            best = max(best, size + best_in[common])
    return best


def test_criterion_10_exact_clique_oracle():
    mism = 0
    for s in range(20):
        gr = g.run(g.ProcessParams(p=0.5, steps=10**4, seed=300 + s)).graph
        got = g.max_clique_topk(gr, 30)
        # candidate rule re-derived from public data: top degrees, ties by id
        deg = gr.degrees
        order = np.lexsort((np.arange(1, deg.size + 1), -deg))[:30]
        ids = sorted(int(v) + 1 for v in order)
        pos = {v: i for i, v in enumerate(ids)}
        masks = [0] * len(ids)
        for u, v in gr.endpoints.reshape(-1, 2):
            u, v = int(u), int(v)
            if u != v and u in pos and v in pos:
                masks[pos[u]] |= 1 << pos[v]
                masks[pos[v]] |= 1 << pos[u]
        if len(got) != _mitm_max_clique(masks):
            mism += 1
        # the returned set must itself be a clique over those candidates
        if g.is_clique(gr, got).pair_fraction != 1.0:
            mism += 1
    assert report(
        10, "exact clique oracle", mism == 0,
        f"{20 - mism}/20 seeds agree with exhaustive search (K=30, t=1e4)",
    )


# ----------------------------------------------------------------------
# 11 triangle scaling


def test_criterion_11_triangle_scaling():
    # exact gate
    ep = [1, 1, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4]
    k4 = g.GlpGraph.from_endpoints(np.array(ep), p=0.5, seed=0)
    ok_k4 = g.count_triangles(k4) == 4

    # exploratory slope: warn, never gate
    times = (10**4, 10**5, 10**6)
    rep = g.run_ensemble(g.EnsembleConfig(
        "triangles", p_grid=(0.5,), steps=10**6, replicas=5, base_seed=900,
        params={"snapshot_times": times},
    ))
    assert not rep.failures
    slope = g.fit_exponent([(a["t"], a["mean"]) for a in rep.aggregates]).estimate
    in_band = 0.7 <= slope <= 1.3
    detail = f"K4=4 gates; slope {slope:.3f} target 1.0 +- 0.3"
    if not in_band:
        detail += " [WARN: outside band, exploratory, not gating]"
    assert report(11, "triangle scaling", ok_k4, detail)


# ----------------------------------------------------------------------
# 12 CLI reproducibility


def test_criterion_12_cli_reproducibility(tmp_path, capsys):
    def run_twice(argv, outputs):
        first = {}
        assert cli.main(argv) == 0
        capsys.readouterr()
        for path in outputs:
            first[path] = path.read_bytes()
        assert cli.main(argv) == 0
        capsys.readouterr()
        return all(path.read_bytes() == first[path] for path in outputs)

    edge = tmp_path / "g.edges"
    ok = run_twice(
        ["generate", "--p", "0.5", "--steps", "2000", "--seed", "42",
         "--out", str(edge)],
        [edge],
    )

    sj, sc = tmp_path / "s.json", tmp_path / "s.csv"
    ok &= run_twice(
        ["stats", "--in", str(edge), "--xmin", "3", "--out", str(sj),
         "--csv", str(sc)],
        [sj, sc],
    )

    hj, hc = tmp_path / "h.json", tmp_path / "h.csv"
    ok &= run_twice(
        ["hitting", "--p", "0.5", "--j", "260", "--m", "4", "--k", "8",
         "--grid", "256,1024,4096", "--replicas", "60", "--dom-samples", "500",
         "--out", str(hj), "--csv", str(hc)],
        [hj, hc],
    )

    cj = tmp_path / "c.json"
    ok &= run_twice(
        ["clique", "--p", "0.5", "--steps", "2000", "--seed", "7",
         "--out", str(cj)],
        [cj],
    )

    ens = tmp_path / "ens"
    ok &= run_twice(
        ["ensemble", "--experiment", "maxdeg", "--p-grid", "0.25,0.5",
         "--steps", "500", "--replicas", "3", "--out-dir", str(ens),
         "--snapshots", "100,500"],
        [ens / "maxdeg_0.25_500.json", ens / "maxdeg_0.25_500.csv",
         ens / "maxdeg_0.5_500.json", ens / "maxdeg_0.5_500.csv"],
    )
    assert report(12, "CLI reproducibility", ok, "5 subcommands, byte-identical reruns")
