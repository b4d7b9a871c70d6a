//! E15 — profiling driver (see `lc_bench::e15` for the model).
//!
//! Usage: `e15_profiling [--max-nodes N] [--gate-overhead-pct T] [JSON_PATH]`
//!
//! * `--max-nodes N` caps the part-A profiler sweep (ci.sh smoke runs
//!   use 10⁴; the committed `BENCH_e15.json` is the full 10⁵ sweep).
//! * `--gate-overhead-pct T` exits non-zero if the profiler-on run of
//!   the largest sweep point costs more than `T` % wall time over the
//!   profiler-off run — the "zero cost when disabled, bounded cost when
//!   enabled" gate.
//!
//! Besides the JSON, two deterministic artefacts land next to it: the
//! collapsed-stack flamegraph (`<json>.flame.txt`) and the per-node
//! virtual-time timeline (`<json>.timeline.txt`); ci.sh diffs both
//! across a double run. Every volatile stdout column ends in `wall`
//! and every volatile JSON value is a `wall_` leaf of `lc_bench::json`;
//! ci.sh masks exactly those before diffing.

use lc_bench::{die, e15, write_artefacts, SweepArgs};
use std::time::Instant; // lc-lint: allow(D1) -- explicit wall-clock overhead column

fn main() {
    let SweepArgs { max_nodes, gate, path } =
        SweepArgs::parse("e15", "--gate-overhead-pct", 100_000);

    let seed = 15;
    let start = Instant::now(); // lc-lint: allow(D1) -- wall column only
    let points = e15::sweep(seed, max_nodes, || start.elapsed().as_secs_f64());
    let runs = e15::traced_runs(seed);
    let out = e15::render(&points, &runs, seed);
    print!("{}", out.report);

    let base = path.strip_suffix(".json").unwrap_or(&path);
    let (flame, timeline) = (format!("{base}.flame.txt"), format!("{base}.timeline.txt"));
    write_artefacts("e15", &[(&path, &out.json), (&flame, &out.flame), (&timeline, &out.timeline)]);
    println!(
        "\nsummary: {} profiler points + {} traced runs written to JSON; \
         flamegraph {} lines, timeline {} lines",
        points.len(),
        runs.len(),
        out.flame.lines().count(),
        out.timeline.lines().count(),
    );

    for p in &points {
        if !p.identical {
            eprintln!("e15: profiler perturbed the {}-node simulation", p.n);
            std::process::exit(1);
        }
    }
    if let Some(t) = gate {
        let Some(p) = points.last() else { die("e15", "gate needs at least one sweep point") };
        let pct = e15::overhead_pct(p);
        if pct > t {
            eprintln!("e15: overhead gate FAILED: {pct:.2}% > {t:.2}% at {} nodes", p.n);
            std::process::exit(1);
        }
        println!("overhead gate ok: {pct:.2}% <= {t:.2}% at {} nodes (wall)", p.n);
    }
}
