//! E13 — scale sweep driver (see `lc_bench::e13` for the model and
//! variant matrix).
//!
//! Usage: `e13_scale_sweep [--max-nodes N] [--gate-bytes-per-node T] [JSON_PATH]`
//!
//! * `--max-nodes N` caps the sweep (ci.sh smoke runs use 10⁴; the
//!   committed `BENCH_e13.json` is the full 10⁶ sweep).
//! * `--gate-bytes-per-node T` exits non-zero if the largest `hier`
//!   point exceeds `T` bytes of state per node — the memory regression
//!   gate.
//!
//! Every stdout column carrying wall-clock throughput ends in `wall`,
//! and every such JSON value is a `wall_` leaf of `lc_bench::json`;
//! ci.sh masks exactly those before diffing, so everything else is
//! byte-identical across runs.

use lc_bench::{e13, write_artefacts, SweepArgs};
use std::time::Instant; // lc-lint: allow(D1) -- explicit wall-clock throughput column

fn main() {
    let SweepArgs { max_nodes, gate, path } =
        SweepArgs::parse("e13", "--gate-bytes-per-node", 1_000_000);

    let seed = 13;
    let start = Instant::now(); // lc-lint: allow(D1) -- wall column only
    let points = e13::sweep(seed, max_nodes, || start.elapsed().as_secs_f64());
    let out = e13::render(&points, seed);
    print!("{}", out.report);
    write_artefacts("e13", &[(&path, &out.json)]);
    // The JSON length varies with the width of the wall_ values, so the
    // summary counts points, not bytes (stdout must diff clean).
    println!("\nsummary: {} sweep points written to JSON", points.len());

    if let Some(t) = gate {
        let worst = points
            .iter()
            .filter(|p| p.report.variant == "hier")
            .max_by_key(|p| p.report.n)
            .map(|p| p.report.bytes_per_node)
            .unwrap_or(0.0);
        if worst > t {
            eprintln!("e13: memory gate FAILED: {worst:.2} bytes/node > {t:.2}");
            std::process::exit(1);
        }
        println!("memory gate ok: {worst:.2} bytes/node <= {t:.2}");
    }
}
