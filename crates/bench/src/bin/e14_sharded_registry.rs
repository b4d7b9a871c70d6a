//! E14 — sharded registry driver (see `lc_bench::e14` for the model
//! and variant ladder).
//!
//! Usage: `e14_sharded_registry [--max-nodes N] [--gate-reduction R] [JSON_PATH]`
//!
//! * `--max-nodes N` caps the sweep (ci.sh smoke runs cap at 1024; the
//!   committed `BENCH_e14.json` includes the 8k end points).
//! * `--gate-reduction R` exits non-zero if any 4+-shard point on the
//!   1k campus reduces the former leader's recv bytes by less than `R`x
//!   or regresses p99 over the single-leader row — the hotspot gate.
//!
//! Every stdout column carrying wall-clock cost ends in `wall`, and
//! every such JSON value is a `wall_` leaf of `lc_bench::json`; ci.sh
//! masks exactly those before diffing, so everything else is
//! byte-identical across runs.

use lc_bench::{e14, write_artefacts, SweepArgs};
use std::time::Instant; // lc-lint: allow(D1) -- explicit wall-clock column

fn main() {
    let SweepArgs { max_nodes, gate, path } = SweepArgs::parse("e14", "--gate-reduction", 8192);

    let seed = 14;
    let start = Instant::now(); // lc-lint: allow(D1) -- wall column only
    let points = e14::sweep(seed, max_nodes, || start.elapsed().as_secs_f64());
    let out = e14::render(&points, seed);
    print!("{}", out.report);
    write_artefacts("e14", &[(&path, &out.json)]);
    println!("\nsummary: {} sweep points written to JSON", points.len());

    if let Some(r) = gate {
        let at_1k = points.iter().map(|p| &p.result).filter(|v| v.point.nodes == 1024);
        let single = at_1k.clone().find(|v| v.point.shards == 0);
        let single_p99 = single.map_or(f64::INFINITY, |v| v.p99_ms);
        for v in at_1k.filter(|v| v.point.shards >= 4) {
            let (shards, p99, red) = (v.point.shards, v.p99_ms, e14::reduction(&points, v));
            if red < r || p99 > single_p99 {
                eprintln!(
                    "e14: hotspot gate FAILED at {shards} shards: reduction {red:.2} (floor {r:.2}), \
                     p99 {p99:.2}ms (single-leader {single_p99:.2}ms)"
                );
                std::process::exit(1);
            }
        }
        println!("hotspot gate ok: >= {r:.2}x former-leader reduction, p99 no worse at 4+ shards");
    }
}
