//! E16 — open-loop capacity under overload control (see `lc_bench::e16`
//! for the workload, variants and gates).
//!
//! Usage: `e16_capacity [--max-rate N] [JSON_PATH]` — writes the
//! machine-readable summary (default `target/BENCH_e16.json`; the
//! committed copy lives at the repo root). `--max-rate` caps the
//! offered-load sweep for quick smoke runs. Stdout and the JSON are
//! byte-identical across runs; ci.sh runs the binary twice and diffs
//! both. Exits non-zero when the overload-control gates fail.

use lc_bench::{die, e16, write_artefacts};

fn main() {
    let mut max_rate: Option<f64> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-rate" => {
                let Some(v) = args.next() else { die("e16", "--max-rate needs a value") };
                match v.parse::<f64>() {
                    Ok(r) if r > 0.0 => max_rate = Some(r),
                    _ => die("e16", "--max-rate must be a positive number"),
                }
            }
            _ if a.starts_with("--") => die("e16", &format!("unknown flag {a}")),
            _ => path = Some(a),
        }
    }
    let path = path.unwrap_or_else(|| "target/BENCH_e16.json".into());

    let out = e16::run_limited(16, max_rate);
    print!("{}", out.report);
    write_artefacts("e16", &[(&path, &out.json)]);
    // Stdout stays byte-identical regardless of the target path (ci.sh
    // diffs two runs writing to different files).
    println!("\nsummary: {} bytes of JSON written", out.json.len());
    if !out.gates_ok {
        eprintln!("e16: overload-control gates FAILED");
        std::process::exit(1);
    }
}
