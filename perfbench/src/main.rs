//! perfbench — the repository benchmark.
//!
//! One command runs one named workload from a workload seed, checks its
//! outputs, and prints every metric by name and unit; the last line of
//! stdout is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). See README.md for the workloads, the metric ↔ layer map
//! and how to read a traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! A run repeats rounds (set-up plus measured phase) until `--seconds`
//! of host time have passed, cycling through [`INPUT_SETS`] input sets
//! drawn from the seed. Host-time metrics pool the untraced rounds
//! (set-up time is their median); virtual-time metrics pool one round
//! per input set and repeat exactly for a seed, which the run checks
//! through the digest. With
//! `--trace 1` every input set runs twice in a row, the second time
//! recording spans, and the JSON line carries the per-layer metrics
//! instead.

mod campus_invoke;
mod clock;
mod local_assembly;
mod metrics;
mod registry_churn;
mod replay;
mod stats;
mod trace;
mod world;

use metrics::{m, median_by_name, Metric, Round};
use stats::median;
use std::process::ExitCode;

/// Seed held out for performance claims: never used while a change is
/// written or tuned, only to confirm a claim at the end.
pub const HELD_OUT_SEED: u64 = 20_010_903;

const USAGE: &str =
    "usage: perfbench --workload <local-assembly|campus-invoke|registry-churn> --seed <n> \
     --seconds <s> --trace <0|1> [--out <dir>]";

/// Hard cap on rounds per run, whatever `--seconds` says.
const MAX_ROUNDS: usize = 400;

/// Input sets per seed. Round `i` runs input set `i % INPUT_SETS`; the
/// virtual-time metrics pool the first `INPUT_SETS` rounds, so one run
/// samples several independent traffic draws and its figures vary
/// less from seed to seed.
pub const INPUT_SETS: usize = 4;

/// One workload: inputs fixed at construction from the seed.
pub trait Workload {
    /// One set-up plus one measured phase on input set `set`.
    fn round(&mut self, set: usize) -> Round;
    /// Replay timings of single layers on this workload's own inputs
    /// (traced runs only).
    fn replays(&mut self) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn make(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "local-assembly" => Box::new(local_assembly::LocalAssembly::new(seed)),
        "campus-invoke" => Box::new(campus_invoke::CampusInvoke::new(seed)),
        "registry-churn" => Box::new(registry_churn::RegistryChurn::new(seed)),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = make(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    // A traced run runs each input set twice in a row, untraced then
    // traced, so both sides of the tracing-overhead ratio see the same
    // inputs and the same stretch of host time.
    let schedule = |i: usize| {
        if args.trace {
            ((i / 2) % INPUT_SETS, i % 2 == 1)
        } else {
            (i % INPUT_SETS, false)
        }
    };
    let min_rounds = if args.trace {
        2 * INPUT_SETS
    } else {
        INPUT_SETS
    };
    let start = clock::now_ns();
    let mut rounds: Vec<(usize, bool, Round)> = Vec::new();
    let mut host_lat_ns = stats::LogHist::default();
    loop {
        let (set, traced) = schedule(rounds.len());
        trace::set_enabled(traced);
        let mut r = w.round(set);
        trace::set_enabled(false);
        // Keep latency samples only for the first round of an input set
        // (the pooled virtual-time percentiles); pool host latencies.
        if rounds.iter().any(|(s, _, _)| *s == set) {
            r.op_lat_ms = Vec::new();
        }
        if !traced {
            host_lat_ns.merge(&r.host_lat_ns);
        }
        r.host_lat_ns = stats::LogHist::default();
        eprintln!(
            "round {} set={set} traced={traced} setup_ms={:.1} measure_ms={:.1} ops_per_host_s={:.0}",
            rounds.len(),
            r.setup_ns as f64 / 1e6,
            r.measure_ns as f64 / 1e6,
            r.completed as f64 / (r.measure_ns.max(1) as f64 / 1e9)
        );
        rounds.push((set, traced, r));
        let elapsed_s = (clock::now_ns() - start) as f64 / 1e9;
        if (rounds.len() >= min_rounds && elapsed_s >= args.seconds) || rounds.len() >= MAX_ROUNDS {
            break;
        }
    }
    let peak_rss = metrics::peak_rss_mib();
    let untraced: Vec<&Round> = rounds
        .iter()
        .filter(|(_, t, _)| !t)
        .map(|(_, _, r)| r)
        .collect();
    let traced: Vec<&Round> = rounds
        .iter()
        .filter(|(_, t, _)| *t)
        .map(|(_, _, r)| r)
        .collect();
    // The first round of each input set carries the virtual-time metrics.
    let cycle: Vec<&Round> = (0..INPUT_SETS)
        .filter_map(|k| rounds.iter().find(|(s, _, _)| *s == k).map(|(_, _, r)| r))
        .collect();

    // Correctness: every round's own checks, and one digest per input
    // set (virtual-time outputs repeat exactly, traced or not).
    let mut violations: Vec<String> = Vec::new();
    let mut digest = stats::Digest::default();
    for (i, (set, _, r)) in rounds.iter().enumerate() {
        violations.extend(r.violations.iter().map(|v| format!("round {i}: {v}")));
        let first = cycle[*set].digest;
        if r.digest != first {
            violations.push(format!(
                "round {i} digest {:016x} differs from the first digest {first:016x} of input set {set}",
                r.digest
            ));
        }
    }
    cycle.iter().for_each(|r| digest.u64(r.digest));
    let digest = digest.value();
    let attempted: u64 = rounds.iter().map(|(_, _, r)| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|(_, _, r)| r.failed).sum();

    println!(
        "perfbench workload={} seed={} rounds={} traced_rounds={} held_out_seed={HELD_OUT_SEED}",
        args.workload,
        args.seed,
        rounds.len(),
        traced.len()
    );
    let e2e = metrics::end_to_end(&untraced, &cycle, &host_lat_ns, peak_rss);
    let mut report = median_by_name(cycle.iter().map(|r| r.report.as_slice()));
    if host_lat_ns.len() > 0 {
        report.push(m("call_p50_ns", host_lat_ns.percentile(50.0), "ns"));
        if stats::supported(host_lat_ns.len() as usize, 99.0) {
            report.push(m("call_p99_ns", host_lat_ns.percentile(99.0), "ns"));
        }
    }
    for x in e2e.iter().chain(&report) {
        println!(
            "metric {} {} {}",
            x.name,
            metrics::json_num(x.value),
            x.unit
        );
    }
    println!("digest {digest:016x}");

    let emitted = if args.trace {
        let layers = layer_metrics(&mut *w, &untraced, &traced);
        for x in &layers {
            println!("layer {} {} {}", x.name, metrics::json_num(x.value), x.unit);
        }
        // Where set-up time went: node spawning (self time per traced
        // round) against set-up, and the ring-build replay × hosts.
        let find =
            |set: &[Metric], name: &str| set.iter().find(|x| x.name == name).map(|x| x.value);
        if let (Some(setup), Some(spawn), Some(ring), Some(hosts)) = (
            find(&e2e, "setup_s"),
            find(&layers, "trace.self_ms.node"),
            find(&layers, "registry.ring_build_ms"),
            find(&report, "hosts"),
        ) {
            println!(
                "attribution setup_s={} node_spawn_self_s={} ring_build_x_hosts_s={}",
                metrics::json_num(setup),
                metrics::json_num(spawn / 1e3),
                metrics::json_num(ring * hosts / 1e3)
            );
        }
        if let Some(dir) = &args.out {
            let path = format!("{dir}/{}-seed{}.spans.jsonl", args.workload, args.seed);
            match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::export()))
            {
                Ok(()) => println!("spans {path}"),
                Err(e) => violations.push(format!("cannot write spans to {path}: {e}")),
            }
        }
        layers
    } else {
        e2e
    };
    for v in &violations {
        println!("violation {v}");
    }
    println!(
        "{}",
        metrics::result_line(violations.is_empty(), attempted, failed, &emitted)
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every per-layer metric, in catalogue order: round medians, replay
/// timings, tracing overhead and per-layer self time.
fn layer_metrics(w: &mut dyn Workload, untraced: &[&Round], traced: &[&Round]) -> Vec<Metric> {
    let n_traced = traced.len().max(1) as f64;
    let spans = trace::span_count() as f64 / n_traced;
    let self_ns = trace::self_ns();
    let med_measure =
        |rs: &[&Round]| median(&rs.iter().map(|r| r.measure_ns as f64).collect::<Vec<_>>());
    let overhead = med_measure(traced) / med_measure(untraced).max(1.0) - 1.0;

    trace::set_enabled(true);
    let replays = w.replays();
    trace::set_enabled(false);

    let mut have = median_by_name(untraced.iter().map(|r| r.layers.as_slice()));
    have.extend(replays);
    have.push(m("trace.spans", spans, "count"));
    have.push(m("trace.overhead_frac", overhead, "ratio"));
    for l in metrics::TRACE_LAYERS {
        let ns = self_ns.get(l).copied().unwrap_or(0) as f64;
        have.push(m(format!("trace.self_ms.{l}"), ns / n_traced / 1e6, "ms"));
    }
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = have
                .iter()
                .find(|x| x.name == name)
                .map_or(0.0, |x| x.value);
            Metric { name, value, unit }
        })
        .collect()
}
