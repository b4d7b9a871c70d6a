//! The metric catalogue, one round's measurements, and the run summary.
//!
//! `END_TO_END` and `per_layer()` are the names `BENCHMARK.json` declares;
//! every workload emits all of them (a per-layer metric of a layer the
//! workload never enters reads 0 — the null prediction). The
//! workload-specific metrics of each workload (`call_*`, `invoke_*`,
//! `query_*`, `write_*`, `fail_frac`, …) are printed in the report
//! lines above the JSON line.

use crate::stats::{median, percentile, LogHist};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_host_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("msgs_per_op", "count"),
    ("bytes_per_op", "B"),
];

/// The five node services, in the repo's display order.
pub const SERVICES: [&str; 5] = ["acceptor", "registry", "resource", "cohesion", "container"];

/// Layers whose self time the traced run reports.
pub const TRACE_LAYERS: [&str; 9] = [
    "bench", "des", "load", "net", "node", "orb", "pkg", "registry", "setup",
];

/// Per-layer metrics `(name, unit)`, from the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 38] = [
        ("des.events_per_op", "count"),
        ("des.host_ns_per_event", "ns"),
        ("des.pending_peak", "count"),
        ("des.arena_kib", "KiB"),
        ("net.msgs", "count"),
        ("net.bytes", "B"),
        ("net.fault.dropped", "count"),
        ("net.fault.duplicated", "count"),
        ("net.hotspot_recv_kib", "KiB"),
        ("net.send_ns", "ns"),
        ("orb.direct_ns", "ns"),
        ("orb.typed_ns", "ns"),
        ("orb.marshalled_ns", "ns"),
        ("orb.cdr_encode_ns_per_kib", "ns/KiB"),
        ("orb.cdr_decode_ns_per_kib", "ns/KiB"),
        ("orb.request_kib", "KiB"),
        ("orb.dispatch_ns", "ns"),
        ("orb.dispatches_per_op", "count"),
        ("node.continuation_peak", "count"),
        ("registry.ring_build_ms", "ms"),
        ("registry.node_spawn_ms", "ms"),
        ("registry.query_msgs_per_query", "count"),
        ("registry.shard_hops", "count"),
        ("registry.gossip_msgs", "count"),
        ("registry.publish_msgs", "count"),
        ("registry.query_timeouts", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.coalesced", "count"),
        ("cache.invalidated", "count"),
        ("admission.shed", "count"),
        ("admission.queue_high_water", "ms"),
        ("admission.admit_ratio", "ratio"),
        ("load.arrivals", "count"),
        ("load.gen_ms", "ms"),
        ("pkg.verify_us_per_kib", "us/KiB"),
        ("pkg.installs", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_frac", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for svc in SERVICES {
        out.push((format!("node.{svc}.dispatches_per_op"), "count"));
        out.push((format!("node.{svc}.busy_ms"), "ms"));
        out.push((format!("node.{svc}.msgs_out"), "count"));
    }
    for l in TRACE_LAYERS {
        out.push((format!("trace.self_ms.{l}"), "ms"));
    }
    out
}

/// One named value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one round (one set-up plus one measured phase) produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Host ns from workload start to the first measured operation.
    pub setup_ns: u64,
    /// Host ns of the measured phase.
    pub measure_ns: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations completed successfully.
    pub completed: u64,
    /// Operations that errored, were refused, timed out or were
    /// unresolved at drain.
    pub failed: u64,
    /// Virtual-time latency samples of the workload's primary
    /// operation, ms: a remote invoke from its due time (campus-invoke)
    /// or a query's time to first offer (registry-churn).
    pub op_lat_ms: Vec<f64>,
    /// Host-time latency of the primary operation, ns: one `LocalOrb`
    /// call (local-assembly).
    pub host_lat_ns: LogHist,
    /// Messages of the measured phase: net frames, or `LocalOrb`
    /// requests in-process.
    pub msgs: u64,
    /// Bytes of the measured phase: net bytes, or CDR request bytes
    /// in-process.
    pub bytes: u64,
    /// The workload's own virtual-time and count metrics.
    pub report: Vec<Metric>,
    /// Per-layer values measured in this round.
    pub layers: Vec<Metric>,
    /// Digest of every virtual-time (deterministic) output.
    pub digest: u64,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
}

/// The median of each named metric over `sets`, in first-seen order.
pub fn median_by_name<'a>(sets: impl Iterator<Item = &'a [Metric]>) -> Vec<Metric> {
    let mut order: Vec<(String, &'static str)> = Vec::new();
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for set in sets {
        for x in set {
            if !values.contains_key(&x.name) {
                order.push((x.name.clone(), x.unit));
            }
            values.entry(x.name.clone()).or_default().push(x.value);
        }
    }
    order
        .into_iter()
        .map(|(name, unit)| {
            let v = median(&values[&name]);
            Metric {
                name,
                value: v,
                unit,
            }
        })
        .collect()
}

/// The end-to-end metrics, in `END_TO_END` order. Throughput pools the
/// `untraced` rounds (operations over measured host time) and set-up is
/// their median; host latency comes from `host_lat_ns`, pooled over the
/// untraced rounds. Virtual-time latency and counts pool the `cycle`
/// rounds (one per input set), so they repeat exactly for a seed.
pub fn end_to_end(
    untraced: &[&Round],
    cycle: &[&Round],
    host_lat_ns: &LogHist,
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let setup: Vec<f64> = untraced.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let completed: u64 = untraced.iter().map(|r| r.completed).sum();
    let measure_ns: u64 = untraced.iter().map(|r| r.measure_ns).sum();
    let (p50, p99) = if host_lat_ns.len() > 0 {
        (
            host_lat_ns.percentile(50.0) / 1e6,
            host_lat_ns.percentile(99.0) / 1e6,
        )
    } else {
        let pooled: Vec<f64> = cycle
            .iter()
            .flat_map(|r| r.op_lat_ms.iter().copied())
            .collect();
        (percentile(&pooled, 50.0), percentile(&pooled, 99.0))
    };
    let ops = cycle.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64;
    let values = [
        median(&setup),
        completed as f64 / (measure_ns.max(1) as f64 / 1e9),
        peak_rss_mib,
        p50,
        p99,
        cycle.iter().map(|r| r.msgs).sum::<u64>() as f64 / ops,
        cycle.iter().map(|r| r.bytes).sum::<u64>() as f64 / ops,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| m(name, v, unit))
        .collect()
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON number: finite values as Rust prints them (shortest
/// round-trip form, all digits kept), anything else as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The run's last stdout line: correctness, operation counts, metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            json_num(x.value),
            x.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        all.extend(per_layer());
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &all {
            assert!(valid_name(n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
        }
        assert!(per_layer().len() <= 128);
    }

    /// Every emitted name matches `BENCHMARK.json`, with its unit, in
    /// both directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |k: &str| {
                        let i = obj.find(&format!("\"{k}\"")).expect("field present");
                        let rest = &obj[i + k.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value opens") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[m("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "0");
    }
}
