//! E13 — the scale sweep: one campus model, 10³ → 10⁶ nodes.
//!
//! §2.3's case for hierarchical MRM federation is asymptotic: soft
//! state and summary push keep query cost at O(depth) while a central
//! registry degrades with campus size and strong consistency pays for
//! every membership change. E1–E12 demonstrate the mechanisms at 8–64
//! nodes; E13 runs the arithmetic campus model
//! ([`lc_core::scale`]) across four decades of scale and three
//! registry designs:
//!
//! * `hier`   — the paper's hierarchy (fanout 8, 2 MRM replicas);
//! * `flat`   — one central registry, query fan-out to every owner;
//! * `strong` — strongly-consistent coordinator (3-message queries,
//!   2·N view-change broadcast per membership change).
//!
//! Each point reports messages per query, messages per churn event,
//! nodes materialized (the lazy-SoA footprint), and bytes per node
//! (campus columns + event-calendar arena). Every column except the
//! `wall`-marked throughput ones derives from virtual time and
//! counters, so two runs render byte-identical reports; ci.sh diffs a
//! double run and the committed `BENCH_e13.json` with only the wall
//! columns and `wall_` leaves masked.

use crate::json::{Obj, SCHEMA_VERSION};
use crate::{f2, format_table, human_bytes, Output};
use lc_core::scale::{run_scale, ScaleConfig, ScaleReport, Variant};
use std::fmt::Write as _;

/// Campus sizes swept (nodes).
pub const SIZES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Registry designs compared at every size.
pub const VARIANTS: [Variant; 3] = [Variant::Hier, Variant::Flat, Variant::Strong];

/// One sweep point plus its wall-clock cost (see [`sweep`]).
pub struct SweepPoint {
    /// Deterministic simulation results.
    pub report: ScaleReport,
    /// Wall-clock seconds the point took (0 = untimed).
    pub wall_s: f64,
}

/// Run a single sweep point (pure simulation, deterministic).
pub fn run_point(n: u32, variant: Variant, seed: u64) -> ScaleReport {
    run_scale(ScaleConfig::new(n, variant), seed)
}

/// The sweep grid, capped at `max_nodes` (the ci.sh smoke run caps at
/// 10⁴; the committed artefact is the full 10⁶ sweep).
pub fn grid(max_nodes: u32) -> Vec<(u32, Variant)> {
    let mut g = Vec::new();
    for &n in SIZES.iter().filter(|&&n| n <= max_nodes) {
        for &v in &VARIANTS {
            g.push((n, v));
        }
    }
    g
}

/// The JSON artefact (`BENCH_e13.json`), deterministic except `wall_` keys.
fn render_json(points: &[SweepPoint], seed: u64) -> String {
    let point = |p: &SweepPoint| {
        let r = &p.report;
        let eps = if p.wall_s > 0.0 { r.events as f64 / p.wall_s } else { 0.0 };
        Obj::new()
            .f2("bytes_per_node", r.bytes_per_node)
            .int("campus_bytes", r.campus_bytes)
            .f2("churn_msgs_per_event", r.churn_msgs_per_event)
            .int("depth", r.depth)
            .int("escalations", r.escalations)
            .int("events", r.events)
            .int("groups", r.groups)
            .int("latency_p50_ns", r.latency_p50_ns)
            .int("latency_p99_ns", r.latency_p99_ns)
            .f2("msgs_per_query", r.msgs_per_query)
            .int("n", r.n)
            .int("nodes_materialized", r.nodes_materialized)
            .int("queries_completed", r.queries_completed)
            .int("queue_bytes", r.queue_bytes)
            .str("variant", r.variant)
            .wall("events_per_sec", eps)
            .wall("ms", p.wall_s * 1e3)
    };
    let max_n = points.iter().map(|p| p.report.n).max().unwrap_or(0);
    Obj::new()
        .str("experiment", "e13_scale_sweep")
        .int("max_nodes", max_n)
        .arr("points", points.iter().map(point))
        .int("schema_version", SCHEMA_VERSION)
        .int("seed", seed)
        .render()
}

/// Render both artefacts from completed sweep points.
pub fn render(points: &[SweepPoint], seed: u64) -> Output {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let r = &p.report;
            vec![
                r.n.to_string(),
                r.variant.to_string(),
                r.depth.to_string(),
                f2(r.msgs_per_query),
                f2(r.churn_msgs_per_event),
                r.escalations.to_string(),
                r.nodes_materialized.to_string(),
                human_bytes(r.campus_bytes as u64),
                human_bytes(r.queue_bytes as u64),
                f2(r.bytes_per_node),
                // wall column: volatile, filtered by the CI diff.
                if p.wall_s > 0.0 {
                    format!("{} wall", human_events_per_sec(r.events as f64 / p.wall_s))
                } else {
                    "- wall".to_string()
                },
            ]
        })
        .collect();
    let mut report = String::new();
    let _ = writeln!(report, "E13: scale sweep, hier vs flat vs strong (seed {seed})");
    let _ = writeln!(
        report,
        "fanout 8, 2 MRM replicas, 2 rounds, 32 queries + 2 membership changes per point"
    );
    report.push_str(&format_table(
        "campus scale sweep",
        &[
            "nodes",
            "variant",
            "depth",
            "msgs/query",
            "msgs/churn",
            "escalations",
            "materialized",
            "campus mem",
            "queue mem",
            "B/node",
            "events/s",
        ],
        &rows,
    ));

    // Headline: the asymptotic claim, stated from the largest size that
    // has all three variants.
    if let Some(n) = points.iter().map(|p| p.report.n).max() {
        let at = |v: &str| {
            points.iter().find(|p| p.report.n == n && p.report.variant == v).map(|p| &p.report)
        };
        if let (Some(h), Some(f), Some(s)) = (at("hier"), at("flat"), at("strong")) {
            let _ = writeln!(
                report,
                "\nat {n} nodes: hier {} msgs/query vs flat {} ({}x); \
                 strong churn {} msgs/event vs hier {} ({}x)",
                f2(h.msgs_per_query),
                f2(f.msgs_per_query),
                f2(f.msgs_per_query / h.msgs_per_query.max(f64::MIN_POSITIVE)),
                f2(s.churn_msgs_per_event),
                f2(h.churn_msgs_per_event),
                f2(s.churn_msgs_per_event / h.churn_msgs_per_event.max(f64::MIN_POSITIVE)),
            );
            let _ = writeln!(
                report,
                "hier state: {} materialized of {n} nodes, {} bytes/node",
                h.nodes_materialized,
                f2(h.bytes_per_node),
            );
        }
    }
    Output { report, json: render_json(points, seed) }
}

/// Human-readable events/sec (volatile — only used on wall columns).
fn human_events_per_sec(eps: f64) -> String {
    if eps >= 1e6 {
        format!("{}M/s", f2(eps / 1e6))
    } else if eps >= 1e3 {
        format!("{}k/s", f2(eps / 1e3))
    } else {
        format!("{}/s", f2(eps))
    }
}

/// Run the (capped) sweep, timing each point with `clock` (seconds
/// from any fixed origin): the binary passes a wall clock, tests a
/// constant, so the library never reads one.
pub fn sweep(seed: u64, max_nodes: u32, mut clock: impl FnMut() -> f64) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for (n, variant) in grid(max_nodes) {
        let t0 = clock();
        let report = run_point(n, variant, seed);
        points.push(SweepPoint { report, wall_s: clock() - t0 });
    }
    points
}

/// The sweep untimed — the deterministic core the tests exercise.
pub fn run_untimed(seed: u64, max_nodes: u32) -> Output {
    render(&sweep(seed, max_nodes, || 0.0), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_small_sweep_is_deterministic() {
        let a = run_untimed(13, 10_000);
        let b = run_untimed(13, 10_000);
        assert_eq!(a.report, b.report);
        assert_eq!(a.json, b.json);
        assert!(a.json.contains("\"schema_version\": 1"));
        // 2 sizes x 3 variants.
        assert_eq!(a.json.matches("\"variant\"").count(), 6);
    }

    #[test]
    fn hier_cost_stays_flat_while_flat_grows() {
        let h1 = run_point(1_000, Variant::Hier, 13);
        let h2 = run_point(10_000, Variant::Hier, 13);
        let f1 = run_point(1_000, Variant::Flat, 13);
        let f2_ = run_point(10_000, Variant::Flat, 13);
        // 10x the campus: hier msgs/query barely moves (one extra level
        // at most), flat grows with the owner population.
        assert!(h2.msgs_per_query < h1.msgs_per_query * 2.0);
        assert!(f2_.msgs_per_query > f1.msgs_per_query * 5.0);
        // The lazy SoA keeps footprint near-constant per node.
        assert!(h2.bytes_per_node < 160.0, "bytes/node {}", h2.bytes_per_node);
    }
}
