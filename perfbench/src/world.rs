//! World building and counter snapshots shared by the two simulated
//! workloads.

use crate::clock::timed;
use crate::metrics::{m, Metric, SERVICES};
use crate::trace::span;
use lc_core::cohesion::Hierarchy;
use lc_core::node::{Node, NodeConfig, NodeSeed, ServiceKind};
use lc_core::testkit::World;
use lc_core::BehaviorRegistry;
use lc_des::{ActorId, Sim, SimTime};
use lc_net::{HostId, Net};
use lc_orb::SimOrb;
use lc_pkg::TrustStore;
use std::rc::Rc;
use std::sync::Arc;

/// `lc_core::testkit::build_world_on`, with each `NodeSeed::spawn`
/// timed and wrapped in a span. Returns the world and the host ns of
/// every spawn.
pub fn build(
    net: Net,
    seed: u64,
    config: NodeConfig,
    behaviors: BehaviorRegistry,
    trust: TrustStore,
    idl: Arc<lc_idl::Repository>,
    preinstalled: impl Fn(HostId) -> Vec<Rc<Vec<u8>>>,
) -> (World, Vec<u64>) {
    let orb = SimOrb::new(net.clone());
    let hierarchy = span("setup.hierarchy", 0, || {
        Rc::new(Hierarchy::build(&net.host_ids(), config.cohesion.clone()))
    });
    let mut sim = Sim::new(seed);
    let mut seeds = Vec::new();
    let mut actors = Vec::new();
    let mut spawn_ns = Vec::new();
    for host in net.host_ids() {
        let node_seed = NodeSeed {
            host,
            config: config.clone(),
            net: net.clone(),
            orb: orb.clone(),
            hierarchy: hierarchy.clone(),
            behaviors: behaviors.clone(),
            trust: trust.clone(),
            idl: idl.clone(),
            preinstalled: preinstalled(host),
        };
        let (ns, actor) = timed(|| span("node.spawn", 0, || node_seed.spawn(&mut sim)));
        spawn_ns.push(ns);
        seeds.push(node_seed);
        actors.push(actor);
    }
    (
        World {
            sim,
            net,
            orb,
            seeds,
            actors,
        },
        spawn_ns,
    )
}

/// `Sim::run_until`, in a span.
pub fn run_until(sim: &mut Sim, t: SimTime, op: u64) {
    span("des.run_until", op, || sim.run_until(t));
}

/// Per-service node counters summed over live nodes.
#[derive(Clone, Copy, Default)]
pub struct NodeTotals {
    dispatches: [u64; 5],
    dispatch_ns: [u64; 5],
    msgs_out: [u64; 5],
    continuation_peak: usize,
}

impl NodeTotals {
    /// Sum over every live node actor in `actors`.
    pub fn read(sim: &Sim, actors: &[ActorId]) -> NodeTotals {
        let mut t = NodeTotals::default();
        for node in actors.iter().filter_map(|&a| sim.actor_as::<Node>(a)) {
            let nm = node.state().node_metrics();
            for (i, kind) in ServiceKind::ALL.iter().enumerate() {
                let s = nm.service(*kind);
                t.dispatches[i] += s.dispatches;
                t.dispatch_ns[i] += s.dispatch_ns;
                t.msgs_out[i] += s.msgs_out;
            }
            t.continuation_peak = t
                .continuation_peak
                .max(node.state().continuation_peak_depth());
        }
        t
    }

    /// `node.*` metrics of the interval `before..self`, per attempted op.
    pub fn layer_metrics(&self, before: &NodeTotals, ops: u64) -> Vec<Metric> {
        let ops = ops.max(1) as f64;
        let mut out = Vec::new();
        for (i, svc) in SERVICES.iter().enumerate() {
            let d = |a: &[u64; 5], b: &[u64; 5]| a[i].saturating_sub(b[i]) as f64;
            out.push(m(
                format!("node.{svc}.dispatches_per_op"),
                d(&self.dispatches, &before.dispatches) / ops,
                "count",
            ));
            out.push(m(
                format!("node.{svc}.busy_ms"),
                d(&self.dispatch_ns, &before.dispatch_ns) / 1e6,
                "ms",
            ));
            out.push(m(
                format!("node.{svc}.msgs_out"),
                d(&self.msgs_out, &before.msgs_out),
                "count",
            ));
        }
        out.push(m(
            "node.continuation_peak",
            self.continuation_peak as f64,
            "count",
        ));
        out
    }
}

/// Snapshot of the simulation's counters at the start of the measured
/// phase, so the phase's deltas exclude set-up.
pub struct Counters {
    events: u64,
    values: Vec<u64>,
    recv: Vec<u64>,
}

/// Sim counters whose measured-phase deltas the workloads report.
pub const COUNTERS: [&str; 14] = [
    "net.msgs",
    "net.bytes",
    "net.fault.dropped",
    "net.fault.duplicated",
    "query.msgs",
    "query.started",
    "query.timeouts",
    "registry.shard_hops",
    "registry.gossip_msgs",
    "registry.publish_msgs",
    "cache.hits",
    "cache.misses",
    "cache.coalesced",
    "cache.invalidations",
];

impl Counters {
    /// Read every counter now.
    pub fn read(sim: &Sim, net: &Net) -> Counters {
        let mt = sim.metrics_ref();
        Counters {
            events: sim.events_fired(),
            values: COUNTERS.iter().map(|k| mt.counter(k)).collect(),
            recv: net
                .host_ids()
                .iter()
                .map(|&h| net.host_traffic(h).1)
                .collect(),
        }
    }

    /// Delta of counter `key` since `before`.
    pub fn delta(&self, before: &Counters, key: &str) -> u64 {
        match COUNTERS.iter().position(|k| *k == key) {
            Some(i) => self.values[i].saturating_sub(before.values[i]),
            None => panic!("counter {key} is not snapshotted"),
        }
    }

    /// Events fired since `before`.
    pub fn events(&self, before: &Counters) -> u64 {
        self.events - before.events
    }

    /// The busiest receiver's byte delta since `before`.
    pub fn hotspot_recv(&self, before: &Counters) -> u64 {
        self.recv
            .iter()
            .zip(&before.recv)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0)
    }

    /// The `des.*`, `net.*`, `registry.*` and `cache.*` counter metrics
    /// of the interval `before..self` for `ops` attempted operations.
    pub fn layer_metrics(&self, before: &Counters, ops: u64, measure_ns: u64) -> Vec<Metric> {
        let d = |k: &str| self.delta(before, k) as f64;
        let events = self.events(before);
        let queries = d("query.started").max(1.0);
        let lookups = d("cache.hits") + d("cache.misses");
        vec![
            m(
                "des.events_per_op",
                events as f64 / ops.max(1) as f64,
                "count",
            ),
            m(
                "des.host_ns_per_event",
                measure_ns as f64 / events.max(1) as f64,
                "ns",
            ),
            m("net.msgs", d("net.msgs"), "count"),
            m("net.bytes", d("net.bytes"), "B"),
            m("net.fault.dropped", d("net.fault.dropped"), "count"),
            m("net.fault.duplicated", d("net.fault.duplicated"), "count"),
            m(
                "net.hotspot_recv_kib",
                self.hotspot_recv(before) as f64 / 1024.0,
                "KiB",
            ),
            m(
                "registry.query_msgs_per_query",
                d("query.msgs") / queries,
                "count",
            ),
            m("registry.shard_hops", d("registry.shard_hops"), "count"),
            m("registry.gossip_msgs", d("registry.gossip_msgs"), "count"),
            m("registry.publish_msgs", d("registry.publish_msgs"), "count"),
            m("registry.query_timeouts", d("query.timeouts"), "count"),
            m(
                "cache.hit_ratio",
                if lookups > 0.0 {
                    d("cache.hits") / lookups
                } else {
                    0.0
                },
                "ratio",
            ),
            m("cache.coalesced", d("cache.coalesced"), "count"),
            m("cache.invalidated", d("cache.invalidations"), "count"),
        ]
    }
}
