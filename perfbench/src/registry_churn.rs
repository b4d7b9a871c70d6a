//! `registry-churn`: an open-loop query stream plus ~10 % writes on a
//! 2 048-host campus with the sharded registry (4 shards × 2 replicas)
//! and the query cache on, under E14-style churn without frame loss
//! (0.5 % duplication, 2 ms jitter, crash/restart cycles; see
//! `churn_plan` for why links lose nothing). Queries name one of
//! 256 components by zipf(1.0) popularity and come from non-MRM seats;
//! writes are `SpawnOn` and `Migrate`, timed by polling their sinks at
//! every virtual-time slice. Reads and writes share the backend and the
//! cache, so a query-side gain that slows writes shows up here.

use crate::clock::now_ns;
use crate::metrics::{m, Metric, Round};
use crate::stats::{percentile, sub_seed, supported, Digest};
use crate::trace::span;
use crate::world::{self, Counters, NodeTotals};
use crate::Workload;
use lc_core::cohesion::CohesionConfig;
use lc_core::demo;
use lc_core::node::{Node, NodeCmd, QueryResult, RegistryConfig};
use lc_core::testkit::World;
use lc_core::{
    CacheConfig, ComponentQuery, MigrateSink, NodeConfig, ShardConfig, ShardRingConfig, SpawnSink,
};
use lc_des::{ActorId, SimTime};
use lc_load::{Arrival, ArrivalShape, ArrivalStream, StreamConfig, ZipfKeys};
use lc_net::{ChurnHooks, FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_pkg::{ComponentDescriptor, Package, Platform, QosSpec, Version};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

const SITES: u32 = 256;
const PER_SITE: u32 = 8;
/// Components in the inventory, one owner each.
const COMPONENTS: u32 = 256;
/// Seat of every component owner.
const OWNER_SEAT: u32 = 5;
/// Seat of the hosts the churn schedule crashes.
const CRASH_SEAT: u32 = 6;
/// Seat that migrations move instances to.
const MIGRATE_SEAT: u32 = 7;
/// Operations per second (queries and writes).
const RATE: f64 = 3_000.0;
/// Every tenth arrival is a write.
const WRITE_EVERY: u64 = 10;
/// Soft-state convergence: two cohesion report rounds and the first
/// shard publishes land before the measured phase.
const WARMUP: SimTime = SimTime::from_secs(7);
const HORIZON: SimTime = SimTime::from_secs(4);
/// Drain: two query timeouts plus a migration's fetch.
const DRAIN: SimTime = SimTime::from_secs(3);
/// Injection and write-polling slice.
const SLICE: SimTime = SimTime::from_millis(5);
/// Crash windows: `(site, down after measure start, down for)`.
const CRASHES: [(u32, u64, u64); 6] = [
    (3, 300, 1500),
    (40, 800, 1500),
    (77, 1300, 1500),
    (114, 1800, 1500),
    (151, 2300, 1200),
    (188, 2800, 900),
];

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: 4,
        replicas: 2,
        vnodes: 8,
        gossip_period: SimTime::from_millis(500),
        publish_ttl: SimTime::from_secs(2),
    }
}

fn config() -> NodeConfig {
    NodeConfig::builder()
        .cohesion(CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_secs(2),
            timeout_intervals: 3,
        })
        .query_timeout(SimTime::from_millis(800))
        .query_retries(1)
        .cache(CacheConfig::default())
        .registry(RegistryConfig::Sharded(shard_config()))
        .build()
}

/// Name of component `i`.
pub fn component(i: u32) -> String {
    format!("Svc{i:03}")
}

/// Owner of component `i`: seat 5 of a scattered site.
fn owner(i: u32) -> HostId {
    HostId(((i * 37) % SITES) * PER_SITE + OWNER_SEAT)
}

/// Origin of an arrival: seat 2–4 (never an MRM, owner or crash seat).
fn origin(a: &Arrival) -> HostId {
    HostId(
        (a.user % u64::from(SITES)) as u32 * PER_SITE
            + 2
            + ((a.user / u64::from(SITES)) % 3) as u32,
    )
}

fn migrate_target(from: HostId) -> HostId {
    HostId(((from.0 / PER_SITE + 1) % SITES) * PER_SITE + MIGRATE_SEAT)
}

/// A component package: distinct name, demo behaviour and signer.
fn package(name: &str) -> Rc<Vec<u8>> {
    let mut desc = ComponentDescriptor::new(name, Version::new(1, 0), "demo-vendor")
        .provides("counter", "IDL:demo/Counter:1.0");
    desc.qos = QosSpec {
        cpu_min: 0.05,
        cpu_max: 0.2,
        memory: 1 << 20,
        bandwidth_min: 0.0,
    };
    let mut pkg =
        Package::new(desc).with_binary(Platform::reference(), "demo_counter", &[0xE1; 4 * 1024]);
    pkg.seal(&demo::demo_key());
    Rc::new(pkg.to_bytes())
}

/// The query/write stream: a pure function of the seed.
pub fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        shape: ArrivalShape::Steady,
        rate_per_sec: RATE,
        seed: seed ^ 0x5EED,
        horizon: HORIZON,
        users: 1_000_000,
        keys: ZipfKeys::new(COMPONENTS as usize, 1.0),
    }
}

/// Duplication, jitter and crash/restart windows, but no link loss:
/// every operation of this workload must succeed. Remote `SpawnOn` and
/// `Migrate` park their continuation without a deadline, so a frame
/// lost on a link would leave a write with no result for good, and a
/// query whose both attempts are lost goes unanswered.
fn churn_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed ^ 0xC4A0).default_link(
        LinkFaults::none()
            .dup_p(0.005)
            .jitter(SimTime::from_millis(2)),
    );
    for (site, after, len) in CRASHES {
        let down = WARMUP + SimTime::from_millis(after);
        plan = plan.crash(
            HostId(site * PER_SITE + CRASH_SEAT),
            down,
            Some(down + SimTime::from_millis(len)),
        );
    }
    plan
}

enum WriteSink {
    Spawn(SpawnSink),
    Migrate(MigrateSink),
}

struct Write {
    due: SimTime,
    /// Instance name a `SpawnOn` asked for.
    name: Option<String>,
    sink: WriteSink,
    /// Poll slice at which the sink was found filled, and success.
    done: Option<(SimTime, bool)>,
}

impl Write {
    fn poll(&self) -> Option<Result<lc_orb::ObjectRef, String>> {
        match &self.sink {
            WriteSink::Spawn(s) => s.borrow().clone(),
            WriteSink::Migrate(s) => s.borrow().clone(),
        }
    }
}

/// The workload state: seed and the installed packages.
pub struct RegistryChurn {
    seed: u64,
    packages: Vec<Rc<Vec<u8>>>,
}

impl RegistryChurn {
    /// The workload of `seed`.
    pub fn new(seed: u64) -> RegistryChurn {
        RegistryChurn {
            seed,
            packages: (0..COMPONENTS).map(|i| package(&component(i))).collect(),
        }
    }
}

impl Workload for RegistryChurn {
    fn round(&mut self, set: usize) -> Round {
        let seed = sub_seed(self.seed, set);
        let mut r = Round::default();
        let t0 = now_ns();
        let behaviors = lc_core::BehaviorRegistry::new();
        demo::register_demo_behaviors(&behaviors);
        let owners: Vec<HostId> = (0..COMPONENTS).map(owner).collect();
        let packages = &self.packages;
        let (w, spawn_ns) = span("setup.world", 0, || {
            world::build(
                Net::builder(Topology::campus(SITES as usize, PER_SITE as usize))
                    .fault_plan(churn_plan(seed))
                    .build(),
                seed,
                config(),
                behaviors,
                demo::demo_trust(),
                Arc::new(demo::demo_idl()),
                |h| {
                    owners
                        .iter()
                        .zip(packages)
                        .filter(|(o, _)| **o == h)
                        .map(|(_, p)| p.clone())
                        .collect()
                },
            )
        });
        let World {
            mut sim,
            net,
            seeds,
            actors,
            ..
        } = w;
        // Crashes kill the node actor; restarts respawn it from its seed.
        let actors: Rc<RefCell<Vec<ActorId>>> = Rc::new(RefCell::new(actors));
        let (a1, a2) = (actors.clone(), actors.clone());
        net.install_drivers(
            &mut sim,
            ChurnHooks {
                on_crash: Box::new(move |sim, h| sim.kill(a1.borrow()[h.0 as usize])),
                on_recover: Box::new(move |sim, h| {
                    let a = span("node.spawn", 0, || seeds[h.0 as usize].spawn(sim));
                    a2.borrow_mut()[h.0 as usize] = a;
                }),
            },
        );
        world::run_until(&mut sim, WARMUP, 0);
        r.setup_ns = now_ns() - t0;

        // Measured phase.
        let c0 = Counters::read(&sim, &net);
        let n0 = NodeTotals::read(&sim, &actors.borrow());
        let base = sim.now();
        let end = base + HORIZON + DRAIN;
        let mut stream = ArrivalStream::new(stream_config(seed)).peekable();
        let mut queries: Vec<(u32, SimTime, Rc<RefCell<QueryResult>>)> = Vec::new();
        let mut writes: Vec<Write> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        let mut migratable: VecDeque<(HostId, String)> = VecDeque::new();
        let (mut gen_ns, mut pending_peak, mut slice, mut arrivals) = (0u64, 0usize, 0u64, 0u64);
        let tm = now_ns();
        while sim.now() < end {
            let next = (sim.now() + SLICE).min(end);
            slice += 1;
            let g0 = now_ns();
            span("load.inject", slice, || {
                while let Some(a) = stream.next_if(|a| base + a.at < next) {
                    arrivals += 1;
                    let due = base + a.at;
                    let delay = due - sim.now();
                    let actor = |h: HostId| actors.borrow()[h.0 as usize];
                    if a.index % WRITE_EVERY != WRITE_EVERY - 1 {
                        // Queries follow popularity: the zipf key.
                        let comp = a.key as u32;
                        let sink: Rc<RefCell<QueryResult>> = Rc::default();
                        let query = ComponentQuery::by_name(&component(comp), Version::new(1, 0));
                        sim.send_in(
                            delay,
                            actor(origin(&a)),
                            NodeCmd::Query {
                                query,
                                sink: sink.clone(),
                                first_wins: true,
                            },
                        );
                        queries.push((comp, due, sink));
                        continue;
                    }
                    // Writes alternate SpawnOn and Migrate of an instance
                    // an earlier SpawnOn created. They spread uniformly
                    // over the components (by user, not by popularity),
                    // so no host runs out of CPU reservations for new
                    // instances.
                    let comp = (a.user % u64::from(COMPONENTS)) as u32;
                    let instance = if writes.len() % 2 == 1 {
                        migratable.pop_front().and_then(|(host, name)| {
                            let node = sim.actor_as::<Node>(actor(host))?;
                            Some((host, node.registry.named(&name)?.id))
                        })
                    } else {
                        None
                    };
                    let (cmd_to, cmd, sink, name) = match instance {
                        Some((host, instance)) => {
                            let sink: MigrateSink = Rc::default();
                            let cmd = NodeCmd::Migrate {
                                instance,
                                to: migrate_target(host),
                                sink: Some(sink.clone()),
                            };
                            (host, cmd, WriteSink::Migrate(sink), None)
                        }
                        None => {
                            let sink: SpawnSink = Rc::default();
                            let name = format!("w{}", a.index);
                            let cmd = NodeCmd::SpawnOn {
                                node: owner(comp),
                                component: component(comp),
                                min_version: Version::new(1, 0),
                                instance_name: Some(name.clone()),
                                sink: sink.clone(),
                            };
                            (origin(&a), cmd, WriteSink::Spawn(sink), Some(name))
                        }
                    };
                    sim.send_in(delay, actor(cmd_to), cmd);
                    open.push(writes.len());
                    writes.push(Write {
                        due,
                        name,
                        sink,
                        done: None,
                    });
                }
            });
            gen_ns += now_ns() - g0;
            world::run_until(&mut sim, next, slice);
            pending_peak = pending_peak.max(sim.pending_events());
            let now = sim.now();
            open.retain(|&i| {
                let Some(res) = writes[i].poll() else {
                    return true;
                };
                if let (Ok(obj), Some(name)) = (&res, &writes[i].name) {
                    migratable.push_back((obj.key.host, name.clone()));
                }
                writes[i].done = Some((now, res.is_ok()));
                false
            });
        }
        r.measure_ns = now_ns() - tm;

        let c1 = Counters::read(&sim, &net);
        let n1 = NodeTotals::read(&sim, &actors.borrow());
        let mut digest = Digest::default();
        let mut query_ms = Vec::new();
        let mut unanswered = 0u64;
        for (k, (comp, due, sink)) in queries.iter().enumerate() {
            let q = sink.borrow();
            let name = component(*comp);
            if !q.done {
                r.violations.push(format!(
                    "query {k} for {name} is not finalized after the drain"
                ));
            }
            if let Some(bad) = q
                .offers
                .iter()
                .find(|o| o.component != name || !o.version.satisfies(Version::new(1, 0)))
            {
                r.violations.push(format!(
                    "query {k} for {name} 1.0 got an offer of {} {:?}",
                    bad.component, bad.version
                ));
            }
            match q.first_offer_at {
                Some(at) if !q.shed => {
                    let ms = (at - *due).as_secs_f64() * 1e3;
                    digest.f64(ms);
                    query_ms.push(ms);
                }
                _ => {
                    digest.u64(u64::MAX);
                    unanswered += 1;
                }
            }
            digest.u64(q.offers.len() as u64);
        }
        let mut write_ms = Vec::new();
        let (mut write_err, mut write_open) = (0u64, 0u64);
        for wr in &writes {
            match wr.done {
                Some((at, true)) => {
                    let ms = (at - wr.due).as_secs_f64() * 1e3;
                    digest.f64(ms);
                    write_ms.push(ms);
                }
                Some((_, false)) => {
                    digest.u64(1);
                    write_err += 1;
                }
                None => {
                    digest.u64(2);
                    write_open += 1;
                }
            }
        }
        if write_open > 0 {
            r.violations.push(format!(
                "{write_open} of {} writes have no terminal result after the drain",
                writes.len()
            ));
        }
        let crashes = sim.metrics_ref().counter("net.fault.crashes");
        if crashes == 0 {
            r.violations
                .push("the churn schedule crashed no host".to_owned());
        }
        let events = c1.events(&c0);
        let (msgs, bytes) = (c1.delta(&c0, "net.msgs"), c1.delta(&c0, "net.bytes"));
        for x in [events, msgs, bytes, crashes] {
            digest.u64(x);
        }
        r.digest = digest.value();

        r.attempted = (queries.len() + writes.len()) as u64;
        r.failed = unanswered + write_err + write_open;
        r.completed = r.attempted - r.failed;
        let ops = r.attempted.max(1) as f64;
        r.msgs = msgs;
        r.bytes = bytes;
        r.report = vec![m("query_p50_ms", percentile(&query_ms, 50.0), "ms")];
        for (name, p) in [("query_p99_ms", 99.0), ("query_p999_ms", 99.9)] {
            if supported(query_ms.len(), p) {
                r.report.push(m(name, percentile(&query_ms, p), "ms"));
            }
        }
        r.report
            .push(m("write_p50_ms", percentile(&write_ms, 50.0), "ms"));
        if supported(write_ms.len(), 99.0) {
            r.report
                .push(m("write_p99_ms", percentile(&write_ms, 99.0), "ms"));
        }
        r.report.extend([
            m("fail_frac", r.failed as f64 / ops, "ratio"),
            m("queries", queries.len() as f64, "count"),
            m("queries_answered", query_ms.len() as f64, "count"),
            m("writes", writes.len() as f64, "count"),
            m("writes_ok", write_ms.len() as f64, "count"),
            m("writes_err", write_err as f64, "count"),
            m("writes_unresolved", write_open as f64, "count"),
            m("crashes", crashes as f64, "count"),
            m("hosts", f64::from(SITES * PER_SITE), "count"),
        ]);
        r.op_lat_ms = query_ms;
        r.layers = c1.layer_metrics(&c0, r.attempted, r.measure_ns);
        r.layers.extend(n1.layer_metrics(&n0, r.attempted));
        r.layers.extend([
            m("des.pending_peak", pending_peak as f64, "count"),
            m(
                "des.arena_kib",
                sim.queue_arena_bytes() as f64 / 1024.0,
                "KiB",
            ),
            m("load.arrivals", arrivals as f64, "count"),
            m("load.gen_ms", gen_ns as f64 / 1e6, "ms"),
            m("pkg.installs", f64::from(COMPONENTS), "count"),
            m(
                "registry.node_spawn_ms",
                spawn_ns.iter().sum::<u64>() as f64 / spawn_ns.len().max(1) as f64 / 1e6,
                "ms",
            ),
        ]);
        r
    }

    fn replays(&mut self) -> Vec<Metric> {
        let hosts: Vec<HostId> = (0..SITES * PER_SITE).map(HostId).collect();
        let sc = shard_config();
        let ring = ShardRingConfig {
            shards: sc.shards,
            replicas: sc.replicas,
            vnodes: sc.vnodes,
        };
        let mut out = crate::replay::ring_build(&hosts, &ring);
        out.extend(crate::replay::pkg(&self.packages, &demo::demo_trust()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let take = |seed| {
            ArrivalStream::new(stream_config(seed))
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(4), take(4));
        assert_ne!(take(4), take(5));
        assert_eq!(package("Svc001"), package("Svc001"));
        for a in take(4) {
            let seat = origin(&a).0 % PER_SITE;
            assert!((2..=4).contains(&seat), "origin seat {seat}");
        }
    }
}
