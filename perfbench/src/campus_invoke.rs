//! `campus-invoke`: open-loop remote invocations through `lc-load` on a
//! campus of 4 sites × 8 hosts with one Display worker per site and
//! admission control (shedding) on. Eight front drivers offer Poisson
//! arrivals at 40 % of the workers' aggregate capacity, with one flash
//! crowd that lifts the rate to 120 %. Drivers alternate 16 B and
//! 4 KiB arguments. Arrivals are injected slice by slice of virtual
//! time, so the event queue holds only in-flight work, and each request
//! is timed from its due time.

use crate::clock::{now_ns, timed};
use crate::metrics::{m, Metric, Round};
use crate::stats::{percentile, sub_seed, supported, Digest};
use crate::trace::span;
use crate::world::{self, Counters, NodeTotals};
use crate::Workload;
use lc_core::cohesion::CohesionConfig;
use lc_core::demo::{self, DisplayImpl};
use lc_core::node::{AdmissionConfig, InvokePolicy, NodeCmd};
use lc_core::{BehaviorRegistry, NodeConfig, SpawnSink};
use lc_des::{ActorId, SimTime};
use lc_load::{
    ArrivalShape, ArrivalStream, DriverArrival, DriverConfig, DriverStats, LoadDriver, QueryTick,
    StreamConfig, ZipfKeys,
};
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_orb::{Invocation, ObjectRef, OrbError, Servant, SimOrb, Value};
use lc_pkg::Version;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

const SITES: usize = 4;
const PER_SITE: usize = 8;
/// Seat of each site's Display worker (a workstation: 1× CPU).
const WORKER_SEAT: u32 = 1;
/// Seats of each site's two front drivers.
const FRONT_SEATS: [u32; 2] = [2, 3];
/// CPU cost of one draw on the reference CPU (the demo display's).
const DRAW_COST: SimTime = SimTime::from_micros(200);
/// Aggregate worker capacity, draws per second.
const CAPACITY: f64 = SITES as f64 * 5_000.0;
/// Offered load outside the flash crowd, share of capacity.
const LOAD: f64 = 0.4;
/// Flash-crowd multiplier: 3 × 40 % = 120 % of capacity.
const FLASH_MAGNITUDE: f64 = 3.0;
const FLASH_AT: SimTime = SimTime::from_millis(1_000);
const FLASH_WIDTH: SimTime = SimTime::from_millis(250);
/// Open-loop window.
const HORIZON: SimTime = SimTime::from_secs(3);
/// Post-horizon drain: every call resolves within the 250 ms deadline.
const DRAIN: SimTime = SimTime::from_millis(600);
/// Virtual-time injection slice.
const SLICE: SimTime = SimTime::from_millis(10);
/// Soft-state convergence before discovery.
const WARMUP: SimTime = SimTime::from_secs(1);
/// Replica re-discovery period of each driver.
const REQUERY: SimTime = SimTime::from_millis(500);
/// Discovery must finish within this much virtual time.
const DISCOVERY_LIMIT: SimTime = SimTime::from_secs(2);
/// Link jitter: no two paths cost exactly the same.
const JITTER: SimTime = SimTime::from_micros(300);
/// Argument sizes, alternating over the drivers.
const ARG_BYTES: [usize; 2] = [16, 4096];

thread_local! {
    /// Dispatches and host ns of the benchmark's Display servants.
    static SERVANT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The demo Display, counted and timed by the benchmark where the
/// container calls back into it.
struct BenchDisplay(DisplayImpl);

impl Servant for BenchDisplay {
    fn interface_id(&self) -> &str {
        self.0.interface_id()
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        let (ns, r) = timed(|| span("bench.servant", 0, || self.0.dispatch(inv)));
        SERVANT.with(|c| {
            let (n, t) = c.get();
            c.set((n + 1, t + ns));
        });
        r
    }
}

fn host(site: usize, seat: u32) -> HostId {
    HostId(site as u32 * PER_SITE as u32 + seat)
}

fn workers() -> Vec<HostId> {
    (0..SITES).map(|s| host(s, WORKER_SEAT)).collect()
}

/// `(front host, site)` of every driver.
fn fronts() -> Vec<(HostId, usize)> {
    (0..SITES)
        .flat_map(|s| FRONT_SEATS.iter().map(move |&seat| (host(s, seat), s)))
        .collect()
}

/// The arrival stream of all drivers: a pure function of the seed.
pub fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        shape: ArrivalShape::Flash {
            at: FLASH_AT,
            width: FLASH_WIDTH,
            magnitude: FLASH_MAGNITUDE,
        },
        rate_per_sec: LOAD * CAPACITY,
        seed: seed ^ 0xCA_11,
        horizon: HORIZON,
        users: 1_000_000,
        keys: ZipfKeys::new(1 << 12, 0.0),
    }
}

fn config() -> NodeConfig {
    NodeConfig::builder()
        .cohesion(CohesionConfig {
            fanout: 8,
            replicas: 2,
            report_period: SimTime::from_millis(200),
            timeout_intervals: 3,
        })
        .invoke(InvokePolicy {
            deadline: Some(SimTime::from_millis(250)),
            retries: 0,
            ..InvokePolicy::default()
        })
        .admission(AdmissionConfig {
            query_queue_cap: 1024,
            cpu_backlog_cap: SimTime::from_millis(150),
            deadline_aware: true,
            replicate_hot: None,
        })
        .build()
}

/// The workload state: its seed.
pub struct CampusInvoke {
    seed: u64,
}

impl CampusInvoke {
    /// The workload of `seed`.
    pub fn new(seed: u64) -> CampusInvoke {
        CampusInvoke { seed }
    }
}

impl Workload for CampusInvoke {
    fn round(&mut self, set: usize) -> Round {
        let seed = sub_seed(self.seed, set);
        let mut r = Round::default();
        let t0 = now_ns();
        let behaviors = BehaviorRegistry::new();
        demo::register_demo_behaviors(&behaviors);
        behaviors.register("demo_display", || {
            Box::new(BenchDisplay(DisplayImpl {
                drawn: 0,
                draw_cost: DRAW_COST,
            }))
        });
        let package = demo::display_package();
        let workers = workers();
        let (mut w, spawn_ns) = span("setup.world", 0, || {
            world::build(
                Net::builder(Topology::campus(SITES, PER_SITE))
                    .fault_plan(
                        FaultPlan::seeded(seed).default_link(LinkFaults::none().jitter(JITTER)),
                    )
                    .build(),
                seed,
                config(),
                behaviors,
                demo::demo_trust(),
                Arc::new(demo::demo_idl()),
                |h| {
                    if workers.contains(&h) {
                        vec![package.clone()]
                    } else {
                        Vec::new()
                    }
                },
            )
        });
        let spawned: Vec<SpawnSink> = workers
            .iter()
            .map(|&h| {
                let sink: SpawnSink = Rc::default();
                w.cmd(
                    h,
                    NodeCmd::SpawnLocal {
                        component: "Display".into(),
                        min_version: Version::new(2, 0),
                        instance_name: None,
                        sink: sink.clone(),
                    },
                );
                sink
            })
            .collect();
        world::run_until(&mut w.sim, WARMUP, 0);
        let mut targets: Vec<ObjectRef> = Vec::new();
        for (h, sink) in workers.iter().zip(&spawned) {
            match sink.borrow().clone() {
                Some(Ok(t)) => targets.push(t),
                other => r
                    .violations
                    .push(format!("Display spawn on {h:?}: {other:?}")),
            }
        }
        if targets.len() != SITES {
            return r;
        }

        let fronts = fronts();
        let drivers: Vec<ActorId> = fronts
            .iter()
            .enumerate()
            .map(|(i, &(front, site))| {
                let actor = w.sim.spawn(LoadDriver::new(DriverConfig {
                    node: w.actors[front.0 as usize],
                    component: "Display".into(),
                    op: "draw".into(),
                    args: vec![Value::string(&"x".repeat(ARG_BYTES[i % 2]))],
                    initial_target: targets[site].clone(),
                    requery: Some(REQUERY),
                }));
                // Staggered discovery so no two queries share a tick.
                w.sim
                    .send_in(SimTime::from_millis(13 + 7 * i as u64), actor, QueryTick);
                actor
            })
            .collect();
        // Arrivals start once every driver has harvested its first
        // discovery result (a driver folds a query result in only at its
        // next tick; before that all its traffic would go to its initial
        // target).
        let discovered = |w: &lc_core::testkit::World| {
            drivers.iter().all(|&d| {
                w.sim
                    .actor_as::<LoadDriver>(d)
                    .is_some_and(|x| !x.replicas().is_empty())
            })
        };
        while !discovered(&w) {
            if w.sim.now() > WARMUP + DISCOVERY_LIMIT {
                r.violations
                    .push("a driver discovered no worker".to_owned());
                return r;
            }
            let next = w.sim.now() + SLICE;
            world::run_until(&mut w.sim, next, 0);
        }
        r.setup_ns = now_ns() - t0;

        // Measured phase.
        let c0 = Counters::read(&w.sim, &w.net);
        let n0 = NodeTotals::read(&w.sim, &w.actors);
        let servant0 = SERVANT.with(Cell::get);
        let base = w.sim.now();
        let end = base + HORIZON + DRAIN;
        let mut streams: Vec<_> = (0..drivers.len())
            .map(|i| ArrivalStream::split(stream_config(seed), i, drivers.len()).peekable())
            .collect();
        let mut generated = vec![0u64; drivers.len()];
        let (mut gen_ns, mut pending_peak, mut slice) = (0u64, 0usize, 0u64);
        let tm = now_ns();
        while w.sim.now() < end {
            let next = (w.sim.now() + SLICE).min(end);
            slice += 1;
            let g0 = now_ns();
            span("load.inject", slice, || {
                for (i, s) in streams.iter_mut().enumerate() {
                    while let Some(a) = s.next_if(|a| base + a.at < next) {
                        let delay = base + a.at - w.sim.now();
                        w.sim.send_in(delay, drivers[i], DriverArrival(a));
                        generated[i] += 1;
                    }
                }
            });
            gen_ns += now_ns() - g0;
            world::run_until(&mut w.sim, next, slice);
            pending_peak = pending_peak.max(w.sim.pending_events());
        }
        r.measure_ns = now_ns() - tm;

        let c1 = Counters::read(&w.sim, &w.net);
        let n1 = NodeTotals::read(&w.sim, &w.actors);
        let servant1 = SERVANT.with(Cell::get);
        let mut digest = Digest::default();
        let mut agg = DriverStats::default();
        for (i, &d) in drivers.iter().enumerate() {
            let Some(s) = w.sim.actor_as_mut::<LoadDriver>(d).map(|x| x.stats()) else {
                r.violations.push(format!("driver {i} vanished"));
                continue;
            };
            if s.sent != generated[i] {
                r.violations.push(format!(
                    "driver {i} sent {} of {} arrivals",
                    s.sent, generated[i]
                ));
            }
            let terminal = s.ok + s.overload + s.timeout + s.other_err;
            if s.unresolved > 0 || terminal != s.sent {
                r.violations.push(format!(
                    "driver {i}: {} of {} calls have no terminal outcome after the drain",
                    s.sent - terminal,
                    s.sent
                ));
            }
            for x in [
                s.sent,
                s.ok,
                s.overload,
                s.timeout,
                s.other_err,
                s.unresolved,
            ] {
                digest.u64(x);
            }
            s.ok_latency_ms.iter().for_each(|&l| digest.f64(l));
            agg.sent += s.sent;
            agg.ok += s.ok;
            agg.overload += s.overload;
            agg.timeout += s.timeout;
            agg.other_err += s.other_err;
            agg.unresolved += s.unresolved;
            agg.ok_latency_ms.extend(s.ok_latency_ms);
        }
        let events = c1.events(&c0);
        let (msgs, bytes) = (c1.delta(&c0, "net.msgs"), c1.delta(&c0, "net.bytes"));
        for x in [events, msgs, bytes] {
            digest.u64(x);
        }
        r.digest = digest.value();

        r.attempted = agg.sent;
        r.completed = agg.ok;
        r.failed = agg.overload + agg.timeout + agg.other_err + agg.unresolved;
        let ops = agg.sent.max(1) as f64;
        r.msgs = msgs;
        r.bytes = bytes;
        let lat = &agg.ok_latency_ms;
        r.report = vec![m("invoke_p50_ms", percentile(lat, 50.0), "ms")];
        for p in [99.0, 99.9] {
            if supported(lat.len(), p) {
                let name = if p == 99.0 {
                    "invoke_p99_ms"
                } else {
                    "invoke_p999_ms"
                };
                r.report.push(m(name, percentile(lat, p), "ms"));
            }
        }
        r.report.extend([
            m("fail_frac", r.failed as f64 / ops, "ratio"),
            m("invokes", agg.sent as f64, "count"),
            m("invoke_ok", agg.ok as f64, "count"),
            m("virtual_s", (end - base).as_secs_f64(), "s"),
        ]);
        r.op_lat_ms = agg.ok_latency_ms;

        let mt = w.sim.metrics_ref();
        let (shed, admitted_total) = (mt.counter("admission.shed"), mt.counter("admission.total"));
        let queue_ms = mt
            .histogram("admission.queue_delay_ms")
            .map_or(0.0, |h| h.max());
        let (calls, servant_ns) = (servant1.0 - servant0.0, servant1.1 - servant0.1);
        r.layers = c1.layer_metrics(&c0, agg.sent, r.measure_ns);
        r.layers.extend(n1.layer_metrics(&n0, agg.sent));
        r.layers.extend([
            m("des.pending_peak", pending_peak as f64, "count"),
            m(
                "des.arena_kib",
                w.sim.queue_arena_bytes() as f64 / 1024.0,
                "KiB",
            ),
            m(
                "orb.dispatch_ns",
                servant_ns as f64 / calls.max(1) as f64,
                "ns",
            ),
            m("orb.dispatches_per_op", calls as f64 / ops, "count"),
            m("admission.shed", shed as f64, "count"),
            m("admission.queue_high_water", queue_ms, "ms"),
            m(
                "admission.admit_ratio",
                if admitted_total > 0 {
                    1.0 - shed as f64 / admitted_total as f64
                } else {
                    0.0
                },
                "ratio",
            ),
            m(
                "load.arrivals",
                generated.iter().sum::<u64>() as f64,
                "count",
            ),
            m("load.gen_ms", gen_ns as f64 / 1e6, "ms"),
            m("pkg.installs", workers.len() as f64, "count"),
            m(
                "registry.node_spawn_ms",
                spawn_ns.iter().sum::<u64>() as f64 / spawn_ns.len().max(1) as f64 / 1e6,
                "ms",
            ),
        ]);
        r
    }

    fn replays(&mut self) -> Vec<Metric> {
        let fronts = fronts();
        let workers = workers();
        let plan = (0..2_000)
            .map(|k| {
                let (front, _) = fronts[k % fronts.len()];
                let to = workers[(k / fronts.len()) % workers.len()];
                let arg = Value::string(&"x".repeat(ARG_BYTES[k % fronts.len() % 2]));
                (front, to, SimOrb::request_size("draw", &[arg]))
            })
            .collect();
        let mut out = crate::replay::net_send(Topology::campus(SITES, PER_SITE), plan);
        out.extend(crate::replay::pkg(
            &[demo::display_package()],
            &demo::demo_trust(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_a_pure_function_of_the_seed() {
        let take = |seed| {
            ArrivalStream::new(stream_config(seed))
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(9), take(9));
        assert_ne!(take(9), take(10));
        assert_eq!(fronts().len(), 8);
    }
}
