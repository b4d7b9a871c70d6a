//! Replay timings: one layer's public function at a time, on the
//! inputs of the workload that exercises it, timed from outside.
//!
//! Each replay makes one pass with spans recorded (when the run is
//! traced), then times repetitions with spans off and reports the
//! median.

use crate::clock::{now_ns, timed};
use crate::local_assembly::{EchoImpl, Inputs, ECHO_ID};
use crate::metrics::{m, Metric};
use crate::stats::median;
use crate::trace::{paused, span};
use lc_core::{ShardRing, ShardRingConfig};
use lc_des::{Actor, AnyMsg, Ctx, Sim, SimTime};
use lc_net::{HostId, Net, Topology};
use lc_orb::{Decoder, DispatchOpts, Encoder, Invocation, LocalOrb, ObjectAdapter, Servant, Value};
use lc_pkg::{Package, TrustStore};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Timed repetitions per replay.
const REPS: usize = 7;
/// Minimum host time of one repetition.
const MIN_REP_NS: u64 = 2_000_000;

/// Median host ns per unit of `pass` (which does `units` units of
/// work), after one recorded pass.
fn replay(units: f64, mut pass: impl FnMut()) -> f64 {
    pass();
    paused(|| {
        let mut n = 1u64;
        while timed(|| (0..n).for_each(|_| pass())).0 < MIN_REP_NS && n < 1 << 20 {
            n *= 2;
        }
        let per_unit: Vec<f64> = (0..REPS)
            .map(|_| timed(|| (0..n).for_each(|_| pass())).0 as f64 / (n as f64 * units))
            .collect();
        median(&per_unit)
    })
}

/// ORB layer on the local-assembly argument mix: direct dispatch,
/// typed `ObjectAdapter::invoke`, marshalled `LocalOrb` invoke, and CDR
/// encode/decode per KiB.
pub fn orb(inp: &Inputs) -> Vec<Metric> {
    let repo = Arc::new(crate::local_assembly::repo());
    let mut mix: Vec<(&str, Vec<Value>)> = vec![("add", vec![Value::Long(7), Value::Long(-3)])];
    mix.extend(inp.strs.iter().map(|v| ("echo_str", vec![v.clone()])));
    mix.extend(inp.seqs.iter().map(|v| ("echo_seq", vec![v.clone()])));
    let calls = mix.len() as f64;

    let mut direct = EchoImpl;
    let direct_ns = replay(calls, || {
        for (op, args) in &mix {
            let mut inv = Invocation::new(op, args);
            let _ = span("bench.direct", 0, || direct.dispatch(&mut inv));
        }
    });

    let mut adapter = ObjectAdapter::new(HostId(0), repo.clone());
    let target = adapter.activate(Box::new(EchoImpl));
    let typed_ns = replay(calls, || {
        for (op, args) in &mix {
            span("orb.adapter_invoke", 0, || {
                adapter.invoke(target.key, op, args, DispatchOpts::typed())
            });
        }
    });

    let local = LocalOrb::new(repo.clone());
    let obj = local.activate(Box::new(EchoImpl));
    let marshalled_ns = replay(calls, || {
        for (op, args) in &mix {
            let _ = span("orb.invoke_marshalled", 0, || {
                local.invoke_marshalled(&obj, op, args)
            });
        }
    });

    let encoded: Vec<Vec<u8>> = mix
        .iter()
        .map(|(_, args)| {
            let mut e = Encoder::new();
            args.iter().for_each(|a| e.value(a));
            e.into_bytes()
        })
        .collect();
    let kib = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let encode_ns = replay(kib, || {
        for (_, args) in &mix {
            let bytes = span("orb.cdr_encode", 0, || {
                let mut e = Encoder::new();
                args.iter().for_each(|a| e.value(a));
                e.into_bytes()
            });
            std::hint::black_box(bytes);
        }
    });
    let iface = repo.interface(ECHO_ID);
    let types: Vec<Vec<_>> = mix
        .iter()
        .map(|(op, _)| {
            iface
                .and_then(|i| i.op(op))
                .map(|o| o.params.iter().map(|p| p.ty.clone()).collect())
                .unwrap_or_default()
        })
        .collect();
    let decode_ns = replay(kib, || {
        for (bytes, tys) in encoded.iter().zip(&types) {
            span("orb.cdr_decode", 0, || {
                let mut d = Decoder::new(bytes, &repo);
                for ty in tys {
                    let _ = std::hint::black_box(d.value(ty));
                }
            });
        }
    });
    vec![
        m("orb.direct_ns", direct_ns, "ns"),
        m("orb.typed_ns", typed_ns, "ns"),
        m("orb.marshalled_ns", marshalled_ns, "ns"),
        m("orb.cdr_encode_ns_per_kib", encode_ns, "ns/KiB"),
        m("orb.cdr_decode_ns_per_kib", decode_ns, "ns/KiB"),
    ]
}

#[derive(Clone)]
struct Ping;

struct Discard;

impl Actor for Discard {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: AnyMsg) {}
}

struct Go;

/// The benchmark's own actor: on `Go`, sends every planned message
/// through `Net::send` and records the host ns of the loop.
struct Sender {
    net: Net,
    plan: Vec<(HostId, HostId, u64)>,
    ns: Rc<Cell<u64>>,
}

impl Actor for Sender {
    fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMsg) {
        span("bench.actor", 0, || {
            let t0 = now_ns();
            for &(from, to, size) in &self.plan {
                let _ = span("net.send", 0, || self.net.send(ctx, from, to, size, Ping));
            }
            self.ns.set(now_ns() - t0);
        });
    }
}

/// `Net::send` host ns per message on the campus-invoke topology and
/// size mix (`plan`: from, to, wire bytes).
pub fn net_send(topo: Topology, plan: Vec<(HostId, HostId, u64)>) -> Vec<Metric> {
    let sends = plan.len() as f64;
    let net = Net::builder(topo).build();
    let mut sim = Sim::new(1);
    let sink = sim.spawn(Discard);
    for h in net.host_ids() {
        net.bind(h, sink);
    }
    let ns = Rc::new(Cell::new(0));
    let sender = sim.spawn(Sender {
        net: net.clone(),
        plan,
        ns: ns.clone(),
    });
    let mut pass = || {
        sim.send_in(SimTime::ZERO, sender, Go);
        sim.run();
        ns.get() as f64 / sends
    };
    pass();
    let per_send: Vec<f64> = paused(|| (0..REPS).map(|_| pass()).collect());
    vec![m("net.send_ns", median(&per_send), "ns")]
}

/// `Package::from_bytes` plus signature verification, host µs per KiB
/// of the installed packages.
pub fn pkg(packages: &[Rc<Vec<u8>>], trust: &TrustStore) -> Vec<Metric> {
    let kib = packages.iter().map(|p| p.len()).sum::<usize>() as f64 / 1024.0;
    let ns = replay(kib, || {
        for bytes in packages {
            let verdict = span("pkg.from_bytes", 0, || Package::from_bytes(bytes))
                .map(|p| span("pkg.verify", 0, || p.verify(trust)));
            std::hint::black_box(verdict.is_ok());
        }
    });
    vec![m("pkg.verify_us_per_kib", ns / 1e3, "us/KiB")]
}

/// `ShardRing::build` over `hosts`, host ms per build.
pub fn ring_build(hosts: &[HostId], cfg: &ShardRingConfig) -> Vec<Metric> {
    let ns = replay(1.0, || {
        std::hint::black_box(span("registry.ring_build", 0, || {
            ShardRing::build(hosts, cfg)
        }));
    });
    vec![m("registry.ring_build_ms", ns / 1e6, "ms")]
}
