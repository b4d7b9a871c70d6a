//! Property tests for the invocation-recovery layer: exactly-once
//! servant effects under a duplicating/reordering fabric, and the
//! deadline-sweep contract of [`Continuations`] that the retry and
//! dedup machinery is built on.

use lc_core::node::{InvokePolicy, NodeCmd, NodeConfig};
use lc_core::testkit::{build_world_on, fast_cohesion};
use lc_core::{BehaviorRegistry, Continuations, InvokeSink, MigrateSink, SpawnSink};
use lc_des::SimTime;
use lc_net::{FaultPlan, HostId, LinkFaults, Net, Topology};
use lc_orb::{ObjectRef, Value};
use lc_prop::check;
use std::rc::Rc;
use std::sync::Arc;

/// Retried + duplicated + reordered requests still execute the servant
/// exactly once per logical call: the request-id reply cache answers
/// duplicates from cache, and late duplicate replies find no pending
/// call to resume. No messages are *lost* here (`drop_p = 0`), so every
/// call must also complete successfully — the final counter value equals
/// the number of calls issued, never more.
#[test]
fn dup_reorder_fabric_keeps_servant_effects_exactly_once() {
    check("dup_reorder_exactly_once", |g| {
        let seed = g.next_u64();
        let dup_p = g.gen_f64() * 0.5;
        let reorder_p = g.gen_f64() * 0.5;
        let jitter_ms = g.gen_range(0..60u64);
        let k = g.gen_range(5..20u32);

        let plan = FaultPlan::seeded(seed).default_link(
            LinkFaults::none()
                .dup_p(dup_p)
                .reorder(reorder_p, SimTime::from_millis(5))
                .jitter(SimTime::from_millis(jitter_ms)),
        );
        let behaviors = BehaviorRegistry::new();
        lc_core::demo::register_demo_behaviors(&behaviors);
        let mut w = build_world_on(
            Net::builder(Topology::lan(4)).fault_plan(plan).build(),
            seed ^ 0x5eed,
            NodeConfig {
                cohesion: fast_cohesion(),
                invoke: InvokePolicy::standard(),
                ..Default::default()
            },
            behaviors,
            lc_core::demo::demo_trust(),
            Arc::new(lc_core::demo::demo_idl()),
            |h| if h == HostId(3) { vec![lc_core::demo::counter_package()] } else { Vec::new() },
        );
        w.sim.run_until(SimTime::from_millis(800));

        let spawn: Rc<std::cell::RefCell<Option<Result<ObjectRef, String>>>> = Rc::default();
        w.cmd(
            HostId(3),
            NodeCmd::SpawnLocal {
                component: "Counter".into(),
                min_version: lc_pkg::Version::new(1, 0),
                instance_name: None,
                sink: spawn.clone(),
            },
        );
        w.sim.run_until(SimTime::from_secs(1));
        let target = spawn.borrow().clone().expect("spawned").expect("spawn ok");

        let mut sinks: Vec<InvokeSink> = Vec::new();
        for _ in 0..k {
            let sink: InvokeSink = Rc::default();
            sinks.push(sink.clone());
            w.cmd(
                HostId(1),
                NodeCmd::Invoke {
                    target: target.clone(),
                    op: "inc".into(),
                    args: vec![Value::Long(1)],
                    oneway: false,
                    sink: Some(sink),
                },
            );
            let next = w.sim.now() + SimTime::from_millis(80);
            w.sim.run_until(next);
        }
        let drain = w.sim.now() + SimTime::from_secs(5);
        w.sim.run_until(drain);

        // Every call resolved, exactly once, successfully.
        for (i, sink) in sinks.iter().enumerate() {
            let s = sink.borrow();
            assert_eq!(s.len(), 1, "call {i}: one resolution, got {}", s.len());
            assert!(s[0].1.is_ok(), "call {i} failed: {:?}", s[0].1);
        }

        // Exactly-once effects: read the counter over the loopback path
        // (same-host traffic bypasses fault injection).
        let vsink: InvokeSink = Rc::default();
        w.cmd(
            HostId(3),
            NodeCmd::Invoke {
                target,
                op: "value".into(),
                args: vec![],
                oneway: false,
                sink: Some(vsink.clone()),
            },
        );
        let fin = w.sim.now() + SimTime::from_secs(1);
        w.sim.run_until(fin);
        let value = vsink.borrow()[0]
            .1
            .as_ref()
            .expect("loopback read succeeds")
            .ret
            .as_long()
            .expect("long");
        assert_eq!(
            value as u32, k,
            "servant executed {value} increments for {k} calls (dup_p={dup_p:.2})"
        );
    });
}

/// Remote `SpawnOn` and `Migrate` commands resolve under link loss: with
/// an invoke deadline configured, a lost `Spawn`/`SpawnDone` or
/// `MigrateIn`/`MigrateDone` frame ends in a timeout error instead of an
/// empty sink, so every driver sink is filled one deadline (plus settle)
/// after the command. A failed migration leaves the instance at its
/// origin; a completed one removes it there.
#[test]
fn lossy_remote_spawns_and_migrations_always_resolve() {
    check("lossy_remote_writes_resolve", |g| {
        let seed = g.next_u64();
        let spawns = g.gen_range(2..6usize);
        let migrations = g.gen_range(2..6usize);
        let plan = FaultPlan::seeded(seed).default_link(LinkFaults::none().drop_p(0.05));
        let behaviors = BehaviorRegistry::new();
        lc_core::demo::register_demo_behaviors(&behaviors);
        let policy = InvokePolicy::standard();
        let deadline = policy.deadline.expect("standard policy has a deadline");
        let mut w = build_world_on(
            Net::builder(Topology::lan(4)).fault_plan(plan).build(),
            seed ^ 0x5eed,
            NodeConfig { cohesion: fast_cohesion(), invoke: policy, ..Default::default() },
            behaviors,
            lc_core::demo::demo_trust(),
            Arc::new(lc_core::demo::demo_idl()),
            |_| vec![lc_core::demo::counter_package()],
        );
        w.sim.run_until(SimTime::from_millis(800));

        // Instances to migrate start at host 0 (local spawns never touch
        // the lossy fabric).
        let names: Vec<String> = (0..migrations).map(|i| format!("m{i}")).collect();
        for name in &names {
            let sink: SpawnSink = Rc::default();
            w.cmd(
                HostId(0),
                NodeCmd::SpawnLocal {
                    component: "Counter".into(),
                    min_version: lc_pkg::Version::new(1, 0),
                    instance_name: Some(name.clone()),
                    sink: sink.clone(),
                },
            );
            w.sim.run_until(w.sim.now() + SimTime::from_millis(1));
            assert!(matches!(*sink.borrow(), Some(Ok(_))), "local spawn of {name}");
        }

        let mut spawn_sinks = Vec::new();
        for i in 0..spawns {
            let sink: SpawnSink = Rc::default();
            w.cmd(
                HostId(0),
                NodeCmd::SpawnOn {
                    node: HostId(1 + g.gen_range(0..3u32)),
                    component: "Counter".into(),
                    min_version: lc_pkg::Version::new(1, 0),
                    instance_name: Some(format!("s{i}")),
                    sink: sink.clone(),
                },
            );
            spawn_sinks.push(sink);
        }
        let mut migrate_sinks = Vec::new();
        for name in &names {
            let instance = w.node(HostId(0)).expect("origin").registry.named(name).expect("m").id;
            let sink: MigrateSink = Rc::default();
            let to = HostId(1 + g.gen_range(0..3u32));
            w.cmd(HostId(0), NodeCmd::Migrate { instance, to, sink: Some(sink.clone()) });
            migrate_sinks.push(sink);
        }
        let settle = w.sim.now() + deadline + SimTime::from_millis(500);
        w.sim.run_until(settle);

        for (i, sink) in spawn_sinks.iter().enumerate() {
            assert!(sink.borrow().is_some(), "remote spawn {i} never resolved");
        }
        let origin = w.node(HostId(0)).expect("origin");
        for (name, sink) in names.iter().zip(&migrate_sinks) {
            let result = sink.borrow().clone();
            let Some(result) = result else { panic!("migration of {name} never resolved") };
            assert_eq!(
                origin.registry.named(name).is_some(),
                result.is_err(),
                "migration of {name} ended {result:?} but the origin disagrees"
            );
        }
    });
}

/// The sweep contract [`Continuations::take_expired`] gives the retry
/// and dedup layers: only due entries come out, in key order, each at
/// most once, and undated entries never expire — for any interleaving
/// of inserts and sweeps at random times.
#[test]
fn continuations_deadline_sweep_contract() {
    check("continuations_sweep", |g| {
        let mut table: Continuations<u64, u64> = Continuations::default();
        // pending[key] = deadline (u64::MAX encodes "no deadline").
        let mut pending: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut clock = 0u64;

        for _ in 0..g.gen_range(1..40usize) {
            // Time only moves forward, by a random (possibly zero) step.
            clock += g.gen_range(0..50u64);
            let now = SimTime::from_millis(clock);
            if g.gen_bool() {
                let key = g.gen_range(0..30u64);
                if g.gen_bool() {
                    // Deadlines may land in the past; such entries are
                    // due on the very next sweep.
                    let dl = clock.saturating_sub(20) + g.gen_range(0..60u64);
                    table.insert_with_deadline(key, key, SimTime::from_millis(dl));
                    pending.insert(key, dl);
                } else {
                    table.insert(key, key);
                    pending.insert(key, u64::MAX);
                }
            } else {
                let swept = table.take_expired(now);
                // Key order, each at most once.
                let keys: Vec<u64> = swept.iter().map(|(k, _)| *k).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(keys, sorted, "sweep not in key order or has dups");
                // Exactly the due set of the model.
                let due: Vec<u64> = pending
                    .iter()
                    .filter(|(_, &dl)| dl != u64::MAX && dl <= clock)
                    .map(|(&k, _)| k)
                    .collect();
                assert_eq!(keys, due, "sweep at t={clock} returned the wrong set");
                for k in keys {
                    pending.remove(&k);
                }
            }
        }
        // Whatever the model still holds, the table still holds.
        assert_eq!(table.len(), pending.len());
        for k in pending.keys() {
            assert!(table.contains_key(k));
        }
    });
}
