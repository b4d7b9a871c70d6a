//! `local-assembly`: one caller in a closed loop over a colocated
//! assembly of servants behind `LocalOrb` — no DES, no fabric, no
//! registry. Every call is the ORB's typed path (IDL type checks) or
//! its marshalled path (CDR round trip of arguments and results), with
//! arguments from one `long` up to 4 KiB strings and sequences; some
//! calls publish events that fan out to four watchers.

use crate::clock::now_ns;
use crate::metrics::{m, Metric, Round};
use crate::stats::{sub_seed, Digest, Rng};
use crate::trace::span;
use crate::Workload;
use lc_core::demo::{self, CounterImpl, DisplayImpl, GuiPartImpl, RenderWatcherImpl};
use lc_orb::{Invocation, LocalOrb, ObjectRef, OrbError, Outcome, Servant, Value};
use std::sync::Arc;

/// The benchmark's own interface, beside the demo components.
pub const PERF_IDL: &str = r#"
    module perf {
      typedef sequence<long> Longs;
      interface Echo {
        long add(in long a, in long b);
        string echo_str(in string s);
        Longs echo_seq(in Longs v);
      };
    };
"#;

/// Repository id of [`EchoImpl`]'s interface.
pub const ECHO_ID: &str = "IDL:perf/Echo:1.0";
const EVENT_ID: &str = "IDL:demo/Rendered:1.0";
/// Event consumers subscribed to every `Rendered` publication.
const WATCHERS: usize = 4;
/// Calls per measured phase.
const OPS: usize = 20_000;
/// Calls of the set-up warm-up pass (the first ops of the same list).
const WARMUP_OPS: usize = 2_000;
/// Distinct argument values per size class.
const VARIANTS: usize = 8;
/// String argument sizes, bytes.
pub const STR_SIZES: [usize; 4] = [8, 64, 512, 4096];
/// Sequence argument sizes, longs (8 B … 4 KiB).
pub const SEQ_SIZES: [usize; 4] = [2, 16, 128, 1024];

/// The IDL repository of the assembly.
pub fn repo() -> lc_idl::Repository {
    match lc_idl::compile(&format!("{}\n{PERF_IDL}", demo::DEMO_IDL)) {
        Ok(r) => r,
        Err(e) => panic!("benchmark IDL must compile: {e:?}"),
    }
}

/// Operation kinds of the call mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Echo::add(long, long)`.
    Add,
    /// `Counter::inc(long)`.
    Inc,
    /// `Counter::value()`.
    Value,
    /// `Echo::echo_str(string)`.
    EchoStr,
    /// `Echo::echo_seq(Longs)`.
    EchoSeq,
    /// The same echo typed and marshalled; results must agree.
    Twin,
    /// `GuiPart::render(string)`: a oneway draw plus an event fan-out.
    Render,
    /// A direct `LocalOrb::publish` with fan-out.
    Publish,
}

/// One call of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What to call.
    pub kind: Kind,
    /// Marshalled (CDR round trip) rather than typed.
    pub marshalled: bool,
    /// A `long` argument.
    pub x: i32,
    /// Index into the string / sequence argument pools.
    pub arg: usize,
}

/// Everything the workload feeds the ORB: a pure function of the seed.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    /// The call list.
    pub ops: Vec<Op>,
    /// String arguments, `size class * VARIANTS + variant`.
    pub strs: Vec<Value>,
    /// Sequence arguments, same indexing.
    pub seqs: Vec<Value>,
    /// `Rendered` events carrying `strs[i]`.
    pub events: Vec<Value>,
}

/// Generate the inputs of `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let mut strs = Vec::new();
    let mut seqs = Vec::new();
    for (&sn, &qn) in STR_SIZES.iter().zip(&SEQ_SIZES) {
        for _ in 0..VARIANTS {
            let s: String = (0..sn)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            strs.push(Value::Str(s));
            seqs.push(Value::Sequence(
                (0..qn).map(|_| Value::Long(rng.next() as i32)).collect(),
            ));
        }
    }
    let events = strs
        .iter()
        .map(|s| Value::Struct {
            id: EVENT_ID.to_owned(),
            fields: vec![s.clone()],
        })
        .collect();
    // Mix weights out of 100.
    const MIX: [(Kind, u64); 8] = [
        (Kind::Add, 15),
        (Kind::Inc, 10),
        (Kind::Value, 5),
        (Kind::EchoStr, 25),
        (Kind::EchoSeq, 25),
        (Kind::Twin, 5),
        (Kind::Render, 10),
        (Kind::Publish, 5),
    ];
    let ops = (0..OPS)
        .map(|_| {
            let mut pick = rng.below(100);
            let kind = MIX
                .iter()
                .find(|&&(_, w)| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .map_or(Kind::Add, |&(k, _)| k);
            Op {
                kind,
                marshalled: rng.below(2) == 1,
                x: rng.below(201) as i32 - 100,
                arg: rng.below((STR_SIZES.len() * VARIANTS) as u64) as usize,
            }
        })
        .collect();
    Inputs {
        ops,
        strs,
        seqs,
        events,
    }
}

/// The benchmark's own servant: echoes and adds.
pub struct EchoImpl;

impl Servant for EchoImpl {
    fn interface_id(&self) -> &str {
        ECHO_ID
    }
    fn dispatch(&mut self, inv: &mut Invocation<'_>) -> Result<(), OrbError> {
        span("bench.servant", 0, || {
            let arg = |i: usize| {
                inv.args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| OrbError::BadParam(format!("argument {i}")))
            };
            match inv.op {
                "add" => {
                    let (a, b) = (arg(0)?, arg(1)?);
                    match (a.as_long(), b.as_long()) {
                        (Some(a), Some(b)) => inv.set_ret(Value::Long(a.wrapping_add(b))),
                        _ => return Err(OrbError::BadParam("add: longs expected".into())),
                    }
                }
                "echo_str" | "echo_seq" => {
                    let v = arg(0)?;
                    inv.set_ret(v);
                }
                op => return Err(OrbError::BadOperation(op.to_owned())),
            }
            Ok(())
        })
    }
}

/// Expected servant state, tracked by the caller.
#[derive(Default)]
struct Expect {
    count: i64,
    drawn: i64,
    seen: u64,
}

struct Assembly {
    orb: LocalOrb,
    echo: ObjectRef,
    counter: ObjectRef,
    display: ObjectRef,
    gui: ObjectRef,
    watchers: Vec<ObjectRef>,
    expect: Expect,
}

impl Assembly {
    fn new() -> Assembly {
        let repo = Arc::new(span("setup.idl", 0, repo));
        let orb = LocalOrb::new(repo);
        let echo = orb.activate(Box::new(EchoImpl));
        let counter = orb.activate(Box::new(CounterImpl { count: 0 }));
        let display = orb.activate(Box::new(DisplayImpl {
            drawn: 0,
            draw_cost: lc_des::SimTime::ZERO,
        }));
        let gui = orb.activate(Box::new(GuiPartImpl {
            display: Some(display.clone()),
            renders: 0,
        }));
        orb.bind_event_port(&gui, "rendered", EVENT_ID);
        let watchers: Vec<ObjectRef> = (0..WATCHERS)
            .map(|_| {
                let w = orb.activate(Box::<RenderWatcherImpl>::default());
                orb.subscribe(EVENT_ID, &w, "_push_rendered");
                w
            })
            .collect();
        Assembly {
            orb,
            echo,
            counter,
            display,
            gui,
            watchers,
            expect: Expect::default(),
        }
    }

    fn call(
        &self,
        target: &ObjectRef,
        op: &str,
        args: &[Value],
        marshalled: bool,
        id: u64,
    ) -> Result<Outcome, OrbError> {
        if marshalled {
            span("orb.invoke_marshalled", id, || {
                self.orb.invoke_marshalled(target, op, args)
            })
        } else {
            span("orb.invoke", id, || self.orb.invoke(target, op, args))
        }
    }

    /// Run one op: host ns of its ORB call(s), and the digest word of
    /// its result or the violation it showed.
    fn exec(&mut self, op: &Op, inp: &Inputs, id: u64) -> (u64, Result<u64, String>) {
        let want = |got: Result<Outcome, OrbError>, want: &Value| -> Result<u64, String> {
            match got {
                Ok(o) if &o.ret == want => Ok(word(&o.ret)),
                Ok(o) => Err(format!(
                    "op {id} {:?}: got {}, want {}",
                    op.kind,
                    brief(&o.ret),
                    brief(want)
                )),
                Err(e) => Err(format!("op {id} {:?}: {e:?}", op.kind)),
            }
        };
        let t0 = now_ns();
        match op.kind {
            Kind::Add => {
                let (a, b) = (op.x, op.x.rotate_left(7));
                let r = self.call(
                    &self.echo,
                    "add",
                    &[Value::Long(a), Value::Long(b)],
                    op.marshalled,
                    id,
                );
                (now_ns() - t0, want(r, &Value::Long(a.wrapping_add(b))))
            }
            Kind::Inc => {
                let r = self.call(
                    &self.counter,
                    "inc",
                    &[Value::Long(op.x)],
                    op.marshalled,
                    id,
                );
                let ns = now_ns() - t0;
                self.expect.count += i64::from(op.x);
                (ns, want(r, &Value::Void))
            }
            Kind::Value => {
                let r = self.call(&self.counter, "value", &[], op.marshalled, id);
                (
                    now_ns() - t0,
                    want(r, &Value::Long(self.expect.count as i32)),
                )
            }
            Kind::EchoStr | Kind::EchoSeq => {
                let (name, pool) = if op.kind == Kind::EchoStr {
                    ("echo_str", &inp.strs)
                } else {
                    ("echo_seq", &inp.seqs)
                };
                let v = &pool[op.arg];
                let r = self.call(&self.echo, name, std::slice::from_ref(v), op.marshalled, id);
                (now_ns() - t0, want(r, v))
            }
            Kind::Twin => {
                let (name, v) = if op.x % 2 == 0 {
                    ("echo_str", &inp.strs[op.arg])
                } else {
                    ("echo_seq", &inp.seqs[op.arg])
                };
                let typed = self.call(&self.echo, name, std::slice::from_ref(v), false, id);
                let marshalled = self.call(&self.echo, name, std::slice::from_ref(v), true, id);
                let ns = now_ns() - t0;
                match (typed, marshalled) {
                    (Ok(t), Ok(mm)) if t == mm => (ns, want(Ok(t), v)),
                    (t, mm) => (
                        ns,
                        Err(format!("op {id} twin: typed {t:?} != marshalled {mm:?}")),
                    ),
                }
            }
            Kind::Render => {
                let v = &inp.strs[op.arg];
                let r = self.call(
                    &self.gui,
                    "render",
                    std::slice::from_ref(v),
                    op.marshalled,
                    id,
                );
                let ns = now_ns() - t0;
                self.expect.drawn += 1;
                self.expect.seen += 1;
                (ns, want(r, &Value::Void))
            }
            Kind::Publish => {
                let r = span("orb.publish", id, || {
                    self.orb.publish(EVENT_ID, &inp.events[op.arg])
                });
                let ns = now_ns() - t0;
                self.expect.seen += 1;
                match r {
                    Ok(n) if n == WATCHERS => (ns, Ok(n as u64)),
                    other => (
                        ns,
                        Err(format!(
                            "op {id} publish reached {other:?}, want {WATCHERS}"
                        )),
                    ),
                }
            }
        }
    }

    /// Servant state equals what the caller expects.
    fn check_state(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut expect =
            |who: &str, r: &ObjectRef, op: &str, v: i64| match self.orb.invoke(r, op, &[]) {
                Ok(o) if o.ret == Value::Long(v as i32) => {}
                got => bad.push(format!("{who}.{op} = {got:?}, want {v}")),
            };
        expect("counter", &self.counter, "value", self.expect.count);
        expect("display", &self.display, "drawn", self.expect.drawn);
        for w in &self.watchers {
            expect("watcher", w, "value", self.expect.seen as i64);
        }
        bad
    }
}

/// A short description of a value for violation messages.
fn brief(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("string[{}]", s.len()),
        Value::Sequence(s) => format!("sequence[{}]", s.len()),
        other => format!("{other:?}"),
    }
}

/// The digest word of a result.
fn word(v: &Value) -> u64 {
    match v {
        Value::Long(x) => *x as u32 as u64,
        Value::Str(s) => s.len() as u64 | 1 << 40,
        Value::Sequence(s) => s.len() as u64 | 2 << 40,
        _ => 3 << 40,
    }
}

/// The workload state: the input sets of one seed.
pub struct LocalAssembly {
    inputs: Vec<Inputs>,
}

impl LocalAssembly {
    /// Generate the input sets of `seed`.
    pub fn new(seed: u64) -> LocalAssembly {
        LocalAssembly {
            inputs: (0..crate::INPUT_SETS)
                .map(|k| inputs(sub_seed(seed, k)))
                .collect(),
        }
    }
}

impl Workload for LocalAssembly {
    fn round(&mut self, set: usize) -> Round {
        let inp = &self.inputs[set];
        let mut r = Round::default();
        let t0 = now_ns();
        let mut a = span("setup.assembly", 0, Assembly::new);
        span("setup.warmup", 0, || {
            for (i, op) in inp.ops[..WARMUP_OPS].iter().enumerate() {
                if let (_, Err(v)) = a.exec(op, inp, i as u64 + 1) {
                    r.violations.push(format!("warm-up: {v}"));
                }
            }
        });
        r.setup_ns = now_ns() - t0;

        let stats0 = a.orb.stats();
        let disp0 = a.orb.dispatch_stats();
        let mut digest = Digest::default();
        let tm = now_ns();
        for (i, op) in inp.ops.iter().enumerate() {
            let (ns, res) = a.exec(op, inp, (WARMUP_OPS + i) as u64 + 1);
            r.host_lat_ns.record(ns as f64);
            match res {
                Ok(w) => {
                    digest.u64(w);
                    r.completed += 1;
                }
                Err(v) => {
                    r.failed += 1;
                    if r.violations.len() < 10 {
                        r.violations.push(v);
                    }
                }
            }
        }
        r.measure_ns = now_ns() - tm;
        r.violations.extend(a.check_state());
        let stats1 = a.orb.stats();
        let disp1 = a.orb.dispatch_stats();

        r.attempted = OPS as u64;
        let requests = stats1.requests - stats0.requests;
        let bytes = stats1.request_bytes - stats0.request_bytes;
        digest.u64(requests);
        digest.u64(bytes);
        r.digest = digest.value();
        r.msgs = requests;
        r.bytes = bytes;
        r.report = vec![
            m("fail_frac", r.failed as f64 / OPS as f64, "ratio"),
            m("calls", OPS as f64, "count"),
        ];
        let dispatches = disp1.total() - disp0.total();
        r.layers = vec![
            m(
                "orb.request_kib",
                bytes as f64 / requests.max(1) as f64 / 1024.0,
                "KiB",
            ),
            m(
                "orb.dispatch_ns",
                (disp1.total_ns - disp0.total_ns) as f64 / dispatches.max(1) as f64,
                "ns",
            ),
            m(
                "orb.dispatches_per_op",
                dispatches as f64 / OPS as f64,
                "count",
            ),
        ];
        r
    }

    fn replays(&mut self) -> Vec<Metric> {
        crate::replay::orb(&self.inputs[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(inputs(5), inputs(5));
        assert_ne!(inputs(5).ops, inputs(6).ops);
        let inp = inputs(5);
        assert_eq!(inp.ops.len(), OPS);
        assert!(inp.ops.iter().any(|o| o.kind == Kind::Twin));
        assert!(inp.ops.iter().any(|o| o.kind == Kind::Publish));
        assert!(matches!(&inp.strs[inp.strs.len() - 1], Value::Str(s) if s.len() == 4096));
    }

    #[test]
    fn a_round_is_correct_and_repeats() {
        let mut w = LocalAssembly::new(3);
        let a = w.round(0);
        let b = w.round(0);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, w.round(1).digest);
        assert!(a.msgs > OPS as u64, "fan-out adds requests");
    }
}
