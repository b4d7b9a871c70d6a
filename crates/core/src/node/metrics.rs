//! Per-service instrumentation for the node (`NodeMetrics`).
//!
//! The router in [`super::Node`] stamps every routed message, timer and
//! deferred effect with the service that handled it, so experiments can
//! break a node's work down by the four Figure-1 services plus the
//! container. Latency figures are **wall clock** (they never feed back
//! into virtual time), so the simulation stays deterministic while the
//! instrumentation reflects real CPU cost.
//!
//! The counters are stored as the typed structs they are read as: one
//! [`ServiceMetrics`] per [`ServiceKind`] plus a per-command count, so
//! the router's hot path is an array index and an add — no key strings
//! are built. Node-level event counts (cache hits, admission sheds, SLO
//! breaches) go to the simulation-wide `lc_des::Metrics` sink instead.

use std::collections::BTreeMap;

/// The four Figure-1 services plus the container runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceKind {
    /// Component Acceptor: run-time installation + package fetch serving.
    Acceptor,
    /// Component Registry: distributed queries, offers, MRM routing.
    Registry,
    /// Resource Manager: reports, CPU FIFO, load-balance triggers.
    Resource,
    /// Network Cohesion: keep-alive absorption, MRM sweeps, summaries.
    Cohesion,
    /// Container runtime: instances, invocation, events, migration.
    Container,
}

impl ServiceKind {
    /// All services, in display order.
    pub const ALL: [ServiceKind; 5] = [
        ServiceKind::Acceptor,
        ServiceKind::Registry,
        ServiceKind::Resource,
        ServiceKind::Cohesion,
        ServiceKind::Container,
    ];

    /// Position in [`ServiceKind::ALL`] (and in [`NodeMetrics`]' table).
    fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Acceptor => "acceptor",
            ServiceKind::Registry => "registry",
            ServiceKind::Resource => "resource",
            ServiceKind::Cohesion => "cohesion",
            ServiceKind::Container => "container",
        }
    }
}

/// Counters for one service.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceMetrics {
    /// Messages routed *to* this service (commands, control traffic,
    /// ORB wire messages — timers and internal effects excluded).
    pub msgs_in: u64,
    /// Messages this service put on the wire (control + ORB).
    pub msgs_out: u64,
    /// Handler activations (messages + timers + effects).
    pub dispatches: u64,
    /// Total wall-clock nanoseconds spent in this service's handlers.
    pub dispatch_ns: u64,
}

impl ServiceMetrics {
    /// Mean wall-clock nanoseconds per handler activation.
    pub fn mean_dispatch_ns(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.dispatch_ns as f64 / self.dispatches as f64
        }
    }
}

/// The node-level instrumentation the refactor threads through the
/// service seam: per-service message/latency counters plus per-command
/// counts. Continuation-table depth lives with the table itself
/// ([`super::Continuations`]) and is joined in at reflection time.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    services: [ServiceMetrics; 5],
    cmds: BTreeMap<&'static str, u64>,
    current: Option<ServiceKind>,
}

impl NodeMetrics {
    /// Snapshot of one service's counters.
    pub fn service(&self, kind: ServiceKind) -> ServiceMetrics {
        self.services[kind.index()]
    }

    /// `(command name, count)` for every [`super::NodeCmd`] seen,
    /// in name order.
    pub fn cmd_counts(&self) -> Vec<(String, u64)> {
        self.cmds.iter().map(|(n, c)| ((*n).to_owned(), *c)).collect()
    }

    /// Total messages in across all services.
    pub fn total_msgs_in(&self) -> u64 {
        self.services.iter().map(|m| m.msgs_in).sum()
    }

    /// Total messages out across all services.
    pub fn total_msgs_out(&self) -> u64 {
        self.services.iter().map(|m| m.msgs_out).sum()
    }

    pub(crate) fn note_cmd(&mut self, name: &'static str) {
        *self.cmds.entry(name).or_insert(0) += 1;
    }

    /// Begin a handler activation: attribute subsequent sends to `kind`.
    pub(crate) fn begin(&mut self, kind: ServiceKind, counts_as_msg: bool) {
        self.current = Some(kind);
        let m = &mut self.services[kind.index()];
        m.dispatches += 1;
        if counts_as_msg {
            m.msgs_in += 1;
        }
    }

    /// End a handler activation started with [`Self::begin`].
    pub(crate) fn finish(&mut self, kind: ServiceKind, elapsed_ns: u64) {
        self.services[kind.index()].dispatch_ns += elapsed_ns;
        self.current = None;
    }

    /// Record one outgoing message, charged to the active service (or to
    /// the container when sent from outside a handler, e.g. public API).
    pub(crate) fn msg_out(&mut self) {
        let kind = self.current.unwrap_or(ServiceKind::Container);
        self.services[kind.index()].msgs_out += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_follows_begin_finish() {
        let mut m = NodeMetrics::default();
        m.begin(ServiceKind::Registry, true);
        m.msg_out();
        m.msg_out();
        m.finish(ServiceKind::Registry, 1000);
        m.begin(ServiceKind::Cohesion, false);
        m.finish(ServiceKind::Cohesion, 500);
        assert_eq!(m.service(ServiceKind::Registry).msgs_in, 1);
        assert_eq!(m.service(ServiceKind::Registry).msgs_out, 2);
        assert_eq!(m.service(ServiceKind::Registry).dispatch_ns, 1000);
        assert_eq!(m.service(ServiceKind::Cohesion).msgs_in, 0);
        assert_eq!(m.service(ServiceKind::Cohesion).dispatches, 1);
        assert_eq!(m.total_msgs_out(), 2);
    }

    #[test]
    fn cmd_counters_accumulate() {
        let mut m = NodeMetrics::default();
        m.note_cmd("Install");
        m.note_cmd("Install");
        m.note_cmd("Query");
        let counts = m.cmd_counts();
        assert_eq!(counts, vec![("Install".to_owned(), 2), ("Query".to_owned(), 1)]);
    }
}
