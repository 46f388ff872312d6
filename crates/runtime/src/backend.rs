//! The [`Backend`] trait: a uniform admit/tear-down interface over the
//! switch implementations — the single-stage photonic crossbar
//! ([`CrossbarSession`]), the three-stage Clos-style network
//! ([`ThreeStageNetwork`]) and its CAS variant, the AWG-routed Clos
//! ([`AwgClosNetwork`]), and the graph-topology network
//! ([`GraphNetwork`]).
//!
//! Refusals use the canonical [`wdm_core::Reject`] taxonomy: a
//! [`Reject::Busy`] is a *request-level* conflict (an endpoint is in
//! use), which under concurrent shard processing can be a transient
//! artifact of event reordering and is therefore retryable; a
//! [`Reject::Blocked`] is *middle-stage exhaustion* — the event the
//! paper's Theorems 1–2 prove impossible when `m` meets the bound — and
//! is counted as a hard block.

use wdm_core::{Endpoint, Fault, MulticastConnection, Reject};
use wdm_fabric::CrossbarSession;
use wdm_graph::GraphNetwork;
use wdm_multistage::{AwgClosNetwork, ConcurrentThreeStage, RepackReport, ThreeStageNetwork};

/// Whether a backend can rearrange existing routes to admit a blocked
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepackSupport {
    /// The backend ran (or could have run) a repack search.
    Supported,
    /// The backend has no rearrangeable mode; a repack-assisted connect
    /// degrades to a plain connect and the verdict carries no moves.
    #[default]
    RepackUnsupported,
}

/// Move counters and support flag for one repack-assisted admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepackStats {
    /// Whether the backend supports rearrangement at all.
    pub support: RepackSupport,
    /// Make phases attempted (including reverts of failed plans).
    pub moves_attempted: u32,
    /// Moves whose break phase completed.
    pub moves_committed: u32,
    /// Moves refused at make or aborted at commit.
    pub moves_aborted: u32,
}

impl From<RepackReport> for RepackStats {
    fn from(report: RepackReport) -> RepackStats {
        RepackStats {
            support: RepackSupport::Supported,
            moves_attempted: report.moves_attempted,
            moves_committed: report.moves_committed,
            moves_aborted: report.moves_aborted,
        }
    }
}

/// The body of every backend's [`Backend::inject_fault`]: when `mark`
/// newly fails the component, snapshot each live connection `through`
/// it (`lookup` by source) and `disconnect` it, returning the victims
/// for the caller to re-admit.
fn evict_victims<B, T, E: std::fmt::Debug>(
    backend: &mut B,
    mark: impl FnOnce(&mut B) -> bool,
    through: impl FnOnce(&B) -> Vec<Endpoint>,
    lookup: impl Fn(&B, Endpoint) -> Option<MulticastConnection>,
    disconnect: impl Fn(&mut B, Endpoint) -> Result<T, E>,
) -> Vec<MulticastConnection> {
    if !mark(backend) {
        return Vec::new();
    }
    let victims: Vec<MulticastConnection> = through(backend)
        .into_iter()
        .filter_map(|src| lookup(backend, src))
        .collect();
    for c in &victims {
        disconnect(backend, c.source()).expect("victim is live");
    }
    victims
}

/// A switch implementation the admission engine can drive.
///
/// Implementations mutate one shared structure. Plain backends are
/// serialized behind the engine's write lock; a backend that also
/// implements [`ConcurrentAdmission`] (surfaced via
/// [`Backend::as_concurrent`]) admits and tears down from `&self`, so
/// shards run it under the read lock, in parallel. Exclusive operations
/// — fault injection, repack, drain — always take the write lock, which
/// doubles as the stop-the-world epoch concurrent backends rely on.
pub trait Backend: Send + Sync + 'static {
    /// Short name for reports ("crossbar", "three-stage").
    fn label(&self) -> &'static str;

    /// External ports per input module — the shard key granularity.
    /// Events for one module always land on one shard, preserving
    /// connect-before-disconnect order per source.
    fn ports_per_module(&self) -> u32;

    /// Wavelengths per fiber (sizes the per-wavelength gauges).
    fn wavelengths(&self) -> u32;

    /// Admit one multicast connection.
    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject>;

    /// Tear down the connection sourced at `src`.
    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject>;

    /// Admit a batch of connections, returning one verdict per request
    /// in order. The default is the sequential singles loop; backends
    /// with cheaper amortized admission may override it. Callers that
    /// already hold the backend lock get one lock acquisition for the
    /// whole batch either way.
    fn connect_batch(&mut self, conns: &[MulticastConnection]) -> Vec<Result<(), Reject>> {
        conns.iter().map(|c| self.connect(c)).collect()
    }

    /// Tear down a batch of connections by source, one verdict per
    /// entry in order.
    fn disconnect_batch(&mut self, srcs: &[Endpoint]) -> Vec<Result<(), Reject>> {
        srcs.iter().map(|&s| self.disconnect(s)).collect()
    }

    /// Admit `conn`, rearranging existing routes (make-before-break,
    /// at most `budget` committed moves) when a plain connect blocks.
    /// Backends without a rearrangeable mode keep this default: a plain
    /// connect whose stats report [`RepackSupport::RepackUnsupported`].
    fn connect_with_repack(
        &mut self,
        conn: &MulticastConnection,
        budget: u32,
    ) -> (Result<(), Reject>, RepackStats) {
        let _ = budget;
        (self.connect(conn), RepackStats::default())
    }

    /// Consolidate routes after departures (move-on-disconnect
    /// defragmentation), spending at most `budget` moves. Returns the
    /// stats; the default (no rearrangeable mode) does nothing.
    fn defragment(&mut self, budget: u32) -> RepackStats {
        let _ = budget;
        RepackStats::default()
    }

    /// Live connection count.
    fn active_connections(&self) -> usize;

    /// Per-middle-switch connection loads; empty for single-stage
    /// fabrics.
    fn middle_loads(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Mark `fault` failed and evict the live connections that traversed
    /// the dead component, returning them for the caller to re-admit on
    /// surviving hardware. A repeat injection of the same fault evicts
    /// nothing. Fault-oblivious backends ignore the call.
    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        let _ = fault;
        Vec::new()
    }

    /// Mark `fault` repaired; `true` if it was failed before. Default:
    /// nothing to repair.
    fn repair_fault(&mut self, fault: Fault) -> bool {
        let _ = fault;
        false
    }

    /// Deep-verify internal consistency; returns human-readable findings
    /// (empty = consistent). May be expensive — called at drain, not on
    /// the admission path.
    fn check(&self) -> Vec<String>;

    /// The fine-grained concurrent admission interface, if this backend
    /// supports lock-free submission. `None` (the default) keeps every
    /// operation behind the engine's exclusive lock.
    fn as_concurrent(&self) -> Option<&dyn ConcurrentAdmission> {
        None
    }
}

/// Admission through `&self`: the capability that lets engine shards
/// submit without the global backend mutex.
///
/// Implementations must be linearizable per call and must keep the
/// `commit_epoch` seqlock counters balanced around every mutation so
/// lock-free gauge readers ([`ConcurrentAdmission::active_shared`],
/// [`ConcurrentAdmission::middle_loads_shared`]) can detect torn reads
/// and retry.
pub trait ConcurrentAdmission: Send + Sync {
    /// Admit one multicast connection without exclusive access.
    fn connect_shared(&self, conn: &MulticastConnection) -> Result<(), Reject>;

    /// Tear down the connection sourced at `src` without exclusive
    /// access.
    fn disconnect_shared(&self, src: Endpoint) -> Result<(), Reject>;

    /// The seqlock counter pair `(started, finished)`. A gauge read is
    /// stable iff the `finished` value loaded *before* the read equals
    /// the `started` value loaded *after* it.
    fn commit_epoch(&self) -> (u64, u64);

    /// Live connection count (lock-free; may tear — guard with
    /// [`ConcurrentAdmission::commit_epoch`]).
    fn active_shared(&self) -> usize;

    /// Per-middle loads (lock-free; may tear — guard with
    /// [`ConcurrentAdmission::commit_epoch`]).
    fn middle_loads_shared(&self) -> Vec<u64>;
}

impl Backend for CrossbarSession {
    fn label(&self) -> &'static str {
        "crossbar"
    }

    fn ports_per_module(&self) -> u32 {
        // A crossbar has no module structure; shard per port.
        1
    }

    fn wavelengths(&self) -> u32 {
        self.network().wavelengths
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        CrossbarSession::connect(self, conn).map_err(Reject::from)
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        CrossbarSession::disconnect(self, src)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn active_connections(&self) -> usize {
        self.assignment().len()
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        evict_victims(
            self,
            |b| CrossbarSession::inject_fault(b, fault),
            |b| b.connections_through(&fault),
            |b, src| b.assignment().connection_at(src).cloned(),
            CrossbarSession::disconnect,
        )
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        CrossbarSession::repair_fault(self, fault)
    }

    fn check(&self) -> Vec<String> {
        // Shines light through the configured fabric and demands exact
        // delivery of the live assignment.
        match self.verify() {
            Ok(_) => Vec::new(),
            Err(e) => vec![format!("crossbar light-propagation check failed: {e}")],
        }
    }
}

impl Backend for ThreeStageNetwork {
    fn label(&self) -> &'static str {
        "three-stage"
    }

    fn ports_per_module(&self) -> u32 {
        self.params().n
    }

    fn wavelengths(&self) -> u32 {
        self.params().k
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        ThreeStageNetwork::connect(self, conn)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        let route = ThreeStageNetwork::disconnect(self, src).map_err(Reject::from)?;
        self.recycle(route);
        Ok(())
    }

    fn active_connections(&self) -> usize {
        ThreeStageNetwork::active_connections(self)
    }

    fn middle_loads(&self) -> Vec<u64> {
        ThreeStageNetwork::middle_loads(self)
    }

    fn connect_with_repack(
        &mut self,
        conn: &MulticastConnection,
        budget: u32,
    ) -> (Result<(), Reject>, RepackStats) {
        let (res, report) = ThreeStageNetwork::connect_with_repack(self, conn, budget);
        (res.map_err(Reject::from), report.into())
    }

    fn defragment(&mut self, budget: u32) -> RepackStats {
        ThreeStageNetwork::defragment(self, budget).into()
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        evict_victims(
            self,
            |b| ThreeStageNetwork::inject_fault(b, fault),
            |b| b.connections_through(&fault),
            |b, src| b.assignment().connection_at(src).cloned(),
            <Self as Backend>::disconnect,
        )
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        ThreeStageNetwork::repair_fault(self, fault)
    }

    fn check(&self) -> Vec<String> {
        self.check_consistency()
    }
}

impl Backend for ConcurrentThreeStage {
    fn label(&self) -> &'static str {
        "three-stage-cas"
    }

    fn ports_per_module(&self) -> u32 {
        self.params().n
    }

    fn wavelengths(&self) -> u32 {
        self.params().k
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        self.connect_shared(conn).map(|_| ()).map_err(Reject::from)
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        ConcurrentThreeStage::disconnect_shared(self, src)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn active_connections(&self) -> usize {
        ConcurrentThreeStage::active_connections(self)
    }

    fn middle_loads(&self) -> Vec<u64> {
        ConcurrentThreeStage::middle_loads(self)
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        evict_victims(
            self,
            |b| ConcurrentThreeStage::inject_fault(b, fault),
            |b| b.connections_through(&fault),
            |b, src| b.connection_at(src),
            |b, src| b.disconnect_shared(src),
        )
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        ConcurrentThreeStage::repair_fault(self, fault)
    }

    fn check(&self) -> Vec<String> {
        self.check_consistency()
    }

    fn as_concurrent(&self) -> Option<&dyn ConcurrentAdmission> {
        Some(self)
    }
}

impl ConcurrentAdmission for ConcurrentThreeStage {
    fn connect_shared(&self, conn: &MulticastConnection) -> Result<(), Reject> {
        ConcurrentThreeStage::connect_shared(self, conn)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn disconnect_shared(&self, src: Endpoint) -> Result<(), Reject> {
        ConcurrentThreeStage::disconnect_shared(self, src)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn commit_epoch(&self) -> (u64, u64) {
        let epoch = ConcurrentThreeStage::commit_epoch(self);
        (epoch.started, epoch.finished)
    }

    fn active_shared(&self) -> usize {
        ConcurrentThreeStage::active_connections(self)
    }

    fn middle_loads_shared(&self) -> Vec<u64> {
        ConcurrentThreeStage::middle_loads(self)
    }
}

impl Backend for AwgClosNetwork {
    fn label(&self) -> &'static str {
        "awg-clos"
    }

    fn ports_per_module(&self) -> u32 {
        self.params().n
    }

    fn wavelengths(&self) -> u32 {
        self.params().k
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        AwgClosNetwork::connect(self, conn)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        AwgClosNetwork::disconnect(self, src)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn active_connections(&self) -> usize {
        AwgClosNetwork::active_connections(self)
    }

    fn middle_loads(&self) -> Vec<u64> {
        AwgClosNetwork::middle_loads(self)
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        evict_victims(
            self,
            |b| AwgClosNetwork::inject_fault(b, fault),
            |b| b.connections_through(&fault),
            |b, src| b.assignment().connection_at(src).cloned(),
            AwgClosNetwork::disconnect,
        )
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        AwgClosNetwork::repair_fault(self, fault)
    }

    fn check(&self) -> Vec<String> {
        self.check_consistency()
    }
}

impl Backend for GraphNetwork {
    fn label(&self) -> &'static str {
        "graph"
    }

    fn ports_per_module(&self) -> u32 {
        // One module per graph node; its external ports shard together.
        self.ports_per_node()
    }

    fn wavelengths(&self) -> u32 {
        GraphNetwork::wavelengths(self)
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        GraphNetwork::connect(self, conn)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        GraphNetwork::disconnect(self, src)
            .map(|_| ())
            .map_err(Reject::from)
    }

    fn active_connections(&self) -> usize {
        GraphNetwork::active_connections(self)
    }

    fn middle_loads(&self) -> Vec<u64> {
        // The graph analog of middle loads: per-node structure crossings.
        self.node_loads()
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        evict_victims(
            self,
            |b| GraphNetwork::inject_fault(b, fault),
            |b| b.connections_through(&fault),
            |b, src| b.assignment().connection_at(src).cloned(),
            GraphNetwork::disconnect,
        )
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        GraphNetwork::repair_fault(self, fault)
    }

    fn check(&self) -> Vec<String> {
        self.check_consistency()
    }
}

/// Forwarding impl so a `Box<dyn Backend>` is itself a [`Backend`] —
/// the CLI's backend selector can pick an implementation at runtime and
/// hand the boxed trait object straight to the engine.
impl Backend for Box<dyn Backend> {
    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn ports_per_module(&self) -> u32 {
        (**self).ports_per_module()
    }

    fn wavelengths(&self) -> u32 {
        (**self).wavelengths()
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        (**self).connect(conn)
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        (**self).disconnect(src)
    }

    fn connect_batch(&mut self, conns: &[MulticastConnection]) -> Vec<Result<(), Reject>> {
        (**self).connect_batch(conns)
    }

    fn disconnect_batch(&mut self, srcs: &[Endpoint]) -> Vec<Result<(), Reject>> {
        (**self).disconnect_batch(srcs)
    }

    fn connect_with_repack(
        &mut self,
        conn: &MulticastConnection,
        budget: u32,
    ) -> (Result<(), Reject>, RepackStats) {
        (**self).connect_with_repack(conn, budget)
    }

    fn defragment(&mut self, budget: u32) -> RepackStats {
        (**self).defragment(budget)
    }

    fn active_connections(&self) -> usize {
        (**self).active_connections()
    }

    fn middle_loads(&self) -> Vec<u64> {
        (**self).middle_loads()
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        (**self).inject_fault(fault)
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        (**self).repair_fault(fault)
    }

    fn check(&self) -> Vec<String> {
        (**self).check()
    }

    fn as_concurrent(&self) -> Option<&dyn ConcurrentAdmission> {
        (**self).as_concurrent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{MulticastModel, NetworkConfig};
    use wdm_multistage::{Construction, ThreeStageParams};

    fn conn(src: (u32, u32), dsts: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dsts.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    #[test]
    fn crossbar_backend_roundtrip() {
        let mut b = CrossbarSession::new(NetworkConfig::new(4, 2), MulticastModel::Msw);
        assert_eq!(b.label(), "crossbar");
        assert_eq!(Backend::wavelengths(&b), 2);
        let c = conn((0, 1), &[(1, 1), (2, 1)]);
        Backend::connect(&mut b, &c).unwrap();
        assert_eq!(Backend::active_connections(&b), 1);
        assert!(b.check().is_empty());
        Backend::disconnect(&mut b, c.source()).unwrap();
        assert_eq!(Backend::active_connections(&b), 0);
    }

    #[test]
    fn busy_vs_fatal_classification() {
        let mut b = CrossbarSession::new(NetworkConfig::new(4, 2), MulticastModel::Msw);
        let c = conn((0, 0), &[(1, 0)]);
        Backend::connect(&mut b, &c).unwrap();
        // Same source again: retryable busy.
        let again = conn((0, 0), &[(2, 0)]);
        assert!(matches!(
            Backend::connect(&mut b, &again),
            Err(Reject::Busy(_))
        ));
        // Out of range: fatal.
        let oob = conn((99, 0), &[(1, 1)]);
        assert!(matches!(
            Backend::connect(&mut b, &oob),
            Err(Reject::Fatal(_))
        ));
        // Disconnect of an unknown source: the engine's skip set means
        // this only happens on bookkeeping bugs, and the taxonomy names
        // the condition precisely.
        assert!(matches!(
            Backend::disconnect(&mut b, Endpoint::new(3, 0)),
            Err(Reject::UnknownSource(_))
        ));
    }

    #[test]
    fn batch_defaults_match_singles_and_box_forwards() {
        let make = || -> Box<dyn Backend> {
            Box::new(CrossbarSession::new(
                NetworkConfig::new(4, 2),
                MulticastModel::Msw,
            ))
        };
        let mut boxed = make();
        let reqs = [
            conn((0, 0), &[(1, 0)]),
            conn((0, 0), &[(2, 0)]), // same source: busy
            conn((2, 1), &[(3, 1)]),
        ];
        let verdicts = boxed.connect_batch(&reqs);
        assert!(verdicts[0].is_ok());
        assert!(matches!(verdicts[1], Err(Reject::Busy(_))));
        assert!(verdicts[2].is_ok());
        assert_eq!(boxed.active_connections(), 2);
        let downs = boxed.disconnect_batch(&[Endpoint::new(0, 0), Endpoint::new(2, 1)]);
        assert!(downs.iter().all(|r| r.is_ok()));
        assert_eq!(boxed.active_connections(), 0);
    }

    #[test]
    fn awg_backend_admits_and_blocks() {
        use wdm_multistage::ConverterPlacement;
        // m=1 is below the bound (2), so a same-module-pair clash must
        // surface as Blocked, not Busy; at the bound it admits.
        let p = ThreeStageParams::new(2, 1, 4, 4);
        let mut b =
            AwgClosNetwork::new(p, 1, ConverterPlacement::IngressEgress, MulticastModel::Maw);
        assert_eq!(b.label(), "awg-clos");
        assert_eq!(Backend::ports_per_module(&b), 2);
        assert_eq!(Backend::wavelengths(&b), 4);
        Backend::connect(&mut b, &conn((0, 0), &[(0, 0)])).unwrap();
        let r = Backend::connect(&mut b, &conn((1, 1), &[(1, 1)]));
        assert!(matches!(r, Err(Reject::Blocked { .. })), "{r:?}");
        assert!(b.check().is_empty());
        // Fault eviction returns the victims like the other backends.
        let victims = Backend::inject_fault(&mut b, Fault::MiddleSwitch(0));
        assert_eq!(victims.len(), 1);
        assert_eq!(Backend::active_connections(&b), 0);
        assert!(Backend::repair_fault(&mut b, Fault::MiddleSwitch(0)));
    }

    #[test]
    fn crossbar_and_awg_report_repack_unsupported() {
        use wdm_multistage::ConverterPlacement;
        let mut cb = CrossbarSession::new(NetworkConfig::new(4, 2), MulticastModel::Msw);
        let (res, stats) = Backend::connect_with_repack(&mut cb, &conn((0, 0), &[(1, 0)]), 4);
        assert!(res.is_ok());
        assert_eq!(stats.support, RepackSupport::RepackUnsupported);
        assert_eq!(stats.moves_attempted, 0);
        assert_eq!(
            Backend::defragment(&mut cb, 4).support,
            RepackSupport::RepackUnsupported
        );

        let p = ThreeStageParams::new(2, 2, 4, 4);
        let mut awg =
            AwgClosNetwork::new(p, 1, ConverterPlacement::IngressEgress, MulticastModel::Maw);
        let (res, stats) = Backend::connect_with_repack(&mut awg, &conn((0, 0), &[(0, 0)]), 4);
        assert!(res.is_ok());
        assert_eq!(stats.support, RepackSupport::RepackUnsupported);
    }

    #[test]
    fn three_stage_backend_repacks_through_the_trait() {
        // The manufactured squeeze from the multistage unit tests, driven
        // through the Backend trait: plain connect blocks, repack admits.
        let p = ThreeStageParams::new(2, 2, 2, 2);
        let mut b = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        b.set_fanout_limit(1);
        Backend::connect(&mut b, &conn((0, 0), &[(2, 0)])).unwrap();
        ThreeStageNetwork::inject_fault(&mut b, Fault::MiddleSwitch(0));
        Backend::connect(&mut b, &conn((3, 0), &[(1, 0)])).unwrap();
        ThreeStageNetwork::repair_fault(&mut b, Fault::MiddleSwitch(0));
        let v = conn((1, 0), &[(0, 0)]);
        assert!(matches!(
            Backend::connect(&mut b, &v),
            Err(Reject::Blocked { .. })
        ));
        let (res, stats) = Backend::connect_with_repack(&mut b, &v, 2);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(stats.support, RepackSupport::Supported);
        assert!(stats.moves_committed >= 1);
        assert!(b.check().is_empty());
    }

    #[test]
    fn graph_backend_drives_like_the_others() {
        use wdm_graph::{GraphTopology, Splitting};
        let mut b = GraphNetwork::new(
            GraphTopology::Ring { nodes: 4 }.build(),
            2,
            2,
            Splitting::Hierarchy,
            MulticastModel::Msw,
        );
        assert_eq!(b.label(), "graph");
        assert_eq!(Backend::ports_per_module(&b), 2);
        assert_eq!(Backend::wavelengths(&b), 2);
        let c = conn((0, 0), &[(3, 0), (5, 0)]);
        Backend::connect(&mut b, &c).unwrap();
        assert_eq!(Backend::active_connections(&b), 1);
        assert_eq!(Backend::middle_loads(&b).len(), 4);
        assert!(b.check().is_empty());
        // Killing a transit node evicts the session through the trait.
        let victims = Backend::inject_fault(&mut b, Fault::MiddleSwitch(1));
        let rekill = Backend::inject_fault(&mut b, Fault::MiddleSwitch(2));
        assert_eq!(victims.len() + rekill.len(), 1, "exactly one eviction");
        assert_eq!(Backend::active_connections(&b), 0);
        assert!(b.check().is_empty());
    }

    #[test]
    fn three_stage_backend_blocks_when_starved() {
        // m=1 middle switch, MSW-dominant: a wavelength clash in the
        // middle must surface as Blocked, not Busy.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let mut b = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        assert_eq!(b.label(), "three-stage");
        assert_eq!(Backend::ports_per_module(&b), 2);
        Backend::connect(&mut b, &conn((0, 0), &[(2, 0)])).unwrap();
        // Different source module, same wavelength, destination module 1
        // already carries λ0 through the only middle switch.
        let r = Backend::connect(&mut b, &conn((2, 0), &[(3, 0)]));
        assert!(matches!(r, Err(Reject::Blocked { .. })), "{r:?}");
        assert!(b.check().is_empty());
    }
}
