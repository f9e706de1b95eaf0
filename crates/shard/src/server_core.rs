//! The daemon's policy state as one plain value: the open connections,
//! each tenant's session count, the live pattern-DB epoch, the reloads in
//! flight and drain. [`ServerCore`] owns no socket, thread or clock, so a
//! test drives every rule here by calling its methods. The shell in
//! `server.rs` holds it behind one mutex and does the I/O; no other code
//! changes this state.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sunder_artifact::CompiledPipeline;

use crate::frame::{ERR_BUSY, ERR_QUOTA, ERR_SHUTDOWN};
use crate::server::LoadedDb;

/// A connection's key, issued by [`ServerCore::open`].
pub(crate) type ConnId = u64;

/// Why the core turned a connection or a session away.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The server is draining.
    Draining,
    /// The global session cap is reached.
    Busy,
    /// The named tenant is at its session quota.
    Quota(String),
}

impl Refusal {
    /// The code and message of the `Error` frame that answers it.
    pub(crate) fn frame(&self) -> (u16, String) {
        match self {
            Refusal::Draining => (ERR_SHUTDOWN, "server is draining".into()),
            Refusal::Busy => (ERR_BUSY, "session cap reached".into()),
            Refusal::Quota(t) => (ERR_QUOTA, format!("tenant {t:?} is at its session quota")),
        }
    }
}

/// A begun reload. [`ServerCore::finish_reload`] consumes it; until then
/// the server is not ready.
#[must_use = "an unfinished reload keeps the server unready"]
pub(crate) struct Ticket(());

/// The state `/statusz` renders, read under one lock.
pub(crate) struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) draining: bool,
    pub(crate) reloading: bool,
    pub(crate) active: usize,
    /// Connections ever admitted by `open`.
    pub(crate) started: u64,
    /// Open sessions per tenant, sorted by tenant.
    pub(crate) tenants: Vec<(String, usize)>,
}

struct Conn<C> {
    handle: C,
    /// Set once the session's `Hello` is admitted.
    tenant: Option<String>,
}

/// Admission, epochs, readiness and drain, generic over the
/// per-connection handle drain needs to reach a straggler.
pub(crate) struct ServerCore<C> {
    max_sessions: usize,
    per_tenant_sessions: usize,
    db: Arc<LoadedDb>,
    /// A count, not a flag: overlapping reloads each hold readiness off.
    reloads_in_flight: usize,
    draining: bool,
    conns: HashMap<ConnId, Conn<C>>,
    tenants: BTreeMap<String, usize>,
    next_conn: ConnId,
    started: u64,
}

impl<C> ServerCore<C> {
    /// A core serving `pipeline` as epoch 1.
    pub(crate) fn new(
        max_sessions: usize,
        per_tenant_sessions: usize,
        pipeline: Arc<CompiledPipeline>,
    ) -> ServerCore<C> {
        ServerCore {
            max_sessions,
            per_tenant_sessions,
            db: Arc::new(LoadedDb { epoch: 1, pipeline }),
            reloads_in_flight: 0,
            draining: false,
            conns: HashMap::new(),
            tenants: BTreeMap::new(),
            next_conn: 0,
            started: 0,
        }
    }

    /// Admits a connection against drain and the session cap.
    pub(crate) fn open(&mut self, handle: C) -> Result<ConnId, Refusal> {
        if self.draining {
            return Err(Refusal::Draining);
        }
        if self.conns.len() >= self.max_sessions {
            return Err(Refusal::Busy);
        }
        let id = self.next_conn;
        self.next_conn += 1;
        self.started += 1;
        self.conns.insert(
            id,
            Conn {
                handle,
                tenant: None,
            },
        );
        Ok(id)
    }

    /// Admits connection `id`'s session for `tenant` against its quota
    /// and pins the current epoch for the whole session.
    pub(crate) fn hello(&mut self, id: ConnId, tenant: &str) -> Result<Arc<LoadedDb>, Refusal> {
        let conn = self
            .conns
            .get_mut(&id)
            .expect("hello on an open connection");
        debug_assert!(conn.tenant.is_none(), "one Hello per connection");
        if self.tenants.get(tenant).copied().unwrap_or(0) >= self.per_tenant_sessions {
            return Err(Refusal::Quota(tenant.to_string()));
        }
        *self.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        conn.tenant = Some(tenant.to_string());
        Ok(Arc::clone(&self.db))
    }

    /// Releases connection `id`'s session slot and tenant count.
    pub(crate) fn close(&mut self, id: ConnId) {
        let Some(tenant) = self.conns.remove(&id).and_then(|c| c.tenant) else {
            return;
        };
        if let Some(n) = self.tenants.get_mut(&tenant) {
            *n -= 1;
            if *n == 0 {
                self.tenants.remove(&tenant);
            }
        }
    }

    /// Marks a reload in flight; the build runs outside the lock.
    pub(crate) fn begin_reload(&mut self) -> Ticket {
        self.reloads_in_flight += 1;
        Ticket(())
    }

    /// Ends a reload. A built pipeline becomes the next epoch, numbered
    /// and installed in this one call, so overlapping reloads install in
    /// epoch order whatever order their builds finish in. `None` (the
    /// build failed) leaves the live epoch as it is.
    pub(crate) fn finish_reload(
        &mut self,
        ticket: Ticket,
        pipeline: Option<Arc<CompiledPipeline>>,
    ) -> Option<u64> {
        let Ticket(()) = ticket;
        self.reloads_in_flight -= 1;
        let pipeline = pipeline?;
        let epoch = self.db.epoch + 1;
        self.db = Arc::new(LoadedDb { epoch, pipeline });
        Some(epoch)
    }

    /// Stops admission for good.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// True once draining with no connection left.
    pub(crate) fn drained(&self) -> bool {
        self.draining && self.conns.is_empty()
    }

    /// The open connections' handles, for drain's hard deadline.
    pub(crate) fn stragglers(&self) -> impl Iterator<Item = &C> {
        self.conns.values().map(|c| &c.handle)
    }

    /// Connections open now.
    pub(crate) fn active(&self) -> usize {
        self.conns.len()
    }

    /// The live epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.db.epoch
    }

    /// `Ok(epoch)` when new streams should come here; otherwise why not.
    /// Draining wins over reloading.
    pub(crate) fn ready(&self) -> Result<u64, &'static str> {
        if self.draining {
            Err("draining")
        } else if self.reloads_in_flight > 0 {
            Err("reloading")
        } else {
            Ok(self.db.epoch)
        }
    }

    /// Everything `/statusz` reports from this state.
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            epoch: self.db.epoch,
            draining: self.draining,
            reloading: self.reloads_in_flight > 0,
            active: self.conns.len(),
            started: self.started,
            tenants: self.tenants.iter().map(|(t, n)| (t.clone(), *n)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::partition::ShardSpec;
    use sunder_automata::regex::compile_rule_set;
    use sunder_resilience::SplitMix64;
    use sunder_sim::EngineKind;
    use sunder_transform::PipelineConfig;

    fn pipeline() -> Arc<CompiledPipeline> {
        let nfa = compile_rule_set(&["ab"]).unwrap();
        let (config, spec) = (PipelineConfig::Identity, ShardSpec::MaxShards(1));
        Arc::new(CompiledPipeline::compile(&nfa, config, spec, EngineKind::Sparse).unwrap())
    }

    #[test]
    fn draining_wins_over_reloading_and_overlapping_reloads_hold_readiness() {
        let p = pipeline();
        let mut core = ServerCore::<()>::new(4, 4, Arc::clone(&p));
        assert_eq!(core.ready(), Ok(1));
        let (first, second) = (core.begin_reload(), core.begin_reload());
        assert_eq!(core.ready(), Err("reloading"));
        // The first reload to finish must not clear the second's hold.
        assert_eq!(core.finish_reload(first, Some(Arc::clone(&p))), Some(2));
        assert_eq!(core.ready(), Err("reloading"));
        let third = core.begin_reload();
        assert_eq!(core.finish_reload(third, None), None);
        assert_eq!(core.ready(), Err("reloading"));
        core.begin_drain();
        assert_eq!(core.ready(), Err("draining"));
        assert_eq!(core.finish_reload(second, Some(p)), Some(3));
        assert_eq!(core.ready(), Err("draining"));
        assert!(core.drained());
    }

    const MAX_SESSIONS: usize = 5;
    const PER_TENANT: usize = 2;
    const TENANTS: u64 = 4;

    /// One seeded schedule of `steps` random core calls, with every
    /// invariant checked after each call.
    fn run_schedule(seed: u64, steps: usize, pipeline: &Arc<CompiledPipeline>) {
        let mut core = ServerCore::<()>::new(MAX_SESSIONS, PER_TENANT, Arc::clone(pipeline));
        let mut rng = SplitMix64::new(seed);
        // Open connections, each with its tenant and pinned epoch once
        // its Hello is admitted.
        let mut conns: Vec<(ConnId, Option<(String, u64)>)> = Vec::new();
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut installed = 1;
        let mut drain_begun = false;
        for step in 0..steps {
            let at = format!("seed {seed} step {step}");
            let pick = |rng: &mut SplitMix64, n: usize| (rng.next() % n as u64) as usize;
            match rng.next() % 100 {
                0..=24 => match core.open(()) {
                    Ok(id) => {
                        assert!(!drain_begun, "{at}: open admitted while draining");
                        conns.push((id, None));
                    }
                    Err(Refusal::Draining) => assert!(drain_begun, "{at}: refused as draining"),
                    Err(Refusal::Busy) => assert_eq!(conns.len(), MAX_SESSIONS, "{at}"),
                    Err(r) => panic!("{at}: open refused with {r:?}"),
                },
                25..=49 => {
                    let fresh: Vec<usize> =
                        (0..conns.len()).filter(|&i| conns[i].1.is_none()).collect();
                    if !fresh.is_empty() {
                        let i = fresh[pick(&mut rng, fresh.len())];
                        let tenant = format!("t{}", rng.next() % TENANTS);
                        match core.hello(conns[i].0, &tenant) {
                            Ok(db) => conns[i].1 = Some((tenant, db.epoch)),
                            Err(Refusal::Quota(t)) => {
                                let held = conns
                                    .iter()
                                    .filter(|c| c.1.as_ref().is_some_and(|(ten, _)| *ten == t));
                                assert_eq!(held.count(), PER_TENANT, "{at}: quota refusal");
                            }
                            Err(r) => panic!("{at}: hello refused with {r:?}"),
                        }
                    }
                }
                50..=69 => {
                    if !conns.is_empty() {
                        let (id, _) = conns.swap_remove(pick(&mut rng, conns.len()));
                        core.close(id);
                    }
                }
                70..=81 => tickets.push(core.begin_reload()),
                82..=98 => {
                    if !tickets.is_empty() {
                        let ticket = tickets.swap_remove(pick(&mut rng, tickets.len()));
                        let built = rng.next().is_multiple_of(2);
                        let got = core.finish_reload(ticket, built.then(|| Arc::clone(pipeline)));
                        assert_eq!(got.is_some(), built, "{at}: install iff built");
                        if let Some(epoch) = got {
                            assert!(epoch > installed, "{at}: epoch {epoch} after {installed}");
                            installed = epoch;
                        }
                    }
                }
                _ => {
                    core.begin_drain();
                    drain_begun = true;
                }
            }
            check(&core, &conns, &tickets, installed, drain_begun, &at);
        }
        // Drain terminates: once every session closes, drain is complete.
        core.begin_drain();
        for (id, _) in conns.drain(..) {
            assert!(!core.drained(), "seed {seed}: drained with sessions open");
            core.close(id);
        }
        assert!(core.drained(), "seed {seed}: drain never completed");
    }

    fn check(
        core: &ServerCore<()>,
        conns: &[(ConnId, Option<(String, u64)>)],
        tickets: &[Ticket],
        installed: u64,
        drain_begun: bool,
        at: &str,
    ) {
        let snap = core.snapshot();
        assert_eq!(snap.active, conns.len(), "{at}: active count");
        assert!(
            snap.active <= MAX_SESSIONS,
            "{at}: {} sessions",
            snap.active
        );
        for (tenant, n) in &snap.tenants {
            let held = conns
                .iter()
                .filter(|c| c.1.as_ref().is_some_and(|(t, _)| t == tenant));
            assert_eq!(*n, held.count(), "{at}: tenant {tenant} count");
            assert!(*n <= PER_TENANT, "{at}: tenant {tenant} holds {n}");
        }
        let held: usize = snap.tenants.iter().map(|(_, n)| n).sum();
        assert!(
            held <= snap.active,
            "{at}: {held} tenant slots, {} active",
            snap.active
        );
        assert_eq!(snap.epoch, installed, "{at}: live epoch is not the newest");
        for (_, pin) in conns.iter().filter_map(|c| c.1.as_ref()) {
            assert!(
                *pin <= snap.epoch,
                "{at}: pin {pin} above epoch {}",
                snap.epoch
            );
        }
        let quiet = !drain_begun && tickets.is_empty();
        assert_eq!(
            core.ready().is_ok(),
            quiet,
            "{at}: readiness {:?}",
            core.ready()
        );
        assert_eq!(snap.draining, drain_begun, "{at}: draining flag");
        assert_eq!(snap.reloading, !tickets.is_empty(), "{at}: reloading flag");
        assert!(
            !core.drained() || snap.active == 0,
            "{at}: drained with sessions open"
        );
    }

    #[test]
    fn random_schedules_keep_the_invariants() {
        let pipeline = pipeline();
        for seed in 0..200 {
            run_schedule(seed, 500, &pipeline);
        }
    }
}
