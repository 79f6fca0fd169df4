//! The experiment harness: dumbbell + senders + receivers → metrics.
//!
//! Every congestion experiment in the paper is an instance of the same
//! shape — N on/off senders over the Figure 1 dumbbell, measured for
//! throughput (over on-times), bottleneck queueing delay, and loss — so
//! this module builds that shape once. Callers differ only in how each
//! sender is *provisioned* (which controller factory and which session
//! hook), which is exactly the axis the paper varies: default Cubic,
//! Phi-tuned Cubic, mixed deployments, Remy variants.

use phi_sim::engine::{BudgetExceeded, RunBudget, SchedStats, Simulator};
use phi_sim::queue::{Capacity, DisciplineSpec};
use phi_sim::switch::{SwitchSpec, SwitchStats};
use phi_sim::time::{Dur, Time};
use phi_sim::topology::{dumbbell, Dumbbell, DumbbellSpec};
use phi_tcp::cubic::{Cubic, CubicParams};
use phi_tcp::dctcp::{Dctcp, DctcpParams};
use phi_tcp::hook::{NoHook, SessionHook};
use phi_tcp::receiver::TcpReceiver;
use phi_tcp::report::{FlowReport, RunMetrics};
use phi_tcp::sender::{CcFactory, SenderConfig, TcpSender};
use phi_workload::{FlowSource, IncastConfig, IncastSource, OnOffConfig, OnOffSource, SeedRng};
use serde::{Deserialize, Serialize};

use crate::context::{ContextStore, PathKey, StoreConfig};
use crate::crash::{HaPlane, HaReport, HaSpec};
use crate::hooks::{
    shared, FaultPlan, FaultyHook, PracticalHook, SharedFaultCounters, SharedStore,
};
use crate::policy::PolicyTable;
use crate::runpool::{derive_seed, RunPool};

/// The path key all senders of one dumbbell share (they all traverse the
/// single bottleneck, per the §2.1 shared-path assumption).
pub const DUMBBELL_PATH: PathKey = PathKey(1);

/// Everything that defines one experiment run except sender provisioning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The network.
    pub dumbbell: DumbbellSpec,
    /// The on/off workload each sender runs.
    pub workload: OnOffConfig,
    /// Simulated duration.
    pub duration: Dur,
    /// Root seed; run `i` of an n-run experiment uses
    /// [`derive_seed`]`(seed, i)`.
    pub seed: u64,
    /// Duplicate-ACK threshold for all senders.
    pub dupack_threshold: u32,
    /// Context-store configuration for Phi-provisioned senders.
    pub store: StoreConfig,
    /// Queueing discipline installed on the bottleneck pair: drop-tail
    /// FIFO (the paper's default) or RED for the §3.1 incentives
    /// ablation. Access links always run drop-tail; hosts never congest
    /// them.
    pub queue: DisciplineSpec,
    /// Replicated context plane with deterministic server-crash
    /// injection, for HA-provisioned senders. `None` (the default, and
    /// what every pre-existing spec deserializes to) runs the classic
    /// single shared store and draws nothing from the crash RNG stream,
    /// so established run digests are untouched.
    #[serde(default)]
    pub ha: Option<HaSpec>,
    /// Run budget: hard caps on events, simulated time, and wall-clock
    /// time, for supervised sweeps whose cells must not run away. `None`
    /// (the default, and what every pre-existing spec deserializes to)
    /// arms no cap: the run processes the same events in the same order,
    /// so established run digests are untouched. A budget-terminated run
    /// returns partial results with [`RunResult::terminated`] set;
    /// supervised aggregation excludes such cells (see `supervise`).
    #[serde(default)]
    pub budget: Option<RunBudget>,
    /// Shared-buffer switch model installed on *both* aggregation
    /// routers: per-port virtual queues drawing from one pool under
    /// Dynamic-Threshold admission, with optional ECN marking and PFC
    /// (see `phi_sim::switch`). `None` (the default, and what every
    /// pre-existing spec deserializes to) keeps the classic per-link
    /// drop-tail islands and touches no established digest. When set,
    /// each router egress queue is given a byte capacity equal to the
    /// pool, so shared-pool admission — not the inner FIFO — is the
    /// binding drop decision.
    #[serde(default)]
    pub switch: Option<SwitchSpec>,
    /// Incast workload override: each sender becomes one fan-in worker
    /// sending fixed blocks in synchronized rounds toward its receiver
    /// (`workers` must equal the dumbbell's `pairs`; `rounds` bounds
    /// each sender's `max_flows`). `None` (the default) keeps the
    /// on/off workload in [`ExperimentSpec::workload`].
    #[serde(default)]
    pub incast: Option<IncastConfig>,
}

impl ExperimentSpec {
    /// A spec over the paper dumbbell with `pairs` senders.
    pub fn new(pairs: usize, workload: OnOffConfig, duration: Dur, seed: u64) -> Self {
        let dumbbell = DumbbellSpec::paper(pairs);
        let store = StoreConfig {
            // The provider knows its own egress capacity.
            capacity_bps: Some(dumbbell.bottleneck_bps as f64),
            ..StoreConfig::default()
        };
        ExperimentSpec {
            dumbbell,
            workload,
            duration,
            seed,
            dupack_threshold: 3,
            store,
            queue: DisciplineSpec::DropTail,
            ha: None,
            budget: None,
            switch: None,
            incast: None,
        }
    }

    /// The same spec with a run budget installed (see
    /// [`ExperimentSpec::budget`]).
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The same spec with a shared-buffer switch installed on both
    /// aggregation routers (see [`ExperimentSpec::switch`]).
    pub fn with_switch(mut self, switch: SwitchSpec) -> Self {
        self.switch = Some(switch);
        self
    }

    /// The same spec with the incast fan-in workload (see
    /// [`ExperimentSpec::incast`]). Panics if `incast.workers` does not
    /// match the dumbbell's pair count — one worker per sender.
    pub fn with_incast(mut self, incast: IncastConfig) -> Self {
        assert_eq!(
            incast.workers as usize, self.dumbbell.pairs,
            "incast workers must equal dumbbell pairs"
        );
        self.incast = Some(incast);
        self
    }

    /// Base (unloaded) RTT in milliseconds.
    pub fn base_rtt_ms(&self) -> f64 {
        self.dumbbell.rtt.as_millis_f64()
    }
}

/// Hands a provisioner what it needs to build one sender's controller
/// factory and hook.
pub struct ProvisionCtx<'a> {
    /// Sender index in `0..pairs`.
    pub index: usize,
    /// The built network (bottleneck link id, node ids, …).
    pub net: &'a Dumbbell,
    /// The run's shared context store.
    pub store: &'a SharedStore,
    /// Path key for this sender's traffic.
    pub path: PathKey,
    /// A per-sender random stream (fork of the run seed, independent of
    /// the workload streams) for stochastic provisioning such as fault
    /// injection. Fork it further by label before drawing.
    pub rng: SeedRng,
    /// The run's replicated crash-injected context plane, when the spec
    /// carries an [`ExperimentSpec::ha`] section (clones share state).
    pub ha: Option<HaPlane>,
}

/// What a provisioner returns for one sender.
pub struct Provisioned {
    /// Congestion-controller factory (fed the lookup snapshot, if any).
    pub factory: CcFactory,
    /// Session hook (NoHook for unmodified senders).
    pub hook: Box<dyn SessionHook>,
}

/// Result of one run.
pub struct RunResult {
    /// Aggregate metrics in the paper's units (includes partial reports
    /// of still-running connections, so long-running workloads measure).
    pub metrics: RunMetrics,
    /// Completed-flow reports, per sender.
    pub per_sender: Vec<Vec<FlowReport>>,
    /// Partial report of each sender's in-progress connection at the
    /// deadline, if it had delivered anything.
    pub partials: Vec<Option<FlowReport>>,
    /// Base RTT of the topology, ms.
    pub base_rtt_ms: f64,
    /// Final state of the run's shared context store.
    pub store: ContextStore,
    /// Events the simulator processed (determinism checks, perf metrics).
    pub events: u64,
    /// Scheduler-level accounting for the run; the conservation identity
    /// [`SchedStats::conserved`] holds.
    pub sched: SchedStats,
    /// What the crash-injected HA plane did, when the spec carried one.
    pub ha: Option<HaReport>,
    /// Which budget cap (if any) cut the run short. `Some` means the
    /// metrics cover only the portion simulated before the cap hit —
    /// partial data, tagged so aggregation can exclude it.
    pub terminated: Option<BudgetExceeded>,
    /// Per-switch backpressure stats for the `[left, right]` aggregation
    /// routers, when the spec installed a shared-buffer switch
    /// ([`ExperimentSpec::switch`]); `None` otherwise.
    pub switch_stats: Option<[SwitchStats; 2]>,
}

impl RunResult {
    /// Aggregate metrics over the subset of senders selected by `keep`.
    ///
    /// Queueing delay, loss, and utilization are shared-network quantities
    /// and stay as measured; throughput and RTT are recomputed over the
    /// subset (used to split modified vs unmodified senders in Figure 4).
    pub fn metrics_for(&self, keep: impl Fn(usize) -> bool) -> RunMetrics {
        let mut subset: Vec<FlowReport> = self
            .per_sender
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .flat_map(|(_, r)| r.iter().cloned())
            .collect();
        subset.extend(
            self.partials
                .iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .filter_map(|(_, p)| p.clone()),
        );
        RunMetrics::from_reports(
            &subset,
            self.metrics.queueing_delay_ms,
            self.metrics.loss_rate,
            self.metrics.utilization,
        )
    }
}

/// Run one experiment; `provision` is called once per sender.
pub fn run_experiment(
    spec: &ExperimentSpec,
    mut provision: impl FnMut(ProvisionCtx<'_>) -> Provisioned,
) -> RunResult {
    let net = dumbbell(&spec.dumbbell);
    let bottleneck_ids = [net.bottleneck, net.reverse];
    let routers = [net.left_router, net.right_router];
    let bottleneck_queue = spec.queue;
    let switch_pool = spec.switch.as_ref().map(|s| s.pool_bytes);
    let disciplines = move |id, link: &phi_sim::topology::LinkSpec| {
        if let Some(pool) = switch_pool {
            if routers.contains(&link.from) {
                // Switch-governed egress: the shared pool is the only
                // admission authority, so the inner FIFO must never be
                // the binding constraint.
                return DisciplineSpec::DropTail.build(Capacity::Bytes(pool));
            }
        }
        if bottleneck_ids.contains(&id) {
            bottleneck_queue.build(link.capacity)
        } else {
            DisciplineSpec::DropTail.build(link.capacity)
        }
    };
    let mut sim = Simulator::with_disciplines(net.topology.clone(), disciplines);
    if let Some(sw) = spec.switch {
        sim.install_switch(net.left_router, sw);
        sim.install_switch(net.right_router, sw);
    }
    if let Some(incast) = &spec.incast {
        assert_eq!(
            incast.workers as usize, spec.dumbbell.pairs,
            "incast workers must equal dumbbell pairs"
        );
    }
    let store = shared(ContextStore::new(spec.store));
    let root = SeedRng::new(spec.seed);
    // Fork the crash stream only when a plan exists: specs without an HA
    // section must replay bit-for-bit against their pre-HA digests.
    let ha_plane = spec
        .ha
        .as_ref()
        .map(|ha| HaPlane::new(spec.store, ha, root.fork("server-crash"), spec.duration));

    let mut sender_ids = Vec::with_capacity(spec.dumbbell.pairs);
    for i in 0..spec.dumbbell.pairs {
        let Provisioned { factory, hook } = provision(ProvisionCtx {
            index: i,
            net: &net,
            store: &store,
            path: DUMBBELL_PATH,
            rng: root.fork_indexed("provision", i as u64),
            ha: ha_plane.clone(),
        });
        let mut cfg = SenderConfig::new(net.receivers[i], 80, 10);
        cfg.dupack_threshold = spec.dupack_threshold;
        cfg.flow_id_base = (i as u64) << 32;
        // Incast workers draw from their own label ("worker") so adding
        // the fan-in model never perturbs the on/off streams.
        let source: FlowSource = match spec.incast {
            Some(incast) => {
                cfg.max_flows = Some(incast.rounds);
                IncastSource::new(incast, root.fork_indexed("worker", i as u64)).into()
            }
            None => OnOffSource::new(spec.workload, root.fork_indexed("sender", i as u64)).into(),
        };
        let id = sim.add_agent(
            net.senders[i],
            10,
            Box::new(TcpSender::new(cfg, source, factory, hook)),
        );
        sim.add_agent(net.receivers[i], 80, Box::new(TcpReceiver::new()));
        sender_ids.push(id);
    }

    if let Some(budget) = spec.budget {
        sim.set_budget(budget);
    }
    let deadline = Time::ZERO + spec.duration;
    sim.run_until(deadline);
    let terminated = sim.termination();

    let per_sender: Vec<Vec<FlowReport>> = sender_ids
        .iter()
        .map(|&id| {
            sim.agent_as::<TcpSender>(id)
                .expect("sender agent")
                .reports()
                .to_vec()
        })
        .collect();
    let partials: Vec<Option<FlowReport>> = sender_ids
        .iter()
        .map(|&id| {
            sim.agent_as::<TcpSender>(id)
                .expect("sender agent")
                .partial_report(deadline)
        })
        .collect();

    let bn = sim.link_stats(net.bottleneck);
    let elapsed = spec.duration;
    let mut all: Vec<FlowReport> = per_sender.iter().flatten().cloned().collect();
    all.extend(partials.iter().filter_map(|p| p.clone()));
    let metrics = RunMetrics::from_reports(
        &all,
        bn.mean_queue_wait() * 1e3,
        bn.loss_rate(),
        bn.utilization(elapsed),
    );

    let store = store.lock().expect("context store").clone();
    let switch_stats = spec.switch.map(|_| {
        [
            sim.switch_stats(net.left_router),
            sim.switch_stats(net.right_router),
        ]
    });
    RunResult {
        metrics,
        per_sender,
        partials,
        base_rtt_ms: spec.base_rtt_ms(),
        store,
        events: sim.events_processed(),
        sched: sim.sched_stats(),
        ha: ha_plane.map(|p| p.report_summary()),
        terminated,
        switch_stats,
    }
}

/// Provision every sender as unmodified Cubic with fixed `params`
/// (the §2.2.1 "simplified setting": one parameter set for the whole run).
pub fn provision_cubic(params: CubicParams) -> impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync {
    move |_| Provisioned {
        factory: Box::new(move |_| Box::new(Cubic::new(params))),
        hook: Box::new(NoHook),
    }
}

/// Provision every sender as DCTCP with fixed `params` (no session
/// hook): the datacenter baseline for the backpressure scenarios. DCTCP
/// senders mark their segments ECN-capable, so a spec with an
/// ECN-enabled [`ExperimentSpec::switch`] feeds them the marked-fraction
/// signal; without a switch they behave like a NewReno-flavored sender.
pub fn provision_dctcp(params: DctcpParams) -> impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync {
    move |_| Provisioned {
        factory: Box::new(move |_| Box::new(Dctcp::new(params))),
        hook: Box::new(NoHook),
    }
}

/// The Phi controller factory: Cubic with the parameters `policy`
/// recommends for the lookup snapshot, defaults when there is none.
fn policy_factory(policy: PolicyTable) -> CcFactory {
    Box::new(move |snap| {
        let params = match snap {
            Some(s) => policy.params_for(s),
            None => CubicParams::default(),
        };
        Box::new(Cubic::new(params))
    })
}

/// The §2.2.2 hook for one sender: on the run's [`HaPlane`] when the spec
/// has an [`ExperimentSpec::ha`] section, on its shared store otherwise.
fn practical_hook(ctx: &ProvisionCtx<'_>) -> PracticalHook {
    match &ctx.ha {
        Some(plane) => PracticalHook::on_ha(plane.clone(), ctx.path),
        None => PracticalHook::new(ctx.store.clone(), ctx.path),
    }
}

/// Provision every sender as a Phi sender: practical hook (lookup/report
/// against the run's context plane, the crash-injected [`HaPlane`] when
/// the spec has one) and parameters drawn from `policy` at each
/// connection start (§2.2.2's realization).
pub fn provision_cubic_phi(policy: PolicyTable) -> impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync {
    move |ctx| Provisioned {
        factory: policy_factory(policy.clone()),
        hook: Box::new(practical_hook(&ctx)),
    }
}

/// [`provision_cubic_phi`] behind a faulty context plane: each sender's
/// practical hook is wrapped in a [`FaultyHook`] injecting faults per
/// `plan` (from a per-sender fork of the run seed, so fault draws never
/// shift the workload streams). A sender whose lookup is lost runs that
/// connection as vanilla TCP. Every sender's hook of every run this
/// provisioner builds counts into `counters`, so the caller can read what
/// was injected. A sweep on a multi-worker [`RunPool`] builds runs on
/// several threads at once (hence `Sync`), and they all count into the
/// one set. The §2.2.2 degradation arm.
pub fn provision_cubic_phi_faulty(
    policy: PolicyTable,
    plan: FaultPlan,
    counters: SharedFaultCounters,
) -> impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync {
    move |ctx| Provisioned {
        factory: policy_factory(policy.clone()),
        hook: Box::new(FaultyHook::new(
            practical_hook(&ctx),
            plan,
            ctx.rng.fork("faults"),
            counters.clone(),
        )),
    }
}

/// Provision a Figure 4 mixed deployment: senders with even index are
/// "modified" (fixed `tuned` parameters, Phi reporting), odd ones run the
/// defaults. Returns whether index `i` is modified via [`is_modified`].
pub fn provision_mixed(tuned: CubicParams) -> impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync {
    move |ctx| {
        if is_modified(ctx.index) {
            Provisioned {
                factory: Box::new(move |_| Box::new(Cubic::new(tuned))),
                hook: Box::new(PracticalHook::new(ctx.store.clone(), ctx.path)),
            }
        } else {
            Provisioned {
                factory: Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                hook: Box::new(NoHook),
            }
        }
    }
}

/// Mixed-deployment group of sender `i`: true = modified half.
pub fn is_modified(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Run `n` repetitions of the same experiment (run `i` gets seed
/// [`derive_seed`]`(spec.seed, i)`) on the [`RunPool::from_env`] pool.
pub fn run_repeated(
    spec: &ExperimentSpec,
    n: usize,
    provision: impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync,
) -> Vec<RunResult> {
    run_repeated_on(&RunPool::from_env(), spec, n, provision)
}

/// [`run_repeated`] on an explicit pool. Results are bit-identical for
/// any worker count: each run's seed depends only on its index, and the
/// pool returns results in run order.
pub fn run_repeated_on(
    pool: &RunPool,
    spec: &ExperimentSpec,
    n: usize,
    provision: impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync,
) -> Vec<RunResult> {
    pool.run(n, |i| {
        let mut s = spec.clone();
        s.seed = derive_seed(spec.seed, i as u64);
        run_experiment(&s, &provision)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_sim::engine::{Agent, Ctx};
    use phi_sim::packet::{FlowId, Packet};
    use std::any::Any;

    fn quick_spec(pairs: usize, mean_on: f64, mean_off: f64, secs: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            pairs,
            OnOffConfig {
                mean_on_bytes: mean_on,
                mean_off_secs: mean_off,
                deterministic: false,
            },
            Dur::from_secs(secs),
            42,
        );
        // Smaller topology for faster tests.
        spec.dumbbell.bottleneck_bps = 10_000_000;
        spec.dumbbell.rtt = Dur::from_millis(60);
        spec
    }

    #[test]
    fn default_cubic_runs_and_completes_flows() {
        let spec = quick_spec(4, 300_000.0, 1.0, 20);
        let r = run_experiment(&spec, provision_cubic(CubicParams::default()));
        assert!(r.metrics.flows_completed > 10, "{:?}", r.metrics);
        assert!(r.metrics.throughput_mbps > 0.1);
        assert!(r.metrics.utilization > 0.05);
        assert_eq!(r.per_sender.len(), 4);
        assert!(r.per_sender.iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn same_seed_same_result_different_seed_differs() {
        let spec = quick_spec(3, 200_000.0, 1.0, 15);
        let a = run_experiment(&spec, provision_cubic(CubicParams::default()));
        let b = run_experiment(&spec, provision_cubic(CubicParams::default()));
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics.flows_completed, b.metrics.flows_completed);
        assert_eq!(a.metrics.bytes, b.metrics.bytes);

        let mut spec2 = spec.clone();
        spec2.seed = 43;
        let c = run_experiment(&spec2, provision_cubic(CubicParams::default()));
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn phi_senders_populate_the_store() {
        let spec = quick_spec(4, 300_000.0, 1.0, 20);
        let mut r = run_experiment(&spec, provision_cubic_phi(PolicyTable::reference()));
        let (lookups, reports) = r.store.traffic_counters(DUMBBELL_PATH);
        assert!(lookups > 0, "no lookups recorded");
        assert!(reports > 0, "no reports recorded");
        // Lookups run ahead of reports by at most the in-flight count.
        assert!(lookups >= reports);
        let ctx = r.store.peek(DUMBBELL_PATH, spec.duration.as_nanos());
        assert!(ctx.utilization > 0.0, "store learned nothing");
    }

    #[test]
    fn workload_arrivals_independent_of_scheme() {
        // The whole point of forked RNG streams: changing the congestion
        // controller must not change which flows arrive (their sizes).
        let spec = quick_spec(3, 200_000.0, 1.0, 15);
        let a = run_experiment(&spec, provision_cubic(CubicParams::default()));
        let b = run_experiment(&spec, provision_cubic(CubicParams::tuned(16.0, 64.0, 0.2)));
        // Compare the byte-size of the first flow of each sender.
        for (ra, rb) in a.per_sender.iter().zip(&b.per_sender) {
            if let (Some(fa), Some(fb)) = (ra.first(), rb.first()) {
                assert_eq!(fa.bytes, fb.bytes, "workload changed with scheme");
            }
        }
    }

    #[test]
    fn metrics_subset_splits_groups() {
        let spec = quick_spec(4, 200_000.0, 1.0, 15);
        let r = run_experiment(&spec, provision_mixed(CubicParams::tuned(16.0, 64.0, 0.2)));
        let modified = r.metrics_for(is_modified);
        let unmodified = r.metrics_for(|i| !is_modified(i));
        assert_eq!(
            modified.flows_completed + unmodified.flows_completed,
            r.metrics.flows_completed
        );
        // Shared-network quantities are identical across the split.
        assert_eq!(modified.queueing_delay_ms, unmodified.queueing_delay_ms);
        assert_eq!(modified.loss_rate, unmodified.loss_rate);
    }

    #[test]
    fn ideal_oracle_lookups_track_live_utilization() {
        use crate::hooks::IdealOracleHook;
        use std::sync::{Arc, Mutex};

        let spec = quick_spec(6, 400_000.0, 0.5, 20);
        // Record every snapshot the factory receives from the oracle.
        let seen: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_in = seen.clone();
        let result = run_experiment(&spec, move |ctx| {
            let rate = ctx.net.topology.link(ctx.net.bottleneck).rate_bps;
            let oracle =
                IdealOracleHook::new(ctx.net.bottleneck, rate, ctx.net.senders.len() as u32);
            let seen = seen_in.clone();
            Provisioned {
                factory: Box::new(move |snap| {
                    if let Some(s) = snap {
                        seen.lock().unwrap().push(s.utilization);
                    }
                    Box::new(Cubic::new(CubicParams::default()))
                }),
                hook: Box::new(oracle),
            }
        });
        assert!(result.metrics.flows_completed > 10);
        let snaps = seen.lock().unwrap();
        // Every connection start consulted the oracle...
        assert!(
            snaps.len() as u64 >= result.metrics.flows_completed,
            "{} snapshots for {} flows",
            snaps.len(),
            result.metrics.flows_completed
        );
        // ...readings are valid fractions...
        assert!(snaps.iter().all(|u| (0.0..=1.0).contains(u)));
        // ...and once the network is busy, later lookups see real load
        // (the live feed, not a frozen zero).
        let late_max = snaps[snaps.len() / 2..]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(late_max > 0.1, "oracle never saw load: max {late_max}");
    }

    #[test]
    fn red_bottleneck_keeps_queueing_lower_under_load() {
        // Same heavy workload on drop-tail vs RED: AQM should trade a
        // little early loss for substantially less standing queue.
        let mut spec = quick_spec(10, 400_000.0, 0.5, 20);
        let droptail = run_experiment(&spec, provision_cubic(CubicParams::default()));
        spec.queue = DisciplineSpec::Red;
        let red = run_experiment(&spec, provision_cubic(CubicParams::default()));
        assert!(
            red.metrics.queueing_delay_ms < droptail.metrics.queueing_delay_ms,
            "RED queueing {:.1} ms should undercut drop-tail {:.1} ms",
            red.metrics.queueing_delay_ms,
            droptail.metrics.queueing_delay_ms
        );
        // Both still move real traffic.
        assert!(red.metrics.throughput_mbps > 0.3);
    }

    #[test]
    fn run_repeated_varies_seed() {
        let spec = quick_spec(2, 150_000.0, 1.0, 10);
        let runs = run_repeated(&spec, 3, provision_cubic(CubicParams::default()));
        assert_eq!(runs.len(), 3);
        // Different seeds → different event counts (with overwhelming odds).
        assert!(runs.windows(2).any(|w| w[0].events != w[1].events));
    }

    #[test]
    fn run_repeated_is_worker_count_invariant() {
        let spec = quick_spec(2, 150_000.0, 1.0, 10);
        let serial = run_repeated_on(
            &RunPool::serial(),
            &spec,
            4,
            provision_cubic(CubicParams::default()),
        );
        let parallel = run_repeated_on(
            &RunPool::new(4),
            &spec,
            4,
            provision_cubic(CubicParams::default()),
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.events, b.events);
            assert_eq!(a.metrics.bytes, b.metrics.bytes);
            assert_eq!(a.metrics.flows_completed, b.metrics.flows_completed);
            // Floating-point results must match to the bit, not just
            // approximately: same seed, same event order, same arithmetic.
            assert_eq!(
                a.metrics.throughput_mbps.to_bits(),
                b.metrics.throughput_mbps.to_bits()
            );
            assert_eq!(
                a.metrics.queueing_delay_ms.to_bits(),
                b.metrics.queueing_delay_ms.to_bits()
            );
        }
    }

    /// One connection as its sender saw it: the utilization the lookup
    /// answered, and what `live_util` read right after that lookup and
    /// again just before the report.
    struct SeenConn {
        answer: Option<f64>,
        after_lookup: Option<f64>,
        before_report: Option<f64>,
        /// The previous connection's report was dropped.
        after_dropped_report: bool,
    }

    /// Opens a connection (lookup) and closes it (report) through one
    /// provisioned hook every `STEP`, in the order `TcpSender` does (a
    /// `Ctx` only exists inside a running simulator).
    struct HookDriver {
        hook: Box<dyn SessionHook>,
        reports_dropped: Box<dyn Fn() -> u64>,
        last_report_dropped: bool,
        conns: Vec<SeenConn>,
    }

    const STEP: Dur = Dur::from_millis(10);
    const CONNS: u64 = 400;

    impl Agent for HookDriver {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(STEP, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            if token.is_multiple_of(2) {
                let answer = self.hook.lookup(ctx.now(), ctx).map(|s| s.utilization);
                self.conns.push(SeenConn {
                    answer,
                    after_lookup: self.hook.live_util(ctx),
                    before_report: None,
                    after_dropped_report: self.last_report_dropped,
                });
            } else {
                let conn = self.conns.last_mut().expect("a lookup opened it");
                conn.before_report = self.hook.live_util(ctx);
                let report = FlowReport {
                    flow: FlowId(token),
                    bytes: 50_000,
                    segments: 35,
                    start: ctx.now() - STEP,
                    end: ctx.now(),
                    min_rtt: Some(Dur::from_millis(60)),
                    mean_rtt_ms: 75.0,
                    rtt_samples: 10,
                    retransmits: 0,
                    timeouts: 0,
                    recoveries: 0,
                    aborted: false,
                    idle_restarts: 0,
                };
                let before = (self.reports_dropped)();
                self.hook.report(&report, ctx);
                self.last_report_dropped = (self.reports_dropped)() > before;
            }
            if token + 1 < 2 * CONNS {
                ctx.set_timer_after(STEP, token + 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Drives `CONNS` connections through the hook `provision` builds for
    /// sender 0 of a one-pair run (with `ha` as its spec's HA section),
    /// asserts that `live_util` reads exactly the current lookup's answer
    /// for the whole connection, and returns how many lookups were
    /// answered, dropped, and dropped right after a dropped report.
    fn drive_hook(
        ha: Option<HaSpec>,
        provision: impl Fn(ProvisionCtx<'_>) -> Provisioned,
        reports_dropped: impl Fn(Option<&HaPlane>) -> Box<dyn Fn() -> u64>,
    ) -> (usize, usize, usize) {
        let mut spec = quick_spec(1, 100_000.0, 1.0, 10);
        spec.ha = ha;
        let net = dumbbell(&spec.dumbbell);
        let store = shared(ContextStore::new(spec.store));
        let root = SeedRng::new(spec.seed);
        let plane = spec
            .ha
            .as_ref()
            .map(|ha| HaPlane::new(spec.store, ha, root.fork("server-crash"), spec.duration));
        let Provisioned { hook, .. } = provision(ProvisionCtx {
            index: 0,
            net: &net,
            store: &store,
            path: DUMBBELL_PATH,
            rng: root.fork_indexed("provision", 0),
            ha: plane.clone(),
        });
        let mut sim = Simulator::new(net.topology.clone());
        let id = sim.add_agent(
            net.senders[0],
            10,
            Box::new(HookDriver {
                hook,
                reports_dropped: reports_dropped(plane.as_ref()),
                last_report_dropped: false,
                conns: Vec::new(),
            }),
        );
        sim.run_until(Time::ZERO + spec.duration);
        let conns = &sim.agent_as::<HookDriver>(id).expect("driver agent").conns;
        assert_eq!(conns.len() as u64, CONNS);
        for (i, c) in conns.iter().enumerate() {
            assert_eq!(c.after_lookup, c.answer, "connection {i}: after its lookup");
            assert_eq!(
                c.before_report, c.answer,
                "connection {i}: before its report"
            );
        }
        let dropped = |c: &&SeenConn| c.answer.is_none();
        (
            conns.iter().filter(|c| c.answer.is_some()).count(),
            conns.iter().filter(dropped).count(),
            conns
                .iter()
                .filter(dropped)
                .filter(|c| c.after_dropped_report)
                .count(),
        )
    }

    #[test]
    fn phi_hook_behind_a_lossy_plane_feeds_only_the_current_answer() {
        let counters = crate::hooks::fault_counters();
        let (answered, dropped, dropped_twice) = drive_hook(
            None,
            provision_cubic_phi_faulty(
                PolicyTable::reference(),
                FaultPlan::lossy(0.5),
                counters.clone(),
            ),
            |_| {
                let counters = counters.clone();
                Box::new(move || counters.lock().expect("fault counters").reports_dropped)
            },
        );
        assert!(answered > 0 && dropped > 0, "{answered} / {dropped}");
        // The case where a frozen value from an earlier connection is
        // still inside the plane-side hook: its report never arrived.
        assert!(
            dropped_twice > 0,
            "no lookup dropped after a dropped report"
        );
    }

    #[test]
    fn phi_hook_on_a_failing_over_plane_feeds_only_the_current_answer() {
        let ha = HaSpec {
            plan: crate::crash::ServerCrashPlan::crash_restart(
                Dur::from_secs(2),
                Dur::from_secs(1),
            ),
            repl_lag: Dur::from_millis(50),
            failover_delay: Dur::from_millis(500),
        };
        let (answered, dropped, dropped_twice) = drive_hook(
            Some(ha),
            provision_cubic_phi(PolicyTable::reference()),
            |plane| {
                let plane = plane.expect("the spec has an HA section").clone();
                Box::new(move || plane.counters().reports_dropped)
            },
        );
        assert!(answered > 0, "the plane never answered");
        // 500 ms of failover at one lookup per 20 ms.
        assert_eq!(dropped, 25);
        assert!(
            dropped_twice > 0,
            "no lookup dropped after a dropped report"
        );
    }
}
