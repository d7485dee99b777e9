//! The three benchmark workloads, the light-client readers that run beside
//! them, and the two ways of assembling a deployment: through
//! `Deployment::builder` (what users run, measured with tracing off) and from
//! public parts wrapped in the timing decorators (the traced run).

use std::any::Any;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use setchain::{
    Algorithm, AppFactory, AuthMode, LightClient, QuotaConfig, SetchainMsg, SetchainTrace,
    StoreConfig,
};
use setchain_crypto::ProcessId;
use setchain_ledger::{ByzMode, LedgerConfig, LedgerNode, LedgerTrace, NetMsg};
use setchain_simnet::{
    Context, FaultEvent, FaultPlan, NetworkConfig, Process, SimDuration, SimTime, Simulation,
    SimulationConfig, TimerToken,
};
use setchain_workload::deploy::Msg;
use setchain_workload::{ArbitrumWorkload, ClientDriver, Deployment, DeploymentBuilder};

use crate::decor::{Timed, TimedApp};
use crate::span::Layer;

/// One named workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub servers: usize,
    pub collector: usize,
    /// Total injection rate, elements per simulated second.
    pub rate: f64,
    pub delay_ms: u64,
    pub block_bytes: Option<usize>,
    pub auth: AuthMode,
    pub injection_secs: u64,
    /// Persistent store with bounded retention, default quotas, one
    /// server crash and restart during injection, and light-client reads
    /// beside the writes. Without it, the reads follow the writes.
    pub durable: bool,
}

/// Epochs each durable server keeps resident; older ones are served back
/// from its store.
pub const RETAIN_EPOCHS: u64 = 8;
/// How long the crashed server stays down.
pub const DOWN_SECS: u64 = 3;
/// Simulated seconds after injection before reads start on the workloads
/// that read after writing: longer than every add takes to commit.
const READ_PAD_SECS: u64 = 6;
/// Simulated seconds the light clients read for.
const READ_SECS: u64 = 9;
/// Light clients per deployment; each reads once per [`READ_TICK_MS`].
pub const READERS: usize = 4;
pub const READ_TICK_MS: u64 = 20;
/// A reader asks a server only for epochs at least this far below the count
/// of proven epochs it last reported, so a correct server holds the proofs.
const READ_LAG: u64 = 3;

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        algorithm: Algorithm::Hashchain,
        servers: 4,
        collector: 100,
        rate: 10_000.0,
        delay_ms: 0,
        block_bytes: None,
        auth: AuthMode::PerElement,
        injection_secs: 20,
        durable: false,
    };
    Some(match name {
        "hashchain_pere" => Spec {
            name: "hashchain_pere",
            ..base
        },
        "compresschain_drain" => Spec {
            name: "compresschain_drain",
            algorithm: Algorithm::Compresschain,
            collector: 500,
            rate: 5_000.0,
            block_bytes: Some(4 << 20),
            ..base
        },
        "hashchain_durable_rw" => Spec {
            name: "hashchain_durable_rw",
            servers: 7,
            collector: 500,
            rate: 5_000.0,
            delay_ms: 30,
            auth: AuthMode::BatchRoot,
            injection_secs: 10,
            durable: true,
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    /// The server crashed mid-injection, if any. Its injection client keeps
    /// sending while it is down, and those adds are lost.
    pub fn crashed_server(&self) -> Option<usize> {
        self.durable.then_some(self.servers - 1)
    }

    fn crash_at(&self) -> SimTime {
        SimTime::from_secs(self.injection_secs / 2)
    }

    fn restart_at(&self) -> SimTime {
        self.crash_at() + SimDuration::from_secs(DOWN_SECS)
    }

    /// When the light clients read: from the first second, beside the
    /// writes, on the durable workload; otherwise once the writes have
    /// drained, so that they do not load the timed write path.
    pub fn read_window(&self) -> (SimTime, SimTime) {
        let injection_end = SimTime::from_secs(self.injection_secs);
        let start = if self.durable {
            SimTime::from_secs(1)
        } else {
            injection_end + SimDuration::from_secs(READ_PAD_SECS)
        };
        (start, start + SimDuration::from_secs(READ_SECS))
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        let server = ProcessId::server(self.crashed_server()?);
        Some(
            FaultPlan::new()
                .at(self.crash_at(), FaultEvent::Crash(server))
                .at(self.restart_at(), FaultEvent::Restart(server)),
        )
    }

    /// The builder for this workload at `seed`, with its store under `dir`.
    pub fn builder(&self, seed: u64, dir: &Path) -> DeploymentBuilder {
        let mut builder = Deployment::builder(self.algorithm)
            .label(self.name)
            .servers(self.servers)
            .rate(self.rate)
            .collector(self.collector)
            .delay_ms(self.delay_ms)
            .auth_mode(self.auth)
            .injection_secs(self.injection_secs)
            .max_run_secs(self.injection_secs + 60)
            .seed(seed);
        if let Some(bytes) = self.block_bytes {
            builder = builder.block_bytes(bytes);
        }
        if self.durable {
            let store = StoreConfig::new(dir.to_string_lossy()).with_retain_epochs(RETAIN_EPOCHS);
            builder = builder
                .store(store)
                .quota(QuotaConfig::default())
                .fault_plan(self.fault_plan().expect("durable workloads crash a server"));
        }
        builder
    }
}

/// How a deployment is assembled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assembly {
    /// `Deployment::builder`, no decorators: what the end-to-end run measures.
    Builder,
    /// Public parts wrapped in the decorators; the decorators only forward.
    Decorated,
    /// Public parts wrapped in the decorators, with detailed traces for the
    /// per-stage waits. Spans are timed when `span::enabled()`.
    DecoratedDetailed,
}

/// Assembles the deployment. Returns it with the host seconds the assembly
/// took (PKI, processes, store open): everything before the first event.
pub fn assemble(spec: &Spec, seed: u64, dir: &Path, how: Assembly) -> (Deployment, f64) {
    let start = Instant::now();
    let builder = spec.builder(seed, dir);
    let mut deployment = match how {
        Assembly::Builder => builder.build(),
        Assembly::Decorated => decorated(spec, builder, false),
        Assembly::DecoratedDetailed => decorated(spec, builder, true),
    };
    let wrap = how != Assembly::Builder;
    for k in 0..READERS {
        let reader = Reader::new(&deployment, spec.read_window(), k, seed);
        let id = reader_id(spec, k);
        let process: Box<dyn Process<Msg>> = Box::new(reader);
        if wrap {
            deployment
                .sim
                .add_process(id, Timed::new(process, Layer::Reader));
        } else {
            deployment.sim.add_process(id, process);
        }
    }
    (deployment, start.elapsed().as_secs_f64())
}

fn reader_id(spec: &Spec, k: usize) -> ProcessId {
    ProcessId::client(spec.servers + k)
}

/// The same construction `DeploymentBuilder::build` performs, from public
/// parts, with every server, its application and every client wrapped.
fn decorated(spec: &Spec, builder: DeploymentBuilder, detailed: bool) -> Deployment {
    let scenario = builder.scenario().clone();
    let n = scenario.servers;
    let registry = setchain_crypto::KeyRegistry::bootstrap(scenario.seed, n, n);
    let (trace, ledger_trace) = if detailed {
        (SetchainTrace::detailed(), LedgerTrace::new())
    } else {
        (SetchainTrace::new(), LedgerTrace::disabled())
    };
    let config = scenario.setchain_config();
    let factory = AppFactory::new(scenario.algorithm, registry.clone(), config.clone());
    let mut ledger_config = LedgerConfig::with_validators(n);
    ledger_config.max_block_bytes = scenario.block_bytes;
    let network = NetworkConfig::lan()
        .with_extra_delay_ms(scenario.network_delay_ms)
        .with_loss_rate(scenario.loss_rate);
    let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig {
        seed: scenario.seed,
        network,
    });
    if let Some(plan) = spec.fault_plan() {
        sim.install_fault_plan(plan);
    }
    for i in 0..n {
        let id = ProcessId::server(i);
        let keys = registry.lookup(id).expect("server registered");
        let app = TimedApp::build(&factory, keys, trace.clone());
        let node = LedgerNode::new(
            id,
            ledger_config.clone(),
            keys,
            registry.clone(),
            app,
            ledger_trace.clone(),
            ByzMode::Correct,
        );
        sim.add_process(id, Timed::new(Box::new(node), Layer::Ledger));
    }
    let injection_end = SimTime::from_secs(scenario.injection_secs);
    for i in 0..n {
        let id = ProcessId::client(i);
        let workload =
            ArbitrumWorkload::for_client(&registry, id, scenario.seed ^ (i as u64) << 17);
        let driver = ClientDriver::new(
            ProcessId::server(i),
            workload,
            scenario.per_client_rate(),
            injection_end,
            trace.clone(),
        )
        .with_auth_mode(scenario.auth_mode);
        sim.add_process(id, Timed::new(Box::new(driver), Layer::Client));
    }
    Deployment {
        sim,
        scenario,
        registry,
        trace,
        ledger_trace,
        config,
    }
}

/// A light client: every [`READ_TICK_MS`] of its read window it asks one
/// server (round robin) for its state summary and for one epoch that server
/// reported proven, alternating a recent epoch and a uniformly drawn older
/// one, and verifies each answer
/// against `f + 1` epoch-proofs. An epoch that is not answered within
/// [`READ_TIMEOUT_MS`], or not answered with a verifiable epoch, is asked of
/// the next server; its latency runs from the first request.
pub struct Reader {
    light: LightClient,
    servers: usize,
    next_server: usize,
    start: SimTime,
    end: SimTime,
    /// Count of proven epochs each server last reported.
    proven: Vec<u64>,
    rng: u64,
    recent_turn: bool,
    /// Open reads by current request id.
    pending: BTreeMap<u64, PendingRead>,
    pub results: ReadResults,
}

#[derive(Clone, Copy, Debug)]
struct PendingRead {
    epoch: u64,
    first_sent: SimTime,
    last_sent: SimTime,
    server: usize,
    attempts: u32,
}

/// What one reader saw.
#[derive(Clone, Debug, Default)]
pub struct ReadResults {
    pub attempted: u64,
    pub verified: u64,
    /// Reads that ran out of attempts.
    pub failed: u64,
    /// Requests sent again after a timeout or an unverifiable answer.
    pub retries: u64,
    /// Non-empty answers that failed verification, per answering server.
    pub unverified_from: Vec<ProcessId>,
    /// Simulated seconds from the first `get_epoch` to the verified answer.
    pub latencies: Vec<f64>,
}

/// Wait for an epoch answer before asking the next server.
pub const READ_TIMEOUT_MS: u64 = 1_000;
/// Servers asked for one epoch before the read counts as failed.
const READ_ATTEMPTS: u32 = 4;
/// Long enough after the read window for every open read to resolve.
const READ_TAIL: SimDuration =
    SimDuration((READ_TIMEOUT_MS * READ_ATTEMPTS as u64 + 1_000) * 1_000);

impl Reader {
    fn new(deployment: &Deployment, window: (SimTime, SimTime), k: usize, seed: u64) -> Self {
        let n = deployment.scenario.servers;
        Reader {
            light: LightClient::new(
                deployment.registry.clone(),
                n,
                deployment.scenario.setchain_f(),
            ),
            servers: n,
            next_server: k % n,
            start: window.0,
            end: window.1,
            proven: vec![0; n],
            rng: (seed ^ 0x5EED_0000 ^ k as u64) | 1,
            recent_turn: k.is_multiple_of(2),
            pending: BTreeMap::new(),
            results: ReadResults::default(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64: the reader's choices must not draw from the
        // simulation's RNG stream.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Sends (or re-sends) `read` to its server and tracks it.
    fn send(&mut self, mut read: PendingRead, ctx: &mut Context<'_, Msg>) {
        let request = self.light.get_epoch(read.epoch);
        let SetchainMsg::GetEpoch { request_id, .. } = &request else {
            unreachable!("get_epoch builds a GetEpoch request");
        };
        read.last_sent = ctx.now();
        read.attempts += 1;
        self.pending.insert(*request_id, read);
        ctx.send(ProcessId::server(read.server), NetMsg::App(request));
    }

    /// Asks the next server for `read`, or gives up on it.
    fn retry(&mut self, mut read: PendingRead, ctx: &mut Context<'_, Msg>) {
        if read.attempts >= READ_ATTEMPTS {
            self.results.failed += 1;
            return;
        }
        self.results.retries += 1;
        read.server = (read.server + 1) % self.servers;
        self.send(read, ctx);
    }
}

const READ_TICK: TimerToken = 1;

impl Process<Msg> for Reader {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.start - SimTime::ZERO, READ_TICK);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let NetMsg::App(msg) = msg else {
            return;
        };
        match &msg {
            SetchainMsg::GetResponse { snapshot, .. } => {
                self.proven[from.server_index()] = snapshot.epochs_with_quorum;
            }
            SetchainMsg::EpochResponse {
                request_id,
                elements,
                ..
            } => {
                let Some(read) = self.pending.remove(request_id) else {
                    return;
                };
                let (verdict, _) = self.light.verify_response(&msg).expect("an epoch response");
                if verdict.is_verified() {
                    self.results.verified += 1;
                    self.results
                        .latencies
                        .push((ctx.now() - read.first_sent).as_secs_f64());
                    return;
                }
                if !elements.is_empty() {
                    self.results.unverified_from.push(from);
                }
                self.retry(read, ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let timeout = SimDuration::from_millis(READ_TIMEOUT_MS);
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, r)| now - r.last_sent >= timeout)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let read = self.pending.remove(&id).expect("listed above");
            self.retry(read, ctx);
        }
        if now <= self.end {
            let server = self.next_server;
            self.next_server = (self.next_server + 1) % self.servers;
            ctx.send(ProcessId::server(server), NetMsg::App(self.light.get()));
            if self.proven[server] > READ_LAG {
                let newest = self.proven[server] - READ_LAG;
                let epoch = if self.recent_turn {
                    newest
                } else {
                    1 + self.next_rand() % newest
                };
                self.recent_turn = !self.recent_turn;
                self.results.attempted += 1;
                let read = PendingRead {
                    epoch,
                    first_sent: now,
                    last_sent: now,
                    server,
                    attempts: 0,
                };
                self.send(read, ctx);
            }
        }
        if now <= self.end || !self.pending.is_empty() {
            ctx.set_timer(SimDuration::from_millis(READ_TICK_MS), READ_TICK);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The readers' results merged.
pub fn read_results(spec: &Spec, deployment: &Deployment) -> ReadResults {
    let mut all = ReadResults::default();
    for k in 0..READERS {
        let reader = deployment
            .sim
            .process::<Reader>(reader_id(spec, k))
            .expect("reader installed");
        let r = &reader.results;
        all.attempted += r.attempted;
        all.verified += r.verified;
        all.failed += r.failed;
        all.retries += r.retries;
        all.unverified_from.extend_from_slice(&r.unverified_from);
        all.latencies.extend_from_slice(&r.latencies);
    }
    all
}

/// Host-side facts about driving one deployment.
#[derive(Clone, Debug)]
pub struct Drive {
    /// Host seconds of the event loop.
    pub wall_s: f64,
    /// Host and process CPU seconds (user + system, all threads) of each
    /// [`STEP`] of simulated time, in order.
    pub steps: Vec<(f64, f64)>,
    /// Simulated seconds from the restart until the restarted server held
    /// as many epochs as the slowest other server.
    pub catchup_sim_s: Option<f64>,
}

/// Simulated time between progress checks.
const STEP: SimDuration = SimDuration(100_000);

/// Runs the deployment until every added element has committed (for the
/// durable workload: until the committed count has not grown for two
/// simulated seconds) and a restarted server has caught up, checking once
/// per simulated second after injection, for at most 60 simulated seconds
/// of drain.
pub fn drive(spec: &Spec, deployment: &mut Deployment) -> Drive {
    let injection_end = SimTime::from_secs(spec.injection_secs);
    let limit = injection_end + SimDuration::from_secs(60);
    let restart = spec.crashed_server().map(|s| (s, spec.restart_at()));
    let mut catchup_sim_s = None;
    let mut last_committed = 0;
    let mut stable_since = injection_end;
    let mut steps = Vec::new();
    let start = Instant::now();
    let (mut cpu_before, mut wall_before) = (process_cpu_secs(), start);
    let mut now = SimTime::ZERO;
    while now < limit {
        now += STEP;
        deployment.sim.run_until(now);
        let (cpu, wall) = (process_cpu_secs(), Instant::now());
        steps.push((
            wall.duration_since(wall_before).as_secs_f64(),
            cpu - cpu_before,
        ));
        (cpu_before, wall_before) = (cpu, wall);
        if let (Some((server, at)), None) = (restart, catchup_sim_s) {
            if now >= at && caught_up(deployment, server) {
                catchup_sim_s = Some((now - at).as_secs_f64());
            }
        }
        if now <= injection_end || !now.0.is_multiple_of(1_000_000) {
            continue;
        }
        let committed = deployment.trace.committed_count_by(now);
        if committed != last_committed {
            last_committed = committed;
            stable_since = now;
        }
        let done = if restart.is_some() {
            catchup_sim_s.is_some() && now - stable_since >= SimDuration::from_secs(2)
        } else {
            committed >= deployment.trace.added_count()
        };
        if done {
            break;
        }
    }
    Drive {
        wall_s: wall_before.duration_since(start).as_secs_f64(),
        steps,
        catchup_sim_s,
    }
}

/// Runs on, untimed, until every light-client read has resolved: the reads
/// that follow the writes, and any still open when the writes drained.
pub fn finish_reads(spec: &Spec, deployment: &mut Deployment) {
    deployment.sim.run_until(spec.read_window().1 + READ_TAIL);
}

fn caught_up(deployment: &Deployment, server: usize) -> bool {
    let mine = deployment.server(server).state().epoch();
    (0..deployment.scenario.servers)
        .filter(|&i| i != server)
        .all(|i| mine >= deployment.server(i).state().epoch())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock of CPU time consumed by all threads of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds of this process, all threads.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and the clock id is one the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// A fresh, empty directory for one deployment's stores.
pub fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory is writable");
    dir
}
