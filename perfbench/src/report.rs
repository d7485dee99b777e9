//! What one driven deployment shows: end-to-end figures, correctness
//! checks, the deterministic fingerprint, and the per-layer counts.

use std::fmt::Write as _;
use std::path::Path;

use setchain_workload::{Deployment, StageLatencies};

use crate::workload::{self, Drive, ReadResults, Spec};

/// Nearest-rank quantile of sorted values (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The deterministic outcome of one run plus its correctness verdict.
pub struct Summary {
    pub added: u64,
    pub committed: u64,
    /// Sorted add → `f + 1` proofs latencies, simulated seconds.
    pub commit_latencies: Vec<f64>,
    pub reads: ReadResults,
    pub events: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub fingerprint: u64,
    /// Failed correctness checks, empty when the run is correct.
    pub failures: Vec<String>,
}

/// Summarises a driven deployment and checks it.
pub fn summarize(spec: &Spec, d: &Deployment, drive: &Drive) -> Summary {
    let now = d.sim.now();
    let added = d.trace.added_count() as u64;
    let committed = d.trace.committed_count_by(now) as u64;
    let records = d.trace.element_records();
    let commit_latencies = sorted(
        records
            .iter()
            .filter_map(|r| r.committed_at.map(|c| (c - r.added_at).as_secs_f64()))
            .collect(),
    );
    let mut reads = workload::read_results(spec, d);
    reads.latencies = sorted(std::mem::take(&mut reads.latencies));
    let net = d.sim.network();
    let dropped = net.dropped_loss() + net.dropped_partition() + d.sim.dropped_crashed();

    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    if added == 0 || committed == 0 {
        fail(format!(
            "nothing committed: added {added}, committed {committed}"
        ));
    }
    // Only the adds a crashed server received while down may be lost.
    let lost_elsewhere = records
        .iter()
        .filter(|r| r.committed_at.is_none())
        .filter(|r| Some(r.id.client_index() as usize) != spec.crashed_server())
        .count();
    if lost_elsewhere != 0 {
        fail(format!(
            "{lost_elsewhere} of {added} added elements never committed"
        ));
    }
    let n = spec.servers;
    let s0 = d.server(0).state();
    for i in 1..n {
        let si = d.server(i).state();
        if !s0.check_consistent_with(si) {
            fail(format!("servers 0 and {i} disagree on an epoch's elements"));
        }
        for epoch in 1..=s0.epoch().min(si.epoch()) {
            if s0.epoch_digest(epoch) != si.epoch_digest(epoch) {
                fail(format!(
                    "servers 0 and {i} disagree on epoch {epoch}'s digest"
                ));
                break;
            }
        }
    }
    let crashed = spec
        .crashed_server()
        .map(setchain_crypto::ProcessId::server);
    if reads.attempted == 0 || reads.verified + reads.failed != reads.attempted {
        fail(format!(
            "light-client reads: {} attempted, {} verified, {} failed",
            reads.attempted, reads.verified, reads.failed
        ));
    }
    if let Some(bad) = reads.unverified_from.iter().find(|&&s| Some(s) != crashed) {
        fail(format!(
            "a read answered by {bad} did not verify with f+1 proofs"
        ));
    }
    let shed: u64 = (0..n)
        .map(|i| d.server(i).stats().adds_rejected_quota)
        .sum();
    if shed != 0 || d.honest_rejections() != 0 {
        fail(format!("quotas shed {shed} honest elements"));
    }
    if spec.crashed_server().is_some() && drive.catchup_sim_s.is_none() {
        fail("the restarted server never caught up".into());
    }

    let mut summary = Summary {
        added,
        committed,
        commit_latencies,
        reads,
        events: d.sim.events_processed(),
        bytes: net.bytes_sent(),
        dropped,
        fingerprint: 0,
        failures,
    };
    summary.fingerprint = fingerprint(d, &summary);
    summary
}

/// FNV-1a over every deterministic figure of the run: counts, latency
/// quantiles, simulator totals, every server's and node's counters and its
/// newest epoch digest, and what the readers saw.
fn fingerprint(d: &Deployment, s: &Summary) -> u64 {
    let mut text = String::new();
    let net = d.sim.network();
    let lat = &s.commit_latencies;
    let _ = write!(
        text,
        "{} {} {:?} {:?} {} {} {} {} {} {}",
        s.added,
        s.committed,
        quantile(lat, 0.5),
        quantile(lat, 0.999),
        s.events,
        d.sim.messages_deferred(),
        s.bytes,
        net.delivered(),
        s.dropped,
        d.sim.now().0,
    );
    for i in 0..d.scenario.servers {
        let h = d.server(i);
        let digest = h
            .state()
            .epoch_digest(h.state().epoch())
            .map(|g| g.0.to_vec());
        let _ = write!(
            text,
            "|{:?} {:?} {} {} {:?}",
            h.stats(),
            h.node().stats(),
            h.state().epoch(),
            h.height(),
            digest
        );
    }
    let r = &s.reads;
    let _ = write!(
        text,
        "|{} {} {} {} {} {:?}",
        r.attempted,
        r.verified,
        r.failed,
        r.retries,
        r.unverified_from.len(),
        r.latencies.iter().sum::<f64>()
    );
    setchain_store::fnv64(&[text.as_bytes()])
}

/// One named metric with its unit.
pub type Metric = (String, f64, &'static str);

/// Per-layer counts and waits of one traced run (everything that is not a
/// host time; those are added by the caller).
pub fn layer_counts(
    spec: &Spec,
    d: &Deployment,
    s: &Summary,
    drive: &Drive,
    dir: &Path,
) -> Vec<Metric> {
    let n = spec.servers;
    let committed = s.committed.max(1) as f64;
    let stats: Vec<_> = (0..n).map(|i| d.server(i).stats()).collect();
    let nodes: Vec<_> = (0..n).map(|i| d.server(i).node().stats()).collect();
    let sum = |f: &dyn Fn(&setchain::ServerStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for i in 0..n {
        for cache in d.server(i).core().admission_caches() {
            hits += cache.hits();
            misses += cache.misses();
        }
    }
    let s0 = d.server(0);
    let epochs = s0.state().epoch().max(1) as f64;
    let flushed = sum(&|s| s.batches_flushed).max(1.0);
    let persisted = sum(&|s| s.epochs_persisted);

    let stages = StageLatencies::compute(&d.trace, &d.ledger_trace, spec_f(spec), n);
    let wait = |f: &dyn Fn(&setchain_workload::metrics::StageSample) -> Option<f64>| {
        let v = sorted(stages.samples.iter().filter_map(f).collect());
        quantile(&v, 0.5)
    };
    let collector_wait = wait(&|x| x.first_mempool);
    let order_wait = wait(&|x| Some(x.ledger? - x.first_mempool?));
    let epoch_wait = wait(&|x| Some(x.committed? - x.ledger?));

    let segments = (0..n)
        .map(|i| count_segments(&dir.join(format!("server-{i}"))))
        .sum::<u64>();

    vec![
        (
            "simnet.events_per_committed".into(),
            s.events as f64 / committed,
            "count",
        ),
        (
            "simnet.bytes_per_committed".into(),
            s.bytes as f64 / committed,
            "B",
        ),
        ("simnet.dropped".into(), s.dropped as f64, "count"),
        (
            "ledger.blocks".into(),
            nodes[0].blocks_committed as f64,
            "count",
        ),
        (
            "ledger.txs_per_block".into(),
            nodes[0].txs_committed as f64 / nodes[0].blocks_committed.max(1) as f64,
            "count",
        ),
        (
            "ledger.round_timeouts".into(),
            nodes.iter().map(|x| x.round_timeouts).sum::<u64>() as f64,
            "count",
        ),
        ("ledger.order_wait_p50_s".into(), order_wait, "s"),
        (
            "setchain.admit.mac_checks_per_committed".into(),
            misses as f64 / committed,
            "count",
        ),
        (
            "setchain.admit.cache_hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
        ),
        (
            "setchain.admit.roots_verified".into(),
            sum(&|s| s.batch_roots_verified),
            "count",
        ),
        (
            "setchain.admit.quota_shed".into(),
            sum(&|s| s.adds_rejected_quota),
            "count",
        ),
        (
            "setchain.collector.elements_per_batch".into(),
            sum(&|s| s.adds_accepted) / flushed,
            "count",
        ),
        ("setchain.collector_wait_p50_s".into(), collector_wait, "s"),
        (
            "setchain.hash_reversal.requests_per_batch".into(),
            sum(&|s| s.batch_requests_sent) / flushed,
            "count",
        ),
        (
            "setchain.hash_reversal.failed".into(),
            sum(&|s| s.batch_requests_failed),
            "count",
        ),
        ("setchain.epochs".into(), epochs, "count"),
        (
            "setchain.elements_per_epoch".into(),
            s0.state().history_elements() as f64 / epochs,
            "count",
        ),
        (
            "setchain.proofs_per_epoch".into(),
            s0.state().proofs_total() as f64 / epochs,
            "count",
        ),
        ("setchain.epoch_wait_p50_s".into(), epoch_wait, "s"),
        (
            "setchain.gets_served".into(),
            sum(&|s| s.gets_served),
            "count",
        ),
        (
            "setchain.catchup_requests".into(),
            sum(&|s| s.catchup_requests),
            "count",
        ),
        (
            "setchain.catchup_sim_s".into(),
            drive.catchup_sim_s.unwrap_or(0.0),
            "s",
        ),
        (
            "compress.batches_decompressed".into(),
            sum(&|s| s.batches_decompressed),
            "count",
        ),
        (
            "compress.decompress_failures".into(),
            sum(&|s| s.batch_decompress_failures),
            "count",
        ),
        ("store.epochs_persisted".into(), persisted, "count"),
        (
            "store.bytes_per_epoch".into(),
            sum(&|s| s.store_bytes) / persisted.max(1.0),
            "B",
        ),
        ("store.segments".into(), segments as f64, "count"),
        (
            "store.elements_evicted".into(),
            sum(&|s| s.elements_evicted),
            "count",
        ),
        (
            "workload.commit_samples".into(),
            s.commit_latencies.len() as f64,
            "count",
        ),
        (
            "workload.read_samples".into(),
            s.reads.latencies.len() as f64,
            "count",
        ),
        (
            "workload.read_retries".into(),
            s.reads.retries as f64,
            "count",
        ),
    ]
}

fn spec_f(spec: &Spec) -> usize {
    (spec.servers - 1) / 2
}

fn count_segments(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
                .count() as u64
        })
        .unwrap_or(0)
}
