//! Determinism regression tests for the scheduler overhaul.
//!
//! The drain/bench acceptance criteria rest on one property: the same seed
//! produces the identical event schedule and the identical committed element
//! sets, run after run. The slab process table, the split timer queue and
//! same-instant delivery coalescing must all preserve it — these tests pin
//! it down for every algorithm variant.

use std::collections::BTreeSet;

use setchain::{Algorithm, AuthMode, ElementId, ServerByzMode};
use setchain_ledger::ByzMode;
use setchain_simnet::SimTime;
use setchain_workload::{Deployment, Scenario};

/// Full fingerprint of one deployment run: scheduler counters plus the
/// per-server committed (stamped) element sets and epoch boundaries.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    events_processed: u64,
    messages_deferred: u64,
    added: usize,
    committed: usize,
    /// Per-server: the element ids of every recorded epoch, in epoch order.
    epochs: Vec<Vec<BTreeSet<ElementId>>>,
}

fn run_once(algorithm: Algorithm, seed: u64) -> RunFingerprint {
    run_once_with_auth(algorithm, seed, AuthMode::PerElement)
}

fn run_once_with_auth(algorithm: Algorithm, seed: u64, auth: AuthMode) -> RunFingerprint {
    run_once_sharded(algorithm, seed, auth, 1)
}

fn run_once_sharded(
    algorithm: Algorithm,
    seed: u64,
    auth: AuthMode,
    shards: usize,
) -> RunFingerprint {
    let mut deployment = Deployment::builder(algorithm)
        .servers(4)
        .rate(400.0)
        .collector(32)
        .injection_secs(3)
        .max_run_secs(12)
        .auth_mode(auth)
        .shards(shards)
        .seed(seed)
        .build();
    deployment.sim.run_until(SimTime::from_secs(12));
    fingerprint(&deployment, 4, SimTime::from_secs(12))
}

fn fingerprint(deployment: &Deployment, servers: usize, end: SimTime) -> RunFingerprint {
    let epochs = (0..servers)
        .map(|i| {
            let state = deployment.server(i).state();
            (1..=state.epoch())
                .map(|e| {
                    state
                        .epoch_elements(e)
                        .expect("epoch in range")
                        .iter()
                        .map(|el| el.id)
                        .collect()
                })
                .collect()
        })
        .collect();
    RunFingerprint {
        events_processed: deployment.sim.events_processed(),
        messages_deferred: deployment.sim.messages_deferred(),
        added: deployment.trace.added_count(),
        committed: deployment.trace.committed_count_by(end),
        epochs,
    }
}

#[test]
fn same_seed_reproduces_the_exact_run_for_every_variant() {
    for algorithm in Algorithm::ALL {
        let first = run_once(algorithm, 71);
        let second = run_once(algorithm, 71);
        assert_eq!(
            first, second,
            "{algorithm:?}: same seed must reproduce scheduler counters and \
             committed element sets bit-for-bit"
        );
        assert!(first.added > 0, "{algorithm:?}: clients injected nothing");
        assert!(
            first.committed > 0,
            "{algorithm:?}: nothing committed in the window"
        );
        assert!(first.events_processed > 0);
    }
}

/// Batch-root authentication ships a different message shape (one sealed
/// envelope per injection tick instead of a plain element batch), so its
/// event schedule legitimately differs from per-element runs — but the
/// same-seed reproducibility guarantee must hold for it exactly as for the
/// default mode.
#[test]
fn batch_root_same_seed_reproduces_the_exact_run_for_every_variant() {
    for algorithm in Algorithm::ALL {
        let first = run_once_with_auth(algorithm, 71, AuthMode::BatchRoot);
        let second = run_once_with_auth(algorithm, 71, AuthMode::BatchRoot);
        assert_eq!(
            first, second,
            "{algorithm:?}: same seed under BatchRoot must reproduce the run \
             bit-for-bit"
        );
        assert!(
            first.committed > 0,
            "{algorithm:?}: nothing committed under BatchRoot"
        );
    }
}

/// Sharded admission (PR 8) is host-side organization only: it repartitions
/// each server's caches and `the_set` but charges, messages and verdicts are
/// untouched. Two guarantees follow, both pinned here: same-seed sharded
/// reruns are bit-identical, and the sharded fingerprint — scheduler
/// counters included — *equals* the unsharded one, which is the strongest
/// statement that `shards(1)` and `shards(4)` run the same simulation.
#[test]
fn sharded_runs_reproduce_and_match_the_unsharded_schedule() {
    for algorithm in Algorithm::ALL {
        let unsharded = run_once(algorithm, 71);
        let first = run_once_sharded(algorithm, 71, AuthMode::PerElement, 4);
        let second = run_once_sharded(algorithm, 71, AuthMode::PerElement, 4);
        assert_eq!(
            first, second,
            "{algorithm:?}: same seed at 4 shards must reproduce the run \
             bit-for-bit"
        );
        assert_eq!(
            first, unsharded,
            "{algorithm:?}: sharding leaked into the event schedule or the \
             committed element sets"
        );
        assert!(first.committed > 0, "{algorithm:?}: nothing committed");
    }
}

/// Under silent and precommit-withholding validators, correct nodes fetch
/// blocks they missed from a precommitter; under a server refusing batch
/// service, hash reversal retries with another signer. Both choices pick
/// from hash sets, so they must follow a fixed order, not the set's
/// iteration order, for a rerun to reproduce the run.
#[test]
fn same_seed_reproduces_a_mixed_fault_run() {
    let run = || {
        let scenario = Scenario::base(Algorithm::Hashchain)
            .with_servers(10)
            .with_rate(500.0)
            .with_collector(50)
            .with_injection_secs(4)
            .with_max_run_secs(90)
            .with_seed(7);
        let mut deployment = Deployment::build_with_faults(
            &scenario,
            &[
                (7, ServerByzMode::RefuseBatchService),
                (8, ServerByzMode::ForgeProofs),
                (9, ServerByzMode::InjectInvalidElements),
            ],
            &[(5, ByzMode::Silent), (6, ByzMode::WithholdPrecommit)],
        );
        let end = SimTime::from_secs(90);
        deployment.sim.run_until(end);
        fingerprint(&deployment, 10, end)
    };
    let first = run();
    assert!(first.committed > 0, "nothing committed under mixed faults");
    for rerun in 1..3 {
        let again = run();
        // The fingerprint holds every epoch of ten servers; report only
        // the counters when it differs.
        assert!(
            first == again,
            "rerun {rerun} diverged from the first run: {} vs {} events, {} vs {} committed",
            first.events_processed,
            again.events_processed,
            first.committed,
            again.committed
        );
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = run_once(Algorithm::Hashchain, 71);
    let b = run_once(Algorithm::Hashchain, 72);
    // Different jitter draws give a different schedule; the counters are the
    // cheapest witness of that.
    assert_ne!(
        (a.events_processed, a.messages_deferred),
        (b.events_processed, b.messages_deferred),
        "distinct seeds collapsed onto one schedule"
    );
}

#[test]
fn correct_servers_agree_on_committed_epochs_within_a_run() {
    let fp = run_once(Algorithm::Hashchain, 9);
    let reference = &fp.epochs[0];
    for (i, other) in fp.epochs.iter().enumerate().skip(1) {
        let common = reference.len().min(other.len());
        assert_eq!(
            &reference[..common],
            &other[..common],
            "server {i} diverged from server 0 on the common epoch prefix"
        );
    }
}
