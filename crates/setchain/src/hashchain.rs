//! Algorithm **Hashchain**: the paper's primary contribution.
//!
//! Batches are hashed; only the fixed-size (139-byte) signed hash-batch
//! `⟨h, s, v⟩` is appended to the ledger, so consensus bandwidth no longer
//! scales with batch contents. The price is *hash reversal*: hashes are
//! irreversible, so a server that sees a hash-batch it does not know asks the
//! signer for the original batch (`Request_batch`). A hash consolidates into
//! an epoch only once hash-batches from `f + 1` distinct servers are on the
//! ledger — at least one of them is correct and can serve the batch.
//!
//! The block-processing loop of the paper's pseudocode performs a blocking
//! `Request_batch` with a bounded wait. In this event-driven implementation
//! the same semantics are obtained with a queue: transactions of finalized
//! blocks are processed strictly in ledger order, and processing pauses while
//! a batch request is outstanding, resuming when the response arrives or the
//! request times out (in which case the hash-batch is skipped, exactly like
//! the pseudocode's `continue`). This keeps epoch numbering identical on all
//! correct servers.
//!
//! The "Hashchain light" ablation of Fig. 2 (left) disables hash reversal and
//! hash-batch validation (all servers assumed correct); batch availability is
//! then modelled by a [`SharedBatchRegistry`] standing in for out-of-band
//! data dissemination.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use setchain_crypto::{Digest512, KeyPair, KeyRegistry, ProcessId, Sha512};
use setchain_ledger::{Application, Block};
use setchain_simnet::{SimTime, TimerToken};

use crate::app::SetchainApp;
use crate::byzantine::ServerByzMode;
use crate::collector::{Batch, Collector};
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::messages::SetchainMsg;
use crate::proofs::EpochProof;
use crate::server::{Ctx, ServerCore, ServerStats};
use crate::state::SetchainState;
use crate::tx::{HashBatch, SetchainTx};
use crate::Algorithm;

/// Timer token for the collector timeout tick.
const COLLECTOR_TICK: TimerToken = 1;
/// Timer token for batch-request timeouts.
const REQUEST_TICK: TimerToken = 2;

/// Canonical hash of a batch: binds element identities/metadata and the
/// included proofs. CPU cost is charged separately against the full batch
/// wire size, so hashing the compact representation here does not distort the
/// performance model.
pub fn batch_hash(elements: &[Element], proofs: &[EpochProof]) -> Digest512 {
    let mut h = Sha512::new();
    h.update(b"setchain-batch");
    h.update(&(elements.len() as u64).to_le_bytes());
    // One packed update per element (same field order as the original
    // per-field updates, so the digest format is unchanged): batch hashing
    // runs at every flush, every recovery response and every push, and the
    // hasher's buffered-update bookkeeping dominates 4-8 byte updates.
    let mut packed = [0u8; 36];
    for e in elements {
        packed[..8].copy_from_slice(&e.id.0.to_le_bytes());
        packed[8..16].copy_from_slice(&e.client.0.to_le_bytes());
        packed[16..20].copy_from_slice(&e.size.to_le_bytes());
        packed[20..28].copy_from_slice(&e.content_seed.to_le_bytes());
        packed[28..36].copy_from_slice(&e.auth.to_le_bytes());
        h.update(&packed);
    }
    h.update(&(proofs.len() as u64).to_le_bytes());
    let mut packed = [0u8; 16];
    for p in proofs {
        packed[..8].copy_from_slice(&p.epoch.to_le_bytes());
        packed[8..16].copy_from_slice(&p.signer.0.to_le_bytes());
        h.update(&packed);
        h.update(&p.signature.bytes);
    }
    h.finalize()
}

/// Shared out-of-band batch availability used by the "Hashchain light"
/// ablation (see the module documentation).
///
/// Batches are stored behind `Arc`, so a `get` is a refcount bump — the
/// hash-reversal recovery hot path never deep-clones batch contents.
#[derive(Clone, Default)]
pub struct SharedBatchRegistry {
    inner: Arc<Mutex<HashMap<Digest512, Arc<Batch>>>>,
}

impl SharedBatchRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a batch under its hash. Accepts an owned [`Batch`] or an
    /// already-shared `Arc<Batch>` (which is stored without copying).
    pub fn register(&self, hash: Digest512, batch: impl Into<Arc<Batch>>) {
        self.inner
            .lock()
            .entry(hash)
            .or_insert_with(|| batch.into());
    }

    /// Looks up a batch by hash. The returned `Arc` shares the stored
    /// contents; no element vector is cloned.
    pub fn get(&self, hash: &Digest512) -> Option<Arc<Batch>> {
        self.inner.lock().get(hash).map(Arc::clone)
    }

    /// Number of registered batches.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if no batch is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An outstanding `Request_batch`.
#[derive(Debug)]
struct PendingRequest {
    hash: Digest512,
    asked: Vec<ProcessId>,
    deadline: SimTime,
}

/// The Hashchain server application.
pub struct HashchainApp {
    core: ServerCore,
    collector: Collector,
    /// `hash_to_batch`: batches whose contents this server knows. Stored
    /// behind `Arc` so repeated queue processing (one pass per hash-batch
    /// signer) shares the contents instead of cloning the element vector.
    hash_to_batch: HashMap<Digest512, Arc<Batch>>,
    /// `hash_to_signers`: servers whose hash-batches for a hash have been
    /// observed on the ledger.
    hash_to_signers: HashMap<Digest512, HashSet<ProcessId>>,
    /// Hashes this server has already signed and appended a hash-batch for.
    my_signed: HashSet<Digest512>,
    /// Hashes that have already been consolidated into an epoch.
    consolidated: HashSet<Digest512>,
    /// Hash-batches from finalized blocks awaiting processing, in ledger
    /// order.
    block_queue: VecDeque<HashBatch>,
    /// Outstanding batch request for the queue head, if any (pauses queue
    /// processing until the response arrives or the request times out).
    waiting: Option<PendingRequest>,
    /// Hashes for which a prefetch request has already been sent, with the
    /// time it was sent. Prefetching overlaps the request round trips of all
    /// unknown batches in a block instead of serialising them, which matters
    /// under WAN latency (Fig. 3c); consolidation still happens strictly in
    /// ledger order through `block_queue`.
    prefetched: HashMap<Digest512, SimTime>,
    /// Light-mode data availability.
    shared_registry: Option<SharedBatchRegistry>,
}

impl HashchainApp {
    /// Creates a Hashchain server (full protocol, with hash reversal).
    pub fn new(
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: crate::trace::SetchainTrace,
        byz: ServerByzMode,
    ) -> Self {
        let collector = Collector::new(config.collector_limit);
        HashchainApp {
            core: ServerCore::new(keys, registry, config, trace, byz),
            collector,
            hash_to_batch: HashMap::new(),
            hash_to_signers: HashMap::new(),
            my_signed: HashSet::new(),
            consolidated: HashSet::new(),
            block_queue: VecDeque::new(),
            waiting: None,
            prefetched: HashMap::new(),
            shared_registry: None,
        }
    }

    /// Creates a "Hashchain light" server: requires a configuration with
    /// `hash_reversal` disabled and a shared batch registry standing in for
    /// out-of-band availability.
    pub fn new_light(
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: crate::trace::SetchainTrace,
        shared: SharedBatchRegistry,
    ) -> Self {
        assert!(
            !config.hash_reversal,
            "light mode requires a config built with SetchainConfig::light_hashchain()"
        );
        let mut app = Self::new(keys, registry, config, trace, ServerByzMode::Correct);
        app.shared_registry = Some(shared);
        app
    }

    /// The Setchain state of this server.
    pub fn state(&self) -> &SetchainState {
        &self.core.state
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    /// Number of batches whose contents this server knows.
    pub fn known_batches(&self) -> usize {
        self.hash_to_batch.len()
    }

    fn handle_add(&mut self, element: Element, ctx: &mut Ctx<'_, '_, '_>) {
        if self.core.accept_add(&element, ctx) {
            self.collector.add_element(element);
            self.maybe_flush(ctx);
        }
    }

    fn maybe_flush(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        if self.collector.is_ready() {
            self.flush(ctx);
        }
    }

    /// `upon isReady(batch)`: hash the batch, register it, and append the
    /// signed hash-batch to the ledger.
    fn flush(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        let batch = self.collector.flush(ctx.now());
        let hash = batch_hash(&batch.elements, &batch.proofs);
        ctx.consume_cpu(self.core.config.costs.hash_cost(batch.wire_size()));
        // Register_batch(h, batch): keep the contents so other servers can
        // request them. The registry shares the same `Arc` — no copy.
        let batch = Arc::new(batch);
        if let Some(shared) = &self.shared_registry {
            shared.register(hash, Arc::clone(&batch));
        }
        self.hash_to_batch.insert(hash, Arc::clone(&batch));
        ctx.consume_cpu(self.core.config.costs.sign);
        let hb = self.core.make_hash_batch(hash);
        self.my_signed.insert(hash);
        self.core.stats.batches_flushed += 1;
        let tx = SetchainTx::HashBatch(hb);
        let tx_id = setchain_ledger::TxData::tx_id(&tx);
        for e in &batch.elements {
            self.core.trace.record_tx_assignment(e.id, tx_id);
        }
        ctx.append(tx);
        // Push-based dissemination variant: ship the batch contents to every
        // other server out of band, so that when the hash-batch lands in a
        // block they already hold the contents and skip `Request_batch`.
        // The batch is cloned into the message once and Arc-shared across
        // all recipients by `broadcast_app`.
        if self.core.config.push_batches {
            let me = self.core.id();
            let peers = (0..self.core.config.servers)
                .map(ProcessId::server)
                .filter(|p| *p != me);
            ctx.broadcast_app(
                peers,
                SetchainMsg::PushBatch {
                    hash,
                    elements: batch.elements.clone(),
                    proofs: batch.proofs.clone(),
                },
            );
        }
    }

    /// Looks up the batch contents for `hash`, consulting the shared registry
    /// in light mode. The returned `Arc` is a refcount bump, not a copy of
    /// the batch contents.
    fn lookup_batch(&mut self, hash: &Digest512) -> Option<Arc<Batch>> {
        if let Some(b) = self.hash_to_batch.get(hash) {
            return Some(Arc::clone(b));
        }
        if let Some(shared) = &self.shared_registry {
            if let Some(b) = shared.get(hash) {
                self.hash_to_batch.insert(*hash, Arc::clone(&b));
                return Some(b);
            }
        }
        None
    }

    /// Processes queued hash-batches in ledger order, pausing when a batch
    /// request is outstanding.
    fn process_queue(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        loop {
            if self.waiting.is_some() {
                return;
            }
            let Some(hb) = self.block_queue.front().copied() else {
                return;
            };
            if let Some(batch) = self.lookup_batch(&hb.hash) {
                self.block_queue.pop_front();
                self.handle_hash_batch(hb, Some(batch), ctx);
                continue;
            }
            if !self.core.config.hash_reversal {
                // Light mode without contents anywhere: count the signer but
                // consolidate an empty epoch.
                self.block_queue.pop_front();
                self.handle_hash_batch(hb, None, ctx);
                continue;
            }
            // Request_batch(h) from the signer of the hash-batch — unless a
            // prefetch for it is already in flight, in which case we only
            // wait for it. The prefetch gets a bounded total wait of two
            // request timeouts counted from the time it was *sent* (not from
            // the time its hash-batch reached the queue head): under a signer
            // that never answers — a server refusing batch service — the
            // stalls for all hash-batches prefetched together then overlap
            // instead of serialising, while a merely slow-but-correct signer
            // still gets the same patience the direct-request path grants.
            if let Some(&sent_at) = self.prefetched.get(&hb.hash) {
                let deadline =
                    sent_at + self.core.config.request_timeout + self.core.config.request_timeout;
                if ctx.now() < deadline {
                    self.waiting = Some(PendingRequest {
                        hash: hb.hash,
                        asked: vec![hb.signer],
                        deadline,
                    });
                    ctx.set_app_timer(deadline - ctx.now(), REQUEST_TICK);
                    return;
                }
                // The prefetch has been outstanding for the full allowance:
                // treat it as a failed request so we fall back to another
                // signer or skip the hash-batch (the pseudocode's `continue`)
                // instead of stalling the queue on the same unresponsive
                // server again.
                self.prefetched.remove(&hb.hash);
                self.waiting = Some(PendingRequest {
                    hash: hb.hash,
                    asked: vec![hb.signer],
                    deadline: ctx.now(),
                });
                self.fail_request(ctx);
                return;
            }
            self.send_request(hb.hash, hb.signer, ctx);
            return;
        }
    }

    /// Sends a prefetch request for a hash whose contents are unknown, so the
    /// round trip overlaps with the processing of earlier queue entries.
    fn prefetch(&mut self, hash: Digest512, signer: ProcessId, ctx: &mut Ctx<'_, '_, '_>) {
        if self.hash_to_batch.contains_key(&hash)
            || self.prefetched.contains_key(&hash)
            || signer == self.core.id()
        {
            return;
        }
        self.core.stats.batch_requests_sent += 1;
        ctx.send_app(signer, SetchainMsg::RequestBatch { hash });
        self.prefetched.insert(hash, ctx.now());
    }

    fn send_request(&mut self, hash: Digest512, to: ProcessId, ctx: &mut Ctx<'_, '_, '_>) {
        self.core.stats.batch_requests_sent += 1;
        ctx.send_app(to, SetchainMsg::RequestBatch { hash });
        self.prefetched.insert(hash, ctx.now());
        let deadline = ctx.now() + self.core.config.request_timeout;
        let asked = match &mut self.waiting {
            Some(pending) if pending.hash == hash => {
                pending.asked.push(to);
                pending.deadline = deadline;
                ctx.set_app_timer(self.core.config.request_timeout, REQUEST_TICK);
                return;
            }
            _ => vec![to],
        };
        self.waiting = Some(PendingRequest {
            hash,
            asked,
            deadline,
        });
        ctx.set_app_timer(self.core.config.request_timeout, REQUEST_TICK);
    }

    /// Gives up on the current request (timeout or bad response): either
    /// retries with another signer or skips the hash-batch, mirroring the
    /// pseudocode's `continue`.
    fn fail_request(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        let Some(pending) = self.waiting.take() else {
            return;
        };
        let hash = pending.hash;
        self.prefetched.remove(&hash);
        // Candidate servers we have not asked yet: other observed signers of
        // this hash (they all claim to have the batch).
        let mut candidates: Vec<ProcessId> = self
            .hash_to_signers
            .get(&hash)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        candidates.extend(
            self.block_queue
                .iter()
                .filter(|hb| hb.hash == hash)
                .map(|hb| hb.signer),
        );
        candidates.retain(|c| !pending.asked.contains(c) && *c != self.core.id());
        // Lowest id first: the signer set is a hash set, so its iteration
        // order must not pick the retry target.
        candidates.sort_unstable();
        candidates.dedup();
        if pending.asked.len() < self.core.config.max_request_retries {
            if let Some(next) = candidates.first().copied() {
                self.waiting = Some(pending);
                self.send_request(hash, next, ctx);
                return;
            }
        }
        // Give up: skip the hash-batch at the head of the queue.
        self.core.stats.batch_requests_failed += 1;
        if self
            .block_queue
            .front()
            .map(|hb| hb.hash == hash)
            .unwrap_or(false)
        {
            self.block_queue.pop_front();
        }
        self.process_queue(ctx);
    }

    /// Processes one hash-batch whose position in the ledger order has been
    /// reached. `batch` is `None` only in light mode when contents are
    /// unavailable.
    fn handle_hash_batch(
        &mut self,
        hb: HashBatch,
        batch: Option<Arc<Batch>>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        let now = ctx.now();
        let hash = hb.hash;
        let validate = self.core.config.hash_reversal;

        if let Some(batch) = &batch {
            // If we had to recover the batch (we are not its origin and have
            // not signed it yet), sign the hash and append our own hash-batch
            // so the f+1 consolidation quorum can form. In the designated-
            // signers variant only the configured signer set counter-signs;
            // the remaining servers still track signers and consolidate.
            let designated = self
                .core
                .config
                .is_designated(self.core.id().server_index());
            if designated && !self.my_signed.contains(&hash) {
                ctx.consume_cpu(self.core.config.costs.sign);
                let own = self.core.make_hash_batch(hash);
                self.my_signed.insert(hash);
                ctx.append(SetchainTx::HashBatch(own));
            }
            // Valid epoch-proofs of the batch.
            for p in &batch.proofs {
                self.core.ingest_proof(*p, now, ctx);
            }
            // Valid elements join the_set immediately (they join history only
            // at consolidation); no candidate vector is materialized here.
            self.core
                .admit_batch_elements(&batch.elements, validate, ctx);
        }

        // Track the signer and consolidate at f + 1.
        let signers = self.hash_to_signers.entry(hash).or_default();
        signers.insert(hb.signer);
        let enough = signers.len() >= self.core.config.proof_quorum();
        if enough && !self.consolidated.contains(&hash) {
            self.consolidated.insert(hash);
            let g = match &batch {
                Some(b) => self
                    .core
                    .extract_epoch_candidates(&b.elements, validate, ctx),
                None => Vec::new(),
            };
            let (_, proof) = self.core.create_epoch(g, now, ctx);
            // Epoch-proofs are only emitted by the designated signer set (all
            // servers unless the 2f+1 variant is configured); every server
            // still records the epoch locally.
            if self
                .core
                .config
                .is_designated(self.core.id().server_index())
            {
                self.collector.add_proof(proof);
                self.maybe_flush(ctx);
            }
        }
    }
}

impl SetchainApp for HashchainApp {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Hashchain
    }

    fn state(&self) -> &SetchainState {
        &self.core.state
    }

    fn stats(&self) -> ServerStats {
        self.core.stats
    }

    fn shard_stats(&self) -> Vec<crate::server::ShardStats> {
        self.core.shard_stats()
    }

    fn config(&self) -> &SetchainConfig {
        &self.core.config
    }

    fn core(&self) -> &ServerCore {
        &self.core
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Application for HashchainApp {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        ctx.set_app_timer(self.core.config.collector_timeout, COLLECTOR_TICK);
        // After a restart (retained state) probe peers for missed epochs;
        // a cold start is a no-op.
        self.core.maybe_request_catchup(ctx);
    }

    fn check_tx(&self, tx: &SetchainTx) -> bool {
        match tx {
            SetchainTx::HashBatch(hb) => {
                hb.signer.is_server() && hb.signer.server_index() < self.core.config.servers
            }
            _ => false,
        }
    }

    fn finalize_block(&mut self, block: &Block<SetchainTx>, ctx: &mut Ctx<'_, '_, '_>) {
        for tx in &block.txs {
            let SetchainTx::HashBatch(hb) = tx else {
                continue;
            };
            if self.core.config.hash_reversal {
                // valid_hash(h, s_w, w)
                ctx.consume_cpu(self.core.config.costs.verify_signature);
                if !self.core.hash_batch_valid(hb) {
                    continue;
                }
                // Start recovering unknown batch contents right away so the
                // round trips overlap instead of serialising per hash-batch.
                self.prefetch(hb.hash, hb.signer, ctx);
            }
            self.block_queue.push_back(*hb);
        }
        self.process_queue(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SetchainMsg, ctx: &mut Ctx<'_, '_, '_>) {
        match msg {
            SetchainMsg::Add(e) => {
                if self.core.admit_source(from, 1, ctx) {
                    self.handle_add(e, ctx);
                }
            }
            SetchainMsg::AddBatch(es) => {
                if self.core.admit_source(from, es.len() as u64, ctx) {
                    for e in es {
                        self.handle_add(e, ctx);
                    }
                }
            }
            SetchainMsg::BatchedAdd(batch) => {
                // The quota gate runs first: a shed batch costs zero root
                // verification.
                if !self
                    .core
                    .admit_source(from, batch.elements.len() as u64, ctx)
                {
                    return;
                }
                // One root-cache probe / MAC check authenticates the whole
                // batch; the per-element admission probes inside
                // `handle_add` then hit the warmed cache.
                let valid = self.core.verify_batched_add(&batch, ctx);
                if from.is_server() {
                    // Peer-forwarded envelope: verifying it warmed this
                    // server's caches, so recovered batch contents (push
                    // or hash reversal) validate as pure cache hits.
                } else if valid {
                    if self.core.byz != ServerByzMode::DropClientAdds {
                        self.core.gossip_batched_add(&batch, ctx);
                    }
                    for e in batch.elements {
                        self.handle_add(e, ctx);
                    }
                } else {
                    self.core.stats.adds_rejected_invalid += batch.elements.len() as u64;
                }
            }
            SetchainMsg::RequestBatch { hash } => {
                if self.core.byz == ServerByzMode::RefuseBatchService {
                    return;
                }
                if let Some(batch) = self.hash_to_batch.get(&hash) {
                    self.core.stats.batch_requests_served += 1;
                    ctx.send_app(
                        from,
                        SetchainMsg::BatchResponse {
                            hash,
                            elements: batch.elements.clone(),
                            proofs: batch.proofs.clone(),
                        },
                    );
                }
            }
            SetchainMsg::BatchResponse {
                hash,
                elements,
                proofs,
            } => {
                let head_waiting = self
                    .waiting
                    .as_ref()
                    .map(|p| p.hash == hash)
                    .unwrap_or(false);
                let expected = head_waiting || self.prefetched.contains_key(&hash);
                if !expected || self.hash_to_batch.contains_key(&hash) {
                    return;
                }
                let batch = Batch { elements, proofs };
                ctx.consume_cpu(self.core.config.costs.hash_cost(batch.wire_size()));
                if batch_hash(&batch.elements, &batch.proofs) == hash {
                    self.hash_to_batch.insert(hash, Arc::new(batch));
                    self.prefetched.remove(&hash);
                    if head_waiting {
                        self.waiting = None;
                        self.process_queue(ctx);
                    }
                } else if head_waiting {
                    // The signer is lying about the contents: retry elsewhere.
                    self.fail_request(ctx);
                } else {
                    // A bad prefetch answer: forget it so the head-of-queue
                    // path can re-request from another signer later.
                    self.prefetched.remove(&hash);
                }
            }
            SetchainMsg::PushBatch {
                hash,
                elements,
                proofs,
            } => {
                // Push-based dissemination: accept the contents only if they
                // really hash to the claimed value (a Byzantine pusher cannot
                // plant wrong contents for a hash).
                if self.hash_to_batch.contains_key(&hash) {
                    return;
                }
                let batch = Batch { elements, proofs };
                ctx.consume_cpu(self.core.config.costs.hash_cost(batch.wire_size()));
                if batch_hash(&batch.elements, &batch.proofs) != hash {
                    return;
                }
                self.hash_to_batch.insert(hash, Arc::new(batch));
                self.prefetched.remove(&hash);
                let head_waiting = self
                    .waiting
                    .as_ref()
                    .map(|p| p.hash == hash)
                    .unwrap_or(false);
                if head_waiting {
                    self.waiting = None;
                    self.process_queue(ctx);
                }
            }
            other => {
                let _ = self.core.handle_get(from, &other, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, '_, '_>) {
        match token {
            COLLECTOR_TICK => {
                if self
                    .collector
                    .is_timed_out(ctx.now(), self.core.config.collector_timeout)
                {
                    self.flush(ctx);
                }
                ctx.set_app_timer(self.core.config.collector_timeout, COLLECTOR_TICK);
            }
            REQUEST_TICK => {
                let expired = self
                    .waiting
                    .as_ref()
                    .map(|p| ctx.now() >= p.deadline)
                    .unwrap_or(false);
                if expired {
                    self.fail_request(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Element, ElementId};
    use crate::proofs::make_epoch_proof;
    use setchain_crypto::KeyRegistry;

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(31, 4, 2)
    }

    fn elements(reg: &KeyRegistry, range: std::ops::Range<u64>) -> Vec<Element> {
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        range
            .map(|i| Element::new(&keys, ElementId::new(0, i), 438, i * 31 + 1))
            .collect()
    }

    #[test]
    fn batch_hash_is_deterministic_and_content_sensitive() {
        let reg = registry();
        let es = elements(&reg, 0..20);
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let proof = make_epoch_proof(&server, 1, &es[..5]);
        let a = batch_hash(&es, &[proof]);
        let b = batch_hash(&es, &[proof]);
        assert_eq!(a, b);
        // Dropping an element, reordering, or dropping the proof all change
        // the hash: the hash commits to the exact batch contents.
        assert_ne!(a, batch_hash(&es[..19], &[proof]));
        let mut reordered = es.clone();
        reordered.swap(0, 1);
        assert_ne!(a, batch_hash(&reordered, &[proof]));
        assert_ne!(a, batch_hash(&es, &[]));
    }

    #[test]
    fn batch_hash_distinguishes_elements_from_proofs_boundary() {
        // An empty batch and a batch with only proofs must not collide with
        // each other or with element-only batches.
        let reg = registry();
        let es = elements(&reg, 0..3);
        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let proof = make_epoch_proof(&server, 2, &es);
        let empty = batch_hash(&[], &[]);
        let only_elements = batch_hash(&es, &[]);
        let only_proofs = batch_hash(&[], &[proof]);
        assert_ne!(empty, only_elements);
        assert_ne!(empty, only_proofs);
        assert_ne!(only_elements, only_proofs);
    }

    #[test]
    fn shared_registry_stores_first_writer_wins() {
        let reg = registry();
        let shared = SharedBatchRegistry::new();
        assert!(shared.is_empty());
        let es = elements(&reg, 0..4);
        let hash = batch_hash(&es, &[]);
        shared.register(
            hash,
            Batch {
                elements: es.clone(),
                proofs: vec![],
            },
        );
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.get(&hash).unwrap().elements.len(), 4);
        // Re-registering under the same hash does not overwrite.
        shared.register(
            hash,
            Batch {
                elements: vec![],
                proofs: vec![],
            },
        );
        assert_eq!(shared.get(&hash).unwrap().elements.len(), 4);
        assert!(shared.get(&batch_hash(&es[..2], &[])).is_none());
        // Clones share the same storage.
        let alias = shared.clone();
        assert_eq!(alias.len(), 1);
    }

    #[test]
    fn light_mode_requires_light_config() {
        let reg = registry();
        let keys = reg.lookup(ProcessId::server(0)).unwrap();
        let config = SetchainConfig::new(4).light_hashchain();
        let app = HashchainApp::new_light(
            keys,
            reg.clone(),
            config,
            crate::trace::SetchainTrace::new(),
            SharedBatchRegistry::new(),
        );
        assert_eq!(app.known_batches(), 0);
        assert_eq!(app.state().epoch(), 0);
    }

    #[test]
    #[should_panic(expected = "light mode requires")]
    fn light_mode_with_full_config_panics() {
        let reg = registry();
        let keys = reg.lookup(ProcessId::server(0)).unwrap();
        let _ = HashchainApp::new_light(
            keys,
            reg.clone(),
            SetchainConfig::new(4),
            crate::trace::SetchainTrace::new(),
            SharedBatchRegistry::new(),
        );
    }
}
