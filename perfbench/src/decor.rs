//! Forwarding decorators that time each layer from outside.
//!
//! [`Timed`] wraps a simulated process and [`TimedApp`] a Setchain server
//! application. Both forward every call unchanged, `as_any` included, so a
//! deployment assembled from them runs the same schedule as one built by
//! `Deployment::builder`; the benchmark checks this with a fingerprint.

use std::any::Any;

use setchain::{
    AppFactory, Element, EpochProof, ServerStats, SetchainApp, SetchainConfig, SetchainMsg,
    SetchainState, SetchainTx, ShardStats,
};
use setchain_crypto::ProcessId;
use setchain_ledger::{AppCtx, Application, Block};
use setchain_simnet::{Context, Process, TimerToken};
use setchain_workload::deploy::Msg;

use crate::span::{span, Layer};

/// A process whose handlers run inside a span of one layer.
pub struct Timed {
    inner: Box<dyn Process<Msg>>,
    layer: Layer,
}

impl Timed {
    /// Wraps `inner`, charging its handler time to `layer`.
    pub fn new(inner: Box<dyn Process<Msg>>, layer: Layer) -> Box<Self> {
        Box::new(Timed { inner, layer })
    }
}

impl Process<Msg> for Timed {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        span(self.layer, || self.inner.on_start(ctx))
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        span(self.layer, || self.inner.on_message(from, msg, ctx))
    }

    fn on_messages(&mut self, batch: &mut Vec<(ProcessId, Msg)>, ctx: &mut Context<'_, Msg>) {
        span(self.layer, || self.inner.on_messages(batch, ctx))
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        span(self.layer, || self.inner.on_timer(token, ctx))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A Setchain application whose callbacks run inside spans split by kind.
pub struct TimedApp {
    inner: Box<dyn SetchainApp>,
}

impl TimedApp {
    /// Builds one server application through `factory` and wraps it.
    pub fn build(
        factory: &AppFactory,
        keys: setchain_crypto::KeyPair,
        trace: setchain::SetchainTrace,
    ) -> Box<dyn SetchainApp> {
        let inner = factory.build(keys, trace, setchain::ServerByzMode::Correct);
        Box::new(TimedApp { inner })
    }
}

/// The layer a server-bound message is charged to.
fn message_layer(msg: &SetchainMsg) -> Layer {
    match msg {
        SetchainMsg::Add(_) | SetchainMsg::AddBatch(_) | SetchainMsg::BatchedAdd(_) => Layer::Admit,
        SetchainMsg::RequestBatch { .. }
        | SetchainMsg::BatchResponse { .. }
        | SetchainMsg::PushBatch { .. } => Layer::HashReversal,
        SetchainMsg::Get { .. }
        | SetchainMsg::GetEpoch { .. }
        | SetchainMsg::CatchupRequest { .. }
        | SetchainMsg::CatchupResponse { .. } => Layer::Read,
        _ => Layer::AppOther,
    }
}

type Ctx<'a, 'b, 'c> = AppCtx<'a, 'b, 'c, SetchainTx, SetchainMsg>;

impl Application for TimedApp {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        span(Layer::AppOther, || self.inner.on_start(ctx))
    }

    fn check_tx(&self, tx: &SetchainTx) -> bool {
        span(Layer::CheckTx, || self.inner.check_tx(tx))
    }

    fn finalize_block(&mut self, block: &Block<SetchainTx>, ctx: &mut Ctx<'_, '_, '_>) {
        span(Layer::Finalize, || self.inner.finalize_block(block, ctx))
    }

    fn on_message(&mut self, from: ProcessId, msg: SetchainMsg, ctx: &mut Ctx<'_, '_, '_>) {
        span(message_layer(&msg), || {
            self.inner.on_message(from, msg, ctx)
        })
    }

    /// Splitting time by message kind needs one callback per message. No
    /// application overrides the batched form, so this is the same sequence
    /// of `on_message` calls the inner default would make.
    fn on_messages(
        &mut self,
        batch: &mut Vec<(ProcessId, SetchainMsg)>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        for (from, msg) in batch.drain(..) {
            self.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, '_, '_>) {
        span(Layer::Collector, || self.inner.on_timer(token, ctx))
    }
}

impl SetchainApp for TimedApp {
    fn algorithm(&self) -> setchain::Algorithm {
        self.inner.algorithm()
    }

    fn state(&self) -> &SetchainState {
        self.inner.state()
    }

    fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner.shard_stats()
    }

    fn config(&self) -> &SetchainConfig {
        self.inner.config()
    }

    fn core(&self) -> &setchain::ServerCore {
        self.inner.core()
    }

    fn proofs_for(&self, epoch: u64) -> &[EpochProof] {
        self.inner.proofs_for(epoch)
    }

    fn epoch_elements(&self, epoch: u64) -> Option<&[Element]> {
        self.inner.epoch_elements(epoch)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
