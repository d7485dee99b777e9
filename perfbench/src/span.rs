//! Layer spans timed from outside the program.
//!
//! The decorators in [`crate::decor`] wrap every process handler and every
//! application callback in [`span`]. A span's self time is its duration
//! minus the time of the spans nested inside it, so the self times of all
//! layers plus the unwrapped remainder (the simulator's own dispatch) add up
//! to the wall time of the event loop.
//!
//! Spans are opened only on the thread that runs the simulation. The current
//! layer is also published in a global so the counting allocator can charge
//! allocations made by worker threads of that layer's fan-out to it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// The layers a traced run splits wall time into. Names follow the
/// repository's modules; app callbacks are split by message kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Outside every handler: event queue, network model, delivery.
    Simnet,
    /// Ledger node handler time not spent in application callbacks.
    Ledger,
    /// `check_tx` application callbacks.
    CheckTx,
    /// `Add` / `AddBatch` / `BatchedAdd` messages.
    Admit,
    /// Application timers (collector flushes, request deadlines).
    Collector,
    /// `RequestBatch` / `BatchResponse` / `PushBatch` messages.
    HashReversal,
    /// `finalize_block` callbacks (epoch formation, decompression).
    Finalize,
    /// `Get` / `GetEpoch` / `Catchup*` messages.
    Read,
    /// `on_start` and any other message kind.
    AppOther,
    /// Injection clients: element generation and client-side MACs.
    Client,
    /// Light clients: request scripting and epoch verification.
    Reader,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 11;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Simnet,
        Layer::Ledger,
        Layer::CheckTx,
        Layer::Admit,
        Layer::Collector,
        Layer::HashReversal,
        Layer::Finalize,
        Layer::Read,
        Layer::AppOther,
        Layer::Client,
        Layer::Reader,
    ];

    /// Metric name of the layer's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet.self_s",
            Layer::Ledger => "ledger.self_s",
            Layer::CheckTx => "ledger.check_tx_s",
            Layer::Admit => "setchain.admit_s",
            Layer::Collector => "setchain.collector_s",
            Layer::HashReversal => "setchain.hash_reversal_s",
            Layer::Finalize => "setchain.finalize_s",
            Layer::Read => "setchain.read_s",
            Layer::AppOther => "setchain.other_s",
            Layer::Client => "workload.client_s",
            Layer::Reader => "workload.reader_s",
        }
    }

    /// Short name used in allocation metrics (`alloc.<name>.count`).
    pub fn short(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet",
            Layer::Ledger => "ledger",
            Layer::CheckTx => "check_tx",
            Layer::Admit => "admit",
            Layer::Collector => "collector",
            Layer::HashReversal => "hash_reversal",
            Layer::Finalize => "finalize",
            Layer::Read => "read",
            Layer::AppOther => "app_other",
            Layer::Client => "client",
            Layer::Reader => "reader",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Index of the innermost open span's layer; read by the allocator.
static CURRENT: AtomicUsize = AtomicUsize::new(0);

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Frame>,
    self_ns: [u64; LAYERS],
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span timing on or off. Off, [`span`] only calls its closure.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are timed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The layer allocations are currently charged to.
pub fn current() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    enter(layer);
    let out = f();
    exit();
    out
}

fn enter(layer: Layer) {
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    CURRENT.store(layer as usize, Ordering::Relaxed);
}

fn exit() {
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let frame = t.stack.pop().expect("span exit matches an enter");
        let total = end.duration_since(frame.start).as_nanos() as u64;
        t.self_ns[frame.layer as usize] += total.saturating_sub(frame.child_ns);
        let parent = match t.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += total;
                parent.layer as usize
            }
            None => Layer::Simnet as usize,
        };
        CURRENT.store(parent, Ordering::Relaxed);
    });
}

/// Takes the accumulated self time per layer, in seconds, and resets it.
/// The simnet entry is left at zero: it is derived from the wall time.
pub fn take_self_secs() -> [f64; LAYERS] {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "no span is open between runs");
        let ns = std::mem::take(&mut t.self_ns);
        ns.map(|v| v as f64 / 1e9)
    })
}
