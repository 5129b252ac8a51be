//! Request/response vocabulary shared by the queue, batcher and server.

use he_lite::Ciphertext;
use ntt_core::backend::{BackendError, FaultClass};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tenant's identity. Tenants need no registration: the first submit
/// under an id creates its queue and metrics lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// One job a tenant submits to the server.
#[derive(Debug, Clone)]
pub enum Request {
    /// Encrypt `values` under the server's public key.
    Encrypt {
        /// Real values to encode and encrypt (≤ N of them).
        values: Vec<f64>,
    },
    /// Weighted plaintext multiply + rescale: `ct ⊙ encode(weights)`,
    /// one level consumed. The ciphertext must be at level ≥ 2.
    Eval {
        /// The ciphertext to transform.
        ct: Ciphertext,
        /// Plaintext weights (≤ N of them).
        weights: Vec<f64>,
    },
    /// Decrypt with the server's secret key and decode.
    Decrypt {
        /// The ciphertext to open.
        ct: Ciphertext,
    },
    /// Bootstrap a level-1 ciphertext back to evaluation depth (requires
    /// [`ServeConfig::boot`](crate::ServeConfig::boot)). The input must
    /// be encoded at the bootstrapper's input scale.
    Boot {
        /// The exhausted ciphertext to refresh.
        ct: Ciphertext,
    },
}

impl Request {
    /// Dispatch kind + level — jobs batch together only within one key.
    pub(crate) fn group_key(&self, top_level: usize) -> (u8, usize) {
        match self {
            Request::Encrypt { .. } => (0, top_level),
            Request::Eval { ct, .. } => (1, ct.level()),
            Request::Decrypt { ct } => (2, ct.level()),
            Request::Boot { ct } => (3, ct.level()),
        }
    }

    /// Scheduling cost in abstract work units, proportional to the
    /// number of polynomial transforms the job dispatches — the deficit
    /// round-robin currency ([`crate::FairQueue`]).
    pub fn cost(&self) -> u64 {
        match self {
            // 4 forward NTTs + 2 pointwise rows.
            Request::Encrypt { .. } => 6,
            // 1 forward + 2 pointwise + 2 inverse + 2 forward.
            Request::Eval { .. } => 7,
            // 1 pointwise + 1 inverse.
            Request::Decrypt { .. } => 2,
            // ~15 rotations (each a transform pair + key switch) plus
            // the EvalMod multiply chain — an order of magnitude above
            // any other kind, so the fair queue prices it accordingly.
            Request::Boot { .. } => 96,
        }
    }
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// Answer to [`Request::Encrypt`].
    Encrypted(Ciphertext),
    /// Answer to [`Request::Eval`].
    Evaluated(Ciphertext),
    /// Answer to [`Request::Decrypt`].
    Decrypted(Vec<f64>),
    /// Answer to [`Request::Boot`].
    Bootstrapped(Ciphertext),
    /// The job was admitted but could not be completed — every failure
    /// carries a classified [`ServeError`]; the server never answers
    /// with a silently wrong result.
    Failed(ServeError),
}

/// Why the server failed a job it had admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A device fault survived the bounded retry budget *and* the CPU
    /// fallback (or degradation was impossible).
    Fault {
        /// The classified backend error that ended the job.
        error: BackendError,
        /// Retry attempts spent before giving up.
        retries: u32,
    },
    /// The job's deadline expired before (or while) it executed.
    DeadlineExceeded,
    /// The job's [`Ticket`](crate::Ticket) was cancelled before it
    /// executed.
    Cancelled,
    /// A decrypt whose plaintext has a coefficient too large to decode
    /// (its centered value does not fit `i128`): the ciphertext was not
    /// encrypted under this server's key, or it is corrupted. Only this
    /// job fails; its batch-mates are answered as usual.
    Undecodable,
}

impl ServeError {
    /// The fault class for metrics, or `None` for a cancellation or an
    /// undecodable input (the caller's doing, not a fault).
    pub fn fault_class(&self) -> Option<FaultClass> {
        match self {
            ServeError::Fault { error, .. } => Some(error.class()),
            ServeError::DeadlineExceeded => Some(FaultClass::Deadline),
            ServeError::Cancelled | ServeError::Undecodable => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Fault { error, retries } => {
                write!(f, "{error} (after {retries} retries)")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Cancelled => write!(f, "cancelled by caller"),
            ServeError::Undecodable => {
                write!(
                    f,
                    "plaintext does not decode (foreign key or corrupted ciphertext)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A finished job: the response plus its end-to-end latency
/// (submit → response ready).
#[derive(Debug)]
pub struct Completed {
    /// The server's answer.
    pub response: Response,
    /// Queue wait + batching + execution time.
    pub latency: Duration,
}

/// Why a submit was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's bounded queue is full — backpressure. The reject is
    /// counted in the tenant's metrics.
    Backpressure {
        /// The refused tenant.
        tenant: TenantId,
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The request can never execute (e.g. an `Eval` at level 1, with no
    /// prime left to rescale into).
    Invalid(&'static str),
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure { tenant, capacity } => {
                write!(f, "{tenant} queue full (capacity {capacity})")
            }
            SubmitError::Invalid(why) => write!(f, "invalid request: {why}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A queued job: the request plus its reply channel and timing.
#[derive(Debug)]
pub(crate) struct Job {
    pub tenant: TenantId,
    /// Per-tenant submission sequence number; with the tenant id it seeds
    /// the job's encryption randomness, so results are independent of
    /// batch composition and worker interleaving.
    pub seq: u64,
    pub request: Request,
    pub submitted_at: Instant,
    /// Fail the job with [`ServeError::DeadlineExceeded`] if it has not
    /// executed by this instant (from [`ServeConfig::deadline`]).
    ///
    /// [`ServeConfig::deadline`]: crate::ServeConfig::deadline
    pub deadline: Option<Instant>,
    /// Set by [`Ticket::cancel`](crate::Ticket::cancel); checked at
    /// dispatch (best-effort — a job already executing completes).
    pub cancelled: Arc<AtomicBool>,
    pub reply: std::sync::mpsc::Sender<Completed>,
}

impl crate::queue::Weighted for Job {
    fn cost(&self) -> u64 {
        self.request.cost()
    }
}
