//! Request batching policy and the adaptive batch-size controller.
//!
//! Batching amortizes NeoBFT's per-slot overhead — one aom digest, one
//! authenticator verification, one reply quorum — over many client ops:
//! the client packs ops into one batch envelope occupying one aom slot,
//! and the replica fans per-op results back out in a single reply
//! (cf. Chop Chop's batching of authenticated broadcast, and FeBFT's
//! proposer-side batching).
//!
//! The [`AdaptiveBatcher`] tunes the *target* batch size to the offered
//! load, mirroring the FPGA signing-ratio controller in `crates/switch`:
//! a periodic integer-arithmetic adjustment moves the target halfway
//! toward the number of ops expected to arrive within one flush window
//! at the observed arrival rate. Under saturating load the target ramps
//! to `max_batch` (big batches, high throughput); when the client goes
//! idle it decays back to 1 (small batches, minimal added latency).

/// Client-side batching parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on ops per batch envelope.
    pub max_batch: usize,
    /// Maximum ops outstanding client-side (queued + in flight). The
    /// `submit` API returns backpressure beyond this.
    pub window: usize,
    /// Flush a partial batch this long after its first op was queued
    /// (0 = flush immediately, i.e. never wait for more ops).
    pub flush_timeout_ns: u64,
    /// Let the [`AdaptiveBatcher`] tune the target size below
    /// `max_batch` according to offered load.
    pub adaptive: bool,
}

impl BatchPolicy {
    /// No batching: one op per aom slot, one op outstanding — the exact
    /// closed-loop behaviour of the pre-batching client.
    pub const SINGLE: BatchPolicy = BatchPolicy {
        max_batch: 1,
        window: 1,
        flush_timeout_ns: 0,
        adaptive: false,
    };

    /// Fixed batches of `n` ops with a 100 µs partial-batch flush;
    /// `n <= 1` is [`BatchPolicy::SINGLE`].
    pub fn fixed(n: usize) -> Self {
        if n <= 1 {
            return BatchPolicy::SINGLE;
        }
        BatchPolicy {
            max_batch: n,
            window: 2 * n,
            flush_timeout_ns: 100_000,
            adaptive: false,
        }
    }

    /// Load-adaptive batches of up to `max` ops.
    pub fn adaptive(max: usize) -> Self {
        BatchPolicy {
            adaptive: true,
            ..BatchPolicy::fixed(max)
        }
    }

    /// True if this policy ever forms multi-op batches.
    pub fn batching(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::SINGLE
    }
}

/// How often the controller re-estimates the arrival rate.
const ADJUST_INTERVAL_NS: u64 = 200_000;

/// Load-adaptive batch-size controller (integer arithmetic throughout —
/// the protocol crates ban floating-point state: R4, `clippy.toml`).
#[derive(Clone, Debug)]
pub struct AdaptiveBatcher {
    policy: BatchPolicy,
    /// Current target batch size in `[1, policy.max_batch]`.
    target: u64,
    /// Ops observed since the last adjustment.
    arrived: u64,
    /// Virtual time of the last adjustment.
    last_adjust_ns: u64,
    /// Adjustments performed (observability).
    pub adjustments: u64,
}

impl AdaptiveBatcher {
    /// Start at the smallest batch size; ramp up only under load.
    pub fn new(policy: BatchPolicy) -> Self {
        AdaptiveBatcher {
            policy,
            target: 1,
            arrived: 0,
            last_adjust_ns: 0,
            adjustments: 0,
        }
    }

    /// The size at which the driver should flush a batch. Fixed policies
    /// always use `max_batch`; adaptive ones use the controller target.
    pub fn target(&self) -> usize {
        if self.policy.adaptive {
            self.target as usize
        } else {
            self.policy.max_batch
        }
    }

    /// Record that `n` ops were offered at virtual time `now_ns` (n = 0
    /// is an idle tick and drives decay). Re-estimates the target once
    /// per adjustment interval.
    pub fn on_ops(&mut self, n: u64, now_ns: u64) {
        self.arrived += n;
        let dt = now_ns.saturating_sub(self.last_adjust_ns);
        if dt < ADJUST_INTERVAL_NS {
            return;
        }
        // Ops expected within one flush window at the observed rate. A
        // zero flush timeout means "never wait", so size the batch to
        // one adjustment interval's worth of arrivals instead.
        let window_ns = if self.policy.flush_timeout_ns > 0 {
            self.policy.flush_timeout_ns
        } else {
            ADJUST_INTERVAL_NS
        };
        let expected = self.arrived.saturating_mul(window_ns) / dt.max(1);
        let goal = expected.clamp(1, self.policy.max_batch as u64);
        // Integer smoothing: move halfway toward the goal, rounding away
        // from the current value so the target can always reach 1 and
        // max_batch exactly.
        self.target = if goal >= self.target {
            (self.target + goal).div_ceil(2)
        } else {
            (self.target + goal) / 2
        }
        .clamp(1, self.policy.max_batch as u64);
        self.arrived = 0;
        self.last_adjust_ns = now_ns;
        self.adjustments += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_policy_is_the_closed_loop_client() {
        let p = BatchPolicy::SINGLE;
        assert_eq!(p.max_batch, 1);
        assert_eq!(p.window, 1);
        assert_eq!(p.flush_timeout_ns, 0);
        assert!(!p.adaptive);
        assert!(!p.batching());
        assert_eq!(BatchPolicy::default(), p);
        assert_eq!(BatchPolicy::fixed(1), p, "fixed(1) degenerates to SINGLE");
    }

    #[test]
    fn fixed_policy_uses_max_batch_as_target() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::fixed(16));
        assert_eq!(b.target(), 16);
        b.on_ops(0, 10_000_000); // idle ticks don't move a fixed target
        assert_eq!(b.target(), 16);
    }

    #[test]
    fn adaptive_ramps_up_under_load() {
        // 2 ops/µs offered against a 100 µs flush window: the controller
        // should ramp to max_batch (200 ops would arrive per window).
        let mut b = AdaptiveBatcher::new(BatchPolicy::adaptive(64));
        assert_eq!(b.target(), 1, "starts small");
        let mut now = 0;
        for _ in 0..50 {
            now += ADJUST_INTERVAL_NS;
            b.on_ops(2 * ADJUST_INTERVAL_NS / 1_000, now);
        }
        assert_eq!(b.target(), 64, "saturating load fills batches");
        assert!(b.adjustments >= 6, "ramp is smoothed over adjustments");
    }

    #[test]
    fn adaptive_decays_when_idle() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::adaptive(64));
        let mut now = 0;
        for _ in 0..50 {
            now += ADJUST_INTERVAL_NS;
            b.on_ops(2 * ADJUST_INTERVAL_NS / 1_000, now);
        }
        assert_eq!(b.target(), 64);
        // Offered load stops: idle ticks decay the target back to 1.
        for _ in 0..50 {
            now += ADJUST_INTERVAL_NS;
            b.on_ops(0, now);
        }
        assert_eq!(b.target(), 1, "idle client pays no batching latency");
    }

    #[test]
    fn adaptive_tracks_moderate_load_between_extremes() {
        // ~80 ops/ms against a 100 µs window ⇒ ≈8 ops per window.
        let mut b = AdaptiveBatcher::new(BatchPolicy::adaptive(64));
        let mut now = 0;
        for _ in 0..100 {
            now += ADJUST_INTERVAL_NS;
            b.on_ops(16, now);
        }
        let t = b.target();
        assert!((6..=10).contains(&t), "target ≈ load × window, got {t}");
    }

    #[test]
    fn sub_interval_calls_accumulate_without_adjusting() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::adaptive(64));
        for i in 0..10 {
            b.on_ops(100, i * 1_000); // all within one adjustment interval
        }
        assert_eq!(b.adjustments, 0);
        assert_eq!(b.target(), 1);
        b.on_ops(100, ADJUST_INTERVAL_NS);
        assert_eq!(b.adjustments, 1);
        assert!(b.target() > 1, "accumulated arrivals count at adjustment");
    }
}
