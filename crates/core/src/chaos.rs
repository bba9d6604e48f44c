//! Deterministic fault injection for the campaign runtime.

use snake_proxy::Strategy;

/// A deterministic chaos schedule, generalizing the one-off
/// [`FaultHook`](crate::FaultHook): worker panics and journal write
/// faults are injected by strategy id (and write ordinal), so the same
/// plan perturbs the same runs every time. Like a fault hook, an active
/// *evaluation* fault forces memoization off — an elided strategy would
/// never meet its scheduled fault.
///
/// The `wire_*`, `hang_worker_after` and `kill_controller_at` fields are
/// the distributed-campaign fault lane: they perturb the shard wire (by
/// outcome-frame ordinal, so timing noise cannot change which frame is
/// hit), hang a worker mid-campaign, or kill the
/// whole controller process at a chosen admission index. Wire faults
/// require `shards > 0` and leave evaluation untouched, so memoization
/// stays on and recovery must reproduce the unperturbed output exactly.
///
/// Chaos plans exist to prove the campaign runtime survives its
/// environment: panics must isolate, journal faults must be retried,
/// broken wires must re-dispatch, and a killed controller must resume
/// from its journal — all without
/// changing which strategies get tested or what they produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Panic inside the evaluation of every strategy whose id is a
    /// multiple of this (`None` = no injected panics).
    pub panic_every: Option<u64>,
    /// Fail every Nth journal write with a transient I/O error (the
    /// campaign's single bounded retry must absorb it).
    pub journal_fail_every: Option<u64>,
    /// Drop every Nth outcome frame on the controller's read path. The
    /// shard's next frame is then out of contract — or, after its last
    /// one, it misses the progress deadline — and it is killed; its range
    /// is re-dispatched.
    pub wire_drop_every: Option<u64>,
    /// Truncate every Nth outcome frame (torn line: checksum missing).
    pub wire_truncate_every: Option<u64>,
    /// Corrupt every Nth outcome frame (payload flipped under an intact
    /// length: checksum mismatch).
    pub wire_corrupt_every: Option<u64>,
    /// Delay every Nth outcome frame by [`wire_delay_ms`](Self::wire_delay_ms)
    /// before delivering it (a slow-but-alive worker; nothing may die).
    pub wire_delay_every: Option<u64>,
    /// How long a delayed frame is held, in milliseconds.
    pub wire_delay_ms: u64,
    /// Make shard 0's worker go silent (wire open, process alive) after
    /// sending this many outcomes — the shape of a livelocked worker; the
    /// controller's progress deadline must fire.
    pub hang_worker_after: Option<u64>,
    /// Kill the whole controller process (exit code 23) immediately after
    /// admitting and journaling this many outcomes. A subsequent resume
    /// must rebuild the identical result from the journal.
    pub kill_controller_at: Option<u64>,
}

/// An all-`None` plan, the base the presets patch (struct-update syntax
/// keeps each preset to the fields it actually sets).
const NO_CHAOS: ChaosPlan = ChaosPlan {
    panic_every: None,
    journal_fail_every: None,
    wire_drop_every: None,
    wire_truncate_every: None,
    wire_corrupt_every: None,
    wire_delay_every: None,
    wire_delay_ms: 0,
    hang_worker_after: None,
    kill_controller_at: None,
};

impl ChaosPlan {
    /// Built-in plans for the chaos test matrix.
    pub fn presets() -> &'static [(&'static str, ChaosPlan)] {
        const PRESETS: &[(&str, ChaosPlan)] = &[
            (
                "panics",
                ChaosPlan {
                    panic_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "journal",
                ChaosPlan {
                    journal_fail_every: Some(3),
                    ..NO_CHAOS
                },
            ),
            (
                "mayhem",
                ChaosPlan {
                    panic_every: Some(11),
                    journal_fail_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-drop",
                ChaosPlan {
                    wire_drop_every: Some(4),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-truncate",
                ChaosPlan {
                    wire_truncate_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-corrupt",
                ChaosPlan {
                    wire_corrupt_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-delay",
                ChaosPlan {
                    wire_delay_every: Some(3),
                    wire_delay_ms: 50,
                    ..NO_CHAOS
                },
            ),
            (
                "wire-hang",
                ChaosPlan {
                    hang_worker_after: Some(2),
                    ..NO_CHAOS
                },
            ),
            (
                "controller-kill",
                ChaosPlan {
                    kill_controller_at: Some(6),
                    ..NO_CHAOS
                },
            ),
        ];
        PRESETS
    }

    /// Looks up a built-in plan by name.
    pub fn preset(name: &str) -> Option<ChaosPlan> {
        ChaosPlan::presets()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
    }

    fn hits(every: Option<u64>, id: u64) -> bool {
        every.is_some_and(|n| n > 0 && id.is_multiple_of(n))
    }

    /// Applies the evaluation-side fault for `strategy`, a scheduled
    /// panic (called inside the panic isolation boundary).
    pub fn apply(&self, strategy: &Strategy) {
        if ChaosPlan::hits(self.panic_every, strategy.id) {
            panic!("chaos: injected engine panic (strategy {})", strategy.id);
        }
    }

    /// Whether the `n`th journal write (1-based) is scheduled to fail.
    pub fn fails_journal_write(&self, n: u64) -> bool {
        ChaosPlan::hits(self.journal_fail_every, n)
    }

    /// Whether this plan injects *evaluation-side* faults (panics, journal
    /// write failures). Only these force memoization off and are
    /// incompatible with shards — they are in-process closures that cannot
    /// cross a process boundary.
    pub fn has_eval_faults(&self) -> bool {
        self.panic_every.is_some() || self.journal_fail_every.is_some()
    }

    /// Whether this plan injects shard-wire faults (frame drop / truncate
    /// / corrupt / delay, worker hang). These need a wire to act on, so
    /// they require `shards > 0`; the controller kill-switch is not
    /// counted here because it works in-process too.
    pub fn has_wire_faults(&self) -> bool {
        self.wire_drop_every.is_some()
            || self.wire_truncate_every.is_some()
            || self.wire_corrupt_every.is_some()
            || self.wire_delay_every.is_some()
            || self.hang_worker_after.is_some()
    }
}
