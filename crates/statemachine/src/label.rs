//! The label vocabulary: every state and packet-type name an observation
//! can carry, interned once per process.
//!
//! A tracker observes a handful of fixed names — eleven TCP states, eight
//! TCP packet types, their DCCP counterparts — millions of times per
//! campaign, and every outcome's report keeps the `(state, packet type)`
//! pairs its run saw. Holding each as a [`Label`] (a two-byte index into
//! one process-wide table) instead of a `String` keeps those reports free
//! of heap memory and makes comparing two names an integer compare.
//!
//! The table starts out seeded with [`SEEDED`]. Names outside it (states
//! of inferred machines, test fixtures) are admitted on first use, at most
//! [`LABEL_BOUND`] of them per process, so decoding untrusted input cannot
//! grow the table without limit.

use std::cmp::Ordering;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::StateMachineError;

/// The names every process knows from the start: the built-in TCP and
/// DCCP machines' states, the TCP and DCCP adapters' packet-type labels,
/// and `""` (journals carry empty final states for runs that tracked no
/// connection). Sorted by byte, so seeded labels order by index exactly as
/// their texts order.
const SEEDED: [&str; 32] = [
    "",
    "ACK",
    "CLOSE",
    "CLOSED",
    "CLOSEREQ",
    "CLOSE_WAIT",
    "CLOSING",
    "DATA",
    "DATAACK",
    "ESTABLISHED",
    "FIN+ACK",
    "FIN_WAIT_1",
    "FIN_WAIT_2",
    "INVALID",
    "LAST_ACK",
    "LISTEN",
    "OPEN",
    "PARTOPEN",
    "PSH+ACK",
    "REQUEST",
    "RESET",
    "RESPOND",
    "RESPONSE",
    "RST",
    "SYN",
    "SYN+ACK",
    "SYNC",
    "SYNCACK",
    "SYN_RECEIVED",
    "SYN_SENT",
    "TIMEWAIT",
    "TIME_WAIT",
];

/// How many names outside the seeded vocabulary one process admits. Past
/// it, [`Label::intern`] fails instead of allocating.
pub const LABEL_BOUND: usize = 1024;

/// Every label fits its two bytes.
const _: () = assert!(SEEDED.len() + LABEL_BOUND <= u16::MAX as usize);

/// Admitted names, in admission order. A slot is written once, under
/// [`ADMIT`], before [`ADMITTED_LEN`] publishes it: the `Release` store of
/// the new length pairs with readers' `Acquire` loads, so a reader that
/// sees a length sees every slot below it. Readers never lock.
static ADMITTED: [OnceLock<&'static str>; LABEL_BOUND] = [const { OnceLock::new() }; LABEL_BOUND];
static ADMITTED_LEN: AtomicUsize = AtomicUsize::new(0);
/// Serialises admissions, so one name never takes two slots.
static ADMIT: Mutex<()> = Mutex::new(());

/// An interned state or packet-type name.
///
/// `Copy` and two bytes wide; every label with the same text is the same
/// label, so equality and hashing use the index, while ordering follows
/// the text (sorted observation lists read the same whether they hold
/// labels or strings).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u16);

impl Label {
    /// The empty name.
    pub const EMPTY: Label = Label(0);

    /// The seeded label spelled `text`, resolved at compile time when
    /// called in a const context.
    ///
    /// # Panics
    ///
    /// Panics (at compile time, in a const context) if `text` is not in
    /// the seeded vocabulary.
    pub const fn seeded(text: &str) -> Label {
        let mut i = 0;
        while i < SEEDED.len() {
            if const_str_eq(SEEDED[i], text) {
                return Label(i as u16);
            }
            i += 1;
        }
        panic!("not a seeded label");
    }

    /// The label spelled `text` if the process already knows it: seeded,
    /// or admitted earlier. Never admits, never allocates, never locks.
    pub fn lookup(text: &str) -> Option<Label> {
        // A scan, not a binary search: most of the 32 names differ from
        // `text` in length, which `==` checks first (≈15 ns a name,
        // against ≈65 ns for `binary_search`'s string compares).
        if let Some(i) = SEEDED.iter().position(|&seeded| seeded == text) {
            return Some(Label(i as u16));
        }
        let admitted = ADMITTED_LEN.load(AtomicOrdering::Acquire);
        ADMITTED[..admitted]
            .iter()
            .position(|slot| slot.get() == Some(&text))
            .map(|i| Label((SEEDED.len() + i) as u16))
    }

    /// The label spelled `text`, admitting it if it is new. A known name
    /// resolves without allocating or locking.
    ///
    /// # Errors
    ///
    /// Returns [`StateMachineError::VocabularyFull`] if `text` is new and
    /// [`LABEL_BOUND`] names have been admitted already.
    pub fn intern(text: &str) -> Result<Label, StateMachineError> {
        if let Some(label) = Label::lookup(text) {
            return Ok(label);
        }
        // The lock guards no data of its own (a panicking holder leaves
        // nothing half-updated), so a poisoned lock is still good.
        let _admit = ADMIT.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(label) = Label::lookup(text) {
            return Ok(label);
        }
        // Only admissions store the length, and they hold the lock.
        let admitted = ADMITTED_LEN.load(AtomicOrdering::Relaxed);
        if admitted == LABEL_BOUND {
            return Err(StateMachineError::VocabularyFull { bound: LABEL_BOUND });
        }
        let leaked: &'static str = Box::leak(text.into());
        ADMITTED[admitted]
            .set(leaked)
            .expect("a slot is written once, under the admission lock");
        ADMITTED_LEN.store(admitted + 1, AtomicOrdering::Release);
        Ok(Label((SEEDED.len() + admitted) as u16))
    }

    /// How many names outside the seeded vocabulary have been admitted.
    pub fn admitted() -> usize {
        ADMITTED_LEN.load(AtomicOrdering::Acquire)
    }

    /// The label's text.
    pub fn as_str(self) -> &'static str {
        let i = self.0 as usize;
        match SEEDED.get(i) {
            Some(text) => text,
            None => ADMITTED[i - SEEDED.len()]
                .get()
                .expect("a label exists only once its slot is written"),
        }
    }
}

const fn const_str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

impl Default for Label {
    fn default() -> Label {
        Label::EMPTY
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Label) -> Ordering {
        let seeded = SEEDED.len() as u16;
        if self.0 < seeded && other.0 < seeded {
            self.0.cmp(&other.0)
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Label) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dccp_state_machine, tcp_state_machine};

    #[test]
    fn seeded_names_are_sorted_and_distinct() {
        assert!(SEEDED.windows(2).all(|w| w[0] < w[1]), "{SEEDED:?}");
        assert_eq!(Label::EMPTY.as_str(), "");
        for name in SEEDED {
            assert_eq!(Label::lookup(name).map(Label::as_str), Some(name));
        }
    }

    #[test]
    fn built_in_machine_names_are_seeded() {
        for machine in [tcp_state_machine(), dccp_state_machine()] {
            for state in machine.states() {
                assert!(SEEDED.contains(&state.as_str()), "{state}");
            }
            for t in machine.transitions() {
                assert!(SEEDED.contains(&t.event.packet_type.as_str()), "{t:?}");
            }
        }
    }

    #[test]
    fn seeded_labels_resolve_to_their_text() {
        const SYN: Label = Label::seeded("SYN");
        assert_eq!(SYN.as_str(), "SYN");
        assert_eq!(Label::lookup("SYN"), Some(SYN));
        assert_eq!(Label::intern("SYN"), Ok(SYN));
        assert_eq!(SYN, "SYN");
    }

    #[test]
    fn admitted_labels_are_canonical_and_order_by_text() {
        let a = Label::intern("label-test-zz").unwrap();
        assert_eq!(Label::intern("label-test-zz").unwrap(), a);
        assert_eq!(Label::lookup("label-test-zz"), Some(a));
        assert_eq!(a.as_str(), "label-test-zz");
        assert_eq!(Label::lookup("label-test-never-admitted"), None);
        // Admitted after every seeded name, yet ordered by text.
        let b = Label::intern("AAA-label-test").unwrap();
        assert!(b > Label::EMPTY && b < Label::seeded("ACK"));
        assert!(Label::seeded("TIME_WAIT") > b && Label::seeded("TIME_WAIT") < a);
        assert!(b < a);
    }
}
