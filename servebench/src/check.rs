//! Exact-truth checks of query answers.
//!
//! Two kinds of check:
//!
//! * **Live answers**, given while keys are still arriving. The answer
//!   summarizes some sub-multiset `S` of the keys sent so far, which are
//!   the first `F` keys of the stream, and `S` holds at least
//!   `captured_total` keys. So for every reported entry
//!   `count − error ≤ f_F(k)` and `count ≥ f_F(k) − (F − captured_total)`
//!   must hold. Both bounds are sound: a correct server never fails them.
//! * **Quiescent answers**, given once every key is applied and the
//!   snapshot has zero staleness. These must match the exact counts of
//!   the whole stream: the full `count ≥ true ≥ count − error` envelope,
//!   full recall of `frequent(φ)`, and for `top-k` every key whose true
//!   count exceeds the k-th reported count must be reported.

use std::collections::HashMap;

use cots_core::{CounterEntry, Threshold};

use crate::gen::{KeyStream, Truth};

/// A query answer given during a phase, kept for the check.
pub struct LiveAnswer {
    /// Keys in the frames sent before the answer arrived.
    pub sent_keys: u64,
    /// Keys the answer's snapshot provably covers.
    pub captured_total: u64,
    /// The reported entries.
    pub entries: Vec<CounterEntry<u64>>,
    /// Given during the open loop (counts towards `failed_ratio`).
    pub open: bool,
}

/// True count of a wire id in `truth` (0 for ids outside the alphabet).
fn true_count(truth: &Truth, index: &HashMap<u64, u32>, item: u64) -> u64 {
    index
        .get(&item)
        .map_or(0, |&r| u64::from(truth.counts[r as usize]))
}

fn live_answer_ok(a: &LiveAnswer, truth: &Truth, index: &HashMap<u64, u32>) -> bool {
    let Some(slack) = a.sent_keys.checked_sub(a.captured_total) else {
        return false;
    };
    a.entries.iter().all(|e| {
        let f = true_count(truth, index, e.item);
        e.count.saturating_sub(e.error) <= f && e.count.saturating_add(slack) >= f
    })
}

/// Replay the stream's first `frames` frames and check every live answer
/// against the exact counts of the prefix it could have seen. Returns
/// the failing answers (open loop, closed loop) and the counts of the
/// whole replayed stream.
pub fn check_live(
    stream: &KeyStream,
    index: &HashMap<u64, u32>,
    frames: u64,
    answers: &mut [LiveAnswer],
) -> (u64, u64, Truth) {
    answers.sort_by_key(|a| a.sent_keys);
    let mut truth = Truth::new(stream.alphabet());
    let (mut ranks, mut keys) = (Vec::new(), Vec::new());
    let mut failed = (0u64, 0u64);
    let mut next = 0;
    let check_up_to = |truth: &Truth, next: &mut usize, failed: &mut (u64, u64)| {
        while let Some(a) = answers.get(*next) {
            if a.sent_keys > truth.total {
                break;
            }
            if !live_answer_ok(a, truth, index) {
                if a.open {
                    failed.0 += 1;
                } else {
                    failed.1 += 1;
                }
            }
            *next += 1;
        }
    };
    check_up_to(&truth, &mut next, &mut failed);
    for i in 0..frames {
        stream.frame(i, &mut ranks, &mut keys);
        truth.add(&ranks);
        check_up_to(&truth, &mut next, &mut failed);
    }
    // An answer claiming more sent keys than the stream has cannot be
    // checked; count it as failed rather than skip it.
    for a in &answers[next..] {
        if a.open {
            failed.0 += 1;
        } else {
            failed.1 += 1;
        }
    }
    (failed.0, failed.1, truth)
}

/// Outcome of one quiescent check.
#[derive(Debug, Default)]
pub struct QuiescentCheck {
    /// Keys whose true count reaches the threshold but were not
    /// reported (`frequent`), or that outrank the k-th entry but were
    /// not reported (`top-k`).
    pub missed: usize,
    /// Reported entries outside `count ≥ true ≥ count − error`.
    pub bound_violations: usize,
    /// Keys whose true count reaches the threshold (`frequent`).
    pub truly_frequent: usize,
}

impl QuiescentCheck {
    /// Whether the answer passed.
    pub fn passed(&self) -> bool {
        self.missed == 0 && self.bound_violations == 0
    }
}

fn envelope_violations(
    entries: &[CounterEntry<u64>],
    truth: &Truth,
    index: &HashMap<u64, u32>,
) -> usize {
    entries
        .iter()
        .filter(|e| {
            let f = true_count(truth, index, e.item);
            !(e.count >= f && e.count - e.error <= f)
        })
        .count()
}

/// Check a quiescent `frequent(phi)` answer against the whole stream.
pub fn check_frequent(
    entries: &[CounterEntry<u64>],
    phi: f64,
    truth: &Truth,
    stream: &KeyStream,
    index: &HashMap<u64, u32>,
) -> QuiescentCheck {
    let threshold = Threshold::Fraction(phi).resolve(truth.total);
    let reported: std::collections::HashSet<u64> = entries.iter().map(|e| e.item).collect();
    let mut check = QuiescentCheck::default();
    for (rank, &c) in truth.counts.iter().enumerate().skip(1) {
        if u64::from(c) >= threshold {
            check.truly_frequent += 1;
            if !reported.contains(&stream.id_of_rank(rank as u32)) {
                check.missed += 1;
            }
        }
    }
    check.bound_violations = envelope_violations(entries, truth, index);
    check
}

/// Check a quiescent `top-k` answer against the whole stream.
pub fn check_top_k(
    entries: &[CounterEntry<u64>],
    truth: &Truth,
    stream: &KeyStream,
    index: &HashMap<u64, u32>,
) -> QuiescentCheck {
    let floor = entries.iter().map(|e| e.count).min().unwrap_or(0);
    let reported: std::collections::HashSet<u64> = entries.iter().map(|e| e.item).collect();
    let mut check = QuiescentCheck {
        bound_violations: envelope_violations(entries, truth, index),
        ..QuiescentCheck::default()
    };
    for (rank, &c) in truth.counts.iter().enumerate().skip(1) {
        if u64::from(c) > floor && !reported.contains(&stream.id_of_rank(rank as u32)) {
            check.missed += 1;
        }
    }
    check
}
