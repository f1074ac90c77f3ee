//! Exact ground truth and accuracy metrics.
//!
//! The approximate engines are validated against an exact hash-map counter:
//! recall/precision of the frequent set, exactness of the top-k prefix, and
//! the average relative error of count estimates — the metrics used in the
//! experimental literature the paper builds on (Cormode & Hadjieleftheriou,
//! VLDB '08).

use std::collections::HashMap;

use cots_core::{CounterEntry, Element, FrequencyCounter, QueryableSummary, Snapshot, Threshold};

/// Exact frequency counter over an in-memory hash map. Space-unbounded;
/// used only as ground truth for tests and accuracy reports.
#[derive(Debug, Clone, Default)]
pub struct ExactCounter<K: Element> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Element> ExactCounter<K> {
    /// Empty counter.
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Count an entire stream.
    pub fn from_stream(stream: &[K]) -> Self {
        let mut c = Self::new();
        c.process_slice(stream);
        c
    }

    /// The exact count of `item`.
    pub fn count(&self, item: &K) -> u64 {
        self.counts.get(item).copied().unwrap_or(0)
    }

    /// Number of distinct elements seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Exact frequent set at `threshold`.
    pub fn frequent(&self, threshold: Threshold) -> Vec<(K, u64)> {
        let min = threshold.resolve(self.total);
        let mut v: Vec<(K, u64)> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= min)
            .map(|(&k, &c)| (k, c))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }
}

impl<K: Element> FrequencyCounter<K> for ExactCounter<K> {
    fn process(&mut self, item: K) {
        *self.counts.entry(item).or_insert(0) += 1;
        self.total += 1;
    }

    fn processed(&self) -> u64 {
        self.total
    }
}

impl<K: Element> QueryableSummary<K> for ExactCounter<K> {
    fn snapshot(&self) -> Snapshot<K> {
        Snapshot::new(
            self.counts
                .iter()
                .map(|(&k, &c)| CounterEntry::new(k, c, 0))
                .collect(),
            self.total,
        )
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        self.counts.get(item).map(|&c| (c, 0))
    }
}

/// Accuracy of an approximate summary against exact ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Fraction of truly frequent elements the summary reported.
    pub recall: f64,
    /// Fraction of reported elements that are truly frequent.
    pub precision: f64,
    /// Mean of `|estimate - truth| / truth` over reported elements.
    pub avg_relative_error: f64,
    /// Max of `estimate - truth` over reported elements (over-estimation).
    pub max_overestimate: u64,
    /// Number of truly frequent elements.
    pub true_frequent: usize,
    /// Number of reported elements.
    pub reported: usize,
}

impl AccuracyReport {
    /// Compare a summary's frequent-set answer against ground truth at the
    /// given threshold.
    pub fn for_frequent<K: Element>(
        summary: &Snapshot<K>,
        truth: &ExactCounter<K>,
        threshold: Threshold,
    ) -> Self {
        let reported = summary.frequent(threshold);
        let exact = truth.frequent(threshold);
        Self::compare(&reported, &exact, truth)
    }

    /// Compare a summary's top-k answer against the exact top-k.
    ///
    /// An approximate top-k answer is counted as a hit when the element's
    /// true count ties or exceeds the true k-th count (the standard
    /// tie-tolerant definition).
    pub fn for_top_k<K: Element>(summary: &Snapshot<K>, truth: &ExactCounter<K>, k: usize) -> Self {
        let reported = summary.top_k(k);
        let mut exact: Vec<(K, u64)> = truth.counts.iter().map(|(&a, &b)| (a, b)).collect();
        exact.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        exact.truncate(k);
        Self::compare(&reported, &exact, truth)
    }

    fn compare<K: Element>(
        reported: &[CounterEntry<K>],
        exact: &[(K, u64)],
        truth: &ExactCounter<K>,
    ) -> Self {
        let kth_true = exact.last().map(|&(_, c)| c).unwrap_or(0);
        let hits = reported
            .iter()
            .filter(|e| truth.count(&e.item) >= kth_true && truth.count(&e.item) > 0)
            .count();
        let recall = if exact.is_empty() {
            1.0
        } else {
            // Recall against the exact set size (tie-tolerant hits are
            // capped so ties cannot push recall above 1).
            (hits.min(exact.len())) as f64 / exact.len() as f64
        };
        let precision = if reported.is_empty() {
            1.0
        } else {
            hits as f64 / reported.len() as f64
        };
        let mut rel = 0.0;
        let mut max_over = 0u64;
        let mut measured = 0usize;
        for e in reported {
            let t = truth.count(&e.item);
            if t > 0 {
                rel += (e.count as f64 - t as f64).abs() / t as f64;
                measured += 1;
                max_over = max_over.max(e.count.saturating_sub(t));
            }
        }
        AccuracyReport {
            recall,
            precision,
            avg_relative_error: if measured == 0 {
                0.0
            } else {
                rel / measured as f64
            },
            max_overestimate: max_over,
            true_frequent: exact.len(),
            reported: reported.len(),
        }
    }
}

/// Whether an answer holds the Space Saving guarantee against exact truth:
/// every truly frequent key is reported, and every reported entry sits
/// inside `count ≥ true ≥ count − error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeCheck {
    /// Keys whose true count meets the threshold.
    pub truly_frequent: usize,
    /// Truly frequent keys absent from the answer.
    pub missed: usize,
    /// Reported entries outside `count ≥ true ≥ count − error`.
    pub bound_violations: usize,
}

impl EnvelopeCheck {
    /// Check `entries` against `truth`, requiring every key whose true
    /// count reaches `threshold` to be among them.
    pub fn of<K: Element>(
        entries: &[CounterEntry<K>],
        truth: &ExactCounter<K>,
        threshold: u64,
    ) -> Self {
        let truly = truth.frequent(Threshold::Count(threshold));
        let missed = truly
            .iter()
            .filter(|(k, _)| !entries.iter().any(|e| e.item == *k))
            .count();
        let bound_violations = entries
            .iter()
            .filter(|e| {
                let t = truth.count(&e.item);
                !(e.count >= t && e.count.checked_sub(e.error).is_some_and(|lower| lower <= t))
            })
            .count();
        Self {
            truly_frequent: truly.len(),
            missed,
            bound_violations,
        }
    }

    /// No key missed and no entry out of bounds.
    pub fn passed(&self) -> bool {
        self.missed == 0 && self.bound_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counter_counts() {
        let c = ExactCounter::from_stream(&[1u64, 2, 2, 3, 3, 3]);
        assert_eq!(c.count(&3), 3);
        assert_eq!(c.count(&9), 0);
        assert_eq!(c.processed(), 6);
        assert_eq!(c.distinct(), 3);
    }

    #[test]
    fn exact_frequent_sorted() {
        let c = ExactCounter::from_stream(&[1u64, 2, 2, 3, 3, 3]);
        let f = c.frequent(Threshold::Count(2));
        assert_eq!(f, vec![(3, 3), (2, 2)]);
    }

    #[test]
    fn snapshot_has_zero_errors() {
        let c = ExactCounter::from_stream(&[5u64, 5, 6]);
        let s = c.snapshot();
        assert!(s.entries().iter().all(|e| e.error == 0));
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn perfect_summary_scores_perfectly() {
        let stream: Vec<u64> = vec![1, 1, 1, 2, 2, 3];
        let truth = ExactCounter::from_stream(&stream);
        let snap = truth.snapshot();
        let rep = AccuracyReport::for_frequent(&snap, &truth, Threshold::Count(2));
        assert_eq!(rep.recall, 1.0);
        assert_eq!(rep.precision, 1.0);
        assert_eq!(rep.avg_relative_error, 0.0);
        assert_eq!(rep.max_overestimate, 0);
        let rep = AccuracyReport::for_top_k(&snap, &truth, 2);
        assert_eq!(rep.recall, 1.0);
        assert_eq!(rep.precision, 1.0);
    }

    #[test]
    fn overestimating_summary_reports_error() {
        let stream: Vec<u64> = vec![1, 1, 2];
        let truth = ExactCounter::from_stream(&stream);
        // Summary over-estimates element 2 as 3 (true 1).
        let snap = Snapshot::new(
            vec![CounterEntry::new(1u64, 2, 0), CounterEntry::new(2u64, 3, 2)],
            3,
        );
        let rep = AccuracyReport::for_frequent(&snap, &truth, Threshold::Count(2));
        assert!(rep.avg_relative_error > 0.0);
        assert_eq!(rep.max_overestimate, 2);
        // Element 2 is reported frequent but truly is not (count 1 < 2).
        assert!(rep.precision < 1.0);
    }

    #[test]
    fn empty_cases() {
        let truth: ExactCounter<u64> = ExactCounter::new();
        let snap: Snapshot<u64> = Snapshot::new(vec![], 0);
        let rep = AccuracyReport::for_frequent(&snap, &truth, Threshold::Count(1));
        assert_eq!(rep.recall, 1.0);
        assert_eq!(rep.precision, 1.0);
        assert_eq!(rep.true_frequent, 0);
    }

    #[test]
    fn envelope_passes_an_exact_answer() {
        let truth = ExactCounter::from_stream(&[1u64, 1, 1, 2, 2, 3]);
        let c = EnvelopeCheck::of(&truth.snapshot().frequent(Threshold::Count(2)), &truth, 2);
        assert_eq!(
            c,
            EnvelopeCheck {
                truly_frequent: 2,
                missed: 0,
                bound_violations: 0
            }
        );
        assert!(c.passed());
    }

    #[test]
    fn envelope_flags_a_missed_heavy_key() {
        let truth = ExactCounter::from_stream(&[1u64, 1, 1, 2, 2, 3]);
        let c = EnvelopeCheck::of(&[CounterEntry::new(1u64, 3, 0)], &truth, 2);
        assert_eq!((c.truly_frequent, c.missed, c.bound_violations), (2, 1, 0));
        assert!(!c.passed());
    }

    #[test]
    fn envelope_flags_an_over_count() {
        let truth = ExactCounter::from_stream(&[1u64, 1, 1, 2, 2, 3]);
        // count − error = 3 > true 2.
        let entries = [CounterEntry::new(1u64, 3, 0), CounterEntry::new(2u64, 4, 1)];
        let c = EnvelopeCheck::of(&entries, &truth, 2);
        assert_eq!((c.missed, c.bound_violations), (0, 1));
        assert!(!c.passed());
    }

    #[test]
    fn envelope_flags_an_under_count() {
        let truth = ExactCounter::from_stream(&[1u64, 1, 1, 2, 2, 3]);
        // count 2 < true 3.
        let entries = [CounterEntry::new(1u64, 2, 0), CounterEntry::new(2u64, 2, 0)];
        let c = EnvelopeCheck::of(&entries, &truth, 2);
        assert_eq!((c.missed, c.bound_violations), (0, 1));
        assert!(!c.passed());
    }
}
