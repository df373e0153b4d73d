//! Small statistics helpers: percentiles, medians, interquartile means, the
//! failure ledger and the seeded random stream that drives every workload.

use bellamy_telemetry::nearest_rank;
use std::time::Duration;

/// Nearest-rank percentile of `samples` (nanoseconds), in microseconds.
/// Sorts in place; an empty set reads as 0.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    nearest_rank(samples, q) as f64 / 1e3
}

/// Median of a set of measurements (the mean of the two middle values for
/// an even count). An empty set reads as NaN, which the result writer
/// reports as a failed check.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter (none of fewer than four). An empty set
/// reads as NaN.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Samples a group keeps at most. Beyond this a group holds a uniform
/// reservoir sample of everything pushed to it, so memory, and with it the
/// peak RSS the benchmark reports, does not grow with throughput.
pub const GROUP_CAP: usize = 20_000;

/// Latency samples (ns) kept per measurement group: a time window or a
/// set-up repetition. The host this was tuned on switches
/// between a fast and a slow level about 1.5x apart that each last from a
/// fraction of a second to seconds, and now and then stalls for seconds.
/// A run's groups therefore fall into two clusters, in proportions that
/// vary from run to run, plus the odd outlier. A median or a pooled
/// percentile jumps between the clusters and a mean follows the outliers;
/// the interquartile mean of per-group figures moves with the proportion
/// and ignores up to a quarter of outlying groups on each side, so that is
/// what the benchmark reports.
#[derive(Debug)]
pub struct Grouped {
    groups: Vec<Vec<u64>>,
    seen: Vec<u64>,
    pick: Stream,
}

impl Default for Grouped {
    fn default() -> Self {
        Self {
            groups: Vec::new(),
            seen: Vec::new(),
            pick: Stream::new(0, 0),
        }
    }
}

impl Grouped {
    /// Adds one sample to `group` (reservoir sampling past [`GROUP_CAP`]).
    pub fn push(&mut self, group: usize, ns: u64) {
        if self.groups.len() <= group {
            self.groups.resize_with(group + 1, Vec::new);
            self.seen.resize(group + 1, 0);
        }
        self.seen[group] += 1;
        let g = &mut self.groups[group];
        if g.len() < GROUP_CAP {
            g.push(ns);
        } else {
            let j = (self.pick.next_u64() % self.seen[group]) as usize;
            if j < GROUP_CAP {
                g[j] = ns;
            }
        }
    }

    /// Adds every group of `other` to the same-numbered group here. Each
    /// side's samples stand for the calls that side saw.
    pub fn extend(&mut self, other: Grouped) {
        for (g, samples) in other.groups.into_iter().enumerate() {
            if self.groups.len() <= g {
                self.groups.resize_with(g + 1, Vec::new);
                self.seen.resize(g + 1, 0);
            }
            self.seen[g] += other.seen[g];
            self.groups[g].extend(samples);
        }
    }

    /// Interquartile mean over the full groups of each group's nearest-rank
    /// percentile `q`, in µs. A group is full when it holds at least half as
    /// many samples as the largest, which drops a trailing partial window.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let largest = self.groups.iter().map(Vec::len).max().unwrap_or(0);
        let per_group: Vec<f64> = self
            .groups
            .iter()
            .filter(|g| !g.is_empty() && 2 * g.len() >= largest)
            .map(|g| percentile_us(&mut g.clone(), q))
            .collect();
        interquartile_mean(&per_group)
    }
}

/// Operations counted per measurement group, with each group's duration.
#[derive(Debug, Default, Clone)]
pub struct GroupedRate {
    calls: Vec<u64>,
    secs: Vec<f64>,
}

impl GroupedRate {
    fn at(&mut self, group: usize) {
        if self.calls.len() <= group {
            self.calls.resize(group + 1, 0);
            self.secs.resize(group + 1, 0.0);
        }
    }

    /// Counts one operation in `group`.
    pub fn count(&mut self, group: usize) {
        self.at(group);
        self.calls[group] += 1;
    }

    /// Adds `secs` of measured time to `group`.
    pub fn add_time(&mut self, group: usize, secs: f64) {
        self.at(group);
        self.secs[group] += secs;
    }

    /// Sets the duration of `group`.
    pub fn set_time(&mut self, group: usize, secs: f64) {
        self.at(group);
        self.secs[group] = secs;
    }

    /// Adds the counts and durations of `other`, group by group.
    pub fn extend(&mut self, other: &GroupedRate) {
        for g in 0..other.calls.len() {
            self.at(g);
            self.calls[g] += other.calls[g];
            self.secs[g] += other.secs[g];
        }
    }

    /// Number of groups, counting the empty ones below the highest.
    pub fn groups(&self) -> usize {
        self.calls.len()
    }

    /// Interquartile mean, over the groups at least half as long as the
    /// longest (a trailing partial window is dropped), of operations per
    /// second.
    pub fn per_s(&self) -> f64 {
        let longest = self.secs.iter().copied().fold(0.0, f64::max);
        let rates: Vec<f64> = (0..self.calls.len())
            .filter(|&g| self.secs[g] > 0.0 && 2.0 * self.secs[g] >= longest)
            .map(|g| self.calls[g] as f64 / self.secs[g])
            .collect();
        interquartile_mean(&rates)
    }
}

/// Nanoseconds of a duration, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Attempted and failed operations of one run. Every public call the
/// benchmark issues is one attempt; a call fails when it returns an error
/// or its output fails a check. Faults the program absorbs internally —
/// hub disk-read retries, quarantined checkpoints, serving-loop restarts —
/// never reach a caller, so they are added as attempts that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ledger {
    /// Records one call and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds faults absorbed inside the program, each one a failed attempt.
    pub fn absorb_internal(&mut self, faults: u64) {
        self.attempted += faults;
        self.failed += faults;
    }

    /// Merges another ledger.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted operations; a run with no attempts has no
    /// base and reads as 1 (all failed).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Stream(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_in_microseconds() {
        let mut ns: Vec<u64> = (1..=100).rev().map(|i| i * 1000).collect();
        // Nearest rank at index round(99 * q): p50 -> 51st value, p99 -> 99th.
        assert_eq!(percentile_us(&mut ns, 0.5), 51.0);
        assert_eq!(percentile_us(&mut ns, 0.99), 99.0);
        assert_eq!(percentile_us(&mut ns, 1.0), 100.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
        // Same element the telemetry crate's histogram quantiles use.
        let mut sorted: Vec<u64> = (0..11).collect();
        assert_eq!(
            percentile_us(&mut sorted, 0.9) * 1e3,
            nearest_rank(&sorted, 0.9) as f64
        );
    }

    #[test]
    fn grouped_percentile_is_the_interquartile_mean_over_full_groups() {
        let mut g = Grouped::default();
        for (group, base) in [(0, 1000), (1, 2000), (2, 3000), (3, 90_000)] {
            for i in 0..100 {
                g.push(group, base + i);
            }
        }
        // A trailing partial window with far fewer samples is dropped.
        g.push(4, 1);
        // Per-group p50s are 1.05, 2.05, 3.05 and 90.05 µs: the lowest
        // and the highest are dropped.
        assert!((g.percentile_us(0.5) - 2.55).abs() < 1e-12);
        // Per-group p99s end in .098.
        assert!((g.percentile_us(0.99) - 2.598).abs() < 1e-12);
        let mut other = Grouped::default();
        other.push(1, 5);
        g.extend(other);
        assert_eq!(g.groups[1].len(), 101);
        assert!(Grouped::default().percentile_us(0.5).is_nan());
    }

    #[test]
    fn grouped_keeps_a_bounded_uniform_reservoir() {
        let mut g = Grouped::default();
        let n = 4 * GROUP_CAP as u64;
        for ns in 0..n {
            g.push(0, ns);
        }
        assert_eq!(g.groups[0].len(), GROUP_CAP);
        assert_eq!(g.seen[0], n);
        // The reservoir's median stands for the whole stream's.
        let p50 = g.percentile_us(0.5) * 1e3;
        assert!((p50 / (n / 2) as f64 - 1.0).abs() < 0.05, "p50 {p50}");
    }

    #[test]
    fn grouped_rate_drops_short_groups() {
        let mut r = GroupedRate::default();
        for _ in 0..100 {
            r.count(0);
        }
        for _ in 0..300 {
            r.count(1);
        }
        r.count(2);
        r.add_time(0, 1.0);
        r.add_time(1, 1.0);
        r.add_time(2, 0.1);
        assert_eq!(r.per_s(), 200.0);
        assert_eq!(r.groups(), 3);
        assert!(GroupedRate::default().per_s().is_nan());
        let mut sum = GroupedRate::default();
        sum.extend(&r);
        sum.extend(&r);
        sum.set_time(0, 1.0);
        sum.set_time(1, 1.0);
        assert_eq!(sum.per_s(), 400.0);
    }

    #[test]
    fn median_and_interquartile_mean_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), 2.0);
        // Eight values: the lowest two and the highest two are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0];
        assert_eq!(interquartile_mean(&v), 3.5);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn error_rate_counts_internal_faults_against_their_own_attempts() {
        let mut ledger = Ledger::default();
        for i in 0..98 {
            ledger.record(i != 7);
        }
        assert_eq!(
            ledger,
            Ledger {
                attempted: 98,
                failed: 1
            }
        );
        ledger.absorb_internal(2);
        assert_eq!(
            ledger,
            Ledger {
                attempted: 100,
                failed: 3
            }
        );
        assert_eq!(ledger.error_rate(), 0.03);
        let mut total = Ledger::default();
        total.merge(ledger);
        total.merge(Ledger {
            attempted: 100,
            failed: 0,
        });
        assert_eq!(total.error_rate(), 3.0 / 200.0);
    }

    #[test]
    fn error_rate_without_attempts_has_no_base() {
        assert_eq!(Ledger::default().error_rate(), 1.0);
    }

    #[test]
    fn stream_is_reproducible_per_seed_and_salt() {
        let draw = |seed, salt| {
            let mut s = Stream::new(seed, salt);
            (0..4).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
        let mut v: Vec<usize> = (0..10).collect();
        Stream::new(5, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
