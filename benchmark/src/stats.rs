//! Estimators: percentiles, the quiet-host estimate, and span self times.

use exo_obs::{SpanRecord, Trace};
use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by nearest rank: the smallest
/// value with at least `q` of the sample at or below it. Empty input
/// yields 0 so an unused metric prints as 0, not NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Which direction of a metric is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The time an operation takes when the host leaves it mostly alone: the
/// lower quartile of `times`. Interference on a shared host only ever adds
/// time, in bursts that cover anything from a tenth to most of a run, so
/// the median and the mean read how many bursts the run met; the minimum
/// is set by one lucky sample, or by a fast spell of the host that the
/// next run never sees. README.md has the runs behind this.
pub fn quiet_time(times: &[f64]) -> f64 {
    percentile(times, 0.25)
}

/// One timed operation of a measured run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Operations of one class do the same work (one kernel, one tune
    /// seed); classes are estimated separately and then combined, so that
    /// the mix of a run never moves the estimate.
    pub class: u32,
    /// Work the operation did, in the unit the workload's throughput counts.
    pub units: f64,
    pub ms: f64,
}

/// The quiet-host estimators of a run: `(latency in ms, units per second)`.
/// Per class, the time of an operation is the `quiet_time` of its samples;
/// latency is the mean of the class times, throughput the units of one
/// operation of every class over the sum of the class times.
pub fn quiet_estimate(samples: &[Sample]) -> (f64, f64) {
    let mut classes: BTreeMap<u32, (f64, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        let class = classes.entry(s.class).or_default();
        class.0 += s.units;
        class.1.push(s.ms);
    }
    if classes.is_empty() {
        return (0.0, 0.0);
    }
    let (mut units, mut ms) = (0.0, 0.0);
    for (total_units, times) in classes.values() {
        units += total_units / times.len() as f64;
        ms += quiet_time(times);
    }
    (ms / classes.len() as f64, units / (ms / 1e3))
}

/// `(max - min) / best` of one value per round, the best being `min` for
/// times and `max` for rates: how far the rounds of a run disagree.
pub fn round_spread(rounds: &[f64], better: Better) -> f64 {
    let min = rounds.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let best = match better {
        Better::Lower => min,
        Better::Higher => max,
    };
    if rounds.is_empty() || best <= 0.0 {
        0.0
    } else {
        (max - min) / best
    }
}

/// Geometric mean of positive values; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Per-name self times of the benchmark-owned spans of one traced round.
#[derive(Default, Debug)]
pub struct Folded {
    /// Self time (ns) of every span, grouped by span name.
    pub self_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Full duration (ns) of every span, grouped by span name.
    pub dur_ns: BTreeMap<&'static str, Vec<f64>>,
}

impl Folded {
    /// Total self time of the spans named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>())
            / 1e6
    }

    /// Median full duration of the spans named `name`, in ns.
    pub fn dur_p50_ns(&self, name: &str) -> f64 {
        self.dur_ns.get(name).map_or(0.0, |v| median(v))
    }

    /// Total full duration of the spans named `name`, in ms.
    pub fn dur_ms(&self, name: &str) -> f64 {
        self.dur_ns.get(name).map_or(0.0, |v| v.iter().sum::<f64>()) / 1e6
    }

    /// Share (0..=1) of the root spans' time that no child span covers:
    /// the part of a traced round the layer spans do not account for.
    pub fn unattributed(&self, roots: &[&str]) -> f64 {
        let (mut own, mut total) = (0.0, 0.0);
        for root in roots {
            own += self
                .self_ns
                .get(root)
                .map_or(0.0, |v| v.iter().sum::<f64>());
            total += self.dur_ns.get(root).map_or(0.0, |v| v.iter().sum::<f64>());
        }
        if total > 0.0 {
            own / total
        } else {
            0.0
        }
    }
}

/// Folds the spans whose name starts with `prefix` into self times: a
/// span's self time is its duration minus the part of it that its direct
/// children on the same thread cover. Spans of other prefixes (the
/// program's own) are ignored, so a layer keeps the time spent inside it.
pub fn fold_self_times(trace: &Trace, prefix: &str) -> Folded {
    let mut lanes: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in trace.spans().filter(|s| s.name.starts_with(prefix)) {
        lanes.entry(span.tid).or_default().push(span);
    }
    let mut folded = Folded::default();
    for spans in lanes.values_mut() {
        // Parents first: by start, and the longer span first on a tie.
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        // Stack of (span, time covered by its direct children so far).
        let mut stack: Vec<(&SpanRecord, u64)> = Vec::new();
        let close = |done: (&SpanRecord, u64), folded: &mut Folded| {
            let (span, covered) = done;
            let dur = span.end_ns.saturating_sub(span.start_ns);
            folded
                .self_ns
                .entry(span.name)
                .or_default()
                .push(dur.saturating_sub(covered) as f64);
            folded.dur_ns.entry(span.name).or_default().push(dur as f64);
        };
        for span in spans.iter() {
            while stack
                .last()
                .is_some_and(|(top, _)| span.start_ns >= top.end_ns)
            {
                let done = stack.pop().expect("checked non-empty");
                close(done, &mut folded);
            }
            if let Some((_, covered)) = stack.last_mut() {
                *covered += span.end_ns.saturating_sub(span.start_ns);
            }
            stack.push((span, 0));
        }
        while let Some(done) = stack.pop() {
            close(done, &mut folded);
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_obs::Record;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_estimate_reads_each_class_apart() {
        // Class 0: forty samples 10..=49 ms of 2 units, lower quartile
        // 19 ms; class 1: one sample of 100 ms.
        let mut samples: Vec<Sample> = (0..40)
            .map(|i| Sample {
                class: 0,
                units: 2.0,
                ms: 49.0 - i as f64,
            })
            .collect();
        samples.push(Sample {
            class: 1,
            units: 6.0,
            ms: 100.0,
        });
        let (latency, throughput) = quiet_estimate(&samples);
        assert!((latency - (19.0 + 100.0) / 2.0).abs() < 1e-12);
        assert!((throughput - 8.0 / 0.119).abs() < 1e-9);
        // More samples of one class do not move the other's share.
        samples.extend([samples[40]; 50]);
        assert_eq!(quiet_estimate(&samples).0, latency);
        assert_eq!(quiet_estimate(&[]), (0.0, 0.0));
    }

    #[test]
    fn quiet_time_is_the_lower_quartile() {
        assert_eq!(quiet_time(&[]), 0.0);
        assert_eq!(quiet_time(&[7.0, 5.0, 9.0]), 5.0);
        let times: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(quiet_time(&times), 25.0);
        // One lucky sample among many barely moves it.
        let mut lucky = times.clone();
        lucky.push(0.0);
        assert_eq!(quiet_time(&lucky), 25.0);
    }

    #[test]
    fn round_spread_is_relative_to_the_best_round() {
        let rounds = [10.0, 12.0, 11.0];
        assert!((round_spread(&rounds, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((round_spread(&rounds, Better::Higher) - 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(round_spread(&[], Better::Lower), 0.0);
    }

    #[test]
    fn geomean_of_equal_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, tid: u64) -> Record {
        Record::Span(SpanRecord {
            name,
            attr: None,
            start_ns,
            end_ns,
            tid,
            depth: 0,
        })
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] > a [10,50] > b [20,30]; root > c [60,90];
        // a foreign-prefix span and a second lane must not disturb it.
        let trace = Trace {
            records: vec![
                span("bench:b", 20, 30, 0),
                span("bench:a", 10, 50, 0),
                span("serve:inner", 12, 48, 0),
                span("bench:c", 60, 90, 0),
                span("bench:root", 0, 100, 0),
                span("bench:a", 0, 40, 1),
            ],
            dropped: 0,
        };
        let folded = fold_self_times(&trace, "bench:");
        assert_eq!(folded.self_ns["bench:root"], vec![30.0]);
        assert_eq!(folded.self_ns["bench:b"], vec![10.0]);
        assert_eq!(folded.self_ns["bench:c"], vec![30.0]);
        let mut a = folded.self_ns["bench:a"].clone();
        a.sort_by(f64::total_cmp);
        assert_eq!(a, vec![30.0, 40.0]);
        assert!(!folded.self_ns.contains_key("serve:inner"));
        assert_eq!(folded.dur_ns["bench:a"].len(), 2);
        assert!((folded.unattributed(&["bench:root"]) - 0.3).abs() < 1e-12);
        // Self times on one lane add up to the root's duration.
        let lane0: f64 = 30.0 + 30.0 + 10.0 + 30.0;
        assert_eq!(lane0, 100.0);
    }
}
