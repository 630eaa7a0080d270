//! Statistics the benchmark reports and judges by: the percentile rule,
//! quartiles, the seeded open-loop schedule, and the regression-bound
//! verdicts of `compare`.

/// splitmix64: the seeded generator behind schedules and op mixes.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes several seed words into one (for per-connection sub-seeds).
pub fn sub_seed(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(SplitMix::new(seed).next_u64(), |acc, &p| SplitMix::new(acc ^ p).next_u64())
}

/// Poisson arrivals at `rate` per second: due times in nanoseconds from the
/// schedule's origin, fully determined by the seed.
#[derive(Clone, Debug)]
pub struct PoissonSchedule {
    rng: SplitMix,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl PoissonSchedule {
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "a Poisson schedule needs a positive rate");
        let mut schedule =
            Self { rng: SplitMix::new(seed), mean_gap_ns: 1e9 / rate_per_s, next_ns: 0.0 };
        schedule.next_ns = schedule.gap();
        schedule
    }

    fn gap(&mut self) -> f64 {
        -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns
    }

    /// The next due time, advancing the schedule.
    pub fn next_due_ns(&mut self) -> u64 {
        let due = self.next_ns as u64;
        self.next_ns += self.gap();
        due
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The reporting rule: the highest percentile of the ladder that still has
/// at least ten samples beyond it, with that count. `None` below ten
/// samples beyond the median.
pub fn highest_supported(n: usize) -> Option<(f64, usize)> {
    [0.9999, 0.999, 0.99, 0.9, 0.5].into_iter().map(|q| (q, beyond(n, q))).find(|&(_, b)| b >= 10)
}

/// A timing sample set reduced to what the benchmark reports.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    /// Stays with the fast mode until 99% of the samples have moved to a
    /// slow one, so it follows the service's own speed when other tenants
    /// of the host slow a varying share of the requests.
    pub p1: f64,
    /// Samples strictly below the p1.
    pub below_p1: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Samples beyond the p99 (the rule wants at least ten).
    pub beyond_p99: usize,
}

impl Summary {
    pub fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        Self {
            n,
            mean: if n == 0 { f64::NAN } else { values.iter().sum::<f64>() / n as f64 },
            p1: percentile(&values, 0.01),
            below_p1: ((0.01 * n as f64).ceil() as usize).saturating_sub(1),
            p50: percentile(&values, 0.5),
            p90: percentile(&values, 0.9),
            p99: percentile(&values, 0.99),
            beyond_p99: if n == 0 { 0 } else { beyond(n, 0.99) },
        }
    }

    /// Whether the p99 meets the ten-beyond rule.
    pub fn p99_supported(&self) -> bool {
        self.beyond_p99 >= 10
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method), so the benchmark's own spread check matches the one the
/// numbers are judged by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `change` is strictly better than `parent`.
    pub fn wins(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Higher => change > parent,
            Better::Lower => change < parent,
        }
    }
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the parent's median (`0.1` = 10%).
    Relative(f64),
    /// An absolute amount in the metric's unit (for shares that are
    /// normally zero, where a relative bound means nothing).
    Absolute(f64),
}

impl Bound {
    /// The worsening allowed from `parent`.
    fn allowance(self, parent: f64) -> f64 {
        match self {
            Bound::Relative(share) => share * parent.abs(),
            Bound::Absolute(amount) => amount,
        }
    }

    /// Whether `change` is worse than `parent` by more than the bound.
    pub fn exceeded(self, parent: f64, change: f64, better: Better) -> bool {
        let worsening = match better {
            Better::Higher => parent - change,
            Better::Lower => change - parent,
        };
        worsening > self.allowance(parent)
    }

    /// Whether a spread (quartile distance) is wider than the bound.
    pub fn wider_than_bound(self, parent: f64, spread: f64) -> bool {
        spread > self.allowance(parent)
    }
}

/// The judgement on one (metric, workload) pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs, reduced.
#[derive(Clone, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Option<Self> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Self { median, q1, q3 })
    }

    pub fn spread(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Compares interleaved pairs `(parent, change)` of one metric.
///
/// A gain needs the change to win at least nine tenths of the pairs (ties
/// count for neither) and the medians to differ by more than the parent's
/// own quartile spread. A regression is a median worse than the bound
/// allows. When the parent's spread is wider than the bound, "no
/// regression" cannot be told from noise, so the pairing is unresolved
/// unless every change run beats every parent run.
pub fn judge(pairs: &[(f64, f64)], bound: Bound, better: Better) -> Option<(Verdict, f64)> {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (p, c) = (Side::of(&parent)?, Side::of(&change)?);
    let wins = pairs.iter().filter(|(a, b)| better.wins(*b, *a)).count();
    let win_share = wins as f64 / pairs.len() as f64;
    let separated = (c.median - p.median).abs() > p.spread();
    let verdict = if wins * 10 >= pairs.len() * 9 && separated && better.wins(c.median, p.median) {
        Verdict::Gain
    } else if bound.exceeded(p.median, c.median, better) {
        Verdict::Regressed
    } else if bound.wider_than_bound(p.median, p.spread())
        && !change.iter().all(|&x| parent.iter().all(|&y| better.wins(x, y)))
    {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Some((verdict, win_share))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_reports_the_highest_supported_percentile() {
        // 10 beyond is the threshold: 1000 samples support p99 exactly.
        assert_eq!(highest_supported(1000), Some((0.99, 10)));
        assert_eq!(highest_supported(999), Some((0.9, 99)));
        assert_eq!(highest_supported(100_000), Some((0.9999, 10)));
        assert_eq!(highest_supported(20), Some((0.5, 10)));
        assert_eq!(highest_supported(19), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = Summary::of(values);
        assert_eq!((summary.p50, summary.p99, summary.beyond_p99), (500.0, 990.0, 10));
        assert!(summary.p99_supported());
        assert!(!Summary::of(vec![1.0; 999]).p99_supported());
    }

    #[test]
    fn the_p1_stays_with_the_fast_mode_while_the_slow_share_varies() {
        // Moving 20%, then 95%, of 1000 samples from 200 to 350 (a slowed
        // share, as other tenants come and go): the mean and the median
        // follow the share, the p1 does not.
        let shifted = |slow: usize| {
            let mut v = vec![200.0; 1000 - slow];
            v.extend(vec![350.0; slow]);
            Summary::of(v)
        };
        let (a, b) = (shifted(200), shifted(950));
        assert_eq!((a.p1, b.p1, a.below_p1), (200.0, 200.0, 9));
        assert_eq!(b.p50 - a.p50, 150.0);
        assert!((b.mean - a.mean - 112.5).abs() < 1e-9);
        let empty = Summary::of(Vec::new());
        assert!(empty.p1.is_nan());
        assert_eq!(empty.below_p1, 0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed_and_hits_its_rate() {
        let take = |seed| {
            let mut s = PoissonSchedule::new(8000.0, seed);
            (0..20_000).map(|_| s.next_due_ns()).collect::<Vec<_>>()
        };
        let a = take(7);
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times are monotone");
        // 20,000 arrivals at 8,000/s span about 2.5 s (±3% at this count).
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((span_s - 2.5).abs() < 0.075, "span {span_s}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_and_absolute_bounds() {
        let ten = Bound::Relative(0.10);
        assert!(!ten.exceeded(100.0, 109.0, Better::Lower));
        assert!(ten.exceeded(100.0, 111.0, Better::Lower));
        assert!(!ten.exceeded(100.0, 91.0, Better::Higher));
        assert!(ten.exceeded(100.0, 89.0, Better::Higher));
        assert!(!ten.exceeded(100.0, 50.0, Better::Lower), "improvements never exceed");
        let zero = Bound::Absolute(0.0);
        assert!(!zero.exceeded(0.0, 0.0, Better::Lower));
        assert!(zero.exceeded(0.0, 1e-9, Better::Lower));
        let slo = Bound::Absolute(0.002);
        assert!(!slo.exceeded(0.001, 0.0029, Better::Lower));
        assert!(slo.exceeded(0.001, 0.0031, Better::Lower));
        assert!(ten.wider_than_bound(100.0, 10.5));
        assert!(!ten.wider_than_bound(100.0, 9.5));
    }

    #[test]
    fn verdicts_follow_the_pair_rules() {
        let bound = Bound::Relative(0.05);
        // Change wins every pair by 10%: a gain.
        let pairs: Vec<(f64, f64)> =
            (0..10).map(|i| (100.0 + f64::from(i) * 0.1, 110.0 + f64::from(i) * 0.1)).collect();
        assert_eq!(judge(&pairs, bound, Better::Higher).unwrap().0, Verdict::Gain);
        // Same numbers, lower is better: a regression.
        assert_eq!(judge(&pairs, bound, Better::Lower).unwrap().0, Verdict::Regressed);
        // Wins only 8 of 10 pairs: not a gain, and within the bound.
        let mut mixed = pairs.clone();
        for pair in mixed.iter_mut().take(2) {
            *pair = (pair.0, pair.0 - 1.0);
        }
        mixed.iter_mut().skip(2).for_each(|p| p.1 = p.0 + 1.0);
        assert_eq!(judge(&mixed, bound, Better::Higher).unwrap().0, Verdict::WithinBound);
        // Parent spread (IQR ~ 40) wider than the 5% bound: unresolved.
        let noisy: Vec<(f64, f64)> =
            (0..10).map(|i| (80.0 + f64::from(i % 5) * 10.0, 100.0 + f64::from(i % 3))).collect();
        assert_eq!(judge(&noisy, bound, Better::Higher).unwrap().0, Verdict::Unresolved);
        assert!(judge(&pairs[..1], bound, Better::Higher).is_none());
    }
}
