//! Percentiles and the metric list a run prints.

/// The `p`-th percentile (0..=100) of `sorted`, interpolating linearly
/// between the two nearest ranks. Empty input gives 0.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => f64::from(sorted[0]),
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Latency samples of one kind of call, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<u32>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns.min(u64::from(u32::MAX)) as u32);
    }
}

/// One named value with its unit and, for a latency, its sample count.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// The metrics of a run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples: None,
        });
    }

    /// Records a latency in microseconds with its sample count.
    pub fn put_latency(&mut self, name: &str, (us, samples): (f64, usize)) {
        self.put(name, us, "us");
        self.0.last_mut().expect("just pushed").samples = Some(samples);
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
