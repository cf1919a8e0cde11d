//! Collecting a run's metrics and printing them: one human-readable line
//! per metric with its unit, then the result object as the last line.

use crate::hist::Histogram;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Context lines printed before the metrics (never gated).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Context lines for a latency histogram: p50/p99/p999/max with the
    /// sample count, each printed only when at least ten samples lie
    /// beyond it.
    pub fn note_latency(&mut self, what: &str, h: &Histogram, scale: f64, unit: &str) {
        let mut line = format!("{what}: n={}", h.len());
        for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
            if h.beyond(q) >= 10 {
                line += &format!(
                    " {label}={:.3}{unit} ({} beyond)",
                    h.quantile(q) / scale,
                    h.beyond(q)
                );
            }
        }
        line += &format!(" max={:.3}{unit}", h.max() as f64 / scale);
        self.note(line);
    }

    /// Prints everything; the result object's metrics are the per-layer
    /// ones in a traced run and the end-to-end ones otherwise.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (kind, list) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            for m in list {
                println!("{kind} {} = {} {}", m.name, m.value, m.unit);
            }
        }
        let chosen = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = chosen
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a ratio over nothing reads as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, interpolating between neighbours.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }
}
