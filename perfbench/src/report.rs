//! The result object printed as the last line of a run.

/// Outcome of one run: request counts and named metrics with units.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests issued (each one also runs its output check).
    pub attempted: u64,
    /// Requests that returned an error envelope, no response, or a
    /// response that failed its check.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one attempted request and whether it passed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a metric; names are unique, later writes replace earlier ones.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Renders the one-line JSON result. A metric that is not finite
    /// fails the run instead of producing invalid JSON.
    pub fn render(&self) -> String {
        let correct = self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        )
    }
}
