//! Counting checked operations and collecting metric values.

/// Attempted and failed operations, with a line per failure, plus the
/// human-readable notes a run prints before its JSON result.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one checked operation; a false `ok` is a failure described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail_counted(what());
        }
    }

    /// Count one operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.fail_counted(what);
    }

    fn fail_counted(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Metric values by name, in the order they were set.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}
