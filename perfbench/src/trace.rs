//! In-memory span recorder for the traced runs: one span per phase call
//! (name, start, end, parent), kept in memory and written once at the
//! end of the run.

use std::time::Instant;

/// One closed or open span; times are microseconds since the recorder
/// started.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// The span recorder. A disabled recorder records nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records.
    pub fn new() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing (untraced repeats).
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// The spans as a JSON array; `self_us` is the span's duration minus
    /// the time its children cover.
    pub fn to_json(&self) -> String {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.end_us - s.start_us - child_us[i]
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }
}
