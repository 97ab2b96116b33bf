//! In-memory spans for the traced run, written out once it ends.
//!
//! Each rep is a root span whose children are the layer calls in order
//! (`workload.generate`, `engine.new`, `engine.set_faults`, `engine.run` or
//! `esn.run`, `check`). The engine's plane fields are attached to
//! `engine.run` as aggregate children laid end to end from its start, so
//! the run's self time is the epoch-boundary remainder plus teardown.

use crate::workload::Rep;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    /// A sum of many intervals (a plane field), not one interval.
    aggregate: bool,
}

pub struct Trace {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(run_id: String, origin: Instant) -> Trace {
        Trace {
            run_id,
            origin,
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name,
            start_s,
            end_s,
            aggregate: false,
        });
        self.spans.len() - 1
    }

    /// Record one rep's layer calls.
    pub fn add_rep(&mut self, rep: &Rep) {
        let origin = self.origin;
        let at = |t: Instant| t.duration_since(origin).as_secs_f64();
        let (first, last) = match (rep.stamps.first(), rep.stamps.last()) {
            (Some(f), Some(l)) => (at(f.start), at(l.end)),
            _ => return,
        };
        let root = self.push(None, "rep", first, last);
        for s in &rep.stamps {
            let (start, end) = (at(s.start), at(s.end));
            let id = self.push(Some(root), s.name, start, end);
            if s.name == "engine.run" {
                let mut t = start;
                for (name, secs) in [
                    ("engine.plane.tx", rep.tx_s),
                    ("engine.plane.deliver", rep.deliver_s),
                    ("engine.plane.merge", rep.merge_s),
                ] {
                    self.spans.push(Span {
                        parent: Some(id),
                        name,
                        start_s: t,
                        end_s: t + secs,
                        aggregate: true,
                    });
                    t += secs;
                }
            }
        }
    }

    /// Self time of every span named `name`, summed: its duration minus
    /// what its children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.end_s - c.start_s)
                    .sum();
                s.end_s - s.start_s - children
            })
            .sum()
    }

    /// The spans as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\": \"{}\", \"spans\": [", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \
                 \"end_s\": {}, \"aggregate\": {}}}",
                s.name, s.start_s, s.end_s, s.aggregate
            );
        }
        out.push_str("]}");
        out
    }
}
