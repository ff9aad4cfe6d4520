//! In-memory spans for the traced run: each has a name, start, end, parent
//! span and session id, is recorded by the benchmark around a call into
//! one layer, and is written out when the run ends. Self time is a span's
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use crate::clock::Clock;

/// Session id of spans that belong to no session (setup, layer replays).
pub const NO_SESSION: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub session: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced runs take no timestamps beyond their own.
pub struct Tracer {
    pub on: bool,
    pub clock: Clock,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, clock: Clock) -> Self {
        Tracer {
            on,
            clock,
            spans: Vec::new(),
        }
    }

    /// Opens a span: returns its start time (0 when tracing is off).
    pub fn start(&self) -> u64 {
        if self.on {
            self.clock.ns()
        } else {
            0
        }
    }

    /// Records a span and its `children` (spans timed while it was open,
    /// on any thread) under it.
    pub fn tree(
        &mut self,
        name: &'static str,
        session: u32,
        (start_ns, end_ns): (u64, u64),
        children: Vec<(&'static str, u64, u64)>,
    ) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: None,
            session,
            name,
            start_ns,
            end_ns,
        });
        for (child, start_ns, end_ns) in children {
            self.spans.push(Span {
                id: self.spans.len() as u32,
                parent: Some(id),
                session,
                name: child,
                start_ns,
                end_ns,
            });
        }
    }

    /// Total duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name, in ns: duration minus the union of the
    /// intervals its direct children cover (children on parallel
    /// connections overlap, so they are merged before subtracting).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            *out.entry(s.name).or_insert(0) += s.ns() - covered.min(s.ns());
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let session = if s.session == NO_SESSION {
                "null".to_string()
            } else {
                s.session.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {parent}, \"session\": {session}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
