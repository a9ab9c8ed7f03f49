//! In-memory spans recorded by the harness around each call into a
//! layer's public functions, and the self-time arithmetic over them.
//!
//! The tree is `rung → lap → call`: a call span's parent is the lap it
//! completed in, a lap's parent is its rung. A span's self time is its
//! duration minus the part of it its children cover — for a lap that is
//! the time the harness spent outside the program (schedule, payloads,
//! checks), which is how the traced run prices its own overhead.

use std::collections::HashMap;
use std::io::{self, Write};

/// Which layer a span's call entered. Names are crate names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    /// The harness itself (rung and lap spans).
    Harness = 0,
    /// `ame-crypto` kernels.
    Crypto = 1,
    /// `ame-engine` datapath.
    Engine = 2,
    /// `ame-store` blocking API.
    Store = 3,
    /// `ame-store` pipelined session.
    Session = 4,
    /// `ame-server` over loopback.
    Wire = 5,
}

impl Layer {
    /// The layer's printed name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Crypto => "crypto",
            Layer::Engine => "engine",
            Layer::Store => "store",
            Layer::Session => "session",
            Layer::Wire => "wire",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Layer entered.
    pub layer: Layer,
    /// Index of the operation within its rung's schedule.
    pub op: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
}

/// Span sink of one thread. Capacity is reserved up front (op counts are
/// fixed, so it is known), which keeps recording to one bounds-checked
/// store per span.
#[derive(Debug)]
pub struct Tracer {
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    /// A tracer whose ids start at `id_base + 1` (give each thread a
    /// disjoint base) with room for `capacity` spans.
    #[must_use]
    pub fn new(id_base: u32, capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            next_id: id_base + 1,
        }
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Tracer::finish`].
    pub fn open(&mut self, layer: Layer, op: u32, parent: u32, start_ns: u64) -> u32 {
        self.record(layer, op, parent, start_ns, start_ns)
    }

    /// Sets the end of a span opened by this tracer.
    pub fn finish(&mut self, id: u32, end_ns: u64) {
        let first = self.spans.first().map_or(id, |s| s.id);
        if let Some(span) = self.spans.get_mut((id - first) as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        layer: Layer,
        op: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            layer,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to the span itself. Children of
/// a pipelined rung overlap, hence the union and not the sum.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get_mut(&s.id).map_or(0, |kids| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                covered
            });
            (s.id, duration - covered.min(duration))
        })
        .collect()
}

/// Sum of self times per layer, nanoseconds.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<Layer, u64> {
    let own = self_times(spans);
    let mut by_layer: HashMap<Layer, u64> = HashMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_default() += own[&s.id];
    }
    by_layer
}

/// Writes spans as CSV (`id,parent,layer,op,start_ns,end_ns`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "id,parent,layer,op,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.layer.name(),
            s.op,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
