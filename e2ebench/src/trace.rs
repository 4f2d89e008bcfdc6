//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every timed operation is one root span; each call into a layer's
//! public function inside it is a child span sharing the operation's
//! id. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the traced session records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole operation; its self time is the client glue (message
    /// building, trapdoor conversion) between the layer calls.
    Op,
    EncryptQuery,
    AppendTuple,
    Encode,
    Call,
    Decode,
    DecryptResult,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Op,
        Layer::EncryptQuery,
        Layer::AppendTuple,
        Layer::Encode,
        Layer::Call,
        Layer::Decode,
        Layer::DecryptResult,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "client.op",
            Layer::EncryptQuery => "swp_ph.encrypt_query",
            Layer::AppendTuple => "swp_ph.append_tuple",
            Layer::Encode => "protocol.encode",
            Layer::Call => "net.call",
            Layer::Decode => "protocol.decode",
            Layer::DecryptResult => "swp_ph.decrypt_result",
        }
    }

    /// This layer's index in [`Layer::ALL`] and in [`Tracer::self_times`].
    pub fn slot(self) -> usize {
        Self::ALL.iter().position(|&l| l == self).expect("listed")
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    op: u32,
    /// Index of the parent span, `None` for an operation's root.
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Self time and call count of one layer over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u32,
    root: Option<u32>,
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 spans")
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            root: None,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of the next operation.
    pub fn begin_op(&mut self) {
        let start_ns = self.now();
        self.root = Some(index(self.spans.len()));
        self.spans.push(Span {
            layer: Layer::Op,
            op: self.op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the current operation's root span.
    pub fn end_op(&mut self) {
        let root = self.root.take().expect("an operation is open");
        self.spans[root as usize].end_ns = self.now();
        self.op += 1;
    }

    /// Runs `f` inside a child span of the current operation.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            op: self.op,
            parent: self.root,
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover. Children never overlap one another.
    pub fn self_times(&self) -> [LayerTime; Layer::ALL.len()] {
        let mut out = [LayerTime::default(); Layer::ALL.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in self.spans.iter().zip(child_ns) {
            let slot = &mut out[s.layer.slot()];
            slot.calls += 1;
            slot.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Every span as tab-separated text, one per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("span\top\tparent\tlayer\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.begin_op();
        t.span(Layer::Encode, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span(Layer::Call, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.end_op();
        let times = t.self_times();
        let op = times[Layer::Op.slot()];
        let call = times[Layer::Call.slot()];
        assert_eq!(op.calls, 1);
        assert_eq!(call.calls, 1);
        assert!(call.self_ns >= 3_000_000);
        assert!(op.self_ns < 2_000_000, "root self time {}", op.self_ns);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }
}
