//! In-memory spans recorded from the benchmark's side of each layer call.
//!
//! A span has a name (its [`Layer`]), a start and an end, the id of the
//! span that caused it and the id of the packet it worked on. Spans are
//! kept in memory and summarised when the run ends. Timing is sampled —
//! one root span in N per call site records itself and all of its
//! children, and stands for N roots — while call counts are exact.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`self_times`]).

use std::time::Instant;

/// The layers the replay times: one per crate module it calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `albatross_sim::Engine`: event pops, schedules and the dispatch
    /// glue of each event handler (the root span of every event).
    Engine,
    /// The traffic source (`TrafficSource::next_packet`).
    Workload,
    /// `TwoStageRateLimiter::process`.
    RateLimit,
    /// `PlbEngine::ingress`.
    Ingress,
    /// `DmaEngine::transfer_rx` / `transfer_tx`.
    Dma,
    /// `DataCore::enqueue` / `take_next` / `begin`.
    Worker,
    /// `FlowStateEngine::on_packet` / `expire`.
    FlowState,
    /// `TieredSessionEngine::on_packet` / `expire`.
    Tier,
    /// `ServicePipeline::process*`, memory model included (the memory
    /// share is split off with the `read_entry` probe).
    Services,
    /// `PlbEngine::cpu_return_into` / `poll_into` / timeout drains.
    Return,
    /// `LatencyHistogram::record`, `RateMeter::record`, utilization
    /// samples.
    Telemetry,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Engine,
        Layer::Workload,
        Layer::RateLimit,
        Layer::Ingress,
        Layer::Dma,
        Layer::Worker,
        Layer::FlowState,
        Layer::Tier,
        Layer::Services,
        Layer::Return,
        Layer::Telemetry,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The crate module the layer lives in.
    pub fn module(self) -> &'static str {
        match self {
            Layer::Engine => "sim.engine",
            Layer::Workload => "workload",
            Layer::RateLimit => "core.ratelimit",
            Layer::Ingress => "core.engine.ingress",
            Layer::Dma => "fpga.dma",
            Layer::Worker => "gateway.worker",
            Layer::FlowState => "gateway.flowstate",
            Layer::Tier => "fpga.tier",
            Layer::Services => "gateway.services",
            Layer::Return => "core.engine.return",
            Layer::Telemetry => "telemetry",
        }
    }
}

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Number of distinct root call sites a tracer samples independently.
pub const SITES: usize = 8;

/// Packet id of a span that works on no single packet.
pub const NO_PACKET: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span's parent in the span list, or [`NO_PARENT`].
    pub parent: u32,
    /// The packet the call worked on, or [`NO_PACKET`].
    pub pkt: u64,
    /// Which layer.
    pub layer: Layer,
    /// For a root: how many roots of its call site it stands for (the
    /// sampling period, or 1 for an always-timed root). 0 for a child,
    /// which stands for as many calls as its root.
    pub weight: u32,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when the call is counted
/// but not timed.
pub type Token = Option<u32>;

/// Records spans for sampled root events and counts every call.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    every: u64,
    roots_seen: [u64; SITES],
    calls: [u64; Layer::ALL.len()],
    /// The tracer's own cost, measured by [`Tracer::calibrate_overhead`].
    overhead: Overhead,
}

/// The tracer's own cost inside the spans it times, ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overhead {
    /// Carried by every span's own duration (the clock read that ends it).
    pub per_span: f64,
    /// Added to a parent's self time by each child (recording the child
    /// and reading the clock that starts it).
    pub per_child: f64,
}

impl Tracer {
    /// A tracer timing one root span in `every` per call site (1 = all).
    /// Its own overhead is subtracted once measured
    /// ([`Tracer::calibrate_overhead`]).
    pub fn new(every: u64) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            every: every.max(1),
            roots_seen: [0; SITES],
            calls: [0; Layer::ALL.len()],
            overhead: Overhead::default(),
        }
    }

    /// Measures the tracer's own cost on roots with empty children
    /// (median of a few rounds) and subtracts it from self times from then
    /// on. The spans go to a list larger than the host's caches, as in a
    /// traced run, so the cost of writing them out is included; the
    /// tracer's eviction of the simulator's own cached data is not, and
    /// `trace.coverage` above 1 shows that remainder.
    pub fn calibrate_overhead(&mut self) -> Overhead {
        const ROOTS: usize = 1 << 18;
        const KIDS: usize = 4;
        let mut per_span = Vec::new();
        let mut per_child = Vec::new();
        for _ in 0..3 {
            let mut t = Tracer::new(1);
            t.reserve(ROOTS * (KIDS + 1));
            for _ in 0..ROOTS {
                let r = t.root(Layer::Engine, NO_PACKET, None);
                for _ in 0..KIDS {
                    let c = t.enter(Layer::Dma, NO_PACKET);
                    t.exit(c);
                }
                t.exit(r);
            }
            let own = self_times(&t.spans);
            let (mut roots, mut kids) = (0u64, 0u64);
            for (s, o) in t.spans.iter().zip(&own) {
                if s.parent == NO_PARENT {
                    roots += o;
                } else {
                    kids += o;
                }
            }
            let span = kids as f64 / (ROOTS * KIDS) as f64;
            per_span.push(span);
            per_child.push(((roots as f64 / ROOTS as f64) - span).max(0.0) / KIDS as f64);
        }
        self.overhead = Overhead {
            per_span: crate::median(&per_span),
            per_child: crate::median(&per_child),
        };
        self.overhead
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span. Roots are sampled one in the tracer's period per
    /// call site (`Some(site)`, below [`SITES`]), so interleaved kinds of
    /// root never alias with the sampling period; `None` always times the
    /// root (rare events such as the periodic sample tick, which sampling
    /// would miss).
    pub fn root(&mut self, layer: Layer, pkt: u64, site: Option<usize>) -> Token {
        debug_assert!(self.stack.is_empty(), "root span inside a span");
        self.calls[layer.index()] += 1;
        let weight = match site {
            Some(site) => {
                self.roots_seen[site] += 1;
                if !self.roots_seen[site].is_multiple_of(self.every) {
                    return None;
                }
                u32::try_from(self.every).unwrap_or(u32::MAX)
            }
            None => 1,
        };
        Some(self.open(layer, pkt, NO_PARENT, weight))
    }

    /// Opens a child span of the innermost open span; counted always,
    /// timed only inside a timed root.
    pub fn enter(&mut self, layer: Layer, pkt: u64) -> Token {
        self.calls[layer.index()] += 1;
        let parent = *self.stack.last()?;
        Some(self.open(layer, pkt, parent, 0))
    }

    fn open(&mut self, layer: Layer, pkt: u64, parent: u32, weight: u32) -> u32 {
        let id = self.spans.len() as u32;
        // Push before reading the clock, so a growing span list is never
        // charged to the span being opened.
        self.spans.push(Span {
            parent,
            pkt,
            layer,
            weight,
            start: 0,
            end: 0,
        });
        self.stack.push(id);
        let start = self.now();
        self.spans[id as usize].start = start;
        id
    }

    /// Closes the span `token` opened.
    pub fn exit(&mut self, token: Token) {
        if let Some(id) = token {
            let end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
            self.spans[id as usize].end = end;
        }
    }

    /// Reserves room for `spans` more spans and touches it, so that
    /// recording them never reallocates the list or page-faults inside a
    /// timed span.
    pub fn reserve(&mut self, spans: usize) {
        let len = self.spans.len();
        let blank = Span {
            parent: NO_PARENT,
            pkt: NO_PACKET,
            layer: Layer::Engine,
            weight: 0,
            start: 0,
            end: 0,
        };
        self.spans.resize(len + spans, blank);
        self.spans.truncate(len);
    }

    /// Exact number of calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every recorded span less the tracer's own overhead
    /// (never below zero), ns.
    pub fn corrected_self_times(&self) -> Vec<f64> {
        let mut kids = vec![0u32; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                kids[s.parent as usize] += 1;
            }
        }
        self_times(&self.spans)
            .iter()
            .zip(&kids)
            .map(|(own, k)| {
                let o = self.overhead;
                (*own as f64 - o.per_span - f64::from(*k) * o.per_child).max(0.0)
            })
            .collect()
    }

    /// Per-layer estimate of total self time over the whole run: every
    /// timed span's corrected self time, weighted by the number of roots
    /// its root stands for.
    pub fn layer_self_ns(&self) -> [f64; Layer::ALL.len()] {
        let mut weight = Vec::with_capacity(self.spans.len());
        let mut out = [0.0; Layer::ALL.len()];
        for (s, own) in self.spans.iter().zip(self.corrected_self_times()) {
            let w = if s.parent == NO_PARENT {
                s.weight
            } else {
                weight[s.parent as usize]
            };
            weight.push(w);
            out[s.layer.index()] += own * f64::from(w);
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent). Spans must be listed
/// parents before children, as [`Tracer`] records them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor).min(s.end);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            parent,
            pkt: 7,
            layer,
            weight: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [25,60) (overlapping:
        // union 10..60 = 50 ns) and a grandchild [12,20) inside the first.
        let spans = [
            span(NO_PARENT, Layer::Engine, 0, 100),
            span(0, Layer::Services, 10, 30),
            span(0, Layer::Return, 25, 60),
            span(1, Layer::Telemetry, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 35, 8]);
        // With nested, non-overlapping children the self times of a tree
        // sum to the root's duration.
        let nested = [
            span(NO_PARENT, Layer::Engine, 0, 100),
            span(0, Layer::Services, 10, 30),
            span(0, Layer::Return, 40, 60),
            span(1, Layer::Telemetry, 12, 20),
        ];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(NO_PARENT, Layer::Engine, 100, 200),
            span(0, Layer::Dma, 50, 150),
            span(0, Layer::Dma, 190, 400),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn sampling_counts_every_call_and_times_one_root_in_n() {
        let mut t = Tracer::new(4);
        for _ in 0..8 {
            let r = t.root(Layer::Engine, 1, Some(0));
            let c = t.enter(Layer::Dma, 1);
            t.exit(c);
            t.exit(r);
        }
        assert_eq!(t.calls(Layer::Engine), 8);
        assert_eq!(t.calls(Layer::Dma), 8);
        assert_eq!(t.spans().len(), 4, "two timed roots, each with a child");
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        // A sampled root and its children stand for four calls each; an
        // always-timed root for itself.
        let r = t.root(Layer::Telemetry, 1, None);
        t.exit(r);
        let est = t.layer_self_ns();
        let raw = self_times(t.spans());
        let dma: u64 = raw[1] + raw[3];
        assert_eq!(est[Layer::Dma.index()], 4.0 * dma as f64);
        assert_eq!(est[Layer::Telemetry.index()], raw[4] as f64);
    }

    #[test]
    fn calibrated_overhead_is_subtracted_but_never_below_zero() {
        let mut t = Tracer::new(1);
        let o = t.calibrate_overhead();
        assert!(o.per_span >= 0.0 && o.per_child >= 0.0, "{o:?}");
        let r = t.root(Layer::Engine, 1, None);
        let c = t.enter(Layer::Dma, 1);
        t.exit(c);
        t.exit(r);
        let raw = self_times(t.spans());
        let want = vec![
            (raw[0] as f64 - o.per_span - o.per_child).max(0.0),
            (raw[1] as f64 - o.per_span).max(0.0),
        ];
        assert_eq!(t.corrected_self_times(), want);
    }
}
