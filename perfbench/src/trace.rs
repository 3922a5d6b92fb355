//! Spans for the traced run, recorded from the benchmark's own calls into
//! the system's layers.
//!
//! A span has a name, a start and an end (host nanoseconds since the run's
//! epoch, plus the calling processor's simulated clock where one exists), the
//! id of the span that caused it, and the id of the operation it belongs to.
//! Every worker records into its own pre-sized buffer, so recording is a
//! push into reserved memory and never contends.  The per-layer table is
//! derived from the spans ([`LayerSums::fold`]); the last unit's spans of
//! each implementation are kept and written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// What a span measures: the layer boundary the benchmark crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One measured unit (a KV segment or an application run), root span.
    Unit,
    /// `Dsm::new` plus region allocation and EC bindings.
    Build,
    /// `Dsm::run`, from the call until it returns.
    Run,
    /// One client's warm-up puts, before the first timed op.
    Warmup,
    /// `KvStore::get_into` (sequentially consistent read).
    Get,
    /// `KvStore::put`.
    Put,
    /// `KvStore::cas`.
    Cas,
    /// `KvStore::delete`.
    Delete,
    /// `ProcessContext::barrier`.
    Barrier,
    /// From the last worker's end until `Dsm::run` returns (transport
    /// drain and replica verification, result assembly).
    Finish,
    /// The benchmark's own verification of the final contents.
    Check,
    /// Launching the replica peer process and reading its port.
    PeerLaunch,
    /// `dsm_apps::run_app_opts`: one application run to a verified result.
    App,
}

impl Name {
    /// The span's name in the written trace.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Unit => "unit",
            Name::Build => "runtime.build",
            Name::Run => "runtime.run",
            Name::Warmup => "kv.warmup",
            Name::Get => "kvservice.get",
            Name::Put => "kvservice.put",
            Name::Cas => "kvservice.cas",
            Name::Delete => "kvservice.delete",
            Name::Barrier => "context.barrier",
            Name::Finish => "runtime.finish",
            Name::Check => "check",
            Name::PeerLaunch => "runtime.peer_launch",
            Name::App => "apps.run",
        }
    }

    const ALL: [Name; 13] = [
        Name::Unit,
        Name::Build,
        Name::Run,
        Name::Warmup,
        Name::Get,
        Name::Put,
        Name::Cas,
        Name::Delete,
        Name::Barrier,
        Name::Finish,
        Name::Check,
        Name::PeerLaunch,
        Name::App,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the unit.
    pub id: u64,
    /// The causing span's id (0 for a root).
    pub parent: u64,
    /// The operation the span belongs to: `node << 32 | op index` for a KV
    /// op and the barrier that follows it; 0 otherwise.
    pub op: u64,
    pub name: Name,
    /// Host nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The calling processor's simulated clock (0 outside `Dsm::run`).
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    fn host_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn sim_ns(&self) -> u64 {
        self.sim_end_ns.saturating_sub(self.sim_start_ns)
    }
}

/// A span buffer owned by one thread.  Ids are `base | counter`, so buffers
/// with distinct bases never collide.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    base: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread slot `slot` (0 = the driving thread, `n + 1` =
    /// worker `n`) with room for `capacity` spans.
    pub fn new(epoch: Instant, slot: u64, capacity: usize) -> Self {
        Recorder {
            epoch,
            base: slot << 40,
            next: 1,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Host nanoseconds since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves an id for a span recorded later (so children can name it).
    pub fn reserve(&mut self) -> u64 {
        let id = self.base | self.next;
        self.next += 1;
        id
    }

    /// Records a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        name: Name,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
        sim: (u64, u64),
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            sim_start_ns: sim.0,
            sim_end_ns: sim.1,
        });
    }

    /// Records a span with a fresh id.
    pub fn record(
        &mut self,
        name: Name,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
        sim: (u64, u64),
    ) {
        let id = self.reserve();
        self.record_as(id, name, parent, op, start, end, sim);
    }
}

/// Per-layer totals derived from spans, summed over traced units.
#[derive(Debug, Default, Clone)]
pub struct LayerSums {
    count: [u64; Name::ALL.len()],
    host_ns: [u64; Name::ALL.len()],
    sim_ns: [u64; Name::ALL.len()],
    /// Per unit: self time of its `runtime.run` span.
    pub run_self_ns: Vec<u64>,
    /// Per unit: from the unit's start to its first timed op (KV) or to the
    /// end of its peer launch (applications).
    pub setup_ns: Vec<u64>,
}

impl LayerSums {
    /// Folds one unit's spans (all threads) into the totals.
    pub fn fold(&mut self, spans: &[Span]) {
        for s in spans {
            let i = s.name.index();
            self.count[i] += 1;
            self.host_ns[i] += s.host_ns();
            self.sim_ns[i] += s.sim_ns();
        }
        if let Some(run) = spans.iter().find(|s| s.name == Name::Run) {
            self.run_self_ns.push(self_time(run, spans));
        }
        let unit = spans.iter().find(|s| s.name == Name::Unit);
        // Set-up ends at the first timed op, or where an application run
        // starts once its peer is up.
        let first_op = spans
            .iter()
            .filter(|s| is_op(s.name))
            .map(|s| s.start_ns)
            .min()
            .or_else(|| {
                spans
                    .iter()
                    .find(|s| s.name == Name::PeerLaunch)
                    .map(|s| s.end_ns)
            });
        if let (Some(unit), Some(first)) = (unit, first_op) {
            self.setup_ns.push(first.saturating_sub(unit.start_ns));
        }
    }

    /// Spans of `name` folded so far.
    pub fn count(&self, name: Name) -> u64 {
        self.count[name.index()]
    }

    /// Mean host nanoseconds per `name` span (0 if none).
    pub fn mean_host_ns(&self, name: Name) -> f64 {
        crate::metrics::ratio(self.host_ns[name.index()], self.count(name))
    }

    /// Mean simulated nanoseconds per `name` span (0 if none).
    pub fn mean_sim_ns(&self, name: Name) -> f64 {
        crate::metrics::ratio(self.sim_ns[name.index()], self.count(name))
    }
}

fn is_op(name: Name) -> bool {
    matches!(name, Name::Get | Name::Put | Name::Cas | Name::Delete)
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (children on different threads overlap; the union counts).
pub fn self_time(span: &Span, spans: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.host_ns().saturating_sub(covered)
}

/// Writes `spans` as CSV (one span per line, header first) to `path`,
/// creating its directory.
pub fn write_csv(path: &std::path::Path, spans: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "family,id,parent,op,name,start_ns,end_ns,sim_start_ns,sim_end_ns"
    )?;
    for (family, list) in spans {
        for s in list {
            writeln!(
                out,
                "{family},{},{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.op,
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.sim_start_ns,
                s.sim_end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: Name, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            sim_start_ns: 0,
            sim_end_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let run = span(1, 0, Name::Run, 100, 200);
        let spans = [
            run,
            // Two threads' overlapping children cover 110..150 once.
            span(2, 1, Name::Get, 110, 140),
            span(3, 1, Name::Put, 120, 150),
            span(4, 1, Name::Finish, 180, 190),
            // A grandchild and a stranger do not count.
            span(5, 2, Name::Barrier, 160, 170),
            span(6, 0, Name::Check, 150, 200),
        ];
        assert_eq!(self_time(&run, &spans), 100 - 40 - 10);
    }

    #[test]
    fn fold_derives_setup_from_the_first_op() {
        let spans = [
            span(1, 0, Name::Unit, 10, 500),
            span(2, 1, Name::Run, 50, 400),
            span(3, 2, Name::Get, 90, 100),
            span(4, 2, Name::Get, 70, 80),
        ];
        let mut sums = LayerSums::default();
        sums.fold(&spans);
        assert_eq!(sums.setup_ns, vec![60]);
        assert_eq!(sums.count(Name::Get), 2);
        assert_eq!(sums.mean_host_ns(Name::Get), 10.0);
        assert_eq!(sums.run_self_ns, vec![350 - 20]);
    }
}
