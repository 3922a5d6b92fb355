//! Per-layer counters read from what the system's public functions return
//! (`RunResult`/`AppReport`: `TrafficReport`, `ClusterStats`,
//! `TransportReport`; `KvStats` from the benchmark's own clients), one
//! [`Counters`] per measured unit, and the per-family accumulator that the
//! KV and application workloads fill.

use dsm_core::TransportReport;
use dsm_sim::{ClusterStats, TrafficReport};

use crate::metrics::{median, quantile, ratio, Metrics};
use crate::trace::{LayerSums, Name, Span};

/// Layer counters of one measured unit (a KV segment, or one pass over the
/// workload's applications, summed).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub kv_gets: u64,
    pub kv_hits: u64,
    pub kv_puts: u64,
    pub barriers: u64,
    pub write_faults: u64,
    pub lock_acquires: u64,
    pub local_acquires: u64,
    pub lock_transfers: u64,
    pub sync_messages: u64,
    pub data_messages: u64,
    pub bytes: u64,
    pub ts_blocks_scanned: u64,
    pub access_misses: u64,
    pub pages_invalidated: u64,
    pub write_notices: u64,
    pub twin_words: u64,
    pub diff_words: u64,
    pub words_applied: u64,
    pub pool_recycled: u64,
    pub pool_allocated: u64,
    pub frames_sent: u64,
    pub frames_coalesced: u64,
    pub wire_bytes: u64,
    pub wire_bytes_meta: u64,
    pub replicas_verified: u64,
}

impl Counters {
    /// Adds one DSM run's reports.
    pub fn add_run(
        &mut self,
        traffic: &TrafficReport,
        stats: &ClusterStats,
        wire: &TransportReport,
    ) {
        let t = stats.total();
        self.barriers += traffic.barriers;
        self.write_faults += traffic.write_faults;
        self.lock_acquires += traffic.lock_acquires;
        self.local_acquires += t.local_lock_acquires;
        self.lock_transfers += traffic.lock_transfers;
        self.sync_messages += traffic.sync_messages;
        self.data_messages += traffic.data_messages;
        self.bytes += traffic.bytes;
        self.ts_blocks_scanned += t.ts_blocks_scanned;
        self.access_misses += traffic.access_misses;
        self.pages_invalidated += t.pages_invalidated;
        self.write_notices += t.write_notices_received;
        self.twin_words += t.twin_words;
        self.diff_words += t.diff_words;
        self.words_applied += t.words_applied;
        self.pool_recycled += t.pool_recycled;
        self.pool_allocated += t.pool_allocated;
        self.frames_sent += wire.frames_sent;
        self.frames_coalesced += wire.frames_coalesced;
        self.wire_bytes += wire.wire_bytes;
        self.wire_bytes_meta += wire.wire_bytes_meta;
        self.replicas_verified += wire.replicas_verified as u64;
    }

    /// The counter-derived per-layer metrics (names without the family
    /// prefix).
    fn values(&self, family: &str) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("kvservice.get.count", self.kv_gets as f64),
            ("kvservice.put.count", self.kv_puts as f64),
            ("kvservice.hit_ratio", ratio(self.kv_hits, self.kv_gets)),
            ("context.barrier.count", self.barriers as f64),
            ("context.write_faults", self.write_faults as f64),
            ("sync.lock_acquires", self.lock_acquires as f64),
            (
                "sync.local_share",
                ratio(self.local_acquires, self.lock_acquires),
            ),
            ("sync.lock_transfers", self.lock_transfers as f64),
            ("engine.sync_messages", self.sync_messages as f64),
            ("engine.data_messages", self.data_messages as f64),
            ("engine.bytes", self.bytes as f64),
            ("mem.twin_words", self.twin_words as f64),
            ("mem.diff_words", self.diff_words as f64),
            ("mem.words_applied", self.words_applied as f64),
            (
                "mem.pool_hit_ratio",
                ratio(self.pool_recycled, self.pool_recycled + self.pool_allocated),
            ),
            ("transport.frames_sent", self.frames_sent as f64),
            (
                "transport.coalesced_share",
                ratio(self.frames_coalesced, self.frames_sent),
            ),
            ("transport.wire_bytes", self.wire_bytes as f64),
            (
                "transport.meta_share",
                ratio(self.wire_bytes_meta, self.wire_bytes),
            ),
            ("transport.replicas_verified", self.replicas_verified as f64),
        ];
        if family == "ec" {
            v.push(("engine.ts_blocks_scanned", self.ts_blocks_scanned as f64));
        } else {
            v.push(("engine.access_misses", self.access_misses as f64));
            v.push(("engine.pages_invalidated", self.pages_invalidated as f64));
            v.push(("engine.write_notices", self.write_notices as f64));
        }
        v
    }
}

/// Everything one implementation's units produced in a run.
#[derive(Debug, Default)]
pub struct Family {
    /// Per unit: set-up host seconds.
    pub setup_s: Vec<f64>,
    /// Per untraced / traced unit: operations per host second (for the
    /// tracing overhead).
    pub untraced_ops_per_s: Vec<f64>,
    pub traced_ops_per_s: Vec<f64>,
    /// Per traced unit: latency p999 (µs); and the largest latency and the
    /// sample count over all traced units.
    pub p999_us: Vec<f64>,
    pub max_us: f64,
    pub samples: u64,
    /// Per traced unit: layer counters.
    pub counters: Vec<Counters>,
    /// Span-derived totals over traced units.
    pub layers: LayerSums,
    /// The last traced unit's spans, written out at the end of the run.
    pub kept_spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
}

impl Family {
    /// Records a traced unit's latency tail (`sorted` ascending, in units
    /// of `unit_ns` nanoseconds).
    pub fn add_tail<T: Copy + Into<f64>>(&mut self, sorted: &[T], unit_ns: f64) {
        if let Some(&max) = sorted.last() {
            self.p999_us.push(quantile(sorted, 0.999) * unit_ns / 1e3);
            self.max_us = self.max_us.max(max.into() * unit_ns / 1e3);
            self.samples += sorted.len() as u64;
        }
    }

    /// Records a traced unit's spans and counters.
    pub fn add_traced(&mut self, spans: Vec<Span>, counters: Counters) {
        self.layers.fold(&spans);
        self.kept_spans = spans;
        self.counters.push(counters);
    }

    /// Sets this family's per-layer metrics: medians over traced units for
    /// counters and unit-level times, span means for per-op times.
    pub fn per_layer(&self, family: &str, m: &mut Metrics) {
        let mut put = |name: &str, v: f64| m.set(format!("{family}.{name}"), v);
        let per_unit: Vec<Vec<(&str, f64)>> =
            self.counters.iter().map(|c| c.values(family)).collect();
        if let Some(first) = per_unit.first() {
            for (i, (name, _)) in first.iter().enumerate() {
                put(
                    name,
                    median(&mut per_unit.iter().map(|u| u[i].1).collect::<Vec<_>>()),
                );
            }
        }
        let l = &self.layers;
        for (name, span) in [
            ("kvservice.get", Name::Get),
            ("kvservice.put", Name::Put),
            ("context.barrier", Name::Barrier),
        ] {
            put(&format!("{name}.host_ns"), l.mean_host_ns(span));
            put(&format!("{name}.sim_ns"), l.mean_sim_ns(span));
        }
        put("kvservice.cas.host_ns", l.mean_host_ns(Name::Cas));
        put("kvservice.delete.host_ns", l.mean_host_ns(Name::Delete));
        put("runtime.finish_ns", l.mean_host_ns(Name::Finish));
        put("runtime.run_self_ns", median_u64(&l.run_self_ns));
        put("runtime.setup_ns", median_u64(&l.setup_ns));
        put("p999_us", median(&mut self.p999_us.clone()));
        put("max_us", self.max_us);
        put("samples", self.samples as f64);
        let off = median(&mut self.untraced_ops_per_s.clone());
        let on = median(&mut self.traced_ops_per_s.clone());
        if on > 0.0 {
            put("trace.overhead", off / on - 1.0);
        }
    }
}

fn median_u64(values: &[u64]) -> f64 {
    median(&mut values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}
