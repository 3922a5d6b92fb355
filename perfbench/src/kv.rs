//! The `kv-read` and `kv-write` workloads: two closed-loop clients, one per
//! DSM processor, replaying seeded traces against `dsm-kvservice` one op per
//! critical section, each waiting for its reply before sending the next.
//!
//! A measured unit (segment) builds a fresh 2-processor DSM and store, warms
//! the store to the mix's steady occupancy, then times every op of both
//! clients' traces, with a barrier every [`OPS_PER_BARRIER`] ops.  Segments
//! alternate EC-time and LRC-diff until the run's time is up.  Every
//! end-to-end metric is a median: `ops_per_s` and `sim_s` over barrier
//! epochs (an epoch is both clients' next [`OPS_PER_BARRIER`] ops), the
//! others over segments, so a host stall that hits a few epochs or
//! segments does not move them.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsm_core::{BarrierId, Dsm, DsmConfig, ImplKind, Model, ProcessContext, TransportKind};
use dsm_kvservice::workload::{KeySampler, MixSpec, XorShift64};
use dsm_kvservice::{
    fill_value, CasOutcome, KvConfig, KvOp, KvStats, KvStore, PutOutcome, ReadConsistency,
};

use crate::layers::{Counters, Family};
use crate::metrics::{median, per, quantile, Metrics, FAMILIES};
use crate::trace::{Name, Recorder, Span};
use crate::{guard, Outcome, PROCS};

/// Timed ops per client per segment.
pub const OPS_PER_CLIENT: usize = 32 * 1024;

/// Ops per client between barriers (the cadence of the repository's `kv`
/// bench): a barrier closes the channel backend's wire epoch.
pub const OPS_PER_BARRIER: usize = 4096;

/// Share of each client's ops, in percent, on the other client's home
/// shards: such an op usually moves the shard's lock (and, under EC, the
/// shard's data) to the client, and the owner's next op there moves it back.
pub const CROSS_PCT: u64 = 25;

/// Largest value seed a trace writes (`MixSpec::op` draws seeds in 0..16).
const MAX_SEED: u64 = 15;

/// The store: 16 shards x 512 slots x 4-word values.
pub fn store_config() -> KvConfig {
    KvConfig {
        shard_bits: 4,
        slot_bits: 9,
        value_words: 4,
        base_lock: 0,
    }
}

/// The key space is `1..=keys()`: half the store's slots, so the
/// write-heavy mix never fills a shard.
pub fn keys() -> u64 {
    (store_config().capacity() / 2) as u64
}

/// One KV workload: which mix runs over which backend.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    pub mix: MixSpec,
    pub transport: TransportKind,
    /// Replicas the backend must verify at the end of every run.
    pub replicas: usize,
}

impl KvWorkload {
    /// `kv-read`: read-mostly 95/5 on the simulated backend.
    pub fn read() -> Self {
        KvWorkload {
            mix: MixSpec::ALL[0],
            transport: TransportKind::Simulated,
            replicas: 0,
        }
    }

    /// `kv-write`: write-heavy 10/90 on the channel backend (one replica
    /// per processor).
    pub fn write() -> Self {
        KvWorkload {
            mix: MixSpec::ALL[2],
            transport: TransportKind::Channel,
            replicas: PROCS,
        }
    }
}

/// The generated inputs of one run: per client, the warm-up puts and the
/// timed trace.  The store only ever sees these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Per client: `(key, value seed)` pairs inserted before timing.
    pub warm: Vec<Vec<(u64, u64)>>,
    /// Per client: untimed ops of the same mix, run after the fill and
    /// before timing.
    pub warm_ops: Vec<Vec<KvOp>>,
    /// Per client: the timed ops.
    pub traces: Vec<Vec<KvOp>>,
}

impl Inputs {
    /// Generates the inputs for `seed`.  Keys are uniform over each
    /// client's choice of side: its home shards (`home_of(key)` is the
    /// client whose home holds `key`) with probability
    /// `1 - CROSS_PCT / 100`, the other client's shards otherwise, so
    /// every key is equally likely overall and the lock-transfer rate is
    /// set by the traces rather than by how the two threads happen to
    /// interleave.  A warm-up makes each key live with the mix's
    /// steady-state probability `put / (put + delete)` (each client
    /// inserting its home keys), so timing starts at steady occupancy,
    /// followed by half a trace's worth of untimed ops, so that timing
    /// starts after the protocols' first-touch misses and the buffer pools'
    /// first allocations.
    pub fn generate(
        seed: u64,
        mix: &MixSpec,
        ops_per_client: usize,
        home_of: &dyn Fn(u64) -> usize,
    ) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x6b76_2d62_656e_6368);
        let put = mix.put_share as u64;
        let delete = (100 - put) - (100 - put) * 2 / 3;
        let mut warm = vec![Vec::new(); PROCS];
        let mut home_keys = vec![Vec::new(); PROCS];
        for key in 1..=keys() {
            let home = home_of(key);
            home_keys[home].push(key);
            if rng.below(put + delete) < put {
                warm[home].push((key, rng.next_u64() & MAX_SEED));
            }
        }
        let samplers: Vec<KeySampler> = home_keys
            .iter()
            .map(|k| KeySampler::uniform(k.len() as u64))
            .collect();
        let mut traces = |len: usize| -> Vec<Vec<KvOp>> {
            (0..PROCS)
                .map(|c| {
                    let mut client = XorShift64::new(rng.next_u64());
                    (0..len)
                        .map(|_| {
                            let side = if client.below(100) < CROSS_PCT {
                                (c + 1) % PROCS
                            } else {
                                c
                            };
                            let op = mix.op(&mut client, &samplers[side]);
                            with_key(op, home_keys[side][op.key() as usize - 1])
                        })
                        .collect()
                })
                .collect()
        };
        let warm_ops = traces(ops_per_client / 2);
        let traces = traces(ops_per_client);
        Inputs {
            warm,
            warm_ops,
            traces,
        }
    }

    /// A byte encoding of the inputs (for the determinism test).
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for client in &self.warm {
            for &(k, s) in client {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&s.to_le_bytes());
            }
            out.push(0xfe);
        }
        for trace in self.warm_ops.iter().chain(&self.traces) {
            for op in trace {
                let (tag, words) = match *op {
                    KvOp::Get { key } => (0u8, [key, 0, 0]),
                    KvOp::Put { key, seed } => (1, [key, seed, 0]),
                    KvOp::Cas { key, expect, seed } => (2, [key, expect, seed]),
                    KvOp::Delete { key } => (3, [key, 0, 0]),
                };
                out.push(tag);
                for w in words {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            out.push(0xff);
        }
        out
    }

    fn ops(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }
}

/// `op` addressed to `key` instead.
fn with_key(op: KvOp, key: u64) -> KvOp {
    match op {
        KvOp::Get { .. } => KvOp::Get { key },
        KvOp::Put { seed, .. } => KvOp::Put { key, seed },
        KvOp::Cas { expect, seed, .. } => KvOp::Cas { key, expect, seed },
        KvOp::Delete { .. } => KvOp::Delete { key },
    }
}

/// The client whose home shards hold a key: shards are split into
/// contiguous halves by the store's public shard map.
pub fn home_map() -> impl Fn(u64) -> usize {
    let mut dsm =
        Dsm::new(DsmConfig::with_procs(ImplKind::ec_time(), 1)).expect("valid DSM config");
    let store = KvStore::alloc(&mut dsm, Model::Ec, store_config());
    move |key| store.shard_of(key) * PROCS / store.config().shards()
}

/// True if `value` is exactly what [`fill_value`] makes for `key` and the
/// seed in its first word, with that seed one the traces can write: a hit
/// that fails this was torn or corrupted.
pub fn value_ok(key: u64, value: &[u64], scratch: &mut [u64]) -> bool {
    let seed = value[0];
    fill_value(key, seed, scratch);
    seed <= MAX_SEED && scratch == value
}

/// Verifies the store's final contents: every live slot holds a key of the
/// key space, at most once, with a self-consistent value, and the number of
/// live keys equals `expected_live` (warm-up inserts plus timed inserts
/// minus timed deletes).  Returns the number of failures found.
pub fn check_final(cfg: &KvConfig, shards: &[Vec<u64>], expected_live: i64) -> u64 {
    let stride = cfg.stride();
    let mut seen = vec![false; keys() as usize + 1];
    let mut scratch = vec![0u64; cfg.value_words];
    let mut failures = 0u64;
    let mut live = 0i64;
    for shard in shards {
        for slot in shard.chunks_exact(stride) {
            let key = slot[0];
            if key == 0 || key == u64::MAX {
                continue;
            }
            live += 1;
            let fresh =
                (1..=keys()).contains(&key) && !std::mem::replace(&mut seen[key as usize], true);
            if !fresh || !value_ok(key, &slot[1..], &mut scratch) {
                failures += 1;
            }
        }
    }
    failures + (live - expected_live).unsigned_abs()
}

/// What the store answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Hit,
    Miss,
    Inserted,
    Updated,
    Other,
}

/// One closed-loop client: its request buffers and the replies it found
/// wrong.
struct Client<'s> {
    st: &'s KvStore,
    value: Vec<u64>,
    scratch: Vec<u64>,
    bad: u64,
}

impl<'s> Client<'s> {
    fn new(st: &'s KvStore) -> Self {
        let words = st.config().value_words;
        Client {
            st,
            value: vec![0; words],
            scratch: vec![0; words],
            bad: 0,
        }
    }

    /// Builds a write's value (outside the timed window).
    fn prepare(&mut self, op: &KvOp) {
        if let KvOp::Put { key, seed } | KvOp::Cas { key, seed, .. } = *op {
            fill_value(key, seed, &mut self.value);
        }
    }

    /// [`Client::prepare`] then [`Client::send_prepared`].
    fn send(
        &mut self,
        ctx: &mut ProcessContext<'_>,
        op: &KvOp,
        stats: &mut KvStats,
    ) -> (Name, Reply) {
        self.prepare(op);
        self.send_prepared(ctx, op, stats)
    }

    /// Sends one op through the store's public single-op API and counts its
    /// outcome in `stats`.
    fn send_prepared(
        &mut self,
        ctx: &mut ProcessContext<'_>,
        op: &KvOp,
        stats: &mut KvStats,
    ) -> (Name, Reply) {
        let st = self.st;
        match *op {
            KvOp::Get { key } => {
                stats.gets += 1;
                let hit = st.get_into(ctx, key, ReadConsistency::Lock, &mut self.value);
                (Name::Get, if hit { Reply::Hit } else { Reply::Miss })
            }
            KvOp::Put { key, .. } => {
                stats.puts += 1;
                let reply = match st.put(ctx, key, &self.value) {
                    PutOutcome::Inserted => {
                        stats.inserted += 1;
                        Reply::Inserted
                    }
                    PutOutcome::Updated => {
                        stats.updated += 1;
                        Reply::Updated
                    }
                    PutOutcome::Full => {
                        self.bad += 1;
                        Reply::Other
                    }
                };
                (Name::Put, reply)
            }
            KvOp::Cas { key, expect, .. } => {
                match st.cas(ctx, key, expect, &self.value) {
                    CasOutcome::Swapped => stats.cas_ok += 1,
                    CasOutcome::Mismatch => stats.cas_miss += 1,
                    CasOutcome::Absent => stats.cas_absent += 1,
                }
                (Name::Cas, Reply::Other)
            }
            KvOp::Delete { key } => {
                stats.deletes += 1;
                if st.delete(ctx, key) {
                    stats.deleted += 1;
                }
                (Name::Delete, Reply::Other)
            }
        }
    }

    /// Checks a reply: a get hit must carry a self-consistent value.
    fn check(&mut self, op: &KvOp, reply: Reply, stats: &mut KvStats) {
        if reply == Reply::Hit {
            stats.hits += 1;
            if !value_ok(op.key(), &self.value, &mut self.scratch) {
                self.bad += 1;
            }
        }
    }
}

/// One client's results from a segment.
struct ClientOut {
    first_op: Instant,
    /// Host and simulated time at every barrier exit from `first_op` on.
    marks: Vec<(Instant, u64)>,
    end: Instant,
    /// Per-op host latency, ns.
    lat: Vec<u32>,
    /// Timed ops' outcomes.
    stats: KvStats,
    /// Live keys this client added before timing.
    warm_live: i64,
    /// Hits with a wrong or torn value, puts that found the shard full,
    /// fill puts that did not insert, untimed ops not accounted for.
    bad: u64,
    spans: Vec<Span>,
}

/// One segment's results.
struct Segment {
    setup_s: f64,
    ops_per_s: f64,
    wall_s: f64,
    /// Per barrier epoch: host and simulated seconds.
    epochs: Vec<(f64, f64)>,
    /// Both clients' latencies, sorted, ns.
    lat: Vec<u32>,
    counters: Counters,
    spans: Vec<Span>,
    failed: u64,
}

/// Runs one segment of `kind`; a panic anywhere in it, or a segment that
/// never returns, fails all its ops.
fn run_segment(
    kind: ImplKind,
    wl: &KvWorkload,
    inputs: &Arc<Inputs>,
    traced: bool,
    epoch: Instant,
) -> Result<Segment, String> {
    let (wl, inputs) = (wl.clone(), Arc::clone(inputs));
    guard::run_unit(move || segment(kind, &wl, &inputs, traced, epoch))
}

fn segment(
    kind: ImplKind,
    wl: &KvWorkload,
    inputs: &Inputs,
    traced: bool,
    epoch: Instant,
) -> Segment {
    let mut rec = Recorder::new(epoch, 0, 8);
    let unit_id = rec.reserve();
    let run_id = rec.reserve();
    let t_unit = Instant::now();
    let mut cfg = DsmConfig::with_procs(kind, PROCS);
    cfg.transport = wl.transport.clone();
    let mut dsm = Dsm::new(cfg).expect("valid DSM config");
    let store = KvStore::alloc(&mut dsm, kind.model(), store_config());
    let t_built = Instant::now();
    rec.record(Name::Build, unit_id, 0, t_unit, t_built, (0, 0));

    let outs: Mutex<Vec<Option<ClientOut>>> = Mutex::new((0..PROCS).map(|_| None).collect());
    let st = &store;
    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let trace = &inputs.traces[me];
        let barriers = trace.len() / OPS_PER_BARRIER + 1;
        let mut rec = Recorder::new(
            epoch,
            me as u64 + 1,
            if traced {
                trace.len() + barriers + 1
            } else {
                0
            },
        );
        let mut client = Client::new(st);
        let mut stats = KvStats::new(st.config().shards());
        let mut warm_stats = KvStats::new(st.config().shards());
        let mut lat = Vec::with_capacity(trace.len());
        let mut warm_inserted = 0;

        let (w0, ws) = (Instant::now(), ctx.now().as_nanos());
        for &(key, seed) in &inputs.warm[me] {
            // Keys are distinct: every fill put must insert (a full shard
            // was already counted by `send`).
            match client
                .send(ctx, &KvOp::Put { key, seed }, &mut warm_stats)
                .1
            {
                Reply::Inserted => warm_inserted += 1,
                Reply::Updated => client.bad += 1,
                _ => {}
            }
        }
        ctx.barrier(BarrierId::new(0));
        warm_stats = KvStats::new(st.config().shards());
        for op in &inputs.warm_ops[me] {
            let reply = client.send(ctx, op, &mut warm_stats);
            client.check(op, reply.1, &mut warm_stats);
        }
        ctx.barrier(BarrierId::new(0));
        let first_op = Instant::now();
        let sim_start = ctx.now().as_nanos();
        let mut marks = Vec::with_capacity(barriers + 1);
        marks.push((first_op, sim_start));
        if traced {
            rec.record(Name::Warmup, run_id, 0, w0, first_op, (ws, sim_start));
        }

        for (i, op) in trace.iter().enumerate() {
            let op_id = (me as u64) << 32 | i as u64;
            client.prepare(op);
            let s0 = ctx.now().as_nanos();
            let t0 = Instant::now();
            let (name, reply) = client.send_prepared(ctx, op, &mut stats);
            let t1 = Instant::now();
            lat.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
            if traced {
                rec.record(name, run_id, op_id, t0, t1, (s0, ctx.now().as_nanos()));
            }
            client.check(op, reply, &mut stats);
            if (i + 1) % OPS_PER_BARRIER == 0 || i + 1 == trace.len() {
                let (b0, bs) = (Instant::now(), ctx.now().as_nanos());
                ctx.barrier(BarrierId::new(1));
                marks.push((Instant::now(), ctx.now().as_nanos()));
                if traced {
                    rec.record(
                        Name::Barrier,
                        run_id,
                        op_id,
                        b0,
                        Instant::now(),
                        (bs, ctx.now().as_nanos()),
                    );
                }
            }
        }
        let out = ClientOut {
            first_op,
            marks,
            end: Instant::now(),
            lat,
            stats,
            warm_live: warm_inserted as i64 + warm_stats.inserted as i64
                - warm_stats.deleted as i64,
            bad: client.bad + warm_stats.ops().abs_diff(inputs.warm_ops[me].len() as u64),
            spans: rec.spans,
        };
        outs.lock().expect("no client panicked holding the lock")[me] = Some(out);
    });
    let t_ret = Instant::now();
    let clients: Vec<ClientOut> = outs
        .into_inner()
        .expect("no client panicked holding the lock")
        .into_iter()
        .map(|c| c.expect("every client reported"))
        .collect();

    // Verification: final contents, op conservation, replicas.
    let shards: Vec<Vec<u64>> = (0..store.config().shards())
        .map(|s| result.final_array(store.shard_array(s)))
        .collect();
    let mut expected_live = 0i64;
    let mut failed = 0u64;
    let mut stats = KvStats::new(store.config().shards());
    for (c, trace) in clients.iter().zip(&inputs.traces) {
        expected_live += c.warm_live + c.stats.inserted as i64 - c.stats.deleted as i64;
        failed += c.bad + c.stats.ops().abs_diff(trace.len() as u64);
        stats.merge(&c.stats);
    }
    failed += check_final(store.config(), &shards, expected_live);
    failed += (wl.replicas as u64).saturating_sub(result.wire.replicas_verified as u64);
    let t_checked = Instant::now();

    let first_op = clients
        .iter()
        .map(|c| c.first_op)
        .min()
        .expect("two clients");
    let last_end = clients.iter().map(|c| c.end).max().expect("two clients");
    let mut lat: Vec<u32> = clients.iter().flat_map(|c| c.lat.iter().copied()).collect();
    lat.sort_unstable();
    let mut counters = Counters {
        kv_gets: stats.gets,
        kv_hits: stats.hits,
        kv_puts: stats.puts,
        ..Counters::default()
    };
    counters.add_run(&result.traffic, &result.stats, &result.wire);

    let mut spans = Vec::new();
    if traced {
        rec.record(Name::Finish, run_id, 0, last_end, t_ret, (0, 0));
        rec.record_as(run_id, Name::Run, unit_id, 0, t_built, t_ret, (0, 0));
        rec.record(Name::Check, unit_id, 0, t_ret, t_checked, (0, 0));
        rec.record_as(unit_id, Name::Unit, 0, 0, t_unit, t_checked, (0, 0));
        spans = rec.spans;
        for c in &clients {
            spans.extend_from_slice(&c.spans);
        }
    }
    Segment {
        setup_s: (first_op - t_unit).as_secs_f64(),
        ops_per_s: per(inputs.ops() as f64, (last_end - first_op).as_secs_f64()),
        wall_s: (t_checked - first_op).as_secs_f64(),
        epochs: clients[0]
            .marks
            .windows(2)
            .map(|w| {
                let host = (w[1].0 - w[0].0).as_secs_f64();
                (host, w[1].1.saturating_sub(w[0].1) as f64 / 1e9)
            })
            .collect(),
        lat,
        counters,
        spans,
        failed: failed.min(inputs.ops()),
    }
}

/// Per-family end-to-end samples (one per untraced segment).
#[derive(Debug, Default)]
struct EndToEnd {
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    wall_s: Vec<f64>,
    /// Per barrier epoch of every untraced segment: host and simulated
    /// seconds.
    epoch_s: Vec<f64>,
    epoch_sim_s: Vec<f64>,
    samples: u64,
}

/// Runs the workload for `seconds` and returns its metrics.
pub fn measure(wl: &KvWorkload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let inputs = Arc::new(Inputs::generate(seed, &wl.mix, OPS_PER_CLIENT, &home_map()));
    let kinds = [ImplKind::ec_time(), ImplKind::lrc_diff()];
    let epoch = Instant::now();
    let mut fams: [Family; 2] = Default::default();
    let mut e2e: [EndToEnd; 2] = Default::default();
    let mut notes = Vec::new();
    let mut round = 0usize;
    // The traced run alternates untraced and traced segments, so the
    // tracing overhead is measured within one run.
    while round < if trace { 2 } else { 1 } || epoch.elapsed().as_secs_f64() < seconds as f64 {
        let traced = trace && round % 2 == 1;
        for (f, &kind) in kinds.iter().enumerate() {
            let fam = &mut fams[f];
            fam.attempted += inputs.ops();
            let seg = match run_segment(kind, wl, &inputs, traced, epoch) {
                Ok(seg) => seg,
                Err(msg) => {
                    fam.failed += inputs.ops();
                    notes.push(format!("FAILED {kind} segment {round}: {msg}"));
                    continue;
                }
            };
            fam.failed += seg.failed;
            fam.setup_s.push(seg.setup_s);
            let e = &mut e2e[f];
            if traced {
                fam.traced_ops_per_s.push(seg.ops_per_s);
                fam.add_tail(&seg.lat, 1.0);
                fam.add_traced(seg.spans, seg.counters);
            } else {
                fam.untraced_ops_per_s.push(seg.ops_per_s);
                e.p50_us.push(quantile(&seg.lat, 0.50) / 1e3);
                e.p99_us.push(quantile(&seg.lat, 0.99) / 1e3);
                e.wall_s.push(seg.wall_s);
                e.epoch_s.extend(seg.epochs.iter().map(|e| e.0));
                e.epoch_sim_s.extend(seg.epochs.iter().map(|e| e.1));
                e.samples += seg.lat.len() as u64;
            }
        }
        round += 1;
    }

    let mut metrics = Metrics::default();
    let mut setup = 0.0;
    for (f, family) in FAMILIES.iter().enumerate() {
        setup += median(&mut fams[f].setup_s);
        if trace {
            fams[f].per_layer(family, &mut metrics);
            continue;
        }
        let e = &mut e2e[f];
        notes.push(format!(
            "{family}: {} segments of {} ops, {} latency samples (p99 from {} per segment)",
            e.wall_s.len(),
            inputs.ops(),
            e.samples,
            inputs.ops()
        ));
        let epochs_per_segment = (OPS_PER_CLIENT / OPS_PER_BARRIER) as f64;
        let ops_per_epoch = (PROCS * OPS_PER_BARRIER) as f64;
        metrics.set(
            format!("{family}.ops_per_s"),
            per(ops_per_epoch, median(&mut e.epoch_s)),
        );
        metrics.set(
            format!("{family}.sim_s"),
            median(&mut e.epoch_sim_s) * epochs_per_segment,
        );
        for (name, values) in [
            ("p50_us", &mut e.p50_us),
            ("p99_us", &mut e.p99_us),
            ("wall_s", &mut e.wall_s),
        ] {
            metrics.set(format!("{family}.{name}"), median(values));
        }
    }
    if !trace {
        metrics.set("setup_s", setup);
    }
    Outcome {
        metrics,
        families: fams,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parity(key: u64) -> usize {
        (key % PROCS as u64) as usize
    }

    #[test]
    fn inputs_are_byte_identical_for_a_seed() {
        for mix in [MixSpec::ALL[0], MixSpec::ALL[2]] {
            let a = Inputs::generate(7, &mix, 5000, &parity).to_bytes();
            let b = Inputs::generate(7, &mix, 5000, &parity).to_bytes();
            assert_eq!(a, b, "{}: same seed, different inputs", mix.name);
            let c = Inputs::generate(8, &mix, 5000, &parity).to_bytes();
            assert_ne!(a, c, "{}: the seed does not reach the inputs", mix.name);
        }
    }

    #[test]
    fn warm_up_reaches_the_steady_occupancy() {
        let inputs = Inputs::generate(3, &MixSpec::ALL[0], 10, &parity);
        let live: usize = inputs.warm.iter().map(Vec::len).sum();
        let want = keys() as f64 * 80.0 / 87.0;
        assert!(
            (live as f64 - want).abs() < want * 0.02,
            "{live} live keys, want ~{want}"
        );
    }

    /// A store image holding `keys` with consistent values, plus the
    /// number of live keys.
    fn image(keys_in: &[u64]) -> (KvConfig, Vec<Vec<u64>>) {
        let cfg = store_config();
        let mut shards = vec![vec![0u64; cfg.slots() * cfg.stride()]; cfg.shards()];
        for (i, &k) in keys_in.iter().enumerate() {
            let slot =
                &mut shards[i % cfg.shards()][(i / cfg.shards()) * cfg.stride()..][..cfg.stride()];
            slot[0] = k;
            fill_value(k, k % 16, &mut slot[1..]);
        }
        (cfg, shards)
    }

    #[test]
    fn checker_accepts_a_consistent_store() {
        let (cfg, shards) = image(&[1, 2, 3, 900]);
        assert_eq!(check_final(&cfg, &shards, 4), 0);
    }

    #[test]
    fn checker_counts_a_corrupted_value() {
        let (cfg, mut shards) = image(&[1, 2, 3, 900]);
        shards[1][3] ^= 1;
        assert_eq!(check_final(&cfg, &shards, 4), 1);
        let mut scratch = [0u64; 4];
        let mut value = [5u64, 0, 0, 0];
        fill_value(42, 5, &mut value);
        assert!(value_ok(42, &value, &mut scratch));
        value[2] = 0;
        assert!(!value_ok(42, &value, &mut scratch), "torn hit accepted");
        fill_value(42, 99, &mut value);
        assert!(
            !value_ok(42, &value, &mut scratch),
            "seed no trace writes accepted"
        );
    }

    #[test]
    fn checker_counts_a_dropped_op() {
        // An insert the store lost: one live key fewer than the op counts say.
        let (cfg, shards) = image(&[1, 2, 3]);
        assert_eq!(check_final(&cfg, &shards, 4), 1);
        // A key stored twice.
        let (cfg, shards) = image(&[1, 2, 2]);
        assert_eq!(check_final(&cfg, &shards, 3), 1);
    }
}
