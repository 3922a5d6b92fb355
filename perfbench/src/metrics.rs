//! The benchmark's metric catalogue (names and units, exactly as
//! `BENCHMARK.json` lists them) and the small statistics every workload
//! shares: quantiles, medians and geometric means.

use std::collections::BTreeMap;

/// The two implementations every workload compares, in run order, with the
/// prefix their metrics carry.
pub const FAMILIES: [&str; 2] = ["ec", "lrc"];

/// The applications `paper-apps` runs (the paper's Table 2 without
/// Quicksort, see `apps::APPS`), as metric-name slugs in the same order.
pub const APP_SLUGS: [&str; 6] = ["sor", "sor_plus", "water", "barnes_hut", "is", "fft3d"];

/// End-to-end metrics (printed with `--trace 0`) and their units.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut out = vec![("setup_s".to_string(), "s")];
    for f in FAMILIES {
        for (m, unit) in [
            ("ops_per_s", "ops/s"),
            ("p50_us", "us"),
            ("p99_us", "us"),
            ("wall_s", "s"),
            ("sim_s", "sim_s"),
        ] {
            out.push((format!("{f}.{m}"), unit));
        }
    }
    out
}

/// Per-layer metrics (printed with `--trace 1`) and their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for f in FAMILIES {
        let mut layer = |m: &str, unit: &'static str| out.push((format!("{f}.{m}"), unit));
        for (m, unit) in [
            ("kvservice.get.count", "count"),
            ("kvservice.get.host_ns", "ns"),
            ("kvservice.get.sim_ns", "sim_ns"),
            ("kvservice.put.count", "count"),
            ("kvservice.put.host_ns", "ns"),
            ("kvservice.put.sim_ns", "sim_ns"),
            ("kvservice.cas.host_ns", "ns"),
            ("kvservice.delete.host_ns", "ns"),
            ("kvservice.hit_ratio", "fraction"),
            ("context.barrier.count", "count"),
            ("context.barrier.host_ns", "ns"),
            ("context.barrier.sim_ns", "sim_ns"),
            ("context.write_faults", "count"),
            ("sync.lock_acquires", "count"),
            ("sync.local_share", "fraction"),
            ("sync.lock_transfers", "count"),
            ("engine.sync_messages", "count"),
            ("engine.data_messages", "count"),
            ("engine.bytes", "bytes"),
        ] {
            layer(m, unit);
        }
        if f == "ec" {
            layer("engine.ts_blocks_scanned", "count");
        } else {
            layer("engine.access_misses", "count");
            layer("engine.pages_invalidated", "count");
            layer("engine.write_notices", "count");
        }
        for (m, unit) in [
            ("mem.twin_words", "words"),
            ("mem.diff_words", "words"),
            ("mem.words_applied", "words"),
            ("mem.pool_hit_ratio", "fraction"),
            ("transport.frames_sent", "count"),
            ("transport.coalesced_share", "fraction"),
            ("transport.wire_bytes", "bytes"),
            ("transport.meta_share", "fraction"),
            ("transport.replicas_verified", "count"),
            ("runtime.setup_ns", "ns"),
            ("runtime.finish_ns", "ns"),
            ("runtime.run_self_ns", "ns"),
        ] {
            layer(m, unit);
        }
        for app in APP_SLUGS {
            layer(&format!("apps.{app}.wall_s"), "s");
            layer(&format!("apps.{app}.sim_s"), "sim_s");
        }
        for (m, unit) in [
            ("p999_us", "us"),
            ("max_us", "us"),
            ("samples", "count"),
            ("trace.overhead", "fraction"),
        ] {
            layer(m, unit);
        }
    }
    out
}

/// Metric values a workload measured, by name.  Names outside the catalogue
/// are a programming error and panic at [`Metrics::emit`].
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Looks up a recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `"metrics"` JSON object for `catalogue`: every catalogue metric
    /// in catalogue order, `0` for one this workload does not exercise.
    /// With `require_all`, a missing metric panics instead (end-to-end
    /// metrics must be measured on every workload).
    pub fn emit(&self, catalogue: &[(String, &'static str)], require_all: bool) -> String {
        for name in self.0.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if require_all => panic!("end-to-end metric {name} was not measured"),
                    None => 0.0,
                };
                assert!(value.is_finite(), "metric {name} is not finite");
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    value,
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `q`-quantile of `sorted` (ascending) by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0].into(),
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo].into() * (1.0 - frac) + sorted[hi].into() * frac
        }
    }
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Geometric mean of positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    per(num as f64, den as f64)
}

/// `num / den`, or 0 when `den` is 0 (nothing was measured).
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
