//! The benchmark's contract: its metrics with unit, direction and regression bound.
//! `BENCHMARK.json` at the repository root is this table rendered by
//! `benchmark --print-manifest`; a test keeps the two identical.

use crate::host::json_string;
use crate::spec::Workload;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// A metric a user of the system would see. `bound` is the share of the parent's
/// median by which it may get worse before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these, measured with tracing off.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("iter_top_ms", "ms", "lower", 0.25),
    e2e("decorr_top_ms", "ms", "lower", 0.25),
    e2e("auto_top_ms", "ms", "lower", 0.25),
    e2e("auto_low_ms", "ms", "lower", 0.25),
    e2e("speedup_top", "x", "higher", 0.20),
    e2e("auto_vs_best", "x", "lower", 0.15),
    e2e("write_ms", "ms", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// A metric of one layer (a crate), from the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Unit `count` marks a value that must repeat exactly on a single-client workload.
pub const PER_LAYER: &[PerLayer] = &[
    layer("parser.lex_us", "us", "lower"),
    layer("parser.parse_us", "us", "lower"),
    layer("parser.plan_us", "us", "lower"),
    layer("parser.udf_parse_us", "us", "lower"),
    layer("optimizer.normalize_us", "us", "lower"),
    layer("optimizer.strategy_us", "us", "lower"),
    layer("optimizer.cache_hit_us", "us", "lower"),
    layer("optimizer.rule_fires", "count", "lower"),
    layer("optimizer.plan_cache_hit_rate", "ratio", "higher"),
    layer("optimizer.picked_faster_frac", "ratio", "higher"),
    layer("optimizer.crossover_invocations", "invocations", "lower"),
    layer("optimizer.auto_switch_invocations", "invocations", "lower"),
    layer("rewrite.pipeline_us", "us", "lower"),
    layer("rewrite.merged_calls", "count", "higher"),
    layer("rewrite.aux_aggregates", "count", "lower"),
    layer("analysis.validate_us", "us", "lower"),
    layer("exec.iter_execute_ms", "ms", "lower"),
    layer("exec.decorr_execute_ms", "ms", "lower"),
    layer("exec.scan_filter_ms", "ms", "lower"),
    layer("exec.udf_call_us", "us", "lower"),
    layer("exec.decorr_par_execute_ms", "ms", "lower"),
    layer("exec.memo_hit_rate", "ratio", "higher"),
    layer("exec.iter.rows_scanned", "count", "lower"),
    layer("exec.iter.index_lookups", "count", "lower"),
    layer("exec.iter.udf_invocations", "count", "lower"),
    layer("exec.iter.hash_joins", "count", "lower"),
    layer("exec.iter.subqueries_executed", "count", "lower"),
    layer("exec.decorr.rows_scanned", "count", "lower"),
    layer("exec.decorr.index_lookups", "count", "lower"),
    layer("exec.decorr.udf_invocations", "count", "lower"),
    layer("exec.decorr.hash_joins", "count", "lower"),
    layer("exec.decorr.subqueries_executed", "count", "lower"),
    layer("storage.scan_mrows_s", "Mrows/s", "higher"),
    layer("storage.index_lookup_ns", "ns", "lower"),
    layer("storage.insert_us", "us", "lower"),
    layer("storage.analyze_ms", "ms", "lower"),
    layer("storage.load_s", "s", "lower"),
    layer("storage.index_build_s", "s", "lower"),
    layer("persist.wal_append_us", "us", "lower"),
    layer("persist.wal_bytes_per_row", "bytes", "lower"),
    layer("persist.checkpoint_ms", "ms", "lower"),
    layer("persist.snapshot_bytes_per_row", "bytes", "lower"),
    layer("persist.restore_ms", "ms", "lower"),
    layer("persist.replayed_records", "records", "lower"),
    layer("engine.query_overhead_us", "us", "lower"),
    layer("engine.register_udf_us", "us", "lower"),
    layer("trace.span_count", "spans", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("host.cores", "count", "higher"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.map(json_string).join(", "),
        list(Workload::ALL
            .iter()
            .map(|w| format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            ))
            .collect()),
        list(END_TO_END
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            ))
            .collect()),
        list(PER_LAYER
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            ))
            .collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark --print-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
