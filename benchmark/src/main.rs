//! The repository's benchmark. See `README.md` beside this package's manifest.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark [--sets N] [--seed N] [--seconds S] [--smoke]      # every workload
//! benchmark --print-manifest                                    # BENCHMARK.json
//! ```
//!
//! A single-workload run prints one `name<TAB>value<TAB>unit` line per metric and, as
//! its last line, the JSON object the driver reads. Without `--workload` the binary
//! runs every workload, untraced then traced, each in a process of its own.

mod host;
mod layers;
mod manifest;
mod oracle;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use host::{json_string, Fingerprint};
use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{Samples, SessionRunner};
use spec::{Spec, Workload};

/// Set-ups per run, at least and at most; `setup_s` is their median. A cheap set-up
/// is repeated beyond the minimum while the repetitions fit in `SETUP_BUDGET`, because
/// the median of three 80 ms set-ups moves with every hiccup of the host.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_BUDGET: Duration = Duration::from_secs(3);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        sets: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--sets" => {
                args.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && args.seconds == RUN_SECONDS as f64 {
        args.seconds = 0.05;
    }
    if args.sets == 0 || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--sets and --seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--print-manifest") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args().and_then(|args| match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_suite(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Scratch space inside the checkout: Cargo's target directory, which the driver
/// points at `.bench_build`.
fn work_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in this process and prints its metrics. `Ok(false)` means the
/// run completed but an op failed or returned a wrong answer.
fn run_workload(workload: Workload, args: &Args) -> Result<bool, String> {
    let spec = Spec::new(workload, args.seed, args.smoke);
    let io = |e: std::io::Error| format!("scratch directory: {e}");
    let scratch = Scratch(work_dir().join(format!("{}-{}", workload.name(), std::process::id())));
    println!(
        "# workload={} seed={} seconds={} trace={} host_cores={} {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::host_cores(),
        spec.scale()
    );

    // Set-up, several times over: load + index + ANALYZE + UDFs, then one warm-up
    // round. The oracle's expected answers are built once, outside the timing.
    let mut setup_s = vec![];
    let mut loaded = None;
    let mut classes = vec![];
    let mut samples = Samples::new(0);
    let mut data_dir = PathBuf::new();
    let setting_up = Instant::now();
    let mut rep = 0;
    while rep < SETUP_REPS.0 || (rep < SETUP_REPS.1 && setting_up.elapsed() < SETUP_BUDGET) {
        drop(loaded.take());
        data_dir = scratch.0.join(format!("setup-{rep}"));
        fs::create_dir_all(&data_dir).map_err(io)?;
        let start = Instant::now();
        let engine = run::load(&spec, &data_dir);
        let mut elapsed = start.elapsed();
        if rep == 0 {
            classes = spec.classes(&oracle::Facts::read(&engine.catalog()));
            samples = Samples::new(classes.len());
        }
        let mut warm_up = Samples::new(classes.len());
        let start = Instant::now();
        run::round(
            &engine,
            &spec,
            &classes,
            &mut SessionRunner {
                exec_config: run::exec_override(&spec),
            },
            &mut warm_up,
        );
        elapsed += start.elapsed();
        setup_s.push(elapsed.as_secs_f64());
        // Warm-up answers are checked like any other, but their latencies are not kept.
        samples.ops += warm_up.ops;
        samples.failed += warm_up.failed;
        samples.errors.extend(warm_up.errors);
        loaded = Some(engine);
        rep += 1;
    }
    let engine = loaded.expect("at least one set-up");

    let deadline = |seconds: f64| Instant::now() + Duration::from_secs_f64(seconds);
    let serving = spec.durable;
    let mut acknowledged = 0;
    let mut metrics: Vec<layers::Metric> = vec![];
    let mut spans = vec![];
    if args.trace {
        // The serving mix first, for a third of the time, so the shared caches and the
        // WAL have seen the writes the per-layer rates and sizes are about.
        let mut traced_seconds = args.seconds;
        if serving {
            let (served, inserted) =
                run::serve(&engine, &spec, &classes, deadline(args.seconds / 3.0));
            samples.merge(served);
            acknowledged = inserted;
            traced_seconds -= args.seconds / 3.0;
        }
        let traced = layers::traced_run(
            &spec,
            &engine,
            &classes,
            deadline(traced_seconds),
            &scratch.0.join("probe-wal"),
        );
        samples.merge(traced.samples);
        acknowledged += traced.probe_inserts;
        metrics = traced.metrics;
        spans = traced.spans;
    } else {
        if serving {
            let (served, inserted) = run::serve(&engine, &spec, &classes, deadline(args.seconds));
            samples.merge(served);
            acknowledged = inserted;
        } else {
            let mut runner = SessionRunner {
                exec_config: run::exec_override(&spec),
            };
            run::sweep(
                &engine,
                &spec,
                &classes,
                &mut runner,
                deadline(args.seconds),
                &mut samples,
            );
            run::write_tail(&engine, &spec, &mut samples);
        }
        run::print_sweep(&classes, &samples);
        metrics.push(("setup_s".into(), stats::median(&setup_s), "s"));
        for (name, value) in run::end_to_end(&spec, &classes, &samples) {
            let unit = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("declared metric")
                .unit;
            metrics.push((name.into(), value, unit));
        }
    }

    // Durability: with the writing engine gone, everything acknowledged must be there.
    drop(engine);
    let mut reopened = run::Reopened::default();
    if spec.durable {
        match run::reopen(&data_dir, acknowledged) {
            Ok(result) => reopened = result,
            Err(what) => samples.fail(what),
        }
        if reopened.missing > 0 {
            samples.failed += reopened.missing;
            samples.errors.push(format!(
                "{} acknowledged inserts missing after reopen",
                reopened.missing
            ));
        }
    }
    if args.trace {
        metrics.push(("persist.restore_ms".into(), reopened.restore_ms, "ms"));
        metrics.push((
            "persist.replayed_records".into(),
            reopened.replayed_records as f64,
            "records",
        ));
        let path = work_dir().join(format!("trace-{}.json", workload.name()));
        let document = format!(
            "{{\"workload\":{},\"seed\":{},\"scale\":{},\"clients\":{},\"fingerprint\":{},\"spans\":{}}}\n",
            json_string(workload.name()),
            args.seed,
            json_string(&spec.scale()),
            spec.clients,
            Fingerprint::read().json(),
            trace::spans_json(&spans)
        );
        fs::write(&path, document).map_err(|e| format!("{}: {e}", path.display()))?;
        // Where the traced time went: each span's duration minus its children's.
        let self_times = trace::self_times(&spans);
        let total: u64 = self_times.values().sum();
        for (name, ns) in self_times {
            eprintln!(
                "self time {name:<20} {:>10.3} ms {:>5.1} %",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / total.max(1) as f64
            );
        }
    } else {
        let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
    }

    // Every declared metric, in the declared order, and nothing else.
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut rendered = vec![];
    for name in &declared {
        let (_, value, unit) = metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        println!("{name}\t{value}\t{unit}");
        rendered.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    if metrics.len() != declared.len() {
        return Err("a measured metric is missing from the manifest".into());
    }
    for error in &samples.errors {
        eprintln!("benchmark: {}: {error}", workload.name());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.failed == 0,
        samples.ops,
        samples.failed,
        rendered.join(", ")
    );
    Ok(samples.failed == 0)
}

/// One child run's metrics, by name.
type Values = BTreeMap<String, (f64, String)>;

/// Runs `workload` in a process of its own and parses its metric lines.
fn run_child(workload: Workload, args: &Args, trace: bool) -> Result<(Values, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed: {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    let mut values = Values::new();
    let mut host_cores = 0;
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            host_cores = header
                .split_whitespace()
                .find_map(|field| field.strip_prefix("host_cores="))
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if let [name, value, unit] = fields[..] {
            let value = value.parse().map_err(|e| format!("{name}: {e}"))?;
            values.insert(name.to_string(), (value, unit.to_string()));
        }
    }
    Ok((values, host_cores))
}

/// Runs every workload `args.sets` times, prints one row per (workload, metric) and
/// writes `results.json`. With two or more sets, `Ok(false)` means the sets disagree.
fn run_suite(args: &Args) -> Result<bool, String> {
    let fingerprint = Fingerprint::read();
    // values[workload][metric] = one value per set
    let mut table: Vec<BTreeMap<String, (Vec<f64>, String)>> =
        vec![BTreeMap::new(); Workload::ALL.len()];
    for set in 0..args.sets {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for trace in [false, true] {
                let start = Instant::now();
                let (values, host_cores) = run_child(workload, args, trace)?;
                eprintln!(
                    "set {} {} trace {}: {:.1} s",
                    set + 1,
                    workload.name(),
                    u8::from(trace),
                    start.elapsed().as_secs_f64()
                );
                // Numbers from different host classes are never compared.
                if host_cores != fingerprint.host_cores {
                    return Err(format!(
                        "{} ran on {host_cores} cores, the suite on {}: refusing to compare",
                        workload.name(),
                        fingerprint.host_cores
                    ));
                }
                for (name, (value, unit)) in values {
                    table[w].entry(name).or_insert((vec![], unit)).0.push(value);
                }
            }
        }
    }

    let mut agree = true;
    let mut rows = vec![];
    println!(
        "{:<14} {:<36} {:<12} values per set (relative spread)",
        "workload", "metric", "unit"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let single_client = Spec::new(workload, args.seed, args.smoke).clients == 1;
        let declared = END_TO_END
            .iter()
            .map(|m| (m.name, Some(m.bound)))
            .chain(PER_LAYER.iter().map(|m| (m.name, None)));
        for (name, bound) in declared {
            let (values, unit) = table[w]
                .get(name)
                .ok_or(format!("{}: no {name}", workload.name()))?;
            let spread = stats::relative_spread(values);
            let verdict = match bound {
                _ if values.len() < 2 => "",
                Some(bound) if spread > bound => "DISAGREES",
                None if unit == "count" && single_client && spread > 0.0 => "DIFFERS",
                _ => "",
            };
            agree &= verdict.is_empty();
            let rendered: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<14} {:<36} {:<12} {} ({:.1} %) {verdict}",
                workload.name(),
                name,
                unit,
                rendered.join("  "),
                spread * 100.0
            );
            rows.push(format!(
                "{{\"workload\":{},\"metric\":{},\"unit\":{},\"values\":[{}]}}",
                json_string(workload.name()),
                json_string(name),
                json_string(unit),
                values
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
    }
    let scales: Vec<String> = Workload::ALL
        .into_iter()
        .map(|w| {
            format!(
                "{}:{}",
                json_string(w.name()),
                json_string(&Spec::new(w, args.seed, args.smoke).scale())
            )
        })
        .collect();
    write_results(
        &work_dir(),
        &format!(
            "{{\"fingerprint\":{},\"seed\":{},\"seconds\":{},\"sets\":{},\"scale\":{{{}}},\"results\":[\n{}\n]}}\n",
            fingerprint.json(),
            args.seed,
            args.seconds,
            args.sets,
            scales.join(","),
            rows.join(",\n")
        ),
    )?;
    Ok(agree)
}

fn write_results(dir: &Path, document: &str) -> Result<(), String> {
    let path = dir.join("results.json");
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, document))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(())
}
