//! `perfbench` — the in-process half of the benchmark (`run.py` is the
//! driver).
//!
//! ```text
//! perfbench inproc --kind tdg|quis --dir D --train-rows N --train-seed S
//!     [--audit-rows M --audit-seed T] [--induce] [--no-detect]
//!     [--chunk-rows C] [--threads T] [--trace-out FILE]
//! perfbench load --addr HOST:PORT --model-name NAME --schema F --model M
//!     --pool CSV --seed S [--conns 2] [--seconds X] [--min-requests N]
//!     [--batch-rows 256] [--replay] [--passes N]
//!     [--mutate-response] [--trace-out FILE]
//! perfbench exec [--until-stdin-eof] -- PROGRAM ARGS…
//! perfbench ref
//! ```
//!
//! `inproc` repeats the `dq` stages a workload ran in `D` (generate into
//! `D/train` and `D/audit`, induce into `D/model.dqm`, detect into
//! `D/report.csv`) through the libraries, writes its own files under
//! `D/ref` and compares them byte for byte with `dq`'s; it scores the
//! report against the pollution log. Without `--induce` it audits with
//! `dq`'s model instead of inducing its own. `load` is the serve
//! workload's load generator (see `load.rs`). Both print one JSON
//! object and write their spans, one per line, to `--trace-out`. `exec`
//! runs one program and prints its wall time, CPU time and peak RSS
//! (`child.rs`). `ref` runs the fixed reference kernel once and prints
//! its CPU time (`reference.rs`).

mod child;
mod inproc;
mod load;
mod reference;
mod trace;

use dq_exec::Parallelism;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let (mut values, mut seen) = (HashMap::new(), Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("expected a flag, got `{arg}`"))?;
            if switches.contains(&key) {
                seen.push(key.to_string());
            } else {
                let value = it.next().ok_or_else(|| format!("`--{key}` needs a value"))?;
                values.insert(key.to_string(), value.clone());
            }
        }
        Ok(Args { values, switches: seen })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.values.get(key).map(String::as_str).ok_or_else(|| format!("missing `--{key}`"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(key) {
            Some(raw) => raw.parse().map_err(|_| format!("`--{key}`: cannot parse `{raw}`")),
            None => default.ok_or_else(|| format!("missing `--{key}`")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn json_obj(members: &[(String, String)]) -> String {
    let body: Vec<String> = members.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// The trace summary as JSON members: `spans` (name → [calls, total_s,
/// self_s]) and `counts`; spans go to `trace_out` when given.
fn trace_members(trace_out: Option<&str>) -> Result<Vec<(String, String)>, String> {
    let (summary, lines) = trace::finish();
    if let Some(path) = trace_out {
        std::fs::write(path, lines).map_err(|e| format!("{path}: {e}"))?;
    }
    let spans: Vec<(String, String)> = summary
        .spans
        .iter()
        .map(|(name, (calls, total, own))| (name.to_string(), format!("[{calls},{total},{own}]")))
        .collect();
    let counts: Vec<(String, String)> =
        summary.counts.iter().map(|(name, v)| (name.to_string(), v.to_string())).collect();
    Ok(vec![("spans".into(), json_obj(&spans)), ("counts".into(), json_obj(&counts))])
}

/// Byte-compare `ours` with `theirs`; a missing file is a mismatch.
fn same_bytes(ours: &Path, theirs: &Path) -> bool {
    match (std::fs::read(ours), std::fs::read(theirs)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

fn inproc_cmd(args: &Args) -> Result<String, String> {
    let kind = args.get("kind")?.to_string();
    let dir = PathBuf::from(args.get("dir")?);
    let reference = dir.join("ref");
    if reference.exists() {
        std::fs::remove_dir_all(&reference).map_err(|e| format!("{}: {e}", reference.display()))?;
    }
    let train_rows: usize = args.num("train-rows", None)?;
    let train_seed: u64 = args.num("train-seed", None)?;
    let chunk_rows: usize = args.num("chunk-rows", Some(4096))?;
    // `--threads` mirrors the flag the workload passed to `dq generate
    // tdg` and `dq detect`; without it both use every CPU.
    let threads = match args.values.get("threads") {
        Some(raw) => Parallelism::explicit(
            raw.parse().map_err(|_| format!("`--threads`: cannot parse `{raw}`"))?,
        ),
        None => Parallelism::AUTO,
    };
    let generate = |out: &Path, rows: usize, seed: u64| match kind.as_str() {
        "tdg" => inproc::generate_tdg(out, rows, seed, chunk_rows, threads),
        "quis" => inproc::generate_quis_files(out, rows, seed),
        other => Err(format!("unknown kind `{other}`")),
    };
    let mut mismatches: Vec<String> = Vec::new();
    let mut compare = |ours: &Path, theirs: &Path, name: &str| {
        if !same_bytes(ours, theirs) {
            mismatches.push(name.to_string());
        }
    };
    let mut stage_s: Vec<(String, String)> = Vec::new();
    let since = |t0: Instant| t0.elapsed().as_secs_f64().to_string();

    let t0 = Instant::now();
    let train = trace::span("stage.generate", || {
        generate(&reference.join("train"), train_rows, train_seed)
    })?;
    stage_s.push(("generate_train".into(), since(t0)));
    for file in ["dirty.csv", "clean.csv", "pollution-log.csv"] {
        compare(
            &reference.join("train").join(file),
            &dir.join("train").join(file),
            &format!("train/{file}"),
        );
    }
    let schema = inproc::load_schema(&reference.join("train").join("schema.dqs"))?;
    let model = if args.has("induce") {
        let t0 = Instant::now();
        let wall = trace::span("stage.induce", || {
            inproc::induce(
                &schema,
                &reference.join("train").join("dirty.csv"),
                &reference.join("model.dqm"),
            )
        })?;
        stage_s.push(("induce".into(), since(t0)));
        stage_s.push(("induce_proper".into(), wall.to_string()));
        compare(&reference.join("model.dqm"), &dir.join("model.dqm"), "model.dqm");
        reference.join("model.dqm")
    } else {
        dir.join("model.dqm")
    };

    let mut members: Vec<(String, String)> =
        vec![("train_rows".into(), train.dirty_rows.to_string())];
    let (log, audit_input) = match args.values.get("audit-rows") {
        Some(_) => {
            let rows: usize = args.num("audit-rows", None)?;
            let seed: u64 = args.num("audit-seed", None)?;
            let t0 = Instant::now();
            let audit =
                trace::span("stage.generate", || generate(&reference.join("audit"), rows, seed))?;
            stage_s.push(("generate_audit".into(), since(t0)));
            for file in ["dirty.csv", "clean.csv", "pollution-log.csv"] {
                compare(
                    &reference.join("audit").join(file),
                    &dir.join("audit").join(file),
                    &format!("audit/{file}"),
                );
            }
            members.push(("audit_rows".into(), audit.dirty_rows.to_string()));
            (audit.log, reference.join("audit").join("dirty.csv"))
        }
        None => {
            members.push(("audit_rows".into(), train.dirty_rows.to_string()));
            (train.log, reference.join("train").join("dirty.csv"))
        }
    };
    if !args.has("no-detect") {
        let t0 = Instant::now();
        let report = trace::span("stage.detect", || {
            inproc::detect(&schema, &model, &audit_input, &reference.join("report.csv"), threads)
        })?;
        stage_s.push(("detect".into(), since(t0)));
        compare(&reference.join("report.csv"), &dir.join("report.csv"), "report.csv");
        let t0 = Instant::now();
        let (sensitivity, specificity) = inproc::score(&log, &report);
        stage_s.push(("score".into(), since(t0)));
        members.push(("sensitivity".into(), sensitivity.to_string()));
        members.push(("specificity".into(), specificity.to_string()));
    }
    let listed: Vec<String> = mismatches.iter().map(|m| json_str(m)).collect();
    members.insert(0, ("ok".into(), mismatches.is_empty().to_string()));
    members.push(("mismatches".into(), format!("[{}]", listed.join(","))));
    members.push(("stage_s".into(), json_obj(&stage_s)));
    members.extend(trace_members(args.values.get("trace-out").map(String::as_str))?);
    Ok(json_obj(&members))
}

fn load_cmd(args: &Args) -> Result<String, String> {
    let opts = load::LoadOpts {
        addr: args.get("addr")?.to_string(),
        model_name: args.get("model-name")?.to_string(),
        schema: PathBuf::from(args.get("schema")?),
        model: PathBuf::from(args.get("model")?),
        pool: PathBuf::from(args.get("pool")?),
        seed: args.num("seed", None)?,
        conns: args.num("conns", Some(2))?,
        seconds: args.num("seconds", Some(10.0))?,
        min_requests: args.num("min-requests", Some(1000))?,
        batch_rows: args.num("batch-rows", Some(256))?,
        replay: args.has("replay"),
        passes: args.num("passes", Some(0))?,
        mutate_response: args.has("mutate-response"),
    };
    let mut members = load::run(&opts)?;
    members.extend(trace_members(args.values.get("trace-out").map(String::as_str))?);
    Ok(json_obj(&members))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "inproc" => {
            Args::parse(rest, &["induce", "no-detect"]).and_then(|a| inproc_cmd(&a))
        }
        Some((cmd, rest)) if cmd == "load" => {
            Args::parse(rest, &["replay", "mutate-response"]).and_then(|a| load_cmd(&a))
        }
        Some((cmd, rest)) if cmd == "exec" => {
            let until_eof = rest.first().is_some_and(|a| a == "--until-stdin-eof");
            let rest = &rest[usize::from(until_eof)..];
            match rest.split_first() {
                Some((dashes, argv)) if dashes == "--" => {
                    child::run(argv, until_eof).map(|m| json_obj(&m))
                }
                _ => Err("usage: perfbench exec [--until-stdin-eof] -- PROGRAM ARGS…".to_string()),
            }
        }
        Some((cmd, rest)) if cmd == "ref" && rest.is_empty() => {
            let (cpu_s, check) = reference::run();
            Ok(json_obj(&[
                ("cpu_s".into(), cpu_s.to_string()),
                ("check".into(), check.to_string()),
            ]))
        }
        _ => Err("usage: perfbench inproc|load|exec|ref … (see src/main.rs)".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
