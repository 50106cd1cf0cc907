//! The pipeline stages run in-process, through the layers' public
//! functions in the order the `dq` subcommands call them, with a span
//! around each call. Every stage writes the same files its subcommand
//! writes, so the caller can compare them byte for byte.

use crate::trace::{self, span};
use dq_core::{
    min_instances_for_confidence, AttrModel, AuditConfig, AuditEngine, AuditReport, Auditor,
    StructureModel,
};
use dq_eval::{score_detection, Baseline};
use dq_exec::{Parallelism, WorkerPool};
use dq_job::{fnv1a, CheckpointDir, CountingWriter, Journal, Watermark};
use dq_mining::{C45Inducer, InducerKind, Node, TableCache, TrainingSet};
use dq_pollute::{pollute, PolluteStream, PollutionConfig, PollutionLog, CELLS_CSV_HEADER};
use dq_quis::{generate_quis, QuisConfig};
use dq_table::{
    read_csv, render_schema, write_csv, BatchSource, CsvChunkReader, CsvWriter, Schema, Table,
    TableError,
};
use dq_tdg::{generate_rule_set, GenerateStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `dq generate tdg`'s rule count, and its streamed-path commit cadence
/// (`--checkpoint-every`).
const TDG_RULES: usize = 30;
const COMMIT_EVERY: usize = 16;
/// `dq detect`'s default `--chunk-rows`.
pub const DETECT_CHUNK_ROWS: usize = 4096;

pub type Res<T> = Result<T, String>;

fn io<E: std::fmt::Display>(path: &Path) -> impl Fn(E) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn write_file(path: &Path, text: &str) -> Res<()> {
    std::fs::write(path, text).map_err(io(path))?;
    trace::count("table.bytes_written", text.len() as f64);
    Ok(())
}

fn create(path: &Path) -> Res<File> {
    File::create(path).map_err(io(path))
}

/// What a generate stage leaves behind for scoring.
pub struct Generated {
    pub log: PollutionLog,
    pub dirty_rows: usize,
}

/// A pass-through source that writes every batch to the clean CSV — the
/// one-pass clean/dirty split of the streamed `dq generate tdg`.
struct TeeCsv {
    inner: GenerateStream,
    writer: CsvWriter<CountingWriter<File>>,
}

impl BatchSource for TeeCsv {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        let batch = span("tdg.rows", || self.inner.next_batch())?;
        if let Some(batch) = &batch {
            span("table.csv_encode", || self.writer.write_batch(batch))?;
        }
        Ok(batch)
    }

    fn rows_emitted(&self) -> usize {
        self.inner.rows_emitted()
    }

    fn row_count_hint(&self) -> Option<usize> {
        self.inner.row_count_hint()
    }
}

/// `dq generate tdg --rows N --seed S --stream-chunk-rows C --checkpoint
/// OUT/ck [--threads T]`: rule generation, then generator → clean tee →
/// pollution → dirty CSV in one pass, with a journal commit every 16
/// batches.
pub fn generate_tdg(
    out: &Path,
    rows: usize,
    seed: u64,
    chunk_rows: usize,
    threads: Parallelism,
) -> Res<Generated> {
    std::fs::create_dir_all(out).map_err(io(out))?;
    let mut env = Baseline::new(seed).environment(TDG_RULES, rows, 1.0);
    env.generator.data.threads = threads;
    let schema = env.generator.schema.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let (rules, _) =
        span("tdg.rules", || generate_rule_set(&schema, &env.generator.rules, &mut rng));
    let fingerprint: String = [
        ("stage", "generate tdg".to_string()),
        ("rows", rows.to_string()),
        ("rules", TDG_RULES.to_string()),
        ("seed", seed.to_string()),
        ("factor", 1.0f64.to_string()),
        ("chunk-rows", chunk_rows.to_string()),
        ("paged", false.to_string()),
    ]
    .iter()
    .map(|(k, v)| format!("{k}={v}\n"))
    .collect();
    let ck_dir = out.join("ck");
    let mut ckpt = CheckpointDir::create(&ck_dir).map_err(|e| e.to_string())?;

    write_file(&out.join("schema.dqs"), &render_schema(&schema).map_err(|e| e.to_string())?)?;
    let rules_text: String = rules.iter().map(|r| r.render(&schema) + "\n").collect();
    write_file(&out.join("rules.txt"), &rules_text)?;

    let generator = span("tdg.rows", || {
        GenerateStream::new(schema.clone(), rules.clone(), env.generator.data.clone(), &mut rng)
            .with_batch_rows(chunk_rows)
    });
    let prng = StdRng::from_state(rng.state());
    let (clean_path, dirty_path, log_path) =
        (out.join("clean.csv"), out.join("dirty.csv"), out.join("pollution-log.csv"));
    let counting =
        |path: &Path| -> Res<CountingWriter<File>> { Ok(CountingWriter::new(create(path)?, 0)) };
    let clean_writer =
        CsvWriter::new(schema.clone(), counting(&clean_path)?).map_err(io(&clean_path))?;
    let mut dirty_writer =
        CsvWriter::new(schema.clone(), counting(&dirty_path)?).map_err(io(&dirty_path))?;
    let mut log_out = counting(&log_path)?;
    log_out.write_all(CELLS_CSV_HEADER.as_bytes()).map_err(io(&log_path))?;

    let tee = TeeCsv { inner: generator, writer: clean_writer };
    let mut stream = PolluteStream::resume(tee, env.pollution.clone(), prng, 0, 0);
    let mut journal = Journal::new("generate", fnv1a(fingerprint.as_bytes()), schema.fingerprint());
    let mut commit = |stream: &mut PolluteStream<TeeCsv, StdRng>,
                      dirty: &mut CsvWriter<CountingWriter<File>>,
                      log_out: &mut CountingWriter<File>,
                      done: bool|
     -> Res<()> {
        span("job.commit", || {
            stream.source_mut().writer.flush().map_err(io(&clean_path))?;
            dirty.flush().map_err(io(&dirty_path))?;
            log_out.flush().map_err(io(&log_path))?;
            journal.cursor_rows = stream.clean_rows_seen() as u64;
            journal.rng = Some(stream.rng().state());
            journal.set_counter("dirty_rows", stream.rows_emitted() as u64);
            journal.set_counter("corrupted_rows", stream.log().n_corrupted_rows() as u64);
            let clean_bytes = stream.source_mut().writer.get_ref().count();
            journal.set_output("clean.csv", Watermark::Bytes(clean_bytes));
            journal.set_output("dirty.csv", Watermark::Bytes(dirty.get_ref().count()));
            journal.set_output("pollution-log.csv", Watermark::Bytes(log_out.count()));
            journal.done = done;
            ckpt.save(&journal).map_err(|e| e.to_string())
        })?;
        trace::count("job.commits", 1.0);
        Ok(())
    };

    commit(&mut stream, &mut dirty_writer, &mut log_out, false)?;
    let mut cells_rendered = 0usize;
    let mut since_commit = 0usize;
    let mut cells = String::new();
    while let Some(batch) = span("pollute", || stream.next_batch()).map_err(io(&clean_path))? {
        span("table.csv_encode", || dirty_writer.write_batch(&batch)).map_err(io(&dirty_path))?;
        span("pollute", || {
            cells.clear();
            stream.log().render_cells_csv(&schema, cells_rendered, &mut cells);
            cells_rendered = stream.log().cells.len();
            log_out.write_all(cells.as_bytes())
        })
        .map_err(io(&log_path))?;
        since_commit += 1;
        if since_commit >= COMMIT_EVERY {
            commit(&mut stream, &mut dirty_writer, &mut log_out, false)?;
            since_commit = 0;
        }
    }
    commit(&mut stream, &mut dirty_writer, &mut log_out, true)?;
    let written = dirty_writer.get_ref().count()
        + stream.source_mut().writer.get_ref().count()
        + log_out.count();
    trace::count("table.bytes_written", written as f64);
    let dirty_rows = stream.rows_emitted();
    let (tee, log) = stream.into_parts();
    dirty_writer.finish().map_err(io(&dirty_path))?;
    tee.writer.finish().map_err(io(&clean_path))?;
    trace::count("pollute.cells", log.cells.len() as f64);
    Ok(Generated { log, dirty_rows })
}

/// `dq generate quis --rows N --seed S`. `generate_quis` pollutes the
/// clean table it draws as its last step; running it with an empty
/// pollution suite and then [`pollute`] with the standard one walks
/// the same RNG stream, so the clean draw and the pollution pass get
/// spans of their own and the files stay byte-identical.
pub fn generate_quis_files(out: &Path, rows: usize, seed: u64) -> Res<Generated> {
    std::fs::create_dir_all(out).map_err(io(out))?;
    let config = QuisConfig::default().with_rows(rows);
    let clean_only = QuisConfig {
        n_rows: rows,
        pollution: PollutionConfig { steps: Vec::new(), factor: config.pollution.factor },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = span("quis.generate", || generate_quis(&clean_only, &mut rng).clean);
    let (dirty, log) = span("pollute", || pollute(&clean, &config.pollution, &mut rng));

    let schema = clean.schema().clone();
    write_file(&out.join("schema.dqs"), &render_schema(&schema).map_err(|e| e.to_string())?)?;
    for (table, name) in [(&clean, "clean.csv"), (&dirty, "dirty.csv")] {
        let path = out.join(name);
        let file = create(&path)?;
        span("table.csv_encode", || write_csv(table, file)).map_err(io(&path))?;
        trace::count("table.bytes_written", path.metadata().map_err(io(&path))?.len() as f64);
    }
    let mut text = String::from(CELLS_CSV_HEADER);
    span("pollute", || log.render_cells_csv(&schema, 0, &mut text));
    write_file(&out.join("pollution-log.csv"), &text)?;
    trace::count("pollute.cells", log.cells.len() as f64);
    Ok(Generated { dirty_rows: dirty.n_rows(), log })
}

/// Load a `.dqs` schema file.
pub fn load_schema(path: &Path) -> Res<Arc<Schema>> {
    let file = File::open(path).map_err(io(path))?;
    dq_table::read_schema(BufReader::new(file)).map_err(io(path))
}

fn count_tree(node: &Node, nodes: &mut usize, leaves: &mut usize, enabled: &mut usize) {
    *nodes += 1;
    match node {
        Node::Leaf { enabled: on, .. } => {
            *leaves += 1;
            *enabled += usize::from(*on);
        }
        Node::Split { children, .. } => {
            for child in children {
                count_tree(child, nodes, leaves, enabled);
            }
        }
    }
}

/// Per-attribute timings measured on a pool thread.
struct AttrTimes {
    start: Instant,
    grown: Instant,
    filtered: Instant,
    lowered: Instant,
    end: Instant,
}

/// `dq induce --schema S --input IN --model OUT`: `read_csv`, then
/// `Auditor::induce` taken apart — `TableCache::build`, one
/// `C45Inducer::induce_tree_cached` per attribute across the worker
/// pool, `disable_undetecting_leaves`, `to_rules` — and the model save.
/// Returns the wall seconds of the induction proper (presort to the
/// assembled model). A `mining.grow` span covers one attribute's
/// training-set materialization and tree growth.
pub fn induce(schema: &Arc<Schema>, input: &Path, model_out: &Path) -> Res<f64> {
    let file = File::open(input).map_err(io(input))?;
    trace::count("table.bytes_read", file.metadata().map_err(io(input))?.len() as f64);
    let table = span("table.csv_decode", || read_csv(schema.clone(), BufReader::new(file)))
        .map_err(io(input))?;
    trace::count("table.batches", 1.0);
    let config = AuditConfig { threads: Parallelism::AUTO, ..AuditConfig::default() };
    let InducerKind::C45(c45) = &config.inducer else {
        return Err("the default inducer is C4.5".to_string());
    };
    let min_inst = min_instances_for_confidence(config.min_confidence, config.level) as f64;
    let mut c45 = c45.clone();
    c45.level = config.level;
    c45.min_inst = min_inst;
    let inducer = C45Inducer::new(c45);

    let t0 = Instant::now();
    let induce_span = trace::begin("core.induce");
    let cache = span("mining.presort", || TableCache::build(&table));
    let pool = WorkerPool::from_config(config.threads);
    let attrs: Vec<usize> = (0..table.n_cols()).collect();
    let results =
        pool.map_indexed(&attrs, |_, &class_attr| -> Res<(AttrModel, AttrTimes, [usize; 3])> {
            let start = Instant::now();
            let train =
                TrainingSet::full(&table, class_attr, config.bins).map_err(|e| e.to_string())?;
            let mut tree = inducer.induce_tree_cached(&train, &cache).map_err(|e| e.to_string())?;
            let grown = Instant::now();
            let deleted = tree.disable_undetecting_leaves(config.min_confidence);
            let filtered = Instant::now();
            let rules = tree.to_rules();
            let lowered = Instant::now();
            let mut nodes = 0;
            let (mut leaves, mut enabled) = (0, 0);
            count_tree(tree.root(), &mut nodes, &mut leaves, &mut enabled);
            let model =
                AttrModel::new(class_attr, train.spec.clone(), Box::new(tree), rules, deleted);
            let end = Instant::now();
            Ok((
                model,
                AttrTimes { start, grown, filtered, lowered, end },
                [nodes, leaves, enabled],
            ))
        });
    let mut models = Vec::with_capacity(results.len());
    let mut grow_total = 0.0;
    let mut grow_max = 0.0f64;
    for result in results {
        let (model, t, [nodes, leaves, enabled]) = result?;
        trace::count("mining.nodes", nodes as f64);
        trace::count("mining.leaves", leaves as f64);
        trace::count("mining.enabled_leaves", enabled as f64);
        trace::record("mining.grow", t.start, t.grown);
        trace::record("mining.leaf_filter", t.grown, t.filtered);
        trace::record("mining.lower", t.filtered, t.lowered);
        trace::record("mining.flatten", t.lowered, t.end);
        let grow = t.grown.duration_since(t.start).as_secs_f64();
        grow_total += grow;
        grow_max = grow_max.max(grow);
        trace::count("mining.rules", model.rules.len() as f64);
        models.push(model);
    }
    // `StructureModel` keeps its configuration private to `dq_core`;
    // a model induced from a few rows by the same auditor carries that
    // configuration, and the induced per-attribute models replace its
    // own.
    let mut model = span("core.model_shell", || {
        let head = table.slice_rows(0, table.n_rows().min(256)).map_err(|e| e.to_string())?;
        Auditor::new(config.clone()).induce(&head).map_err(|e| e.to_string())
    })?;
    model.models = models;
    model.min_inst = min_inst;
    trace::end(induce_span);
    let wall = t0.elapsed().as_secs_f64();
    let workers = pool.threads() as f64;
    trace::count("exec.grow_s", grow_total);
    trace::count("exec.grow_max_s", grow_max);
    trace::count("exec.induce_wall_s", wall);
    trace::count("exec.workers", workers);
    span("core.model_save", || model.save_to_path(schema, model_out)).map_err(|e| e.to_string())?;
    Ok(wall)
}

/// `dq detect --schema S --model M --input IN --report OUT [--threads T]`:
/// model load,
/// then `CsvChunkReader` batches through `AuditEngine::scan_batch`,
/// `report_from_parts` and `AuditReport::to_csv`.
pub fn detect(
    schema: &Arc<Schema>,
    model: &Path,
    input: &Path,
    report_out: &Path,
    threads: Parallelism,
) -> Res<AuditReport> {
    let model = span("core.model_load", || StructureModel::load_from_path(schema, model))
        .map_err(io(model))?;
    let engine =
        span("core.compile", || AuditEngine::new(model, schema.clone()).with_threads(threads));
    let file = File::open(input).map_err(io(input))?;
    trace::count("table.bytes_read", file.metadata().map_err(io(input))?.len() as f64);
    let mut reader = CsvChunkReader::new(schema.clone(), BufReader::new(file), DETECT_CHUNK_ROWS)
        .map_err(io(input))?;
    let (mut findings, mut confidences) = (Vec::new(), Vec::new());
    while let Some(batch) = span("table.csv_decode", || reader.next_batch()).map_err(io(input))? {
        trace::count("table.batches", 1.0);
        let (f, c) = span("core.scan", || engine.scan_batch(&batch, confidences.len()));
        findings.extend(f);
        confidences.extend(c);
    }
    let report = span("core.merge", || engine.report_from_parts(findings, confidences));
    let text = span("core.render", || report.to_csv(schema));
    write_file(report_out, &text)?;
    trace::count("core.findings", report.findings.len() as f64);
    trace::count("core.suspicious_rows", report.n_suspicious() as f64);
    Ok(report)
}

/// `dq_eval::score_detection` against the pollution log:
/// (sensitivity, specificity).
pub fn score(log: &PollutionLog, report: &AuditReport) -> (f64, f64) {
    let m = span("eval.score", || score_detection(log, report));
    (m.sensitivity().unwrap_or(0.0), m.specificity().unwrap_or(0.0))
}
