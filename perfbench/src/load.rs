//! The closed-loop load generator for `dq serve`, and the in-process
//! replay of the requests it sent.
//!
//! Each connection is one thread with one keep-alive socket
//! (`TCP_NODELAY` set, every request sent with a single write); it sends
//! its next request only after the previous response is read in full.
//! Every response body is compared with what an in-process
//! [`AuditEngine`] answers for the same body.

use crate::inproc::{load_schema, Res};
use crate::reference;
use crate::trace::{self, span};
use dq_core::{AuditEngine, AuditReport, StructureModel};
use dq_serve::http;
use dq_table::{BatchSource, CsvChunkReader, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `ServeConfig::default()`'s stream chunk and body limit.
const SERVE_CHUNK_ROWS: usize = 4096;
const MAX_BODY: usize = 64 << 20;
/// Distinct request bodies; connections cycle through them.
const TEMPLATES: usize = 512;
/// Share of requests that carry a single record; the rest are batches.
/// No traffic mix is known for the audit routes, so this is an assumed
/// mix: equal shares give the record and the batch path the same number
/// of latency samples. Each path's latency and throughput are also
/// reported on their own (`record_*`, `batch_*`), and those do not
/// depend on the share.
const RECORD_SHARE: f64 = 0.5;

pub struct LoadOpts {
    pub addr: String,
    pub model_name: String,
    pub schema: PathBuf,
    pub model: PathBuf,
    pub pool: PathBuf,
    pub seed: u64,
    pub conns: usize,
    pub seconds: f64,
    pub min_requests: usize,
    pub batch_rows: usize,
    pub replay: bool,
    /// Untraced passes of the server's request path over the requests
    /// sent, each between two runs of the reference kernel.
    pub passes: usize,
    /// Flip one byte of the first response on connection 0 before it
    /// is compared (the self-test of the comparison).
    pub mutate_response: bool,
}

struct Template {
    batch: bool,
    rows: usize,
    body: String,
    request: Vec<u8>,
    expected: Vec<u8>,
}

#[derive(Default)]
struct ConnStats {
    /// (template index, latency seconds, answered 200 with the expected body)
    sent: Vec<(usize, f64, bool)>,
    shed_503: usize,
    other_status: usize,
    timeouts: usize,
    io_errors: usize,
    mismatches: usize,
    rows: usize,
}

/// Audit one body the way the server's `/record` and `/batch` routes
/// do, decomposed into CSV decode, scan, merge and render spans.
fn audit_body(engine: &AuditEngine, batch: bool, body: &str) -> Res<String> {
    let names: Vec<&str> = engine.schema().attributes().iter().map(|a| a.name.as_str()).collect();
    let (csv, chunk_rows) = if batch {
        (format!("{}\n{}", names.join(","), body), SERVE_CHUNK_ROWS)
    } else {
        (format!("{}\n{}\n", names.join(","), body.trim_end_matches(['\r', '\n'])), 1)
    };
    let mut reader = CsvChunkReader::new(engine.schema().clone(), csv.as_bytes(), chunk_rows)
        .map_err(|e| e.to_string())?;
    let (mut findings, mut confidences) = (Vec::new(), Vec::new());
    while let Some(b) =
        span("table.csv_decode", || reader.next_batch()).map_err(|e| e.to_string())?
    {
        trace::count("table.batches", 1.0);
        let (f, c) = span("core.scan", || engine.scan_batch(&b, confidences.len()));
        findings.extend(f);
        confidences.extend(c);
    }
    let report: AuditReport =
        span("core.merge", || engine.report_from_parts(findings, confidences));
    trace::count("core.findings", report.findings.len() as f64);
    trace::count("core.suspicious_rows", report.n_suspicious() as f64);
    Ok(span("core.render", || report.to_csv(engine.schema())))
}

/// The reference answer: the engine's own `/record` and `/batch` entry
/// points, as the server calls them.
fn expected_body(engine: &AuditEngine, batch: bool, body: &str) -> Res<String> {
    let report = if batch {
        let names: Vec<&str> =
            engine.schema().attributes().iter().map(|a| a.name.as_str()).collect();
        let csv = format!("{}\n{}", names.join(","), body);
        engine.detect_csv(csv.as_bytes(), SERVE_CHUNK_ROWS)
    } else {
        engine.detect_record_csv(body.trim_end_matches(['\r', '\n']))
    };
    Ok(report.map_err(|e| e.to_string())?.to_csv(engine.schema()))
}

/// The engine `dq serve` makes resident, and the seeded request mix.
fn templates(opts: &LoadOpts) -> Res<(AuditEngine, Vec<Template>)> {
    let schema: Arc<Schema> = load_schema(&opts.schema)?;
    let model = span("core.model_load", || StructureModel::load_from_path(&schema, &opts.model))
        .map_err(|e| format!("{}: {e}", opts.model.display()))?;
    let engine = span("core.compile", || AuditEngine::new(model, schema.clone()));
    let text =
        std::fs::read_to_string(&opts.pool).map_err(|e| format!("{}: {e}", opts.pool.display()))?;
    let lines: Vec<&str> = text.lines().skip(1).collect();
    if lines.len() < opts.batch_rows.max(1) {
        return Err(format!("{}: fewer rows than one batch", opts.pool.display()));
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut out = Vec::with_capacity(TEMPLATES);
    for _ in 0..TEMPLATES {
        let batch = rng.gen::<f64>() >= RECORD_SHARE;
        let (body, rows) = if batch {
            let start = rng.gen_range(0..=lines.len() - opts.batch_rows);
            (lines[start..start + opts.batch_rows].join("\n") + "\n", opts.batch_rows)
        } else {
            (lines[rng.gen_range(0..lines.len())].to_string(), 1)
        };
        let route = if batch { "batch" } else { "record" };
        let mut request = format!(
            "POST /audit/{}/{route} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            opts.model_name,
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        let expected = expected_body(&engine, batch, &body)?.into_bytes();
        out.push(Template { batch, rows, body, request, expected });
    }
    Ok((engine, out))
}

/// Read one response: (status, body, server announced close).
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, Vec<u8>, bool)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
    }
    let status: u16 =
        line.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("status line"))?;
    let (mut length, mut close) = (0usize, false);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers cut short"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body, close))
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One connection's closed loop.
fn conn_loop(
    opts: &LoadOpts,
    templates: &[Template],
    first: usize,
    started: Instant,
    done: &AtomicUsize,
) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut socket: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut next = first;
    while started.elapsed().as_secs_f64() < opts.seconds
        || done.load(Ordering::Relaxed) < opts.min_requests
    {
        let index = next % templates.len();
        next += opts.conns;
        let t = &templates[index];
        let t0 = Instant::now();
        let outcome = match socket.take() {
            Some(s) => Ok(s),
            None => connect(&opts.addr),
        }
        .and_then(|(mut stream, mut reader)| {
            stream.write_all(&t.request)?;
            let (status, body, close) = read_response(&mut reader)?;
            if !close {
                socket = Some((stream, reader));
            }
            Ok((status, body))
        });
        let latency = t0.elapsed().as_secs_f64();
        done.fetch_add(1, Ordering::Relaxed);
        let ok = match outcome {
            Ok((200, mut body)) => {
                if opts.mutate_response && first == 0 && stats.sent.is_empty() {
                    if let Some(byte) = body.first_mut() {
                        *byte ^= 1;
                    }
                }
                let same = body == t.expected;
                if same {
                    stats.rows += t.rows;
                } else {
                    stats.mismatches += 1;
                }
                same
            }
            Ok((503, _)) => {
                stats.shed_503 += 1;
                false
            }
            Ok(_) => {
                stats.other_status += 1;
                false
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stats.timeouts += 1;
                false
            }
            Err(_) => {
                stats.io_errors += 1;
                false
            }
        };
        stats.sent.push((index, latency, ok));
    }
    stats
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

/// The server's request path, untraced, over the requests `sent`: parse
/// the recorded bytes, audit through the engine's `/record` and `/batch`
/// entry points, render, write the response into a buffer. Returns the
/// rows audited.
fn serve_pass(engine: &AuditEngine, templates: &[Template], sent: &[usize]) -> Res<usize> {
    let (mut rows, mut wire) = (0, Vec::new());
    for &index in sent {
        let t = &templates[index];
        let request =
            http::read_request(&mut t.request.as_slice(), MAX_BODY).map_err(|e| e.to_string())?;
        let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let answer = expected_body(engine, t.batch, body)?;
        wire.clear();
        http::write_response(&mut wire, 200, "text/csv; charset=utf-8", answer.as_bytes(), false)
            .map_err(|e| e.to_string())?;
        if answer.as_bytes() != t.expected.as_slice() {
            return Err("in-process pass disagrees with the expected body".to_string());
        }
        rows += t.rows;
    }
    Ok(rows)
}

/// Drive the load, then (with `replay`) time the server's per-request
/// work in-process over the same requests, and (with `passes`) time
/// untraced passes of it. Returns the result as JSON object members.
pub fn run(opts: &LoadOpts) -> Res<Vec<(String, String)>> {
    let (engine, templates) = templates(opts)?;
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.conns)
            .map(|c| {
                let (templates, done) = (&templates, &done);
                scope.spawn(move || conn_loop(opts, templates, c, started, done))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load threads do not panic")).collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut sent = Vec::new();
    let (mut shed, mut other, mut timeouts, mut io_errors, mut mismatches, mut rows) =
        (0, 0, 0, 0, 0, 0);
    for s in &per_conn {
        shed += s.shed_503;
        other += s.other_status;
        timeouts += s.timeouts;
        io_errors += s.io_errors;
        mismatches += s.mismatches;
        rows += s.rows;
        for &(index, latency, ok) in &s.sent {
            latencies.push(latency);
            if ok {
                sent.push(index);
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let requests = latencies.len();
    let failed = shed + other + timeouts + io_errors + mismatches;
    let p50 = quantile(&latencies, 0.5);
    let p99 = quantile(&latencies, 0.99);
    let beyond = latencies.iter().filter(|&&l| l > p99).count();
    let batches = templates.iter().filter(|t| t.batch).count();
    // Per path: p50 latency, and rows answered correctly divided by the
    // connection time spent on that path's requests, times the number
    // of connections: the rate a closed loop of only that path would
    // reach.
    let mut per_path: Vec<(String, String)> = Vec::new();
    for (name, is_batch) in [("record", false), ("batch", true)] {
        let (mut lat, mut rows) = (Vec::new(), 0usize);
        for s in &per_conn {
            for &(index, latency, ok) in &s.sent {
                let t = &templates[index];
                if t.batch == is_batch {
                    lat.push(latency);
                    rows += if ok { t.rows } else { 0 };
                }
            }
        }
        let busy: f64 = lat.iter().sum();
        let rate = if busy > 0.0 { rows as f64 * opts.conns as f64 / busy } else { 0.0 };
        per_path.push((format!("{name}_requests"), lat.len().to_string()));
        if !lat.is_empty() {
            per_path.push((format!("{name}_p50_ms"), (median(lat) * 1e3).to_string()));
        }
        per_path.push((format!("{name}_rows_per_s"), rate.to_string()));
    }
    let mut out: Vec<(String, String)> = vec![
        ("requests".into(), requests.to_string()),
        ("failed".into(), failed.to_string()),
        ("shed_503".into(), shed.to_string()),
        ("other_status".into(), other.to_string()),
        ("timeouts".into(), timeouts.to_string()),
        ("io_errors".into(), io_errors.to_string()),
        ("mismatches".into(), mismatches.to_string()),
        ("rows".into(), rows.to_string()),
        ("wall_s".into(), wall.to_string()),
        ("p50_ms".into(), (p50 * 1e3).to_string()),
        ("p99_ms".into(), (p99 * 1e3).to_string()),
        ("beyond_p99".into(), beyond.to_string()),
        ("batch_share".into(), (batches as f64 / templates.len() as f64).to_string()),
    ];
    out.extend(per_path);

    if opts.replay {
        // The server's work per request, without the wire: parse the
        // recorded request bytes, audit the body, write the response
        // into a buffer.
        let mut own = Vec::with_capacity(sent.len());
        for &index in &sent {
            let t = &templates[index];
            let t0 = Instant::now();
            let request =
                span("serve.parse", || http::read_request(&mut t.request.as_slice(), MAX_BODY))
                    .map_err(|e| e.to_string())?;
            let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let answer = span("serve.audit", || audit_body(&engine, t.batch, body))?;
            let mut wire = Vec::with_capacity(answer.len() + 128);
            span("serve.write", || {
                http::write_response(
                    &mut wire,
                    200,
                    "text/csv; charset=utf-8",
                    answer.as_bytes(),
                    false,
                )
            })
            .map_err(|e| e.to_string())?;
            if answer.as_bytes() != t.expected.as_slice() || t.body.len() != request.body.len() {
                return Err("in-process replay disagrees with the expected body".to_string());
            }
            own.push(t0.elapsed().as_secs_f64());
        }
        let wire_wait = if own.is_empty() { 0.0 } else { p50 - median(own) };
        out.push(("wire_wait_ms".into(), (wire_wait * 1e3).to_string()));
        out.push(("replayed".into(), sent.len().to_string()));
    }
    if opts.passes > 0 {
        // On this thread, each pass between two runs of the kernel: the
        // kernel sees the speed of the CPU the pass ran on. Its first run
        // faults in its heap; it is not counted.
        let (mut cpu, mut refs, mut rows) = (Vec::new(), Vec::new(), 0);
        reference::run();
        let mut before = reference::run().0;
        for _ in 0..opts.passes {
            let t0 = reference::cpu_now();
            rows = serve_pass(&engine, &templates, &sent)?;
            cpu.push(reference::cpu_now() - t0);
            let after = reference::run().0;
            refs.push((before + after) / 2.0);
            before = after;
        }
        let list =
            |v: &[f64]| format!("[{}]", v.iter().map(f64::to_string).collect::<Vec<_>>().join(","));
        out.push(("pass_rows".into(), rows.to_string()));
        out.push(("pass_cpu_s".into(), list(&cpu)));
        out.push(("pass_ref_s".into(), list(&refs)));
    }
    Ok(out)
}
