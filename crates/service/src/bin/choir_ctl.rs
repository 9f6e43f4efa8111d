//! `choir-ctl`: command-line client for the κ service daemon.
//!
//! ```text
//! choir-ctl <addr> ping
//! choir-ctl <addr> create <tenant> [budget-bytes]
//! choir-ctl <addr> drop <tenant>
//! choir-ctl <addr> open <tenant> <stream>
//! choir-ctl <addr> ingest-pcap <tenant> <stream> <file.pcap>
//! choir-ctl <addr> finish <tenant> <stream>
//! choir-ctl <addr> status <tenant> <stream>
//! choir-ctl <addr> snapshot <tenant> <stream>
//! choir-ctl <addr> trail <tenant> <stream>
//! choir-ctl <addr> matrix <tenant>
//! choir-ctl <addr> stats
//! choir-ctl <addr> checkpoint
//! choir-ctl <addr> shutdown
//! ```
//!
//! `ingest-pcap` reads the capture through [`choir_capture::PcapSource`]
//! one `Ingest` frame's worth of records at a time and resumes from the
//! daemon's recorded progress (safe to re-run after an interrupted
//! upload). A capture with a damaged tail is ingested up to the damage,
//! then reported (exit 1) with the byte offset where it broke.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use choir_capture::PcapSource;
use choir_core::metrics::Observation;
use choir_service::client::INGEST_CHUNK;
use choir_service::{Client, ClientError, Response};

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("choir-ctl: {msg}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: choir-ctl <addr> \
         <ping|create|drop|open|ingest-pcap|finish|status|snapshot|trail|matrix|stats|checkpoint|shutdown> [args]"
    );
    ExitCode::from(2)
}

fn print_kappa(prefix: &str, k: &choir_service::WireKappa) {
    println!(
        "{prefix}kappa {:.6} (bits {:#018x})  U {:.3e}  O {:.3e}  L {:.3e}  I {:.3e}",
        k.kappa, k.kappa_bits, k.u, k.o, k.l, k.i
    );
}

fn run(mut c: Client, cmd: &str, rest: &[String]) -> Result<ExitCode, ClientError> {
    match (cmd, rest) {
        ("ping", []) => {
            c.ping()?;
            println!("ok");
        }
        ("create", [tenant]) => {
            c.create_tenant(tenant, 0)?;
            println!("tenant {tenant} created");
        }
        ("create", [tenant, budget]) => {
            let b: u64 = budget
                .parse()
                .map_err(|_| ClientError::Daemon(format!("`{budget}` is not a byte count")))?;
            c.create_tenant(tenant, b)?;
            println!("tenant {tenant} created (budget {b} bytes)");
        }
        ("drop", [tenant]) => {
            c.drop_tenant(tenant)?;
            println!("tenant {tenant} dropped");
        }
        ("open", [tenant, stream]) => {
            c.open_stream(tenant, stream)?;
            println!("stream {tenant}/{stream} open");
        }
        ("ingest-pcap", [tenant, stream, path]) => {
            let file =
                File::open(path).map_err(|e| ClientError::Daemon(format!("open {path}: {e}")))?;
            let mut src = PcapSource::new(BufReader::new(file))
                .map_err(|e| ClientError::Daemon(format!("parse {path}: {e}")))?;
            let (mut seq, finished, _) = c.stream_status(tenant, stream)?;
            if finished {
                return Err(ClientError::Daemon(format!(
                    "stream {tenant}/{stream} is already finished"
                )));
            }
            if seq > 0 {
                println!("resuming at record {seq}");
            }
            // At most one `Ingest` frame's worth of records is held at a
            // time, and what was read before a damaged record is ingested
            // before the damage is reported.
            let mut batch: Vec<Observation> = Vec::with_capacity(INGEST_CHUNK);
            let mut read = 0u64;
            while !src.is_exhausted() {
                batch.clear();
                let mut damage = None;
                while batch.len() < INGEST_CHUNK {
                    match src.next_record() {
                        Ok(Some(o)) => batch.push(o),
                        Ok(None) => break,
                        Err(e) => {
                            damage = Some(e);
                            break;
                        }
                    }
                }
                // Skip the prefix the daemon already has (resume).
                let skip = seq.saturating_sub(read).min(batch.len() as u64) as usize;
                read += batch.len() as u64;
                if skip < batch.len() {
                    seq = c.ingest(tenant, stream, seq, &batch[skip..])?;
                }
                if let Some(e) = damage {
                    return Err(ClientError::Daemon(format!(
                        "read {path}: {e}; {tenant}/{stream} now holds {seq} records"
                    )));
                }
            }
            println!("{tenant}/{stream}: {seq} records ingested");
        }
        ("finish", [tenant, stream]) => match c.finish_stream(tenant, stream)? {
            None => println!("baseline {tenant}/{stream} finished"),
            Some(f) => {
                println!(
                    "{tenant}/{stream} finished: |A| {}  |B| {}  common {}  missing {}  extra {}  moved {}",
                    f.a_len, f.b_len, f.common, f.missing, f.extra, f.moved
                );
                print_kappa("  ", &f.score);
            }
        },
        ("status", [tenant, stream]) => {
            let (ingested, finished, baseline) = c.stream_status(tenant, stream)?;
            println!(
                "{tenant}/{stream}: {ingested} records, {}{}",
                if finished { "finished" } else { "live" },
                if baseline { " (baseline)" } else { "" }
            );
        }
        ("snapshot", [tenant, stream]) => {
            if let Response::Snapshot {
                seen_a,
                seen_b,
                common,
                running,
            } = c.snapshot(tenant, stream)?
            {
                println!("{tenant}/{stream}: A {seen_a}  B {seen_b}  common {common}");
                print_kappa("  ", &running);
            }
        }
        ("trail", [tenant, stream]) => {
            if let Response::Trail { points } = c.trail(tenant, stream)? {
                for p in points {
                    println!(
                        "A {:>8}  B {:>8}  common {:>8}  kappa {:.6}",
                        p.seen_a, p.seen_b, p.common, p.running.kappa
                    );
                }
            }
        }
        ("matrix", [tenant]) => {
            if let Response::Matrix { labels, cells } = c.matrix(tenant)? {
                println!("{} streams: {}", labels.len(), labels.join(", "));
                for cell in cells {
                    // Indices come off the wire: a cell naming a stream
                    // the frame does not list is refused, not indexed.
                    let label = |k: u64| labels.get(k as usize);
                    let (Some(row), Some(col)) = (label(cell.i), label(cell.j)) else {
                        return Err(ClientError::Unexpected(format!(
                            "matrix cell ({}, {}) names a stream past the {} labels sent",
                            cell.i,
                            cell.j,
                            labels.len()
                        )));
                    };
                    println!(
                        "{} vs {}: kappa {:.6} (bits {:#018x})  common {}  missing {}  extra {}",
                        row,
                        col,
                        cell.score.kappa,
                        cell.score.kappa_bits,
                        cell.common,
                        cell.missing,
                        cell.extra
                    );
                }
            }
        }
        ("stats", []) => {
            if let Response::Stats {
                tenants,
                streams,
                store_resident_bytes,
                store_budget_bytes,
                store_evictions,
                store_reloads,
                ingests,
                records,
            } = c.stats()?
            {
                println!("tenants {tenants}  streams {streams}");
                println!(
                    "store: {store_resident_bytes} / {store_budget_bytes} bytes resident, \
                     {store_evictions} evictions, {store_reloads} reloads"
                );
                println!("ingest: {ingests} requests, {records} records");
            }
        }
        ("checkpoint", []) => {
            c.checkpoint()?;
            println!("checkpointed");
        }
        ("shutdown", []) => {
            c.shutdown()?;
            println!("daemon stopped");
        }
        _ => return Ok(usage()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [addr, cmd, rest @ ..] = args.as_slice() else {
        return usage();
    };
    let client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    match run(client, cmd, rest) {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}
