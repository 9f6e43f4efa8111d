//! Fixtures shared by the daemon integration tests.
#![allow(dead_code)] // each test crate uses its own subset

use std::path::{Path, PathBuf};

use choir_core::metrics::Observation;
use choir_packet::tag::ChoirTag;
use choir_packet::PacketId;
use choir_service::{Client, Response};

pub fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Deterministic synthetic capture of up to `records` packets: stream 0
/// is the clean baseline; later streams drop ~1% of packets and jitter
/// arrival times, so κ is strictly inside (0, 1) and every component is
/// exercised.
pub fn synth(tenant: u64, stream: u64, records: u64) -> Vec<Observation> {
    let mut seed = 0x5EED_0001 ^ (tenant << 32) ^ stream;
    let mut out = Vec::new();
    let mut now = 1_000_000u64;
    for seq in 0..records {
        now += 280_000 + lcg(&mut seed) % 40_000;
        if stream > 0 && lcg(&mut seed).is_multiple_of(97) {
            continue; // drop
        }
        let jitter = if stream == 0 {
            0
        } else {
            lcg(&mut seed) % 30_000
        };
        out.push(Observation {
            id: PacketId::from_tag(&ChoirTag::new(tenant as u16, 0, seq)),
            t_ps: now + jitter,
        });
    }
    out
}

/// A fresh (emptied) scratch directory for one test.
pub fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("choir-daemon-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Copy a data directory, emptying `dst` first.
pub fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create copy target");
    for entry in std::fs::read_dir(src).expect("read copy source") {
        let entry = entry.expect("directory entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), to).expect("copy file");
        }
    }
}

/// Everything a tenant serves about its comparison streams, as bits: per
/// stream the live-or-final snapshot and the whole trail, then the
/// matrix cells. Two daemons that agree on this agree on every number a
/// client can see.
pub fn served_bits(c: &mut Client, tenant: &str, streams: &[&str]) -> Vec<u64> {
    let mut bits = Vec::new();
    let kappa = |k: &choir_service::WireKappa| {
        [
            k.kappa_bits,
            k.u.to_bits(),
            k.o.to_bits(),
            k.l.to_bits(),
            k.i.to_bits(),
        ]
    };
    for s in streams {
        let Response::Snapshot {
            seen_a,
            seen_b,
            common,
            running,
        } = c.snapshot(tenant, s).expect("snapshot")
        else {
            panic!("snapshot variant");
        };
        bits.extend([seen_a, seen_b, common]);
        bits.extend(kappa(&running));
        let Response::Trail { points } = c.trail(tenant, s).expect("trail") else {
            panic!("trail variant");
        };
        bits.push(points.len() as u64);
        for p in &points {
            bits.extend([p.seen_a, p.seen_b, p.common]);
            bits.extend(kappa(&p.running));
        }
    }
    let Response::Matrix { cells, .. } = c.matrix(tenant).expect("matrix") else {
        panic!("matrix variant");
    };
    for cell in &cells {
        bits.extend([cell.i, cell.j, cell.common, cell.missing, cell.extra]);
        bits.extend(kappa(&cell.score));
    }
    bits
}
