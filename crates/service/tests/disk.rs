//! `ScriptDisk` is the disk the crash tests recover from, so it must be
//! the disk the daemon writes: one op schedule — create, open, ingests
//! with a resend, cadence checkpoints, a finish, a drop — run on
//! `RealDisk` and on `ScriptDisk` leaves byte-identical files. With that,
//! `tests/crash.rs` runs on one disk instead of twice.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use choir_service::disk::{Disk, RealDisk, ScriptDisk};
use choir_service::{Client, Daemon, DaemonConfig};
use common::{synth, tmp_dir};

fn schedule(disk: Arc<dyn Disk>, dir: &Path) {
    let mut cfg = DaemonConfig::new(dir);
    cfg.checkpoint_every_records = 96;
    cfg.snapshot_every = 16;
    let data: Vec<_> = (0..3).map(|s| synth(7, s, 200)).collect();
    let d = Daemon::spawn_on(disk, cfg, "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    for t in ["kept", "dropped"] {
        c.create_tenant(t, 0).expect("create");
        for s in ["base", "r1", "r2"] {
            c.open_stream(t, s).expect("open");
        }
    }
    for (lo, hi) in [(0, 30), (30, 75), (60, 120), (120, 200)] {
        for (s, stream) in ["base", "r1", "r2"].iter().enumerate() {
            let hi = hi.min(data[s].len());
            c.ingest("kept", stream, lo as u64, &data[s][lo..hi])
                .expect("ingest");
        }
        let hi = hi.min(data[1].len());
        c.ingest("dropped", "r1", lo as u64, &data[1][lo..hi])
            .expect("ingest");
    }
    c.finish_stream("kept", "base").expect("finish");
    c.finish_stream("kept", "r1").expect("finish");
    c.drop_tenant("dropped").expect("drop");
    c.create_tenant("late", 0).expect("create");
    c.open_stream("late", "base").expect("open");
    c.ingest("late", "base", 0, &data[0][..10]).expect("ingest");
    drop(c);
    d.kill();
}

fn files_under(dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.insert(path.clone(), fs::read(&path).expect("read"));
        }
    }
}

#[test]
fn real_and_scripted_disks_write_the_same_bytes() {
    let dir = tmp_dir("disk-equivalence");
    schedule(Arc::new(RealDisk), &dir);
    let mut real = BTreeMap::new();
    files_under(&dir, &mut real);

    let script = Arc::new(ScriptDisk::new());
    schedule(script.clone(), &dir);
    let scripted = script.files();

    let names = |m: &BTreeMap<PathBuf, Vec<u8>>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&scripted), names(&real));
    for (path, bytes) in &real {
        assert!(bytes == &scripted[path], "{} differs", path.display());
    }
    let tenants = dir.join("tenants");
    assert!(real.keys().any(|p| p.starts_with(tenants.join("kept"))));
    assert!(!real.keys().any(|p| p.starts_with(tenants.join("dropped"))));
    assert!(
        !tenants.join("dropped").exists(),
        "a dropped tenant's directory"
    );
    // The cadence checkpointed `kept` between its ingests: its `ck`
    // covers some of them and its journal holds the rest.
    assert!(!real[&tenants.join("kept/journal")].is_empty());
    let _ = fs::remove_dir_all(&dir);
}
