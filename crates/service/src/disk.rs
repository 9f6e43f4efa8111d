//! One door to the disk: every file the daemon and its trial stores
//! touch goes through a [`Disk`], and the durability rules live here.
//!
//! * **One append rule.** A stream's log and a tenant's journal are both
//!   written at the end their owner accounts for ([`Disk::write_at`]),
//!   not at the file's end, and nothing past the accounted end is state.
//!   A torn or failed append is therefore overwritten by the next one:
//!   it is neither cut off first nor glued to.
//! * **Replace by rename.** A checkpoint is written whole to a temporary
//!   file ([`Disk::write_file`]) and renamed over the old one.
//! * **Absent is not unreadable.** [`Disk::len`] is `None` only for
//!   `NotFound`; any other error stays an error, so recovery never takes
//!   a file it cannot stat for one that is not there.
//! * **Nothing is synced.** An acknowledged write has reached the OS,
//!   which survives a kill of the process, not a power cut.
//!
//! [`RealDisk`] is the filesystem, a shim that writes exactly the bytes
//! the daemon hands it. [`ScriptDisk`] is in memory, for tests:
//!
//! - **Two copies of every file.** The bytes a process kill keeps (the
//!   page cache) are kept apart from the bytes a power cut keeps (what
//!   was last written back), together with every step since, each one
//!   tagged with the call that made it.
//! - **Kill images.** [`ScriptDisk::kill`] is the disk as a killed
//!   process leaves it; [`ScriptDisk::kill_before`] the same with the
//!   process killed before one call, [`ScriptDisk::kill_at`] inside one
//!   write call, after any number of its bytes.
//! - **Power-cut images.** [`ScriptDisk::power_cut`] follows a named
//!   crash model (Pillai et al., "All File Systems Are Not Created
//!   Equal", OSDI '14): of each file's steps since the last write-back a
//!   prefix is kept, and the last write kept may be torn; each creation,
//!   rename, removal and directory change is kept or lost on its own. A
//!   seed draws every choice.
//! - **Faults, scripted per call.** [`ScriptDisk::fail`] makes the next
//!   call of one kind on one path fail, or write short, the way
//!   `ScriptPlane` scripts transmit acceptance.
//! - **Logs.** Every call, in [`ScriptDisk::calls`].
//!
//! ```
//! use std::path::Path;
//! use choir_service::disk::{Disk, Fault, Op, ScriptDisk};
//!
//! let disk = ScriptDisk::new();
//! let log = Path::new("d/x.log");
//! disk.create_dir_all(Path::new("d")).unwrap();
//! disk.write_at(log, 0, b"0123").unwrap();
//! disk.fail(Op::WriteAt, log, Fault::Short(1));
//! assert!(disk.write_at(log, 4, b"456").is_err());
//! assert_eq!(disk.read(log).unwrap(), b"01234");
//! // The accounted end is still 4: the next append overwrites the tear.
//! disk.write_at(log, 4, b"7").unwrap();
//! assert_eq!(disk.read(log).unwrap(), b"01237");
//! // Killed inside the first write, after 2 of its bytes.
//! assert_eq!(disk.kill_at(1, 2).read(log).unwrap(), b"01");
//! // Written back, then appended to: a power cut keeps what was written
//! // back and a prefix of the rest.
//! disk.write_back();
//! disk.write_at(log, 5, b"89").unwrap();
//! let cut = disk.power_cut(7).read(log).unwrap();
//! assert!(cut.starts_with(b"01237") && b"0123789".starts_with(&cut));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The file operations the daemon and its trial stores make. Paths are
/// the daemon's own; no call follows a path the daemon did not build.
pub trait Disk: Send + Sync {
    /// The whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// The file's length; `None` only if nothing is there (`NotFound`).
    fn len(&self, path: &Path) -> io::Result<Option<u64>>;

    /// Write `bytes` at `offset`, creating the file if it is missing.
    /// Bytes past them stay as they were.
    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Make `bytes` the file's contents, creating it if it is missing.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Rename `from` to `to`, replacing any file at `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Remove a directory and everything under it.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The entries of a directory, as paths, sorted.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealDisk;

impl Disk for RealDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn len(&self, path: &Path) -> io::Result<Option<u64>> {
        match fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?
            .write_all_at(bytes, offset)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths = fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        paths.sort();
        Ok(paths)
    }
}

/// A kind of [`Disk`] call, for scripting faults and reading the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Len,
    WriteAt,
    WriteFile,
    Rename,
    RemoveFile,
    CreateDirAll,
    RemoveDirAll,
    ReadDir,
}

/// One logged [`ScriptDisk`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub op: Op,
    pub path: PathBuf,
    /// A rename's target.
    pub to: Option<PathBuf>,
    /// The bytes a write was given (0 for a call that writes none).
    pub bytes: usize,
}

impl Call {
    /// Every path the call names.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        std::iter::once(self.path.as_path()).chain(self.to.as_deref())
    }
}

/// What a scripted call does instead of its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail with this kind and change nothing.
    Fail(io::ErrorKind),
    /// Write only the first `n` bytes (at most all but one), then fail
    /// with `ENOSPC`, as a full disk does midway. A call that writes
    /// nothing just fails.
    Short(usize),
}

/// `ENOSPC`: what a short write reports.
const NO_SPACE: i32 = 28;

/// One change to a [`Tree`]. Data steps name an inode, so that they
/// follow a file through renames.
#[derive(Debug, Clone)]
enum Step {
    Mkdir(PathBuf),
    RmTree(PathBuf),
    Link(PathBuf, usize),
    Unlink(PathBuf),
    Rename(PathBuf, PathBuf),
    Write(usize, u64, Vec<u8>),
    Truncate(usize),
}

/// A namespace over inodes.
#[derive(Debug, Clone, Default)]
struct Tree {
    dirs: BTreeSet<PathBuf>,
    names: BTreeMap<PathBuf, usize>,
    inodes: Vec<Vec<u8>>,
}

impl Tree {
    fn has_parent(&self, p: &Path) -> bool {
        p.parent().is_none_or(|d| {
            d.parent().is_none() || d.as_os_str().is_empty() || self.dirs.contains(d)
        })
    }

    fn inode(&mut self, ino: usize) -> &mut Vec<u8> {
        if self.inodes.len() <= ino {
            self.inodes.resize(ino + 1, Vec::new());
        }
        &mut self.inodes[ino]
    }

    /// Apply `step`; one whose parent directory or source is gone (a
    /// power cut lost what it depended on) changes nothing.
    fn apply(&mut self, step: &Step) {
        match step {
            Step::Mkdir(p) => {
                if self.has_parent(p) && !self.names.contains_key(p) {
                    self.dirs.insert(p.clone());
                }
            }
            Step::RmTree(p) => {
                self.dirs.retain(|d| !d.starts_with(p));
                self.names.retain(|n, _| !n.starts_with(p));
            }
            Step::Link(p, ino) => {
                self.inode(*ino);
                if self.has_parent(p) {
                    self.names.insert(p.clone(), *ino);
                }
            }
            Step::Unlink(p) => {
                self.names.remove(p);
            }
            Step::Rename(from, to) => {
                if self.has_parent(to) {
                    if let Some(ino) = self.names.remove(from) {
                        self.names.insert(to.clone(), ino);
                    }
                }
            }
            Step::Write(ino, off, bytes) => {
                let f = self.inode(*ino);
                let (at, end) = (*off as usize, *off as usize + bytes.len());
                if f.len() < end {
                    f.resize(end, 0);
                }
                f[at..end].copy_from_slice(bytes);
            }
            Step::Truncate(ino) => self.inode(*ino).clear(),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Script {
    /// What a power cut keeps: the disk as last written back.
    synced: Tree,
    /// What a kill keeps: the page cache.
    now: Tree,
    /// Every step since `synced`, with the index of the call that made it.
    steps: Vec<(usize, Step)>,
    /// Calls before this one were written back.
    synced_at: usize,
    calls: Vec<Call>,
    faults: Vec<(Op, PathBuf, Fault)>,
}

impl Script {
    /// Log a call; the fault scripted for it, if any.
    fn enter(&mut self, op: Op, path: &Path, to: Option<&Path>, bytes: usize) -> Option<Fault> {
        self.calls.push(Call {
            op,
            path: path.to_path_buf(),
            to: to.map(Path::to_path_buf),
            bytes,
        });
        let i = (self.faults.iter()).position(|(o, p, _)| *o == op && p == path)?;
        Some(self.faults.remove(i).2)
    }

    /// Enter a call that writes no data: a scripted fault fails it.
    fn plain(&mut self, op: Op, path: &Path, to: Option<&Path>) -> io::Result<()> {
        match self.enter(op, path, to, 0) {
            None => Ok(()),
            Some(Fault::Fail(kind)) => Err(kind.into()),
            Some(Fault::Short(_)) => Err(io::Error::from_raw_os_error(NO_SPACE)),
        }
    }

    fn step(&mut self, step: Step) {
        self.now.apply(&step);
        self.steps.push((self.calls.len() - 1, step));
    }

    /// The inode at `path`, linked there first if it is missing.
    fn open(&mut self, path: &Path) -> io::Result<usize> {
        if let Some(&ino) = self.now.names.get(path) {
            return Ok(ino);
        }
        if self.now.dirs.contains(path) || !self.now.has_parent(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        let ino = self.now.inodes.len();
        self.step(Step::Link(path.to_path_buf(), ino));
        Ok(ino)
    }

    /// A write call: open, optionally truncate, write what the fault
    /// lets through.
    fn write(&mut self, op: Op, path: &Path, off: u64, bytes: &[u8]) -> io::Result<()> {
        let keep = match self.enter(op, path, None, bytes.len()) {
            None => bytes.len(),
            Some(Fault::Fail(kind)) => return Err(kind.into()),
            Some(Fault::Short(n)) => n.min(bytes.len().saturating_sub(1)),
        };
        let ino = self.open(path)?;
        if op == Op::WriteFile {
            self.step(Step::Truncate(ino));
        }
        if keep > 0 {
            self.step(Step::Write(ino, off, bytes[..keep].to_vec()));
        }
        if keep < bytes.len() {
            return Err(io::Error::from_raw_os_error(NO_SPACE));
        }
        Ok(())
    }

    /// An image whose steps are `steps`, replayed on what was written back.
    fn image(&self, steps: Vec<(usize, Step)>, calls: usize) -> Script {
        let mut now = self.synced.clone();
        for (_, s) in &steps {
            now.apply(s);
        }
        Script {
            synced: self.synced.clone(),
            now,
            steps,
            synced_at: self.synced_at,
            calls: self.calls[..calls].to_vec(),
            faults: Vec::new(),
        }
    }
}

/// An in-memory [`Disk`] whose faults are scripted and whose crash
/// images are taken on demand (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct ScriptDisk {
    s: Mutex<Script>,
}

impl ScriptDisk {
    /// An empty disk: no file, no directory but the root.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Script> {
        self.s.lock().expect("script disk lock")
    }

    fn wrap(s: Script) -> Self {
        ScriptDisk { s: Mutex::new(s) }
    }

    /// Make the next `op` call on `path` do `fault` instead of its work.
    /// Faults queue in the order they are scripted.
    pub fn fail(&self, op: Op, path: impl Into<PathBuf>, fault: Fault) {
        self.lock().faults.push((op, path.into(), fault));
    }

    /// Every call so far, in order, including those of the images this
    /// one was taken from.
    pub fn calls(&self) -> Vec<Call> {
        self.lock().calls.clone()
    }

    /// Every file and its bytes, as a kill would leave them.
    pub fn files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        let s = self.lock();
        (s.now.names.iter())
            .map(|(p, &ino)| (p.clone(), s.now.inodes[ino].clone()))
            .collect()
    }

    /// The kernel writes every dirty page and the namespace back, as it
    /// does within seconds on its own: a later power cut starts from
    /// here. Not a sync the daemon asked for.
    pub fn write_back(&self) {
        let mut s = self.lock();
        s.synced = s.now.clone();
        s.steps.clear();
        s.synced_at = s.calls.len();
    }

    /// The disk as a process killed now leaves it: every call done,
    /// nothing more written back. No scripted fault carries over.
    pub fn kill(&self) -> ScriptDisk {
        let calls = self.lock().calls.len();
        self.kill_before(calls)
    }

    /// The disk as a process killed before call `call` (an index into
    /// [`calls`](Self::calls)) leaves it: every earlier call done, no
    /// later one.
    ///
    /// # Panics
    ///
    /// If `call` was already written back.
    pub fn kill_before(&self, call: usize) -> ScriptDisk {
        self.killed(call, None)
    }

    /// The disk as a process killed inside write call `call` leaves it:
    /// every earlier call done, its file opened (and, for
    /// [`Disk::write_file`], emptied), and the first `written` bytes of
    /// its data written.
    ///
    /// # Panics
    ///
    /// If `call` was already written back, or is not a write.
    pub fn kill_at(&self, call: usize, written: usize) -> ScriptDisk {
        self.killed(call, Some(written))
    }

    fn killed(&self, call: usize, written: Option<usize>) -> ScriptDisk {
        let s = self.lock();
        assert!(call >= s.synced_at, "call {call} was written back");
        if written.is_some() {
            let op = s.calls[call].op;
            assert!(
                matches!(op, Op::WriteAt | Op::WriteFile),
                "call {call} is {op:?}"
            );
        }
        let torn = |c: usize, step: &Step| match (step, written) {
            (Step::Write(ino, off, b), Some(n)) if c == call => {
                Step::Write(*ino, *off, b[..n.min(b.len())].to_vec())
            }
            _ => step.clone(),
        };
        let steps = (s.steps.iter())
            .take_while(|(c, _)| *c < call || (written.is_some() && *c == call))
            .map(|(c, step)| (*c, torn(*c, step)))
            .collect();
        Self::wrap(s.image(steps, call + written.is_some() as usize))
    }

    /// The disk after a power cut now, under the crash model of the
    /// [module docs](self): of each file's data steps since the last
    /// [`write_back`](Self::write_back) a prefix is kept, and the last
    /// write kept is torn half the time; each namespace step is kept or
    /// lost on its own. `seed` draws every choice.
    pub fn power_cut(&self, seed: u64) -> ScriptDisk {
        let s = self.lock();
        let mut state = seed;
        let mut draw = move |n: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let data_ino = |step: &Step| match step {
            Step::Write(ino, ..) | Step::Truncate(ino) => Some(*ino),
            _ => None,
        };
        let mut count = BTreeMap::new();
        for ino in s.steps.iter().filter_map(|(_, st)| data_ino(st)) {
            *count.entry(ino).or_insert(0u64) += 1;
        }
        // Per file: how many of its data steps are kept, and whether the
        // last one kept is torn.
        let keep: BTreeMap<usize, (u64, bool)> = (count.into_iter())
            .map(|(ino, n)| (ino, (draw(n + 1), draw(2) == 0)))
            .collect();
        let mut seen = BTreeMap::new();
        let mut steps = Vec::new();
        for (c, step) in &s.steps {
            let Some(ino) = data_ino(step) else {
                if draw(2) == 0 {
                    steps.push((*c, step.clone()));
                }
                continue;
            };
            let k = seen.entry(ino).or_insert(0u64);
            *k += 1;
            let (kept, tear) = keep[&ino];
            match step {
                _ if *k > kept => {}
                Step::Write(_, off, bytes) if *k == kept && tear => {
                    let n = draw(bytes.len() as u64 + 1) as usize;
                    steps.push((*c, Step::Write(ino, *off, bytes[..n].to_vec())));
                }
                _ => steps.push((*c, step.clone())),
            }
        }
        let mut cut = s.image(steps, 0);
        cut.synced = cut.now.clone();
        cut.steps.clear();
        cut.synced_at = 0;
        Self::wrap(cut)
    }
}

impl Disk for ScriptDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.lock();
        s.plain(Op::Read, path, None)?;
        match s.now.names.get(path) {
            Some(&ino) => Ok(s.now.inodes[ino].clone()),
            None => Err(io::ErrorKind::NotFound.into()),
        }
    }

    fn len(&self, path: &Path) -> io::Result<Option<u64>> {
        let mut s = self.lock();
        s.plain(Op::Len, path, None)?;
        Ok(match s.now.names.get(path) {
            Some(&ino) => Some(s.now.inodes[ino].len() as u64),
            None => s.now.dirs.contains(path).then_some(0),
        })
    }

    fn write_at(&self, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.lock().write(Op::WriteAt, path, offset, bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.lock().write(Op::WriteFile, path, 0, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.plain(Op::Rename, from, Some(to))?;
        if !s.now.names.contains_key(from) || !s.now.has_parent(to) {
            return Err(io::ErrorKind::NotFound.into());
        }
        s.step(Step::Rename(from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.plain(Op::RemoveFile, path, None)?;
        if !s.now.names.contains_key(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        s.step(Step::Unlink(path.to_path_buf()));
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.plain(Op::CreateDirAll, path, None)?;
        let mut missing: Vec<&Path> = (path.ancestors())
            .take_while(|d| d.parent().is_some() && !d.as_os_str().is_empty())
            .filter(|d| !s.now.dirs.contains(*d))
            .collect();
        missing.reverse();
        for d in missing {
            if s.now.names.contains_key(d) {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            s.step(Step::Mkdir(d.to_path_buf()));
        }
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.plain(Op::RemoveDirAll, path, None)?;
        if !s.now.dirs.contains(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        s.step(Step::RmTree(path.to_path_buf()));
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut s = self.lock();
        s.plain(Op::ReadDir, path, None)?;
        if !s.now.dirs.contains(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        let under = |p: &&PathBuf| p.parent() == Some(path);
        let mut entries: Vec<PathBuf> = (s.now.dirs.iter().filter(under))
            .chain(s.now.names.keys().filter(under))
            .cloned()
            .collect();
        entries.sort();
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> &Path {
        Path::new(s)
    }

    #[test]
    fn kill_images_replay_the_calls_before_one_or_into_its_bytes() {
        let disk = ScriptDisk::new();
        disk.create_dir_all(p("d")).unwrap();
        disk.write_file(p("d/ck"), b"old").unwrap();
        disk.write_file(p("d/journal"), b"line\n").unwrap();
        let tmp = disk.calls().len();
        disk.write_file(p("d/ck.tmp"), b"new!").unwrap();
        disk.rename(p("d/ck.tmp"), p("d/ck")).unwrap();
        disk.write_file(p("d/journal"), b"").unwrap();
        let files = |img: ScriptDisk| {
            (img.files().into_iter())
                .map(|(k, v)| (k.display().to_string(), String::from_utf8(v).unwrap()))
                .collect::<Vec<_>>()
        };
        let kv = |pairs: &[(&str, &str)]| {
            (pairs.iter())
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            files(disk.kill_before(tmp)),
            kv(&[("d/ck", "old"), ("d/journal", "line\n")])
        );
        assert_eq!(
            files(disk.kill_at(tmp, 2)),
            kv(&[("d/ck", "old"), ("d/ck.tmp", "ne"), ("d/journal", "line\n")])
        );
        assert_eq!(
            files(disk.kill_before(tmp + 2)),
            kv(&[("d/ck", "new!"), ("d/journal", "line\n")])
        );
        // Killed inside the journal's truncation: opened and emptied.
        assert_eq!(
            files(disk.kill_at(tmp + 2, 0)),
            kv(&[("d/ck", "new!"), ("d/journal", "")])
        );
        assert_eq!(files(disk.kill()), files(disk.kill_at(tmp + 2, 0)));
        assert_eq!(disk.kill_at(tmp, 2).calls().len(), tmp + 1);
    }

    #[test]
    fn a_power_cut_keeps_a_prefix_of_each_file_and_namespace_steps_each_or_not() {
        let disk = ScriptDisk::new();
        disk.create_dir_all(p("d")).unwrap();
        disk.write_at(p("d/log"), 0, b"0123").unwrap();
        disk.write_back();
        disk.write_at(p("d/log"), 4, b"45").unwrap();
        disk.write_at(p("d/log"), 6, b"67").unwrap();
        disk.write_file(p("d/tmp"), b"xyz").unwrap();
        disk.rename(p("d/tmp"), p("d/ck")).unwrap();
        let (mut logs, mut names) = (BTreeSet::new(), BTreeSet::new());
        for seed in 0..256 {
            let cut = disk.power_cut(seed).files();
            let log = cut[p("d/log")].clone();
            assert!(
                log.starts_with(b"0123") && b"01234567".starts_with(&log),
                "{log:?}"
            );
            logs.insert(log);
            let made: Vec<_> = cut.keys().filter(|k| *k != p("d/log")).collect();
            assert!(made.len() <= 1, "{made:?}");
            for k in &made {
                assert!(b"xyz".starts_with(&cut[*k]), "{k:?}");
            }
            names.insert(made.first().map(|k| k.display().to_string()));
        }
        // Every prefix of the two appends, each torn or whole, and the
        // temp file kept, renamed or lost.
        assert_eq!(logs.len(), 5, "{logs:?}");
        assert_eq!(names.len(), 3, "{names:?}");
        // What a power cut leaves is all on disk: a second cut changes
        // nothing.
        let cut = disk.power_cut(1);
        assert_eq!(cut.power_cut(2).files(), cut.files());
    }

    #[test]
    fn calls_fail_where_the_filesystem_does_and_where_scripted() {
        let disk = ScriptDisk::new();
        let kind = |r: io::Result<()>| r.unwrap_err().kind();
        assert_eq!(
            kind(disk.write_at(p("d/x"), 0, b"1")),
            io::ErrorKind::NotFound
        );
        assert_eq!(kind(disk.remove_dir_all(p("d"))), io::ErrorKind::NotFound);
        disk.create_dir_all(p("d/t/u")).unwrap();
        disk.write_at(p("d/t/x"), 0, b"1").unwrap();
        assert_eq!(disk.len(p("d/t/y")).unwrap(), None);
        assert_eq!(disk.len(p("d/t/x")).unwrap(), Some(1));
        disk.fail(
            Op::Len,
            "d/t/x",
            Fault::Fail(io::ErrorKind::PermissionDenied),
        );
        assert!(disk.len(p("d/t/x")).is_err());
        assert_eq!(
            disk.len(p("d/t/x")).unwrap(),
            Some(1),
            "one fault, one call"
        );
        assert_eq!(disk.read_dir(p("d/t")).unwrap(), [p("d/t/u"), p("d/t/x")]);
        disk.remove_dir_all(p("d/t")).unwrap();
        assert_eq!(disk.read_dir(p("d")).unwrap(), Vec::<PathBuf>::new());
        let ops: Vec<Op> = disk.calls().iter().map(|c| c.op).collect();
        assert_eq!(ops.len(), 11);
        assert_eq!(ops[..3], [Op::WriteAt, Op::RemoveDirAll, Op::CreateDirAll]);
    }
}
