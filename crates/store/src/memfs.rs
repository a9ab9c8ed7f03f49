//! An in-memory model of the file system behind [`DurableFs`], for the
//! crash enumerator. It records every durable operation with its bytes,
//! rebuilds the state after any prefix of them, and can fail any one
//! operation.
//!
//! * A file is (durable bytes, unsynced suffix). A sync moves the
//!   suffix into the durable bytes.
//! * A directory is (durable entries, live entries). Creations and
//!   renames change the live entries; a sync of that directory makes
//!   them durable.
//! * A power cut drops every unsynced suffix and every live entry that
//!   is not durable; a process kill keeps both.
//!
//! Operations are attributed to the thread that issued them: lane 0 is
//! the store's caller, lane `s + 1` the worker of shard `s` (threads
//! named `ame-shard<s>`). Each lane's sequence is deterministic under a
//! single-threaded client; shards run concurrently only within one
//! client call, so the log is put in a canonical order by (client call,
//! lane, index in lane), which is an order some real run could take.

use crate::wal::{DurableFs, LogFile};
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// `EIO`: what a failed write, sync or rename reports.
pub(crate) const EIO: i32 = 5;
/// `ENOSPC`.
pub(crate) const ENOSPC: i32 = 28;

/// An operation's identity: (lane, index within the lane).
pub(crate) type OpId = (usize, usize);

/// One durable operation.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Op {
    CreateDir(PathBuf),
    /// Create or truncate, write, `fdatasync`.
    CreateSynced(PathBuf, Vec<u8>),
    Rename(PathBuf, PathBuf),
    SyncDir(PathBuf),
    /// Append to the file the `CreateSynced` with this id returned.
    Append(OpId, Vec<u8>),
    Sync(OpId),
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::CreateDir(path) => write!(f, "create_dir {}", path.display()),
            Op::CreateSynced(path, bytes) => {
                write!(f, "create_synced {} ({} B)", path.display(), bytes.len())
            }
            Op::Rename(from, to) => write!(f, "rename {} {}", from.display(), to.display()),
            Op::SyncDir(path) => write!(f, "sync_dir {}", path.display()),
            Op::Append(file, bytes) => write!(f, "append {file:?} ({} B)", bytes.len()),
            Op::Sync(file) => write!(f, "sync {file:?}"),
        }
    }
}

/// A logged operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Record {
    /// The client call it happened in.
    pub epoch: usize,
    pub id: OpId,
    pub op: Op,
}

/// An I/O failure injected at one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The sync fails (`EIO`); `kept` says whether the data reached the
    /// disk anyway — a failed sync leaves either.
    SyncError { kept: bool },
    /// Half the bytes are written, then `EIO`.
    ShortWrite,
    /// Nothing is written: `ENOSPC`.
    NoSpace,
    /// The rename fails and changes nothing.
    RenameError,
    /// The directory sync fails and makes nothing durable.
    DirSyncError,
}

impl Fault {
    pub(crate) const ALL: [Fault; 6] = [
        Fault::SyncError { kept: false },
        Fault::SyncError { kept: true },
        Fault::ShortWrite,
        Fault::NoSpace,
        Fault::RenameError,
        Fault::DirSyncError,
    ];

    /// Whether this fault can strike `op`.
    pub(crate) fn applies_to(self, op: &Op) -> bool {
        matches!(
            (self, op),
            (
                Fault::SyncError { .. } | Fault::ShortWrite | Fault::NoSpace,
                Op::CreateSynced(..)
            ) | (Fault::ShortWrite | Fault::NoSpace, Op::Append(..))
                | (Fault::SyncError { .. }, Op::Sync(_))
                | (Fault::RenameError, Op::Rename(..))
                | (Fault::DirSyncError, Op::SyncDir(_))
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    File(usize),
    Dir(usize),
}

#[derive(Clone, Default)]
struct Dir {
    durable: BTreeMap<OsString, Node>,
    live: BTreeMap<OsString, Node>,
}

#[derive(Clone, Default)]
struct File {
    durable: Vec<u8>,
    unsynced: Vec<u8>,
}

/// A whole file-system state; a clone is a snapshot of it.
#[derive(Clone)]
pub(crate) struct State {
    dirs: Vec<Dir>,
    files: Vec<File>,
}

fn error(code: i32) -> io::Error {
    io::Error::from_raw_os_error(code)
}

impl State {
    /// An empty file system: one durable root directory.
    pub(crate) fn new() -> Self {
        Self {
            dirs: vec![Dir::default()],
            files: Vec::new(),
        }
    }

    /// The live node at `path`.
    fn lookup(&self, path: &Path) -> Option<Node> {
        path.components()
            .skip(1)
            .try_fold(Node::Dir(0), |node, part| match node {
                Node::Dir(d) => self.dirs[d].live.get(part.as_os_str()).copied(),
                Node::File(_) => None,
            })
    }

    /// The directory that holds `path`, and `path`'s name in it.
    fn parent(&self, path: &Path) -> io::Result<(usize, OsString)> {
        let name = path.file_name().expect("a named path").to_owned();
        match path.parent().and_then(|p| self.lookup(p)) {
            Some(Node::Dir(d)) => Ok((d, name)),
            _ => Err(io::ErrorKind::NotFound.into()),
        }
    }

    fn dir(&self, path: &Path) -> io::Result<usize> {
        match self.lookup(path) {
            Some(Node::Dir(d)) => Ok(d),
            _ => Err(io::ErrorKind::NotFound.into()),
        }
    }

    /// Creates a directory; `Ok(false)` if one is already there.
    fn create_dir(&mut self, path: &Path) -> io::Result<bool> {
        match self.lookup(path) {
            Some(Node::Dir(_)) => return Ok(false),
            Some(Node::File(_)) => return Err(io::ErrorKind::AlreadyExists.into()),
            None => {}
        }
        let (parent, name) = self.parent(path)?;
        self.dirs.push(Dir::default());
        let node = Node::Dir(self.dirs.len() - 1);
        self.dirs[parent].live.insert(name, node);
        Ok(true)
    }

    /// Creates `path`, or truncates the file already there.
    fn create_file(&mut self, path: &Path) -> io::Result<usize> {
        match self.lookup(path) {
            Some(Node::File(f)) => {
                self.files[f] = File::default();
                Ok(f)
            }
            Some(Node::Dir(_)) => Err(io::ErrorKind::IsADirectory.into()),
            None => {
                let (parent, name) = self.parent(path)?;
                self.files.push(File::default());
                let f = self.files.len() - 1;
                self.dirs[parent].live.insert(name, Node::File(f));
                Ok(f)
            }
        }
    }

    fn write(&mut self, file: usize, bytes: &[u8]) {
        self.files[file].unsynced.extend_from_slice(bytes);
    }

    fn sync(&mut self, file: usize) {
        let f = &mut self.files[file];
        f.durable.append(&mut f.unsynced);
    }

    /// Applies an injected write fault to `file`, returning its error.
    fn fail_write(&mut self, file: usize, bytes: &[u8], fault: Fault) -> io::Error {
        match fault {
            Fault::SyncError { kept } => {
                self.write(file, bytes);
                if kept {
                    self.sync(file);
                }
                error(EIO)
            }
            Fault::ShortWrite => {
                self.write(file, &bytes[..bytes.len() / 2]);
                error(EIO)
            }
            Fault::NoSpace => error(ENOSPC),
            Fault::RenameError | Fault::DirSyncError => unreachable!("not a write fault"),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let (from_dir, from_name) = self.parent(from)?;
        let (to_dir, to_name) = self.parent(to)?;
        let node = self.dirs[from_dir]
            .live
            .remove(&from_name)
            .ok_or(io::ErrorKind::NotFound)?;
        self.dirs[to_dir].live.insert(to_name, node);
        Ok(())
    }

    fn sync_dir(&mut self, path: &Path) -> io::Result<()> {
        let d = self.dir(path)?;
        self.dirs[d].durable = self.dirs[d].live.clone();
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match self.lookup(path) {
            None => Ok(None),
            Some(Node::Dir(_)) => Err(io::ErrorKind::IsADirectory.into()),
            Some(Node::File(f)) => {
                let File { durable, unsynced } = &self.files[f];
                Ok(Some([&durable[..], unsynced].concat()))
            }
        }
    }

    /// Applies one logged operation; `handles` maps each `CreateSynced`
    /// to the file it made.
    pub(crate) fn replay(&mut self, record: &Record, handles: &mut HashMap<OpId, usize>) {
        let applied = match &record.op {
            Op::CreateDir(path) => self.create_dir(path).map(drop),
            Op::CreateSynced(path, bytes) => self.create_file(path).map(|file| {
                self.write(file, bytes);
                self.sync(file);
                handles.insert(record.id, file);
            }),
            Op::Rename(from, to) => self.rename(from, to),
            Op::SyncDir(path) => self.sync_dir(path),
            Op::Append(file, bytes) => {
                self.write(handles[file], bytes);
                Ok(())
            }
            Op::Sync(file) => {
                self.sync(handles[file]);
                Ok(())
            }
        };
        if let Err(e) = applied {
            panic!("replaying {record:?}: {e}");
        }
    }

    /// The state a power cut leaves: only durable entries and bytes.
    pub(crate) fn power_cut(&self) -> Self {
        let mut cut = self.clone();
        for dir in &mut cut.dirs {
            dir.live = dir.durable.clone();
        }
        for file in &mut cut.files {
            file.unsynced.clear();
        }
        cut
    }

    /// The states a power cut leaves when part of one file's unsynced
    /// suffix of log records reached the disk: for every record in it,
    /// cut inside its length prefix, inside its CRC and inside its
    /// payload.
    pub(crate) fn torn(&self) -> Vec<Self> {
        let mut states = Vec::new();
        for (f, file) in self.files.iter().enumerate() {
            let suffix = &file.unsynced;
            let mut at = 0;
            while let Some(len) = suffix.get(at..at + 4) {
                let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
                for cut in [at + 2, at + 8, at + 12 + len / 2] {
                    if cut < suffix.len() {
                        let mut state = self.power_cut();
                        state.files[f].durable.extend_from_slice(&suffix[..cut]);
                        states.push(state);
                    }
                }
                at += 12 + len;
            }
        }
        states
    }

    /// A digest of everything a later open or crash can observe: both
    /// views of every reachable directory and file. (Not a CRC: every
    /// checksummed section in a snapshot leaves a CRC-64 the same
    /// residue whatever its contents, so a CRC would tell them apart
    /// by length only.)
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut out = Vec::new();
        for live in [true, false] {
            self.encode(0, live, &mut out);
        }
        let mut hasher = std::hash::DefaultHasher::new();
        out.hash(&mut hasher);
        hasher.finish()
    }

    fn encode(&self, dir: usize, live: bool, out: &mut Vec<u8>) {
        let dir = &self.dirs[dir];
        for (name, node) in if live { &dir.live } else { &dir.durable } {
            out.extend_from_slice(name.as_encoded_bytes());
            match *node {
                Node::Dir(d) => {
                    out.push(b'/');
                    self.encode(d, live, out);
                    out.push(b'.');
                }
                Node::File(f) => {
                    for part in [&self.files[f].durable, &self.files[f].unsynced] {
                        out.extend_from_slice(&(part.len() as u64).to_le_bytes());
                        out.extend_from_slice(part);
                    }
                }
            }
        }
    }

    /// Every file under `dir` as a process sees it, by relative path.
    pub(crate) fn files_under(&self, dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        let mut pending = vec![(PathBuf::new(), self.dir(dir).expect("a directory"))];
        while let Some((rel, d)) = pending.pop() {
            for (name, node) in &self.dirs[d].live {
                match *node {
                    Node::Dir(sub) => pending.push((rel.join(name), sub)),
                    Node::File(f) => {
                        let File { durable, unsynced } = &self.files[f];
                        files.insert(rel.join(name), [&durable[..], unsynced].concat());
                    }
                }
            }
        }
        files
    }

    /// The checkpoint generations of `shard_dir`'s snapshot and of its
    /// log's header, where both are readable.
    pub(crate) fn generations(&self, shard_dir: &Path) -> Option<(u64, u64)> {
        let snapshot = self.read(&shard_dir.join("snapshot.bin")).ok()??;
        let log = self.read(&shard_dir.join("wal.bin")).ok()??;
        let header = ame_persist::scan_wal(&log).ok()?.into_iter().next()?;
        let u64_at = |bytes: &[u8], at: usize| {
            Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
        };
        Some((u64_at(&snapshot, 0)?, u64_at(&header, 1)?))
    }
}

/// A live model file system: a [`State`] the store mutates through
/// [`DurableFs`], the log of what it did, and an optional armed fault.
#[derive(Clone)]
pub(crate) struct MemFs {
    inner: Arc<Mutex<Inner>>,
}

struct Inner {
    state: State,
    log: Vec<Record>,
    epoch: usize,
    next: HashMap<usize, usize>,
    handles: HashMap<OpId, usize>,
    fault: Option<(OpId, Fault)>,
    fired: bool,
}

/// The lane of the calling thread.
fn lane() -> usize {
    std::thread::current()
        .name()
        .and_then(|name| name.strip_prefix("ame-shard"))
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(0, |s| s + 1)
}

impl Inner {
    /// The next operation's identity, and the fault armed for it.
    fn next(&mut self) -> (OpId, Option<Fault>) {
        let lane = lane();
        let index = self.next.entry(lane).or_default();
        let id = (lane, *index);
        *index += 1;
        let fault = self.fault.filter(|&(at, _)| at == id).map(|(_, f)| f);
        self.fired |= fault.is_some();
        (id, fault)
    }

    fn log(&mut self, id: OpId, op: Op) {
        self.log.push(Record {
            epoch: self.epoch,
            id,
            op,
        });
    }
}

impl MemFs {
    /// A model file system starting from `state`.
    pub(crate) fn new(state: State) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                state,
                log: Vec::new(),
                epoch: 0,
                next: HashMap::new(),
                handles: HashMap::new(),
                fault: None,
                fired: false,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("model lock")
    }

    /// Fails operation `at` with `fault`.
    pub(crate) fn arm(&self, at: OpId, fault: Fault) {
        self.lock().fault = Some((at, fault));
    }

    /// Whether the armed fault struck.
    pub(crate) fn fired(&self) -> bool {
        self.lock().fired
    }

    /// Starts a new client call; returns how many operations are logged.
    pub(crate) fn mark(&self) -> usize {
        let mut inner = self.lock();
        inner.epoch += 1;
        inner.log.len()
    }

    /// The current state, as a killed process would leave it.
    pub(crate) fn state(&self) -> State {
        self.lock().state.clone()
    }

    /// The log in canonical order: by client call, lane, index in lane.
    pub(crate) fn log(&self) -> Vec<Record> {
        let mut log = self.lock().log.clone();
        log.sort_by_key(|r| (r.epoch, r.id));
        log
    }
}

impl DurableFs for MemFs {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let (id, _) = inner.next();
        if inner.state.create_dir(dir)? {
            inner.log(id, Op::CreateDir(dir.into()));
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.lock().state.read(path)
    }

    fn create_synced(&self, path: &Path, parts: &[&[u8]]) -> io::Result<Box<dyn LogFile>> {
        let mut inner = self.lock();
        let (id, fault) = inner.next();
        let bytes = parts.concat();
        let file = inner.state.create_file(path)?;
        inner.handles.insert(id, file);
        if let Some(fault) = fault {
            return Err(inner.state.fail_write(file, &bytes, fault));
        }
        inner.state.write(file, &bytes);
        inner.state.sync(file);
        inner.log(id, Op::CreateSynced(path.into(), bytes));
        Ok(Box::new(MemLog {
            fs: self.clone(),
            id,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let (id, fault) = inner.next();
        if fault.is_some() {
            return Err(error(EIO));
        }
        inner.state.rename(from, to)?;
        inner.log(id, Op::Rename(from.into(), to.into()));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let (id, fault) = inner.next();
        if fault.is_some() {
            return Err(error(EIO));
        }
        inner.state.sync_dir(dir)?;
        inner.log(id, Op::SyncDir(dir.into()));
        Ok(())
    }
}

/// A log file of a [`MemFs`], named by the operation that created it.
struct MemLog {
    fs: MemFs,
    id: OpId,
}

impl LogFile for MemLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.fs.lock();
        let (id, fault) = inner.next();
        let file = inner.handles[&self.id];
        if let Some(fault) = fault {
            return Err(inner.state.fail_write(file, bytes, fault));
        }
        inner.state.write(file, bytes);
        inner.log(id, Op::Append(self.id, bytes.to_vec()));
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.fs.lock();
        let (id, fault) = inner.next();
        let file = inner.handles[&self.id];
        match fault {
            Some(Fault::SyncError { kept }) => {
                if kept {
                    inner.state.sync(file);
                }
                Err(error(EIO))
            }
            _ => {
                inner.state.sync(file);
                inner.log(id, Op::Sync(self.id));
                Ok(())
            }
        }
    }
}
