//! The crash enumerator. One deterministic scripted workload drives a
//! durable two-shard store through the model file system ([`MemFs`]).
//! Every durable operation it performs is a crash point: the state
//! after it is rebuilt as a power cut, a process kill and a torn log
//! tail would leave it, and reopened through the store's own open path —
//! and so is every operation of that reopen. Every operation is also
//! failed, once per I/O fault that can strike it, in a live rerun.
//!
//! Each reopen is checked against a plain model of what the client was
//! told. A `HashMap` per block holds every write with the operation
//! count the client read when it submitted the write and when the ack
//! arrived. After a crash at operation `k`, a block must hold the last
//! write acknowledged by `k`, or one submitted by `k` after it and not
//! yet acknowledged: never an older value (a replayed stale log would
//! show up so) and never a later one.

use crate::memfs::{Fault, MemFs, Record, State, EIO, ENOSPC};
use crate::wal::{DurableFs, RealFs};
use crate::{SecureStore, StoreConfig, StoreError, StoreOp, StoreValue, BLOCK_BYTES};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
/// 64 blocks per shard: one counter group each.
const BLOCKS: u64 = 128;

type Block = [u8; BLOCK_BYTES];

/// Small shards: a log rotates once it holds as many bytes as the
/// shard's last image, a few hundred bytes to a few KiB here.
fn config() -> StoreConfig {
    StoreConfig {
        shards: SHARDS,
        shard_bytes: BLOCKS / SHARDS as u64 * BLOCK_BYTES as u64,
        queue_depth: 4,
        max_batch: 8,
        ..StoreConfig::default()
    }
}

/// The store directory in the model. Neither it nor its parent exists
/// at first, so the first open creates both.
fn model_dir() -> PathBuf {
    PathBuf::from("/ame/store")
}

fn addr(block: u64) -> u64 {
    block * BLOCK_BYTES as u64
}

fn shard_of(block: u64) -> usize {
    (block % SHARDS as u64) as usize
}

/// The contents of the client's `id`-th write: unlike every other
/// write's and unlike the never-written zero block.
fn value(id: u16) -> Block {
    let mut block = [0x5a; BLOCK_BYTES];
    block[..2].copy_from_slice(&id.to_le_bytes());
    block
}

/// Which write a served block is, for messages.
fn id_of(block: &Block) -> Option<u16> {
    (*block != [0; BLOCK_BYTES]).then(|| u16::from_le_bytes([block[0], block[1]]))
}

/// One write as the client saw it, in logged operations.
struct Write {
    value: Block,
    submit: usize,
    ack: Option<usize>,
}

/// What a reopened shard serves.
#[derive(Clone, Debug, PartialEq)]
enum Served {
    Quarantined,
    Blocks(Vec<Block>),
}

/// One operation of a [`Client::batch`].
#[derive(Clone, Copy)]
enum Step {
    Write(u64),
    Read(u64),
}

/// What the script's telemetry showed.
#[derive(Debug, Default)]
struct Coverage {
    /// Shard 0's rotations in the first life, all by size.
    size_rotations: u64,
    group_commits: u64,
    rmws: u64,
    /// Shard 0's re-encryptions and rotations in the second life.
    reencryptions: u64,
    reencryption_rotations: u64,
}

/// The scripted client and its model of what the store acknowledged.
struct Client {
    /// The model file system, whose log length is the client's clock;
    /// `None` on the real file system, where the clock stays at 0.
    mem: Option<MemFs>,
    dir: PathBuf,
    /// The shard an armed fault strikes, and a description for messages.
    fault: Option<(Option<usize>, String)>,
    writes: HashMap<u64, Vec<Write>>,
    /// What each block holds, for checking reads as they are served.
    current: HashMap<u64, Block>,
    /// Shards that have reported a failure since they last opened.
    failed: [bool; SHARDS],
    saw_failure: bool,
    next_id: u16,
    coverage: Coverage,
}

impl Client {
    fn new(mem: Option<MemFs>, dir: PathBuf) -> Self {
        Self {
            mem,
            dir,
            fault: None,
            writes: HashMap::new(),
            current: HashMap::new(),
            failed: [false; SHARDS],
            saw_failure: false,
            next_id: 1,
            coverage: Coverage::default(),
        }
    }

    /// Starts or ends a client call: the operation count so far.
    fn now(&self) -> usize {
        self.mem.as_ref().map_or(0, MemFs::mark)
    }

    fn fresh(&mut self) -> Block {
        self.next_id += 1;
        value(self.next_id)
    }

    fn fail(&self, what: String) -> ! {
        match &self.fault {
            Some((_, fault)) => panic!("{what} (with {fault})"),
            None => panic!("{what}"),
        }
    }

    /// An error the store returned for `block`: only the faulted shard
    /// may fail, and only by quarantine.
    fn failure(&mut self, block: u64, error: StoreError) {
        let shard = shard_of(block);
        let faulted = self.fault.as_ref().and_then(|(s, _)| *s);
        if faulted != Some(shard)
            || !matches!(error, StoreError::ShardPoisoned { shard: s, .. } if s == shard)
        {
            self.fail(format!("block {block} failed with {error:?}"));
        }
        self.failed[shard] = true;
        self.saw_failure = true;
    }

    /// Settles one write the store answered.
    fn settle(
        &mut self,
        block: u64,
        value: Block,
        submit: usize,
        ack: usize,
        ok: Result<(), StoreError>,
        was_failed: bool,
    ) {
        let ack = match ok {
            Ok(()) if was_failed => {
                self.fail(format!("block {block}: a quarantined shard acknowledged"))
            }
            Ok(()) => {
                self.current.insert(block, value);
                Some(ack)
            }
            Err(e) => {
                self.failure(block, e);
                None
            }
        };
        self.writes
            .entry(block)
            .or_default()
            .push(Write { value, submit, ack });
    }

    /// What `block` holds if no acknowledged write was lost.
    fn expected(&self, block: u64) -> Block {
        self.current
            .get(&block)
            .copied()
            .unwrap_or([0; BLOCK_BYTES])
    }

    fn write(&mut self, store: &SecureStore, block: u64) {
        let value = self.fresh();
        let was_failed = self.failed[shard_of(block)];
        let submit = self.now();
        let result = store.write(addr(block), &value);
        let ack = self.now();
        self.settle(block, value, submit, ack, result, was_failed);
    }

    fn rmw(&mut self, store: &SecureStore, block: u64) {
        let value = self.fresh();
        let was_failed = self.failed[shard_of(block)];
        let submit = self.now();
        let result = store.read_modify_write(addr(block), move |b| *b = value);
        let ack = self.now();
        if let Ok(old) = result {
            if old != self.expected(block) {
                self.fail(format!(
                    "block {block}: the RMW saw write {:?}",
                    id_of(&old)
                ));
            }
        }
        self.settle(block, value, submit, ack, result.map(drop), was_failed);
    }

    fn batch(&mut self, store: &SecureStore, steps: &[Step]) {
        let ops: Vec<StoreOp> = steps
            .iter()
            .map(|&step| match step {
                Step::Write(block) => StoreOp::Write {
                    addr: addr(block),
                    data: self.fresh(),
                },
                Step::Read(block) => StoreOp::Read { addr: addr(block) },
            })
            .collect();
        let was_failed = self.failed;
        let submit = self.now();
        let results = store.submit_batch(&ops);
        let ack = self.now();
        for (&step, (op, result)) in steps.iter().zip(ops.iter().zip(results)) {
            match (step, op, result) {
                (Step::Write(block), &StoreOp::Write { data, .. }, result) => {
                    let ok = result.map(|v| assert_eq!(v, StoreValue::Written));
                    self.settle(block, data, submit, ack, ok, was_failed[shard_of(block)]);
                }
                (Step::Read(block), _, Ok(StoreValue::Data(data))) => {
                    let shard = shard_of(block);
                    if was_failed[shard] {
                        self.fail(format!("block {block}: a quarantined shard served"));
                    }
                    // A failure earlier in this batch may have left
                    // later reads on the shard served.
                    if !self.failed[shard] && data != self.expected(block) {
                        self.fail(format!("block {block} read write {:?}", id_of(&data)));
                    }
                }
                (Step::Read(block), _, Err(e)) => self.failure(block, e),
                (_, _, other) => self.fail(format!("unexpected batch result {other:?}")),
            }
        }
    }

    /// A pipelined session run on one shard: an RMW holds the worker
    /// while four writes queue behind it, so the writes reach the worker
    /// in one wakeup — one record, one sync, four held acks.
    fn session_run(&mut self, store: &SecureStore, rmw: u64, blocks: [u64; 4]) {
        let (started, entered) = sync_channel(1);
        let (release, gate) = sync_channel::<()>(1);
        let mut session = store.session();
        let value = self.fresh();
        let mut steps = vec![(rmw, value)];
        let was_failed = self.failed;
        let submit = self.now();
        let held = session.submit_rmw(addr(rmw), move |b| {
            let _ = started.send(());
            let _ = gate.recv();
            *b = value;
        });
        // Once the RMW is inside the worker (or was refused), the writes
        // queue up behind it.
        let _ = entered.recv();
        let mut tickets = vec![held];
        for block in blocks {
            let data = self.fresh();
            steps.push((block, data));
            tickets.push(session.submit(StoreOp::Write {
                addr: addr(block),
                data,
            }));
        }
        drop(release);
        let results: Vec<_> = tickets
            .into_iter()
            .map(|ticket| ticket.and_then(|t| session.wait(t)))
            .collect();
        let ack = self.now();
        for ((block, value), result) in steps.into_iter().zip(results) {
            let ok = result.map(|v| match v {
                StoreValue::Modified(old) if old != self.expected(block) => self.fail(format!(
                    "block {block}: the RMW saw write {:?}",
                    id_of(&old)
                )),
                StoreValue::Modified(_) | StoreValue::Written => {}
                StoreValue::Data(_) => self.fail(format!("block {block}: a write returned data")),
            });
            self.settle(block, value, submit, ack, ok, was_failed[shard_of(block)]);
        }
    }

    /// Opens the store through `fs`, checks what it serves against the
    /// model and adopts it. An open an injected fault failed is retried
    /// once: the fault sequence is a failed open, then a healthy one.
    fn open(&mut self, fs: &Arc<dyn DurableFs>) -> SecureStore {
        let fired = self.mem.as_ref().is_some_and(MemFs::fired);
        self.now();
        let store = match SecureStore::open_on(Arc::clone(fs), &self.dir, config()) {
            Ok(store) => store,
            Err(e) => {
                let struck = !fired && self.mem.as_ref().is_some_and(MemFs::fired);
                if !struck || !matches!(e.raw_os_error(), Some(EIO | ENOSPC)) {
                    self.fail(format!("open failed: {e}"));
                }
                self.saw_failure = true;
                SecureStore::open_on(Arc::clone(fs), &self.dir, config()).unwrap_or_else(|e| {
                    self.fail(format!("the open after a failed one failed: {e}"))
                })
            }
        };
        let served = serve(&store);
        let now = self.now();
        if let Err(e) = self.check(&served, now) {
            self.fail(format!("reopen: {e}"));
        }
        self.adopt(&served, now);
        store
    }

    /// Takes what a reopened store serves as acknowledged from here on:
    /// a write it did not bring back must never appear later.
    fn adopt(&mut self, served: &[Served], now: usize) {
        self.failed = [false; SHARDS];
        for (block, value) in blocks(served).expect("a checked reopen serves every shard") {
            self.current.insert(block, value);
            self.writes.entry(block).or_default().push(Write {
                value,
                submit: now,
                ack: Some(now),
            });
        }
    }

    fn shutdown(&mut self, store: SecureStore) {
        self.now();
        for report in store.shutdown().shards {
            if !report.resealed && !self.failed[report.shard] {
                if self.fault.as_ref().and_then(|(s, _)| *s) != Some(report.shard) {
                    self.fail(format!("shard {} did not reseal", report.shard));
                }
                self.saw_failure = true;
            }
        }
        self.now();
    }

    fn shard0(&self, store: &SecureStore, name: &str) -> u64 {
        let snapshot = store.telemetry();
        snapshot
            .counter(&format!("store/shard0/{name}"))
            .unwrap_or(0)
    }

    /// The values `block` may hold after a crash at operation `k`.
    fn allowed(&self, block: u64, k: usize) -> Vec<Block> {
        let writes = self.writes.get(&block).map_or(&[][..], Vec::as_slice);
        let last = writes.iter().rposition(|w| w.ack.is_some_and(|a| a <= k));
        let mut allowed = vec![last.map_or([0; BLOCK_BYTES], |i| writes[i].value)];
        let after = last.map_or(0, |i| i + 1);
        allowed.extend(
            writes[after..]
                .iter()
                .filter(|w| w.submit <= k && w.ack.is_none_or(|a| a > k))
                .map(|w| w.value),
        );
        allowed
    }

    /// Checks what a store reopened after operation `k` serves.
    fn check(&self, served: &[Served], k: usize) -> Result<(), String> {
        let blocks = blocks(served).map_err(|shard| format!("shard {shard} is quarantined"))?;
        for (block, got) in blocks {
            let allowed = self.allowed(block, k);
            if !allowed.contains(&got) {
                let allowed: Vec<_> = allowed.iter().map(id_of).collect();
                return Err(format!(
                    "block {block} holds write {:?}, allowed {allowed:?}",
                    id_of(&got)
                ));
            }
        }
        Ok(())
    }
}

/// Every served block as (block, contents); `Err` names the first
/// quarantined shard.
fn blocks(served: &[Served]) -> Result<Vec<(u64, Block)>, usize> {
    let mut all = Vec::new();
    for (shard, view) in served.iter().enumerate() {
        let Served::Blocks(blocks) = view else {
            return Err(shard);
        };
        let block = |i: usize| i as u64 * SHARDS as u64 + shard as u64;
        all.extend(blocks.iter().enumerate().map(|(i, &b)| (block(i), b)));
    }
    Ok(all)
}

/// Reads every block back, one view per shard.
fn serve(store: &SecureStore) -> Vec<Served> {
    let ops: Vec<StoreOp> = (0..BLOCKS)
        .map(|b| StoreOp::Read { addr: addr(b) })
        .collect();
    let results = store.submit_batch(&ops);
    (0..SHARDS)
        .map(|shard| {
            let mut blocks = Vec::new();
            for result in results.iter().skip(shard).step_by(SHARDS) {
                match result {
                    Ok(StoreValue::Data(data)) => blocks.push(*data),
                    Err(StoreError::ShardPoisoned { .. }) => return Served::Quarantined,
                    other => panic!("shard {shard} read back {other:?}"),
                }
            }
            Served::Blocks(blocks)
        })
        .collect()
}

/// The workload: single writes, RMWs that rotate by size, a group
/// commit, write runs, a process kill and a reopen that replays both
/// logs, a re-encryption-triggered rotation, a pipelined session run, a
/// graceful shutdown (re-key and checkpoint) and a reopen that only
/// checkpoints.
fn script(fs: &Arc<dyn DurableFs>, client: &mut Client) {
    let store = client.open(fs);
    // One write per wakeup: four single-write records take each shard's
    // log past the few-hundred-byte image of its empty region, so each
    // shard's RMW rotates by size.
    for block in 0..8 {
        client.write(&store, block);
    }
    client.rmw(&store, 0);
    client.rmw(&store, 1);
    client.coverage.size_rotations = client.shard0(&store, "checkpoints");
    // Into the logs the rotations began: a group commit — the read
    // splits shard 0's writes into two records that share one sync —
    // then a four-block run per shard.
    let group = [20, 22].map(Step::Write).into_iter().chain([Step::Read(0)]);
    let group: Vec<Step> = group.chain([24, 26, 21].map(Step::Write)).collect();
    client.batch(&store, &group);
    client.batch(&store, &(8..16).map(Step::Write).collect::<Vec<_>>());
    client.coverage.group_commits = client.shard0(&store, "wal_group_commits");
    client.coverage.rmws = client.shard0(&store, "rmws");
    assert_eq!(client.shard0(&store, "engine/counters/reencryptions"), 0);
    for block in 30..34 {
        client.write(&store, block);
    }
    assert_eq!(
        client.shard0(&store, "checkpoints"),
        client.coverage.size_rotations,
        "the rest of the first life fits the logs the RMWs began"
    );
    client.now();
    store.simulate_crash();

    let store = client.open(fs);
    // 130 writes of one block overflow its 7-bit delta: the group is
    // re-encrypted and the log rotates instead of taking the record —
    // by the re-encryption alone, since the log is far below the image.
    client.batch(&store, &[Step::Write(40); 130]);
    client.write(&store, 42);
    client.session_run(&store, 3, [41, 43, 45, 47]);
    client.coverage.reencryptions = client.shard0(&store, "engine/counters/reencryptions");
    client.coverage.reencryption_rotations = client.shard0(&store, "checkpoints");
    client.shutdown(store);

    let store = client.open(fs);
    client.now();
    store.simulate_crash();
}

/// Runs the script on a fresh model file system, with `fault` armed at
/// the logged operation it names.
fn run(fault: Option<(&Record, Fault)>) -> (MemFs, Client) {
    let mem = MemFs::new(State::new());
    let mut client = Client::new(Some(mem.clone()), model_dir());
    if let Some((at, fault)) = fault {
        mem.arm(at.id, fault);
        let shard = at.id.0.checked_sub(1);
        client.fault = Some((shard, format!("{fault:?} at {at:?}")));
    }
    let fs: Arc<dyn DurableFs> = Arc::new(mem.clone());
    script(&fs, &mut client);
    (mem, client)
}

/// The healthy run whose logged operations the enumeration replays.
fn record() -> (MemFs, Client) {
    run(None)
}

/// Opens a copy of `state` and reports what it serves, and the
/// operations the open performed.
fn reopen(state: &State) -> Result<(Vec<Served>, Vec<Record>), String> {
    let mem = MemFs::new(state.clone());
    let store = SecureStore::open_on(Arc::new(mem.clone()), &model_dir(), config())
        .map_err(|e| format!("the reopen failed: {e}"))?;
    let served = serve(&store);
    store.simulate_crash();
    Ok((served, mem.log()))
}

/// Counts of what one enumeration did.
#[derive(Debug, Default)]
struct Census {
    ops: usize,
    crash_states: usize,
    torn_states: usize,
    stale_logs: usize,
    fault_runs: usize,
    recovery_crashes: usize,
    reopens: usize,
}

/// What a reopen served: one view per shard, or why the open failed.
type Outcome = Result<Vec<Served>, String>;

/// A short form of an outcome for messages: the write each block holds.
fn ids(outcome: &Outcome) -> String {
    match outcome {
        Err(e) => e.clone(),
        Ok(served) => format!(
            "{:?}",
            served
                .iter()
                .map(|view| match view {
                    Served::Quarantined => None,
                    Served::Blocks(blocks) => Some(blocks.iter().map(id_of).collect::<Vec<_>>()),
                })
                .collect::<Vec<_>>()
        ),
    }
}

/// Reopens crash states, each distinct state once.
#[derive(Default)]
struct Reopener {
    /// By state fingerprint: what reopening it served.
    served: HashMap<u64, Outcome>,
    /// By state fingerprint: every outcome a reopen of it can reach,
    /// its own recovery crashing or not.
    reachable: HashMap<u64, Vec<Outcome>>,
    census: Census,
}

impl Reopener {
    /// Every outcome reopening `state` can reach. The first time a
    /// state is seen, its recovery is also crashed after each of its
    /// own operations and recovered again. After a kill the second
    /// recovery must serve exactly what the uninterrupted one served. A
    /// power cut may lose what the first recovery replayed from
    /// unsynced bytes, so its outcome is kept for the caller to check.
    fn reachable(&mut self, state: &State, what: &str, failures: &mut Vec<String>) -> Vec<Outcome> {
        let key = state.fingerprint();
        if let Some(outcomes) = self.reachable.get(&key) {
            return outcomes.clone();
        }
        self.census.reopens += 1;
        let first = reopen(state);
        let mut outcomes = vec![first.clone().map(|(served, _)| served)];
        if let Ok((served, log)) = first {
            let mut mid = state.clone();
            let mut handles = HashMap::new();
            for (j, op) in log.iter().enumerate() {
                mid.replay(op, &mut handles);
                self.census.recovery_crashes += 2;
                let again = self.once(&mid);
                if again.as_ref() != Ok(&served) {
                    failures.push(format!(
                        "{what}, kill after recovery op {j} ({op:?}), then reopen: {}, \
                         the uninterrupted recovery served {}",
                        ids(&again),
                        ids(&Ok(served.clone()))
                    ));
                }
                let again = self.once(&mid.power_cut());
                if !outcomes.contains(&again) {
                    outcomes.push(again);
                }
            }
        }
        self.reachable.insert(key, outcomes.clone());
        outcomes
    }

    /// What reopening `state` serves, without crashing the recovery.
    fn once(&mut self, state: &State) -> Outcome {
        let key = state.fingerprint();
        if let Some(served) = self.served.get(&key) {
            return served.clone();
        }
        self.census.reopens += 1;
        let served = reopen(state).map(|(served, _)| served);
        self.served.insert(key, served.clone());
        served
    }
}

fn report(census: &Census, started: Instant, failures: &[String]) {
    eprintln!(
        "crash enumeration: {census:?}, {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let shown: Vec<&String> = failures.iter().take(20).collect();
    assert!(
        failures.is_empty(),
        "{} failures, first: {shown:#?}",
        failures.len()
    );
}

#[test]
fn the_script_is_deterministic_and_reaches_every_durable_path() {
    let (first, client) = record();
    let (second, _) = record();
    assert!(!client.saw_failure);
    assert_eq!(
        first.log(),
        second.log(),
        "two runs logged different operations"
    );
    let coverage = &client.coverage;
    assert!(coverage.size_rotations >= 1, "{coverage:?}");
    assert!(coverage.group_commits >= 1, "{coverage:?}");
    assert!(coverage.rmws >= 1, "{coverage:?}");
    assert!(coverage.reencryptions >= 1, "{coverage:?}");
    assert!(coverage.reencryption_rotations >= 1, "{coverage:?}");
}

#[test]
fn the_model_leaves_the_bytes_the_real_file_system_does() {
    let base = std::env::temp_dir().join(format!("ame-crash-check-{}", std::process::id()));
    let real_dir = base.join("ame").join("store");
    let _ = std::fs::remove_dir_all(&base);
    let mut client = Client::new(None, real_dir.clone());
    script(&(Arc::new(RealFs) as Arc<dyn DurableFs>), &mut client);
    assert!(!client.saw_failure);
    let mut real = BTreeMap::new();
    let mut pending = vec![PathBuf::new()];
    while let Some(rel) = pending.pop() {
        for entry in std::fs::read_dir(real_dir.join(&rel)).unwrap() {
            let entry = entry.unwrap();
            let path = rel.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                pending.push(path);
            } else {
                real.insert(path, std::fs::read(entry.path()).unwrap());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    let (mem, _) = record();
    let model = mem.state().files_under(&model_dir());
    let names = |files: &BTreeMap<PathBuf, Vec<u8>>| files.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&model), names(&real));
    for (path, bytes) in &model {
        assert!(real[path] == *bytes, "{} differs", path.display());
    }
}

#[test]
fn every_crash_point_recovers_every_acked_write() {
    let started = Instant::now();
    let (mem, client) = record();
    let log = mem.log();
    let mut reopener = Reopener::default();
    let mut failures = Vec::new();
    let mut state = State::new();
    let mut handles = HashMap::new();
    for k in 0..=log.len() {
        if k > 0 {
            state.replay(&log[k - 1], &mut handles);
        }
        let torn = state.torn();
        reopener.census.torn_states += torn.len();
        let crashes = [("power cut", state.power_cut()), ("kill", state.clone())];
        for (how, crashed) in crashes
            .into_iter()
            .chain(torn.into_iter().map(|s| ("torn", s)))
        {
            reopener.census.crash_states += 1;
            let stale = (0..SHARDS).any(|s| {
                let shard = model_dir().join(format!("shard{s}"));
                crashed
                    .generations(&shard)
                    .is_some_and(|(snapshot, log)| log < snapshot)
            });
            reopener.census.stale_logs += usize::from(stale);
            let op = k.checked_sub(1).map(|i| &log[i]);
            let what = format!("{how} after op {k} {op:?}");
            for outcome in reopener.reachable(&crashed, &what, &mut failures) {
                if let Err(e) = outcome.and_then(|served| client.check(&served, k)) {
                    failures.push(format!("{what}: {e}"));
                }
            }
        }
    }
    reopener.census.ops = log.len();
    assert!(reopener.census.stale_logs > 0, "no crash left a stale log");
    report(&reopener.census, started, &failures);
}

#[test]
fn every_io_fault_quarantines_or_fails_the_open_and_loses_no_acked_write() {
    let started = Instant::now();
    let (mem, _) = record();
    let log = mem.log();
    let mut reopener = Reopener::default();
    let mut failures = Vec::new();
    for op in &log {
        for fault in Fault::ALL.into_iter().filter(|f| f.applies_to(&op.op)) {
            reopener.census.fault_runs += 1;
            let (mem, client) = run(Some((op, fault)));
            assert!(mem.fired() && client.saw_failure, "{fault:?} at {op:?}");
            let end = mem.mark();
            let state = mem.state();
            for (how, crashed) in [("power cut", state.power_cut()), ("kill", state)] {
                let checked = reopener
                    .once(&crashed)
                    .and_then(|served| client.check(&served, end));
                if let Err(e) = checked {
                    failures.push(format!("{fault:?} at {op:?}, then {how}: {e}"));
                }
            }
        }
    }
    reopener.census.ops = log.len();
    report(&reopener.census, started, &failures);
}
