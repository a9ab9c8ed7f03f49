//! The `wire` rung: an in-process `ame-server` on a loopback port, one
//! reactor thread, one volatile two-shard tenant, and
//! [`WIRE_CONNECTIONS`] client connections with one thread each —
//! closed loop (a `PipelinedClient` per connection, window kept full)
//! or open loop (a paced sender and a reader per connection).

use super::engine::{fault_gate, partitions, FaultTarget};
use super::store::store_config;
use crate::host::tight_timer_slack;
use crate::laps::now_ns;
use crate::record::{Driven, Recorder, TraceCtx, IDS_PER_THREAD};
use crate::schedule::{Partition, BLOCK};
use crate::spans::Layer;
use crate::spec::{Sizing, Workload, PACED_OPS_PER_S, WIRE_CONNECTIONS, WIRE_WINDOW};
use ame_server::protocol::{
    block_payload, op, read_frame, write_frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION, STATUS_OK,
};
use ame_server::{
    Client, PipelinedClient, PipelinedResponse, PipelinedValue, Server, ServerConfig, ServerMode,
    TenantSpec,
};
use ame_telemetry::Snapshot;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

/// Window an open-loop connection asks for. The generator never waits
/// for a slot; at 13 % of capacity a handful are in flight.
const PACED_WINDOW: u32 = 64;
/// A response that takes this long means the server is stuck; the run
/// aborts instead of hanging.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// A running server with the connections' models.
pub struct WireSut {
    server: Option<Server>,
    addr: SocketAddr,
    /// The op streams and models, one per connection.
    pub parts: Vec<Partition>,
}

/// One request in flight.
struct InFlight {
    op_index: u64,
    /// Latency origin: send time (closed loop) or due time (open loop).
    t0: u64,
    /// When the open-loop sender actually sent it.
    sent: u64,
    /// `Some(expected bytes)` for a read.
    expect: Option<[u8; 64]>,
}

fn trace_for(trace: Option<TraceCtx>, thread: usize) -> Option<TraceCtx> {
    trace.map(|t| TraceCtx {
        rung_span: t.rung_span,
        id_base: t.id_base + thread as u32 * IDS_PER_THREAD,
    })
}

fn check(rec: &mut Recorder, outcome: Result<Option<[u8; 64]>, String>, expect: Option<[u8; 64]>) {
    match outcome {
        Ok(got) if got == expect => {}
        Ok(_) => rec.mismatches += 1,
        Err(_) => rec.failed += 1,
    }
}

fn reap(rec: &mut Recorder, pending: &mut HashMap<u64, InFlight>, response: PipelinedResponse) {
    let (id, outcome) = response;
    let Some(req) = pending.remove(&id) else {
        rec.failed += 1;
        return;
    };
    rec.complete(req.op_index, req.expect.is_none(), req.t0, now_ns(), 1);
    let outcome = match outcome {
        Ok(PipelinedValue::Data(data)) => Ok(Some(data)),
        Ok(PipelinedValue::Written) => Ok(None),
        Err(e) => Err(e.to_string()),
    };
    check(rec, outcome, req.expect);
}

/// One pipelined pass over a partition's blocks in address order:
/// writes of the initial payloads, or reads checked against the model.
/// Returns how many operations failed or read back wrong.
fn pass(addr: SocketAddr, part: &Partition, write: bool) -> u64 {
    let mut client =
        PipelinedClient::connect(addr, 0, WIRE_WINDOW as u32).expect("connect for a pass");
    let mut pending: HashMap<u64, u64> = HashMap::with_capacity(2 * WIRE_WINDOW);
    let mut bad = 0u64;
    let mut settle = |pending: &mut HashMap<u64, u64>, (id, outcome): PipelinedResponse| {
        let block = pending.remove(&id);
        let good = match (outcome, block) {
            (Ok(PipelinedValue::Written), Some(_)) => write,
            (Ok(PipelinedValue::Data(data)), Some(b)) => !write && data == part.model.expected(b),
            _ => false,
        };
        bad += u64::from(!good);
    };
    for block in part.base()..part.base() + part.blocks() {
        let (id, reaped) = if write {
            client.submit_write_wait(block * BLOCK, &part.model.initial(block))
        } else {
            client.submit_read_wait(block * BLOCK)
        }
        .expect("transport during a pass");
        for response in reaped {
            settle(&mut pending, response);
        }
        pending.insert(id, block);
    }
    for response in client.drain().expect("transport during a pass") {
        settle(&mut pending, response);
    }
    client.goodbye().expect("goodbye after a pass");
    bad
}

impl WireSut {
    /// Binds the server, prefills every block with pipelined writes over
    /// all connections at once and reads it all back the same way.
    ///
    /// # Errors
    ///
    /// Bind failure, or blocks that failed or read back wrong.
    pub fn build(workload: Workload, seed: u64, sizing: &Sizing) -> Result<Self, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                tenants: vec![TenantSpec::new(0, store_config(sizing))],
                mode: ServerMode::Reactor { threads: 1 },
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let mut sut = Self {
            addr: server.addr(),
            server: Some(server),
            parts: partitions(workload, seed, sizing),
        };
        match sut.all_connections(true) + sut.read_back() {
            0 => Ok(sut),
            n => Err(format!("set-up: {n} blocks failed or differ")),
        }
    }

    fn all_connections(&self, write: bool) -> u64 {
        let addr = self.addr;
        std::thread::scope(|s| {
            let passes: Vec<_> = self
                .parts
                .iter()
                .map(|part| s.spawn(move || pass(addr, part, write)))
                .collect();
            passes
                .into_iter()
                .map(|h| h.join().expect("pass thread"))
                .sum()
        })
    }

    /// Reads every block over the wire; returns how many failed or
    /// differ from the model.
    pub fn read_back(&mut self) -> u64 {
        self.all_connections(false)
    }

    /// One thread per connection, each driving its own partition with
    /// `connection`; the threads start together.
    fn drive_connections(
        &mut self,
        trace: Option<TraceCtx>,
        connection: impl Fn(SocketAddr, &mut Partition, &Barrier, Option<TraceCtx>) -> Recorder + Sync,
    ) -> Driven {
        let addr = self.addr;
        let barrier = Barrier::new(self.parts.len());
        let recorders = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .parts
                .iter_mut()
                .enumerate()
                .map(|(t, part)| {
                    let (barrier, connection) = (&barrier, &connection);
                    s.spawn(move || connection(addr, part, barrier, trace_for(trace, t)))
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        Driven::merge(recorders)
    }

    /// Closed loop: every connection keeps [`WIRE_WINDOW`] requests in
    /// flight; a request's latency runs from its send to its response.
    pub fn drive_closed(
        &mut self,
        sizing: &Sizing,
        laps: usize,
        trace: Option<TraceCtx>,
    ) -> Driven {
        let lap_ops = sizing.lap_ops / WIRE_CONNECTIONS;
        self.drive_connections(trace, |addr, part, barrier, trace| {
            closed_connection(addr, part, lap_ops, laps, barrier, trace)
        })
    }

    /// Open loop at [`PACED_OPS_PER_S`] over all connections: request
    /// `i` of a connection is due at `start + i * interval` whatever the
    /// server is doing, and its latency runs from that due time.
    pub fn drive_paced(&mut self, sizing: &Sizing, laps: usize, trace: Option<TraceCtx>) -> Driven {
        let lap_ops = sizing.lap_ops / WIRE_CONNECTIONS;
        let interval_ns = 1_000_000_000 * WIRE_CONNECTIONS / PACED_OPS_PER_S;
        self.drive_connections(trace, |addr, part, barrier, trace| {
            paced_connection(addr, part, lap_ops, laps, interval_ns, barrier, trace)
        })
    }

    /// The server's telemetry snapshot (`server/tenant0/…`).
    #[must_use]
    pub fn telemetry(&self) -> Snapshot {
        self.server.as_ref().expect("server is up").telemetry()
    }

    /// The correctness gate's fault injections, through a blocking
    /// `Client` (poisons a shard: call last).
    ///
    /// # Errors
    ///
    /// What was not corrected or not refused.
    pub fn fault_gate(&mut self) -> Result<(), String> {
        let base = self.parts[0].base();
        let expect = self.parts[0].model.expected(base);
        let mut client = GateClient(Client::connect(self.addr, 0).map_err(|e| e.to_string())?);
        let verdict = fault_gate(&mut client, base, expect, base + 1);
        let _ = client.0.goodbye();
        verdict
    }

    /// Orderly server shutdown (drain, re-seal).
    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

struct GateClient(Client);

impl FaultTarget for GateClient {
    fn flip_data_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        self.0
            .tamper_data_bit(block * BLOCK, bit)
            .map_err(|e| e.to_string())
    }

    fn flip_sideband_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        self.0
            .tamper_sideband_bit(block * BLOCK, bit)
            .map_err(|e| e.to_string())
    }

    fn read(&mut self, block: u64) -> Result<[u8; 64], String> {
        self.0.read(block * BLOCK).map_err(|e| e.to_string())
    }
}

fn closed_connection(
    addr: SocketAddr,
    part: &mut Partition,
    lap_ops: u64,
    laps: usize,
    barrier: &Barrier,
    trace: Option<TraceCtx>,
) -> Recorder {
    let mut client =
        PipelinedClient::connect(addr, 0, WIRE_WINDOW as u32).expect("connect to the server");
    let total = lap_ops * laps as u64;
    let mut pending: HashMap<u64, InFlight> = HashMap::with_capacity(2 * WIRE_WINDOW);
    barrier.wait();
    let mut rec = Recorder::start(Layer::Wire, lap_ops, laps, total, trace);
    for i in 0..total {
        let next = part.next_op();
        let data = next.write.then(|| part.model.write_payload(next.block));
        let expect = (!next.write).then(|| part.model.expected(next.block));
        while client.in_flight() >= client.window() {
            let response = client.recv().expect("transport in the measured phase");
            reap(&mut rec, &mut pending, response);
        }
        let t0 = now_ns();
        let id = match &data {
            Some(data) => client.submit_write(next.block * BLOCK, data),
            None => client.submit_read(next.block * BLOCK),
        }
        .expect("transport in the measured phase");
        pending.insert(
            id,
            InFlight {
                op_index: i,
                t0,
                sent: t0,
                expect,
            },
        );
    }
    while client.in_flight() > 0 {
        let response = client.recv().expect("transport in the measured phase");
        reap(&mut rec, &mut pending, response);
    }
    client.goodbye().expect("goodbye");
    rec
}

/// `Hello` by hand: the open-loop generator needs the socket split into
/// a sending and a receiving half, which `PipelinedClient` does not
/// offer.
fn hello(stream: &mut TcpStream, window: u32) -> Result<(), String> {
    let mut payload = Vec::with_capacity(12);
    payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&window.to_le_bytes());
    write_frame(stream, op::HELLO, 0, &payload).map_err(|e| e.to_string())?;
    let frame = read_frame(stream, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
    if frame.tag == STATUS_OK {
        Ok(())
    } else {
        Err(format!("hello refused with code {:#x}", frame.tag))
    }
}

fn paced_connection(
    addr: SocketAddr,
    part: &mut Partition,
    lap_ops: u64,
    laps: usize,
    interval_ns: u64,
    barrier: &Barrier,
    trace: Option<TraceCtx>,
) -> Recorder {
    let mut tx = TcpStream::connect(addr).expect("connect to the server");
    tx.set_nodelay(true).expect("TCP_NODELAY");
    hello(&mut tx, PACED_WINDOW).expect("handshake");
    let mut rx = tx.try_clone().expect("split the socket");
    rx.set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("read timeout");
    let total = lap_ops * laps as u64;
    let (meta_tx, meta_rx) = mpsc::channel::<(u64, InFlight)>();
    tight_timer_slack();
    barrier.wait();
    let rec = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut rec = Recorder::start(Layer::Wire, lap_ops, laps, total, trace);
            let mut pending: HashMap<u64, InFlight> = HashMap::with_capacity(256);
            for _ in 0..total {
                let frame = read_frame(&mut rx, DEFAULT_MAX_FRAME).expect("response");
                let t1 = now_ns();
                // The sender queues a request's record before it writes
                // the frame, so the record of any response is here.
                while let Ok((id, req)) = meta_rx.try_recv() {
                    pending.insert(id, req);
                }
                let Some(req) = pending.remove(&frame.req_id) else {
                    rec.failed += 1;
                    continue;
                };
                rec.lag.record(req.sent - req.t0);
                rec.complete(req.op_index, req.expect.is_none(), req.t0, t1, 1);
                let outcome = if frame.tag != STATUS_OK {
                    Err(format!("code {:#x}", frame.tag))
                } else if frame.payload.is_empty() {
                    Ok(None)
                } else {
                    block_payload(&frame.payload)
                        .map(Some)
                        .ok_or_else(|| "payload size".to_string())
                };
                check(&mut rec, outcome, req.expect);
            }
            rec
        });
        let start = now_ns() + 1_000_000;
        let mut request = Vec::with_capacity(8 + 64);
        for i in 0..total {
            let next = part.next_op();
            request.clear();
            request.extend_from_slice(&(next.block * BLOCK).to_le_bytes());
            let (opcode, expect) = if next.write {
                request.extend_from_slice(&part.model.write_payload(next.block));
                (op::WRITE, None)
            } else {
                (op::READ, Some(part.model.expected(next.block)))
            };
            let due = start + i * interval_ns;
            let now = now_ns();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let record = InFlight {
                op_index: i,
                t0: due,
                sent: now_ns().max(due),
                expect,
            };
            meta_tx.send((i + 1, record)).expect("reader is alive");
            write_frame(&mut tx, opcode, i + 1, &request).expect("request");
        }
        reader.join().expect("reader thread")
    });
    write_frame(&mut tx, op::GOODBYE, total + 1, &[]).expect("goodbye");
    let _ = read_frame(&mut tx, DEFAULT_MAX_FRAME);
    rec
}
