//! Network front-end for the secure store: the trust boundary moved to
//! a wire.
//!
//! SecDDR-style designs place the authentication boundary at the memory
//! *interface*; this crate is the software analogue. Untrusted clients
//! speak a length-prefixed binary protocol over TCP
//! ([`protocol`]); behind the boundary every tenant owns an
//! independently keyed [`SecureStore`](ame_store::SecureStore), so one
//! tenant's compromise — even a poisoned shard mid-attack — never
//! crosses into another's namespace.
//!
//! The pipeline semantics of the in-process
//! [`Session`](ame_store::Session) travel the wire unchanged: clients
//! choose request ids, keep a window of requests in flight, and receive
//! responses out of order across shards but FIFO within one. Errors
//! arrive as typed codes that decode back to the exact
//! [`StoreError`](ame_store::StoreError) the store raised.
//!
//! * [`server`] — listener, the fixed epoll reactor pool that serves
//!   every connection (Linux: epoll + eventfd), tenants, quotas,
//!   graceful drain.
//! * [`client`] — blocking [`Client`] and windowed [`PipelinedClient`].
//! * [`protocol`] — frames, opcodes, the exhaustive error-code table.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
mod reactor;
pub mod server;
mod sys;

pub use client::{Client, ClientError, PipelinedClient, PipelinedResponse, PipelinedValue};
pub use protocol::{FrameError, WireError, PROTOCOL_VERSION};
pub use server::{default_reactor_threads, Server, ServerConfig, ServerMode, TenantSpec};
