//! # stkde-server — a long-running density service over the incremental STKDE cube
//!
//! The paper's point is making STKDE fast enough for *interactive*
//! exploration; this crate adds the missing serve path: a daemon that
//! owns a [`ShardedWindowStkde`](stkde_core::ShardedWindowStkde) — the
//! cube split into a fixed layout of temporal-slab shards — ingests
//! events through a write-coalescing writer thread that owns the cube
//! outright (`Θ(Hs²·Ht)` per event, N cylinders per write, cut into
//! Y-bands written in parallel on the rayon pool, or inline when the
//! batch is small), and serves reads from published copy-on-write
//! [`CubeSnapshot`](stkde_core::CubeSnapshot)s: a read clones one `Arc`
//! and never touches the writer's cube, so long region scans cannot
//! stall ingest and can never observe a torn cube. This is the
//! ingest-then-query split that amortizes estimation cost across many
//! queries, sharded so it keeps scaling when readers and writers arrive
//! together.
//!
//! Everything is in-tree and zero-dependency (the build environment has
//! no crates.io): [`json`] is the wire format, `http` the HTTP/1.1
//! server, [`client`] the matching client, [`cache`] the
//! epoch-vector-keyed LRU, [`service`] the shared cube, and [`routes`]
//! the endpoint table.
//!
//! ## Endpoints
//!
//! | endpoint | verb | answers |
//! |---|---|---|
//! | `/healthz`  | GET  | liveness (503 once the ingest writer died) |
//! | `/stats`    | GET  | ingest/serve/cache counters |
//! | `/metrics`  | GET  | Prometheus text exposition (see OBSERVABILITY.md) |
//! | `/trace`    | GET  | recent spans from the trace ring |
//! | `/density`  | GET  | one voxel (`x`, `y`, `t`) |
//! | `/region`   | GET  | aggregate over a voxel box |
//! | `/slice`    | GET  | one time plane (`t`) |
//! | `/events`   | POST | ingest a single event or a batch |
//! | `/shutdown` | POST | graceful stop |
//!
//! ## In-process quick start
//!
//! ```
//! use stkde_server::{json::Json, Client, ServiceConfig, StkdeServer};
//! use stkde_grid::{Bandwidth, Domain, GridDims};
//!
//! let config = ServiceConfig::new(
//!     Domain::from_dims(GridDims::new(16, 16, 8)),
//!     Bandwidth::new(3.0, 2.0),
//!     4.0,
//! );
//! let server = StkdeServer::start("127.0.0.1:0", 2, config).unwrap();
//! let client = Client::new(server.addr());
//!
//! let (status, _) = client
//!     .post_json("/events", &Json::parse(r#"{"x":8.0,"y":8.0,"t":1.0}"#).unwrap())
//!     .unwrap();
//! assert_eq!(status, 202);
//! server.service().wait_drained();
//!
//! let (status, body) = client.get("/density?x=8&y=8&t=1").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.get("density").unwrap().as_f64().unwrap() > 0.0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod config;
mod http;
pub mod json;
pub(crate) mod metrics;
pub mod routes;
pub mod service;

#[cfg(test)]
pub(crate) mod test_support {
    //! The obs registry is process-global, so counters accumulate across
    //! every service a test binary starts. Tests that assert on counter
    //! deltas hold this lock so a concurrently running test cannot skew
    //! the delta between their before/after reads.
    use std::sync::{Mutex, MutexGuard};

    static SERIAL: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub use client::{Client, ClientError};
pub use config::{ServerConfig, USAGE};
use http::HttpServer;
pub use http::{Request, Response};
pub use service::{DensityService, ServeKernel, ServiceConfig, ShutdownError};

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// A running daemon: the HTTP front end plus the density service behind
/// it. Dropping it without [`shutdown`](Self::shutdown) stops accepting
/// connections but does not block on joins; call `shutdown` for the
/// orderly path (drain ingest, finish in-flight requests, join all
/// threads).
#[derive(Debug)]
pub struct StkdeServer {
    service: Arc<DensityService>,
    http: HttpServer,
}

impl StkdeServer {
    /// Start the service and serve it on `addr` (port 0 picks an
    /// ephemeral port) with `threads` HTTP workers.
    pub fn start(
        addr: impl ToSocketAddrs,
        threads: usize,
        config: ServiceConfig,
    ) -> io::Result<Self> {
        let service = DensityService::start(config);
        let handler_service = Arc::clone(&service);
        let http = HttpServer::serve(
            addr,
            threads,
            Arc::new(move |req: &Request| {
                let start = std::time::Instant::now();
                let resp = routes::handle(&handler_service, req);
                metrics::record_http(
                    &req.method,
                    &req.path,
                    resp.status,
                    start.elapsed().as_secs_f64(),
                );
                resp
            }),
        )?;
        Ok(Self { service, http })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The service behind the HTTP front end (for in-process callers).
    pub fn service(&self) -> &Arc<DensityService> {
        &self.service
    }

    /// Graceful shutdown: stop the HTTP layer (finishing in-flight
    /// connections), then drain and join the ingest writer.
    pub fn shutdown(self) {
        self.http.shutdown();
        self.service.shutdown();
    }
}
