//! Command-line configuration for the `stkde-serve` daemon.

use crate::service::ServiceConfig;
use std::collections::HashMap;
use stkde_grid::{Bandwidth, Domain, Extent, GridDims, Resolution};

/// Usage text shared by the binary's `--help` and error paths.
pub const USAGE: &str = "stkde-serve — long-running STKDE density service

usage:
  stkde-serve [flags]             run the daemon
  stkde-serve check ADDR          probe a running daemon (host:port);
                                  exits non-zero unless every endpoint
                                  answers 2xx
  stkde-serve check ADDR --shutdown
                                  same, then ask the daemon to stop
  stkde-serve top ADDR            poll /metrics and print ingest/query
                                  rates, latency quantiles, and pool
                                  activity (--interval S, --count N;
                                  count 0 = until interrupted)

flags (defaults in parentheses):
  --dims GXxGYxGT    voxel grid dimensions (64x64x32)
  --sres S           spatial resolution, world units per voxel (1.0)
  --tres T           temporal resolution, world units per voxel (1.0)
  --hs H             spatial bandwidth, world units (6.0)
  --ht H             temporal bandwidth, world units (4.0)
  --window W         sliding-window length, world time units (32.0)
  --host HOST        bind address (127.0.0.1)
  --port P           TCP port; 0 picks an ephemeral one (7171)
  --threads N        HTTP worker threads (available parallelism)

fixed: 4 temporal-slab shards (fewer when GT < 4), 64 cached region/slice
responses (once full, a new query enters on its second miss), and up to
1024 events coalesced per cube write.

endpoints: GET /healthz /stats /metrics /trace /density?x=&y=&t=
           /region?x0=..&t1= /slice?t=
           POST /events /shutdown
           (eviction is exact: the cube equals a fresh build of its
           live events; every read is exact; /region reads through the
           slab mip pyramids; max_err on /region or /slice is
           validated, then ignored;
           /metrics is Prometheus text exposition; see OBSERVABILITY.md)";

/// Parsed daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Voxel grid dimensions.
    pub dims: GridDims,
    /// Spatial resolution (world units per voxel).
    pub sres: f64,
    /// Temporal resolution (world units per voxel).
    pub tres: f64,
    /// Spatial bandwidth (world units).
    pub hs: f64,
    /// Temporal bandwidth (world units).
    pub ht: f64,
    /// Sliding-window length (world time units).
    pub window: f64,
    /// Bind host.
    pub host: String,
    /// Bind port (0 = ephemeral).
    pub port: u16,
    /// HTTP worker threads.
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            dims: GridDims::new(64, 64, 32),
            sres: 1.0,
            tres: 1.0,
            hs: 6.0,
            ht: 4.0,
            window: 32.0,
            host: "127.0.0.1".into(),
            port: 7171,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

impl ServerConfig {
    /// Parse `--flag value` pairs into a config.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags: HashMap<String, String> = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
            let val = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            flags.insert(key.to_string(), val.clone());
        }

        let mut cfg = Self::default();
        for (key, val) in &flags {
            match key.as_str() {
                "dims" => cfg.dims = parse_dims(val)?,
                "sres" => cfg.sres = parse_pos(val, "--sres")?,
                "tres" => cfg.tres = parse_pos(val, "--tres")?,
                "hs" => cfg.hs = parse_pos(val, "--hs")?,
                "ht" => cfg.ht = parse_pos(val, "--ht")?,
                "window" => cfg.window = parse_pos(val, "--window")?,
                "host" => cfg.host = val.clone(),
                "port" => cfg.port = parse_num(val, "--port")?,
                "threads" => cfg.threads = parse_num(val, "--threads")?,
                other => return Err(format!("unknown flag --{other}\n\n{USAGE}")),
            }
        }
        if cfg.threads == 0 {
            return Err("--threads must be >= 1".into());
        }
        Ok(cfg)
    }

    /// The discretized domain: a grid of `dims` voxels anchored at the
    /// origin with the configured resolutions.
    pub(crate) fn domain(&self) -> Domain {
        let extent = Extent::new(
            [0.0, 0.0, 0.0],
            [
                self.dims.gx as f64 * self.sres,
                self.dims.gy as f64 * self.sres,
                self.dims.gt as f64 * self.tres,
            ],
        );
        Domain::from_extent(extent, Resolution::new(self.sres, self.tres))
    }

    /// The service config this server config implies.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::new(self.domain(), Bandwidth::new(self.hs, self.ht), self.window)
    }

    /// The `host:port` string to bind.
    pub fn bind_addr(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad {what} `{s}`: {e}"))
}

fn parse_pos(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = parse_num(s, what)?;
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(format!("{what} must be positive and finite, got `{s}`"))
    }
}

fn parse_dims(s: &str) -> Result<GridDims, String> {
    let parts: Vec<usize> = s
        .split('x')
        .map(|p| parse_num(p, "--dims component"))
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        [gx, gy, gt] if *gx > 0 && *gy > 0 && *gt > 0 => Ok(GridDims::new(*gx, *gy, *gt)),
        _ => Err(format!(
            "--dims needs GXxGYxGT with all parts > 0, got `{s}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_overrides() {
        let cfg = ServerConfig::parse(&[]).unwrap();
        assert_eq!(cfg.dims, GridDims::new(64, 64, 32));
        assert_eq!(cfg.port, 7171);
        let cfg = ServerConfig::parse(&args(&[
            "--dims",
            "20x10x5",
            "--hs",
            "2.5",
            "--ht",
            "1.5",
            "--window",
            "9",
            "--port",
            "0",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(cfg.dims, GridDims::new(20, 10, 5));
        assert_eq!(cfg.domain().dims(), GridDims::new(20, 10, 5));
        assert_eq!(cfg.threads, 3);
        let sc = cfg.service_config();
        assert_eq!(sc.window, 9.0);
        assert_eq!(sc.shards, 4);
    }

    #[test]
    fn resolution_scales_the_extent_not_the_grid() {
        let cfg = ServerConfig::parse(&args(&[
            "--dims", "40x40x10", "--sres", "200", "--tres", "1",
        ]))
        .unwrap();
        let d = cfg.domain();
        assert_eq!(d.dims(), GridDims::new(40, 40, 10));
        assert_eq!(d.extent().max[0], 8_000.0);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(ServerConfig::parse(&args(&["--dims", "8x8"])).is_err());
        assert!(ServerConfig::parse(&args(&["--hs", "-1"])).is_err());
        assert!(ServerConfig::parse(&args(&["--bogus", "1"])).is_err());
        assert!(ServerConfig::parse(&args(&["--port"])).is_err());
        assert!(ServerConfig::parse(&args(&["positional"])).is_err());
        assert!(ServerConfig::parse(&args(&["--threads", "0"])).is_err());
        assert!(ServerConfig::parse(&args(&["--kernel", "exact"])).is_err());
        assert!(ServerConfig::parse(&args(&["--rebuild-every", "100"])).is_err());
        // The slab layout, cache size and coalescing cap are constants.
        assert!(ServerConfig::parse(&args(&["--shards", "2"])).is_err());
        assert!(ServerConfig::parse(&args(&["--cache", "8"])).is_err());
        assert!(ServerConfig::parse(&args(&["--batch-cap", "10"])).is_err());
    }
}
