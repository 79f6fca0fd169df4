//! The exporter → collector transport: shipping sampled flow records
//! over TCP.
//!
//! Routers (exporters) batch sampled records and push them to the
//! centralized collector — the §2.1 pipeline's network hop. Framing is a
//! `u32` big-endian length prefix around each [`crate::codec`] batch, the
//! same pattern as the context-server protocol. The collector service is
//! a small threaded TCP server feeding a shared [`crate::Collector`];
//! like the context server, it stays runtime-agnostic (a provider has a
//! handful of exporters, not millions).
//!
//! For simulation experiments that need the export path's loss semantics
//! without its threads, [`LossyExporter`] is a deterministic in-process
//! stand-in that still exercises the wire codec.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::codec::{decode_batch, encode_batch, CodecError, MAX_BATCH};
use crate::collector::Collector;
use crate::record::IpfixRecord;

/// A collector shared between the service threads and the analysis side.
pub type SharedCollector = Arc<Mutex<Collector>>;

/// Wrap a collector for the service.
pub fn shared_collector(c: Collector) -> SharedCollector {
    Arc::new(Mutex::new(c))
}

/// Service counters.
#[derive(Debug, Default)]
pub struct CollectorStats {
    /// Exporter connections accepted.
    pub connections: AtomicU64,
    /// Batches ingested.
    pub batches: AtomicU64,
    /// Records ingested.
    pub records: AtomicU64,
    /// Malformed frames dropped (connection closed).
    pub errors: AtomicU64,
}

/// Upper bound on a frame (length prefix) the service will accept.
const MAX_FRAME: usize = 2 + MAX_BATCH * crate::codec::RECORD_SIZE;
const POLL: Duration = Duration::from_millis(50);

/// A running collector service.
pub struct CollectorServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stats: Arc<CollectorStats>,
}

impl CollectorServer {
    /// Bind and serve exporters, feeding `collector`.
    pub fn start(
        addr: impl ToSocketAddrs,
        collector: SharedCollector,
    ) -> std::io::Result<CollectorServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(CollectorStats::default());

        let accept_thread = {
            let shutdown = shutdown.clone();
            let handlers = handlers.clone();
            let stats = stats.clone();
            std::thread::Builder::new()
                .name("phi-ipfix-accept".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let h = {
                                    let collector = collector.clone();
                                    let stats = stats.clone();
                                    let shutdown = shutdown.clone();
                                    std::thread::Builder::new()
                                        .name("phi-ipfix-conn".into())
                                        .spawn(move || {
                                            handle_exporter(stream, collector, stats, shutdown)
                                        })
                                        .expect("spawn exporter handler")
                                };
                                reap_finished(&handlers);
                                handlers.lock().expect("handlers lock").push(h);
                                // Release: whoever acquires the new count
                                // also finds the handle in the list.
                                stats.connections.fetch_add(1, Ordering::Release);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL);
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(CollectorServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            handlers,
            stats,
        })
    }

    /// Listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Stop accepting and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let hs = std::mem::take(&mut *self.handlers.lock().expect("handlers lock"));
        for h in hs {
            let _ = h.join();
        }
    }
}

impl Drop for CollectorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Join the handler threads whose exporters have gone, so that connection
/// churn neither grows the handle list nor leaves exited threads unjoined.
fn reap_finished(handlers: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let finished: Vec<_> = handlers
        .lock()
        .expect("handlers lock")
        .extract_if(.., |h| h.is_finished())
        .collect();
    for h in finished {
        let _ = h.join();
    }
}

fn handle_exporter(
    mut stream: TcpStream,
    collector: SharedCollector,
    stats: Arc<CollectorStats>,
    shutdown: Arc<AtomicBool>,
) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    while !shutdown.load(Ordering::Acquire) {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        loop {
            if buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len > MAX_FRAME {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return; // framing broken; drop the exporter
            }
            if buf.len() < 4 + len {
                break;
            }
            let frame: Vec<u8> = buf.drain(..4 + len).skip(4).collect();
            match decode_batch(&frame) {
                Ok(records) => {
                    stats.batches.fetch_add(1, Ordering::Relaxed);
                    stats
                        .records
                        .fetch_add(records.len() as u64, Ordering::Relaxed);
                    collector
                        .lock()
                        .expect("collector lock")
                        .ingest_batch(&records);
                }
                Err(CodecError::Truncated | CodecError::BatchTooLarge(_)) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// An exporter's connection to the collector: batches records and ships
/// them with length-prefixed framing.
///
/// The staging buffer is explicitly bounded: a real exporter has finite
/// memory, and when the collector cannot be reached fast enough the
/// exporter sheds records rather than growing without bound. Shed records
/// are counted in [`ExporterClient::dropped`].
pub struct ExporterClient {
    stream: TcpStream,
    pending: Vec<IpfixRecord>,
    batch_size: usize,
    capacity: usize,
    shipped: u64,
    dropped: u64,
}

impl ExporterClient {
    /// Connect to a collector; records are shipped every `batch_size`.
    /// The staging buffer holds up to [`MAX_BATCH`] records.
    pub fn connect(addr: impl ToSocketAddrs, batch_size: usize) -> std::io::Result<Self> {
        Self::connect_bounded(addr, batch_size, MAX_BATCH)
    }

    /// Connect with an explicit staging-buffer bound: once `capacity`
    /// records are pending, further submissions are dropped (and counted)
    /// until a flush drains the buffer.
    pub fn connect_bounded(
        addr: impl ToSocketAddrs,
        batch_size: usize,
        capacity: usize,
    ) -> std::io::Result<Self> {
        assert!((1..=MAX_BATCH).contains(&batch_size));
        assert!(capacity >= 1);
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ExporterClient {
            stream,
            pending: Vec::with_capacity(batch_size.min(capacity)),
            batch_size,
            capacity,
            shipped: 0,
            dropped: 0,
        })
    }

    /// Queue one record; ships automatically when the batch fills. A full
    /// staging buffer sheds the record instead of growing.
    pub fn submit(&mut self, record: IpfixRecord) -> std::io::Result<()> {
        if self.pending.len() >= self.capacity {
            self.dropped += 1;
            return Ok(());
        }
        self.pending.push(record);
        if self.pending.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Ship any queued records now.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = encode_batch(&self.pending)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.stream.write_all(&(batch.len() as u32).to_be_bytes())?;
        self.stream.write_all(&batch)?;
        self.shipped += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Records shipped so far.
    pub fn shipped(&self) -> u64 {
        self.shipped
    }

    /// Records shed because the staging buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A deterministic, in-process exporter → collector path with loss.
///
/// The TCP transport above is real but non-deterministic (threads,
/// timeouts). Simulation experiments need the *semantics* of a lossy
/// export path — records sampled at a router may never reach the
/// collector — reproducibly. `LossyExporter` models exactly that: each
/// submitted record survives an independent Bernoulli draw from a forked
/// [`phi_workload::SeedRng`] stream (transit loss), then a bounded staging buffer
/// (memory pressure), and flushes traverse the real wire codec
/// ([`encode_batch`]/[`decode_batch`]) into the collector. Same seed,
/// same records → bit-identical collector state.
pub struct LossyExporter {
    rng: phi_workload::SeedRng,
    loss_prob: f64,
    capacity: usize,
    pending: Vec<IpfixRecord>,
    lost: u64,
    dropped: u64,
    shipped: u64,
}

impl LossyExporter {
    /// A lossy exporter dropping each record with probability `loss_prob`,
    /// staging at most `capacity` records between flushes.
    pub fn new(capacity: usize, loss_prob: f64, rng: phi_workload::SeedRng) -> Self {
        assert!(capacity >= 1);
        assert!((0.0..=1.0).contains(&loss_prob));
        LossyExporter {
            rng,
            loss_prob,
            capacity,
            pending: Vec::new(),
            lost: 0,
            dropped: 0,
            shipped: 0,
        }
    }

    /// Submit one record. It may be lost in transit (counted in
    /// [`LossyExporter::lost`]) or shed by a full buffer (counted in
    /// [`LossyExporter::dropped`]).
    pub fn submit(&mut self, record: IpfixRecord) {
        if self.rng.chance(self.loss_prob) {
            self.lost += 1;
            return;
        }
        if self.pending.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.pending.push(record);
    }

    /// Drain the staging buffer into `collector` through the wire codec.
    pub fn flush_into(&mut self, collector: &mut Collector) {
        for chunk in self.pending.chunks(MAX_BATCH) {
            let wire = encode_batch(chunk).expect("chunked below MAX_BATCH");
            let records = decode_batch(&wire).expect("codec round-trip");
            collector.ingest_batch(&records);
            self.shipped += records.len() as u64;
        }
        self.pending.clear();
    }

    /// Records lost in transit.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Records shed by the bounded staging buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records delivered to the collector.
    pub fn shipped(&self) -> u64 {
        self.shipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FlowKey;
    use std::net::Ipv4Addr;

    fn rec(i: u32) -> IpfixRecord {
        IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::from(0x5db8_0000 + i),
                src_port: 443,
                dst_port: (1000 + i) as u16,
                proto: 6,
            },
            ts_ms: u64::from(i) * 100,
            bytes: 1500,
            packets: 1,
        }
    }

    fn wait_for_records(server: &CollectorServer, expect: u64) {
        for _ in 0..100 {
            if server.stats().records.load(Ordering::Relaxed) >= expect {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!(
            "collector never saw {expect} records (got {})",
            server.stats().records.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn exporters_ship_and_collector_aggregates() {
        let collector = shared_collector(Collector::new());
        let server = CollectorServer::start("127.0.0.1:0", collector.clone()).expect("bind");
        let addr = server.addr();

        // Two exporter "routers" shipping concurrently.
        let t1 = std::thread::spawn(move || {
            let mut e = ExporterClient::connect(addr, 10).expect("connect");
            for i in 0..35 {
                e.submit(rec(i)).expect("submit");
            }
            e.flush().expect("flush");
            assert_eq!(e.shipped(), 35);
        });
        let t2 = std::thread::spawn(move || {
            let mut e = ExporterClient::connect(addr, 7).expect("connect");
            for i in 100..130 {
                e.submit(rec(i)).expect("submit");
            }
            e.flush().expect("flush");
        });
        t1.join().expect("exporter 1");
        t2.join().expect("exporter 2");

        wait_for_records(&server, 65);
        let c = collector.lock().expect("lock");
        assert_eq!(c.record_count(), 65);
        assert!(c.bucket_count() > 0);
        drop(c);
        assert!(server.stats().batches.load(Ordering::Relaxed) >= 9);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_drop_only_that_exporter() {
        let collector = shared_collector(Collector::new());
        let server = CollectorServer::start("127.0.0.1:0", collector.clone()).expect("bind");
        let addr = server.addr();

        // A broken exporter: absurd length prefix.
        let mut bad = TcpStream::connect(addr).expect("connect");
        bad.write_all(&u32::MAX.to_be_bytes()).expect("write");
        bad.write_all(&[0u8; 16]).expect("write");

        // A good exporter still works.
        let mut good = ExporterClient::connect(addr, 5).expect("connect");
        for i in 0..5 {
            good.submit(rec(i)).expect("submit");
        }
        wait_for_records(&server, 5);
        assert_eq!(collector.lock().expect("lock").record_count(), 5);
        for _ in 0..100 {
            if server.stats().errors.load(Ordering::Relaxed) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.stats().errors.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }

    #[test]
    fn bounded_exporter_sheds_over_capacity_and_accounts() {
        let collector = shared_collector(Collector::new());
        let server = CollectorServer::start("127.0.0.1:0", collector.clone()).expect("bind");
        // Batch of 10 but room for only 3: records 4 and 5 are shed.
        let mut e = ExporterClient::connect_bounded(server.addr(), 10, 3).expect("connect");
        for i in 0..5 {
            e.submit(rec(i)).expect("submit");
        }
        assert_eq!(e.dropped(), 2);
        e.flush().expect("flush");
        assert_eq!(e.shipped(), 3);
        wait_for_records(&server, 3);
        assert_eq!(collector.lock().expect("lock").record_count(), 3);
        server.shutdown();
    }

    #[test]
    fn lossy_exporter_accounts_for_every_record() {
        let mut c = Collector::new();
        let mut e = LossyExporter::new(64, 0.3, phi_workload::SeedRng::new(9));
        for i in 0..1000 {
            e.submit(rec(i));
            if i % 50 == 49 {
                e.flush_into(&mut c);
            }
        }
        e.flush_into(&mut c);
        assert_eq!(e.shipped() + e.lost() + e.dropped(), 1000);
        assert!(e.lost() > 200 && e.lost() < 400, "lost {}", e.lost());
        assert_eq!(c.record_count(), e.shipped());
    }

    #[test]
    fn lossy_exporter_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = Collector::new();
            let mut e = LossyExporter::new(16, 0.5, phi_workload::SeedRng::new(seed));
            for i in 0..200 {
                e.submit(rec(i));
                if i % 16 == 15 {
                    e.flush_into(&mut c);
                }
            }
            e.flush_into(&mut c);
            (e.shipped(), e.lost(), e.dropped(), c.record_count())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different seeds, different losses");
    }

    #[test]
    fn lossy_exporter_sheds_when_buffer_fills() {
        let mut c = Collector::new();
        let mut e = LossyExporter::new(4, 0.0, phi_workload::SeedRng::new(1));
        for i in 0..10 {
            e.submit(rec(i)); // no flush: only 4 fit
        }
        assert_eq!(e.dropped(), 6);
        e.flush_into(&mut c);
        assert_eq!(e.shipped(), 4);
        assert_eq!(c.record_count(), 4);
    }

    /// Polls `done` every 10 ms for up to 5 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        for _ in 0..500 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn finished_exporter_threads_are_reaped_on_accept() {
        let server = CollectorServer::start("127.0.0.1:0", shared_collector(Collector::new()))
            .expect("bind");
        let accepted = |n| server.stats().connections.load(Ordering::Acquire) == n;
        let handles = || server.handlers.lock().expect("handlers lock");
        for _ in 0..50 {
            drop(TcpStream::connect(server.addr()).expect("connect"));
        }
        wait_until("fifty accepts", || accepted(50));
        // Every handler sees its exporter close and returns.
        wait_until("the handlers to exit", || {
            handles().iter().all(|h| h.is_finished())
        });
        // The next accept joins all fifty: only the live handler is left.
        let live = TcpStream::connect(server.addr()).expect("connect");
        wait_until("the accept", || accepted(51));
        // Read under the lock, assert after it: a failed assertion must
        // not poison the list that shutdown joins.
        let left: Vec<bool> = handles().iter().map(|h| h.is_finished()).collect();
        assert_eq!(left, [false], "finished flags of the handles kept");
        drop(live);
        server.shutdown();
    }

    #[test]
    fn flush_of_empty_batch_is_a_noop() {
        let collector = shared_collector(Collector::new());
        let server = CollectorServer::start("127.0.0.1:0", collector).expect("bind");
        let mut e = ExporterClient::connect(server.addr(), 100).expect("connect");
        e.flush().expect("noop flush");
        assert_eq!(e.shipped(), 0);
        server.shutdown();
    }
}
