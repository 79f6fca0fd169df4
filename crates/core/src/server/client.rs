//! The blocking client: one connection, one request at a time, every call
//! bounded by a deadline, and a connection that refuses to be reused once
//! a reply can no longer be paired with its request.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use phi_tcp::hook::ContextSnapshot;

use crate::context::{FlowSummary, PathKey};
use crate::wire::{encode, DecodeError, Decoder, Message, Role, MAX_BATCH_ITEMS};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure. The connection is poisoned.
    Io(std::io::Error),
    /// The request's deadline expired before a full reply arrived. The
    /// request may still be on the wire, so the connection is poisoned.
    Deadline,
    /// A previous request on this connection failed mid-flight; the
    /// stream may hold a stale reply, so every call fails until the
    /// caller reconnects.
    Poisoned,
    /// The server answered with a protocol error frame (clean reply; the
    /// connection stays usable unless the server closed it).
    Server {
        /// Error code from the server (see [`crate::wire::code`]).
        code: u16,
        /// Error detail from the server.
        message: String,
    },
    /// The server replied with a well-delimited frame of a type this
    /// build doesn't know (a newer peer). The stream stayed aligned, so
    /// the connection is *not* poisoned — but the reply is unusable.
    Unsupported(u8),
    /// The reply could not be decoded or had the wrong type. The framing
    /// state is unknown, so the connection is poisoned.
    Protocol(String),
}

impl ClientError {
    /// Whether this failure leaves the connection in an unknown state.
    fn poisons(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Deadline
                | ClientError::Protocol(_)
                | ClientError::Poisoned
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Deadline => write!(f, "request deadline exceeded"),
            ClientError::Poisoned => write!(f, "connection poisoned by an earlier failure"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unsupported(t) => write!(f, "unsupported reply type {t}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            ClientError::Deadline
        } else {
            ClientError::Io(e)
        }
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Budget for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Budget for one whole request (write + read); covers a stalled
    /// server in *either* direction.
    pub request_deadline: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(5),
        }
    }
}

/// A blocking context-server client: one TCP connection, synchronous
/// request/response — matching the one-lookup-one-report cadence of the
/// practical design.
///
/// Every call returns within [`ClientConfig::request_deadline`]. After
/// any mid-request failure the connection is poisoned (see the module
/// docs). It holds no policy: callers that want reconnection,
/// degradation or buffered reports use [`super::ResilientClient`], and
/// dropping it only closes the socket.
pub struct ContextClient {
    pub(super) stream: TcpStream,
    decoder: Decoder,
    /// What `read` fills before the decoder takes it.
    read_buf: Vec<u8>,
    config: ClientConfig,
    poisoned: bool,
}

impl ContextClient {
    /// Connect to a context server with default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ContextClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect to a context server with explicit timeouts.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<ContextClient> {
        let mut stream = Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no addresses resolved",
        ));
        for addr in addr.to_socket_addrs()? {
            stream = TcpStream::connect_timeout(&addr, config.connect_timeout);
            if stream.is_ok() {
                break;
            }
        }
        let stream = stream?;
        stream.set_nodelay(true)?;
        // Both directions are bounded: a stalled server with a full
        // socket buffer must not block the sender on write any more than
        // a silent one may block it on read.
        stream.set_read_timeout(Some(config.request_deadline))?;
        stream.set_write_timeout(Some(config.request_deadline))?;
        Ok(ContextClient {
            stream,
            decoder: Decoder::new(),
            read_buf: vec![0; super::READ_BUF_LEN],
            config,
            poisoned: false,
        })
    }

    /// Whether an earlier failure poisoned this connection (all further
    /// calls fail fast until the caller reconnects).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// One frame out, one frame back, within the request deadline.
    fn exchange(&mut self, msg: &Message) -> Result<Message, ClientError> {
        let deadline = Instant::now() + self.config.request_deadline;
        self.stream
            .set_write_timeout(Some(self.config.request_deadline))?;
        self.stream.write_all(&encode(msg))?;
        loop {
            match self.decoder.next() {
                Ok(m) => return Ok(m),
                Err(DecodeError::Incomplete) => {}
                // Forward compatibility: an unknown-but-well-delimited
                // reply type leaves the stream aligned — typed error, no
                // poison, connection stays usable.
                Err(DecodeError::BadType(t)) => return Err(ClientError::Unsupported(t)),
                Err(e) => return Err(ClientError::Protocol(e.to_string())),
            }
            // Budget the read by what's left of the whole-request deadline
            // so fragmented replies cannot stretch a call past it.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::Deadline);
            }
            self.stream.set_read_timeout(Some(remaining))?;
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(ClientError::Protocol("server closed connection".into()));
            }
            self.decoder.extend(&self.read_buf[..n]);
        }
    }

    /// One request, and `pick` its payload out of the reply — the one
    /// place a reply is matched to what was asked. An `Error` frame is a
    /// clean answer ([`ClientError::Server`]; the connection stays
    /// usable). A frame `pick` hands back is not the reply to this
    /// request, so nothing else on the stream can be paired either:
    /// [`ClientError::Protocol`].
    pub(super) fn ask<T>(
        &mut self,
        msg: &Message,
        pick: impl FnOnce(Message) -> Result<T, Message>,
    ) -> Result<T, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let result = self.exchange(msg).and_then(|reply| match reply {
            Message::Error { code, message } => Err(ClientError::Server { code, message }),
            reply => pick(reply)
                .map_err(|other| ClientError::Protocol(format!("unexpected reply {other:?}"))),
        });
        // After a failure that leaves the stream in an unknown state — the
        // request may be on the wire with its reply in flight, or the
        // reply that came was not this request's — reusing the stream
        // would pair a stale reply with the next request.
        self.poisoned = result.as_ref().is_err_and(ClientError::poisons);
        result
    }

    /// Look up the congestion context for `path` (registers this client
    /// as an active sender on it).
    pub fn lookup(&mut self, path: PathKey) -> Result<ContextSnapshot, ClientError> {
        self.ask(&Message::Lookup { path }, |m| match m {
            Message::Context(c) => Ok(c),
            other => Err(other),
        })
    }

    /// The busiest `limit` paths the server knows about (dashboard view).
    pub fn snapshot(&mut self, limit: u16) -> Result<Vec<(PathKey, ContextSnapshot)>, ClientError> {
        self.ask(&Message::Snapshot { limit }, |m| match m {
            Message::Paths(paths) => Ok(paths),
            other => Err(other),
        })
    }

    /// Report a finished connection on `path` (a batch of one).
    pub fn report(&mut self, path: PathKey, summary: FlowSummary) -> Result<(), ClientError> {
        self.report_batch(&[(path, summary)])
    }

    /// Ship `items` as one [`Message::BatchReport`] frame — N reports,
    /// one syscall, one reply. Items beyond
    /// [`crate::wire::MAX_BATCH_ITEMS`] are sent in follow-up frames.
    pub fn report_batch(&mut self, items: &[(PathKey, FlowSummary)]) -> Result<(), ClientError> {
        for chunk in items.chunks(MAX_BATCH_ITEMS) {
            self.ask(&Message::BatchReport(chunk.to_vec()), acked)?;
        }
        Ok(())
    }

    /// Read the context of many paths in one frame, in query order.
    /// Side-effect free: unlike [`ContextClient::lookup`] this does *not*
    /// register the caller as a competing sender on any path.
    pub fn query_batch(&mut self, paths: &[PathKey]) -> Result<Vec<ContextSnapshot>, ClientError> {
        let mut out = Vec::with_capacity(paths.len());
        for chunk in paths.chunks(MAX_BATCH_ITEMS) {
            out.extend(self.ask(&Message::BatchQuery(chunk.to_vec()), |m| match m {
                Message::BatchReply(snaps) if snaps.len() == chunk.len() => Ok(snaps),
                other => Err(other),
            })?);
        }
        Ok(out)
    }

    /// The server's current fencing epoch and role (health probe).
    pub fn epoch(&mut self) -> Result<(u64, Role), ClientError> {
        self.ask(&Message::EpochQuery, |m| match m {
            Message::Epoch { epoch, role } => Ok((epoch, role)),
            other => Err(other),
        })
    }

    /// Install `blob` as shard `shard`'s full state on the receiving
    /// server, fenced at `epoch`. The shard index is the *receiver's*
    /// (`shard_index` of the same path space — primary and backup must be
    /// sharded identically). Out-of-range shards and stale epochs come
    /// back as server errors.
    pub fn sync_shard_snapshot(
        &mut self,
        shard: u32,
        epoch: u64,
        blob: Vec<u8>,
    ) -> Result<(), ClientError> {
        self.ask(&Message::ShardSnapshotSync { shard, epoch, blob }, acked)
    }
}

/// [`ContextClient::ask`]'s `pick` for requests answered by `REPORT_OK`.
pub(super) fn acked(reply: Message) -> Result<(), Message> {
    match reply {
        Message::ReportOk => Ok(()),
        other => Err(other),
    }
}
