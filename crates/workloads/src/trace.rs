//! On-disk trace format: record and replay workloads from files.
//!
//! Every synthetic generator in this crate produces a
//! [`WorkloadTrace`]; this module gives that interface a file format, so
//! the simulator can also be driven by traces captured outside the repo
//! (instrumented applications, other simulators, hand-written pathologies).
//!
//! # Record grammar (`htmtrace v1`)
//!
//! A trace is a line-oriented UTF-8 file. The canonical form — what
//! [`write_to`] emits and what round-trips byte-exactly — is:
//!
//! ```text
//! htmtrace v1
//! procs 2
//! workload toy
//! fingerprint 5f5933f91e178e8a
//! thread 0 txs 1
//! tx 16384 pre 12 ops 3
//! r 640
//! c 3
//! w 640
//! end
//! thread 1 txs 0
//! eof
//! ```
//!
//! Header: four fixed lines (version, processor count, workload name,
//! FNV-1a fingerprint as 16 hex digits). Body: one `thread T txs N`
//! section per processor in order, each holding `N` transactions; a
//! transaction is `tx ID pre P ops N`, `N` operation lines, then `end`.
//! Operations are `r ADDR` (transactional load), `w ADDR` (transactional
//! store), `c CYCLES` (non-memory compute), and `m ADDR` — reader-side
//! sugar for a read-modify-write that expands to `r ADDR` + `w ADDR` and
//! counts as **two** toward the declared `ops` count. The recorder never
//! emits `m` (the in-memory [`Op`] has no RMW variant), which is what
//! keeps record → read → record byte-identical. The file ends with `eof`;
//! blank lines and `#` comments are tolerated anywhere after the version
//! line but never written.
//!
//! # Fingerprint rule
//!
//! The header fingerprint is exactly [`WorkloadTrace::fingerprint`] — the
//! order-sensitive FNV-1a hash the checkpoint layer already stores next to
//! machine state. Because every count (`procs`, `txs`, `ops`) is declared
//! before its content, the reader folds the hash *while streaming* and
//! compares it against the header after the final `eof`: a flipped
//! address, a dropped op or an edited name is caught without a second
//! pass, and a trace loaded from disk carries the same identity the
//! checkpoint layer would compute for the equivalent synthetic workload —
//! so resume-against-the-wrong-trace is refused by the existing machinery.
//!
//! # Bounded-memory reader
//!
//! [`read_from`] parses from any [`BufRead`] through one 64 KiB byte
//! buffer filled by `read`: lines are scanned in place, and a line that
//! straddles the buffer's end is carried to its front before the next
//! read. The file text is never materialized. Transient state is the
//! buffer plus one transaction's operations; only a line longer than the
//! buffer (a long comment, say) grows it, to that line's length. Canonical
//! lines are parsed straight from bytes; any other line takes a `str`
//! tokenizer, so the tolerated spellings and every error message are one
//! rule. The decoded [`WorkloadTrace`] is the same compact structure the
//! generators build (~16 bytes per operation). [`validate_from`] drops
//! each transaction after hashing it, so pre-flight checks over
//! multi-million-reference traces hold one buffer and one transaction no
//! matter the file size.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use htm_sim::checkpoint::Fnv64;
use htm_tcc::txn::{Op, ThreadTrace, Transaction, WorkloadTrace};

/// Format version this reader understands and the writer emits.
pub const TRACE_VERSION: u32 = 1;

/// Everything that can go wrong reading a trace file. Each failure mode
/// the binaries must pre-flight (truncation, fingerprint mismatch, future
/// version, over-declared processor count) gets its own variant so the
/// CLI can exit 2 with a precise message instead of panicking.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that does not match the record grammar.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file ended before the declared structure was complete.
    Truncated {
        /// 1-based line number where input ran out.
        line: usize,
        /// What the reader was still expecting.
        expected: String,
    },
    /// The body hashed to a different fingerprint than the header declares.
    FingerprintMismatch {
        /// Fingerprint declared in the header.
        declared: u64,
        /// Fingerprint computed from the body.
        computed: u64,
    },
    /// The file declares a format version newer than this reader.
    UnsupportedVersion {
        /// Version token found in the file (e.g. `"v2"`).
        found: String,
    },
    /// The header declares more (or fewer) processors than the body holds.
    ThreadCountMismatch {
        /// `procs` value from the header.
        declared: usize,
        /// Thread sections actually present.
        found: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::Truncated { line, expected } => write!(
                f,
                "trace truncated at line {line}: expected {expected} \
                 (file ends inside the declared structure)"
            ),
            TraceError::FingerprintMismatch { declared, computed } => write!(
                f,
                "trace fingerprint mismatch: header declares {declared:016x} \
                 but the body hashes to {computed:016x} (file edited or corrupted)"
            ),
            TraceError::UnsupportedVersion { found } => write!(
                f,
                "unsupported trace format version `{found}` \
                 (this build reads htmtrace v{TRACE_VERSION})"
            ),
            TraceError::ThreadCountMismatch { declared, found } => write!(
                f,
                "trace declares procs {declared} but contains {found} thread \
                 section(s)"
            ),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A trace loaded from disk: the decoded workload plus the verified
/// fingerprint, ready to hand to `SimulationBuilder::workload`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedTrace {
    /// The decoded workload; `workload.name` is the recorded name.
    pub workload: WorkloadTrace,
    /// The verified FNV-1a fingerprint (equal to `workload.fingerprint()`).
    pub fingerprint: u64,
}

impl LoadedTrace {
    /// Stable name for this trace on the sweep/experiment workload axis:
    /// `trace-{name}-{fp8}` where `fp8` is the first 8 hex digits of the
    /// fingerprint. Two different files never share an axis name unless
    /// they hold the same workload, so resuming a checkpointed run against
    /// an edited trace re-keys every cell and is rejected up front.
    #[must_use]
    pub fn axis_name(&self) -> String {
        let sanitized: String = self
            .workload
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        format!("trace-{}-{:08x}", sanitized, self.fingerprint >> 32)
    }
}

/// Streaming statistics from a validation pass (no workload is built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Recorded workload name.
    pub name: String,
    /// Processor count from the header.
    pub procs: usize,
    /// Total transactions across all threads.
    pub transactions: usize,
    /// Total operations (reads + writes + computes) across all threads.
    pub ops: usize,
    /// Total memory references (reads + writes) across all threads.
    pub memory_refs: usize,
    /// Verified fingerprint.
    pub fingerprint: u64,
}

/// The reader's buffer size, and about how many bytes the writer hands
/// its sink at a time.
const CHUNK: usize = 64 * 1024;

/// Most entries a declared count may reserve up front. A count is only a
/// claim until its lines arrive, so a huge one must not allocate before
/// the file backs it up.
const MAX_RESERVE: usize = 1 << 16;

/// Serialize a workload in canonical `htmtrace v1` form.
///
/// The four header lines go through `fmt`; the body is formatted by hand
/// into one reused buffer that is handed to `w` 64 KiB at a time.
///
/// # Errors
/// Propagates writer failures.
pub fn write_to<W: Write>(w: &mut W, workload: &WorkloadTrace) -> io::Result<()> {
    writeln!(w, "htmtrace v{TRACE_VERSION}")?;
    writeln!(w, "procs {}", workload.num_threads())?;
    writeln!(w, "workload {}", workload.name)?;
    writeln!(w, "fingerprint {:016x}", workload.fingerprint())?;
    let mut out = Vec::with_capacity(CHUNK + 64);
    for (idx, thread) in workload.threads.iter().enumerate() {
        out.extend_from_slice(b"thread ");
        push_decimal(&mut out, idx as u64);
        out.extend_from_slice(b" txs ");
        push_decimal(&mut out, thread.transactions.len() as u64);
        out.push(b'\n');
        for tx in &thread.transactions {
            out.extend_from_slice(b"tx ");
            push_decimal(&mut out, tx.tx_id);
            out.extend_from_slice(b" pre ");
            push_decimal(&mut out, tx.pre_compute);
            out.extend_from_slice(b" ops ");
            push_decimal(&mut out, tx.ops.len() as u64);
            out.push(b'\n');
            for op in &tx.ops {
                let (kind, value) = match *op {
                    Op::Read(a) => (b'r', a),
                    Op::Write(a) => (b'w', a),
                    Op::Compute(c) => (b'c', c),
                };
                out.extend_from_slice(&[kind, b' ']);
                push_decimal(&mut out, value);
                out.push(b'\n');
                if out.len() >= CHUNK {
                    w.write_all(&out)?;
                    out.clear();
                }
            }
            out.extend_from_slice(b"end\n");
        }
    }
    out.extend_from_slice(b"eof\n");
    w.write_all(&out)
}

/// Append the decimal digits of `v` to `out`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The canonical trace text for a workload (see [`write_to`]).
#[must_use]
pub fn render(workload: &WorkloadTrace) -> String {
    let mut out = Vec::new();
    write_to(&mut out, workload).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("trace text is ASCII")
}

/// Record a workload to `path` in canonical form.
///
/// # Errors
/// Propagates file-creation and write failures.
pub fn record_to_path(path: impl AsRef<Path>, workload: &WorkloadTrace) -> Result<(), TraceError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_to(&mut w, workload)?;
    w.flush()?;
    Ok(())
}

/// Read and verify a trace, materializing the workload.
///
/// # Errors
/// Any [`TraceError`]: I/O, grammar, truncation, fingerprint mismatch,
/// unsupported version, or a processor-count mismatch.
pub fn read_from<R: BufRead>(reader: R) -> Result<LoadedTrace, TraceError> {
    /// Collects every transaction, each thread reserved from its count.
    struct Collect(Vec<ThreadTrace>);
    impl Sink for Collect {
        fn thread(&mut self, txs: usize) {
            let transactions = Vec::with_capacity(txs.min(MAX_RESERVE));
            self.0.push(ThreadTrace::new(transactions));
        }
        fn tx(&mut self, thread: usize, tx: Transaction) {
            self.0[thread].transactions.push(tx);
        }
    }
    let mut threads = Collect(Vec::new());
    let (header, fingerprint) = stream(reader, &mut threads)?;
    Ok(LoadedTrace {
        workload: WorkloadTrace::new(header.name, threads.0),
        fingerprint,
    })
}

/// Read and verify a trace file, materializing the workload.
///
/// # Errors
/// See [`read_from`].
pub fn read_from_path(path: impl AsRef<Path>) -> Result<LoadedTrace, TraceError> {
    read_from(BufReader::new(File::open(path)?))
}

/// Stream a trace for verification only: the full structure is parsed and
/// the fingerprint checked, but every transaction is dropped after
/// hashing, so memory use is one read chunk plus the largest transaction
/// regardless of file size.
///
/// # Errors
/// See [`read_from`].
pub fn validate_from<R: BufRead>(reader: R) -> Result<TraceSummary, TraceError> {
    /// Counts transactions and operations and drops them.
    #[derive(Default)]
    struct Count {
        transactions: usize,
        ops: usize,
        memory_refs: usize,
    }
    impl Sink for Count {
        fn thread(&mut self, _txs: usize) {}
        fn tx(&mut self, _thread: usize, tx: Transaction) {
            self.transactions += 1;
            self.ops += tx.ops.len();
            self.memory_refs += tx.memory_ops();
        }
    }
    let mut count = Count::default();
    let (header, fingerprint) = stream(reader, &mut count)?;
    Ok(TraceSummary {
        name: header.name,
        procs: header.procs,
        transactions: count.transactions,
        ops: count.ops,
        memory_refs: count.memory_refs,
        fingerprint,
    })
}

/// Validate a trace file without materializing the workload.
///
/// # Errors
/// See [`read_from`].
pub fn validate_path(path: impl AsRef<Path>) -> Result<TraceSummary, TraceError> {
    validate_from(BufReader::new(File::open(path)?))
}

struct Header {
    procs: usize,
    name: String,
    fingerprint: u64,
}

/// Where [`stream`] hands the body, in file order.
trait Sink {
    /// The next thread section declares `txs` transactions.
    fn thread(&mut self, txs: usize);
    /// Transaction `tx` of thread `thread` is complete.
    fn tx(&mut self, thread: usize, tx: Transaction);
}

/// Line source over one [`CHUNK`]-sized buffer: skips blanks and comments,
/// tracks 1-based line numbers, and checks each line's UTF-8 as it
/// arrives. A line that straddles the end of the buffer is moved to its
/// front before the next read; one longer than the buffer grows it.
struct Lines<R> {
    inner: R,
    buf: Vec<u8>,
    /// The current line (without its line end) is `buf[start..end]`.
    start: usize,
    end: usize,
    /// Unconsumed bytes are `buf[pos..filled]`; `buf[pos..scanned]` holds
    /// no `\n`.
    pos: usize,
    scanned: usize,
    filled: usize,
    eof: bool,
    line: usize,
}

impl<R: Read> Lines<R> {
    fn new(inner: R) -> Self {
        Self {
            inner,
            buf: vec![0; CHUNK],
            start: 0,
            end: 0,
            pos: 0,
            scanned: 0,
            filled: 0,
            eof: false,
            line: 0,
        }
    }

    /// The current line's bytes.
    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// The current line's text.
    fn text(&self) -> &str {
        std::str::from_utf8(self.bytes()).expect("`advance` checked the line's UTF-8")
    }

    /// Advance to the next non-blank, non-comment line; its content is
    /// [`Self::bytes`] (line end stripped). Returns `false` at EOF.
    fn advance(&mut self) -> Result<bool, TraceError> {
        loop {
            if !self.next_raw_line()? {
                return Ok(false);
            }
            self.line += 1;
            let raw = &self.buf[self.start..self.end];
            if !raw.is_ascii() && std::str::from_utf8(raw).is_err() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
                .into());
            }
            while self.end > self.start && self.buf[self.end - 1] == b'\r' {
                self.end -= 1;
            }
            // Every canonical line starts with a letter; anything else takes
            // the `str` rule.
            if self.bytes().first().is_some_and(u8::is_ascii_alphabetic) {
                return Ok(true);
            }
            let trimmed = self.text().trim_start();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                return Ok(true);
            }
        }
    }

    /// Make the next `\n`-terminated line (or the unterminated tail at
    /// EOF) current. Returns `false` when no byte is left.
    fn next_raw_line(&mut self) -> io::Result<bool> {
        loop {
            let unscanned = &self.buf[self.scanned..self.filled];
            if let Some(at) = unscanned.iter().position(|&b| b == b'\n') {
                self.start = self.pos;
                self.end = self.scanned + at;
                self.pos = self.end + 1;
                self.scanned = self.pos;
                return Ok(true);
            }
            self.scanned = self.filled;
            if self.eof {
                if self.pos == self.filled {
                    return Ok(false);
                }
                (self.start, self.end) = (self.pos, self.filled);
                self.pos = self.filled;
                return Ok(true);
            }
            self.refill()?;
        }
    }

    /// Read more bytes behind the unconsumed ones, moving those to the
    /// front of the buffer first.
    fn refill(&mut self) -> io::Result<()> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.scanned -= self.pos;
            self.pos = 0;
        }
        if self.filled == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        loop {
            match self.inner.read(&mut self.buf[self.filled..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            return Ok(());
        }
    }

    /// `Truncated` at the line after the last one read.
    fn truncated(&self, expected: impl Into<String>) -> TraceError {
        TraceError::Truncated {
            line: self.line + 1,
            expected: expected.into(),
        }
    }

    fn expect(&mut self, expected: &str) -> Result<(), TraceError> {
        if self.advance()? {
            Ok(())
        } else {
            Err(self.truncated(expected))
        }
    }

    fn parse_err(&self, message: impl Into<String>) -> TraceError {
        TraceError::Parse {
            line: self.line,
            message: message.into(),
        }
    }
}

fn parse_u64<R: Read>(lines: &Lines<R>, token: &str, what: &str) -> Result<u64, TraceError> {
    token
        .parse::<u64>()
        .map_err(|_| lines.parse_err(format!("invalid {what} `{token}`")))
}

/// A non-empty run of ASCII digits that fits a `u64`, else `None` (the
/// caller then takes the `str` path, which names the error).
fn digits(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() {
        return None;
    }
    bytes.iter().try_fold(0u64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// `KEYWORD DIGITS` at the front of `bytes`, with one space between and
/// one space or the line end after: the number and the rest after it.
fn keyword_number<'a>(bytes: &'a [u8], keyword: &[u8]) -> Option<(u64, &'a [u8])> {
    let rest = bytes.strip_prefix(keyword)?.strip_prefix(b" ")?;
    let len = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
    Some((digits(&rest[..len])?, &rest[len..]))
}

/// The canonical `tx ID pre P ops N` line.
fn fast_tx_line(bytes: &[u8]) -> Option<(u64, u64, u64)> {
    let (id, rest) = keyword_number(bytes, b"tx")?;
    let (pre, rest) = keyword_number(rest.strip_prefix(b" ")?, b"pre")?;
    let (ops, rest) = keyword_number(rest.strip_prefix(b" ")?, b"ops")?;
    rest.is_empty().then_some((id, pre, ops))
}

/// The canonical `r|w|c|m DIGITS` line.
fn fast_op_line(bytes: &[u8]) -> Option<(u8, u64)> {
    match bytes {
        [kind @ (b'r' | b'w' | b'c' | b'm'), b' ', value @ ..] => Some((*kind, digits(value)?)),
        _ => None,
    }
}

/// Parse + verify a trace, handing each thread's declared count and each
/// transaction to `sink` as they complete. The FNV fingerprint is folded
/// incrementally in exactly the order of `htm_tcc::txn::fingerprint_parts`
/// and checked against the header after `eof`.
fn stream<R: Read>(reader: R, sink: &mut impl Sink) -> Result<(Header, u64), TraceError> {
    let mut lines = Lines::new(reader);
    let header = read_header(&mut lines)?;

    let mut hash = Fnv64::new();
    hash.write_u64(header.name.len() as u64);
    hash.write(header.name.as_bytes());
    hash.write_u64(header.procs as u64);

    for thread_idx in 0..header.procs {
        if !lines.advance()? || lines.text().trim() == "eof" {
            // Header promised more processors than the body delivers: the
            // dedicated over-declared-procs pre-flight, not a generic
            // truncation.
            return Err(TraceError::ThreadCountMismatch {
                declared: header.procs,
                found: thread_idx,
            });
        }
        let txs = parse_thread_line(&lines, thread_idx)?;
        hash.write_u64(txs as u64);
        sink.thread(txs);
        for _ in 0..txs {
            let tx = read_tx(&mut lines, &mut hash)?;
            sink.tx(thread_idx, tx);
        }
    }

    lines.expect("`eof` trailer")?;
    if lines.text().trim() != "eof" {
        if lines.text().trim().starts_with("thread ") {
            // More thread sections than the header declared.
            let extra = count_extra_threads(&mut lines)?;
            return Err(TraceError::ThreadCountMismatch {
                declared: header.procs,
                found: header.procs + 1 + extra,
            });
        }
        return Err(lines.parse_err(format!("expected `eof`, found `{}`", lines.text().trim())));
    }
    if lines.advance()? {
        return Err(lines.parse_err("trailing content after `eof`"));
    }

    let computed = hash.finish();
    if computed != header.fingerprint {
        return Err(TraceError::FingerprintMismatch {
            declared: header.fingerprint,
            computed,
        });
    }
    Ok((header, computed))
}

fn count_extra_threads<R: Read>(lines: &mut Lines<R>) -> Result<usize, TraceError> {
    let mut extra = 0;
    while lines.advance()? {
        if lines.text().trim().starts_with("thread ") {
            extra += 1;
        }
    }
    Ok(extra)
}

fn read_header<R: Read>(lines: &mut Lines<R>) -> Result<Header, TraceError> {
    lines.expect("`htmtrace v1` header")?;
    let version = lines
        .text()
        .trim()
        .strip_prefix("htmtrace ")
        .ok_or_else(|| lines.parse_err("not an htmtrace file (missing `htmtrace v1` header)"))?
        .to_string();
    if version != format!("v{TRACE_VERSION}") {
        return Err(TraceError::UnsupportedVersion { found: version });
    }

    lines.expect("`procs N` header line")?;
    let procs = {
        let token = lines
            .text()
            .trim()
            .strip_prefix("procs ")
            .ok_or_else(|| lines.parse_err("expected `procs N`"))?
            .trim();
        let n = parse_u64(lines, token, "processor count")? as usize;
        if n == 0 {
            return Err(lines.parse_err("processor count must be at least 1"));
        }
        n
    };

    lines.expect("`workload NAME` header line")?;
    let name = lines
        .text()
        .trim()
        .strip_prefix("workload ")
        .ok_or_else(|| lines.parse_err("expected `workload NAME`"))?
        .trim()
        .to_string();
    if name.is_empty() {
        return Err(lines.parse_err("workload name must not be empty"));
    }

    lines.expect("`fingerprint HEX16` header line")?;
    let fingerprint = {
        let token = lines
            .text()
            .trim()
            .strip_prefix("fingerprint ")
            .ok_or_else(|| lines.parse_err("expected `fingerprint HEX16`"))?
            .trim();
        u64::from_str_radix(token, 16)
            .map_err(|_| lines.parse_err(format!("invalid fingerprint `{token}`")))?
    };

    Ok(Header {
        procs,
        name,
        fingerprint,
    })
}

fn parse_thread_line<R: Read>(lines: &Lines<R>, expected_idx: usize) -> Result<usize, TraceError> {
    let mut parts = lines.text().trim().split_ascii_whitespace();
    let (kw, idx, txs_kw, txs) = (parts.next(), parts.next(), parts.next(), parts.next());
    match (kw, idx, txs_kw, txs, parts.next()) {
        (Some("thread"), Some(idx), Some("txs"), Some(txs), None) => {
            let idx = parse_u64(lines, idx, "thread index")? as usize;
            if idx != expected_idx {
                return Err(lines.parse_err(format!(
                    "thread sections must be sequential: expected thread {expected_idx}, \
                     found thread {idx}"
                )));
            }
            Ok(parse_u64(lines, txs, "transaction count")? as usize)
        }
        _ => Err(lines.parse_err(format!(
            "expected `thread {expected_idx} txs N`, found `{}`",
            lines.text().trim()
        ))),
    }
}

/// A `tx` line off the canonical byte pattern: tokenized as `str`.
fn parse_tx_line<R: Read>(lines: &Lines<R>) -> Result<(u64, u64, u64), TraceError> {
    let mut parts = lines.text().trim().split_ascii_whitespace();
    match (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) {
        (Some("tx"), Some(id), Some("pre"), Some(pre), Some("ops"), Some(n), None) => Ok((
            parse_u64(lines, id, "tx id")?,
            parse_u64(lines, pre, "pre-compute cycle count")?,
            parse_u64(lines, n, "op count")?,
        )),
        _ => Err(lines.parse_err(format!(
            "expected `tx ID pre P ops N`, found `{}`",
            lines.text().trim()
        ))),
    }
}

/// An op line off the canonical byte pattern: tokenized as `str`.
fn parse_op_line<R: Read>(lines: &Lines<R>) -> Result<(u8, u64), TraceError> {
    let mut parts = lines.text().trim().split_ascii_whitespace();
    let (kind, value) = match (parts.next(), parts.next(), parts.next()) {
        (Some(kind), Some(value), None) => (kind, value),
        _ => {
            return Err(lines.parse_err(format!(
                "expected `r|w|c|m VALUE`, found `{}`",
                lines.text().trim()
            )))
        }
    };
    let value = parse_u64(lines, value, "operand")?;
    match kind {
        "r" | "w" | "c" | "m" => Ok((kind.as_bytes()[0], value)),
        other => Err(lines.parse_err(format!("unknown op kind `{other}`"))),
    }
}

fn read_tx<R: Read>(lines: &mut Lines<R>, hash: &mut Fnv64) -> Result<Transaction, TraceError> {
    lines.expect("`tx ID pre P ops N` line")?;
    let (tx_id, pre_compute, declared_ops) = match fast_tx_line(lines.bytes()) {
        Some(fields) => fields,
        None => parse_tx_line(lines)?,
    };
    let declared_ops = declared_ops as usize;

    hash.write_u64(tx_id);
    hash.write_u64(pre_compute);
    hash.write_u64(declared_ops as u64);

    let mut ops = Vec::with_capacity(declared_ops.min(MAX_RESERVE));
    while ops.len() < declared_ops {
        if !lines.advance()? {
            return Err(lines.truncated(format!(
                "operation line ({} of {} in current tx)",
                ops.len() + 1,
                declared_ops
            )));
        }
        let (kind, value) = match fast_op_line(lines.bytes()) {
            Some(op) => op,
            None => parse_op_line(lines)?,
        };
        match kind {
            b'r' => ops.push(Op::Read(value)),
            b'w' => ops.push(Op::Write(value)),
            b'c' => ops.push(Op::Compute(value)),
            _ => {
                // `m`, read-modify-write sugar: two ops toward the declared
                // count.
                if ops.len() + 2 > declared_ops {
                    return Err(lines.parse_err(
                        "`m` expands to a read + a write and needs 2 remaining \
                         declared ops",
                    ));
                }
                ops.push(Op::Read(value));
                ops.push(Op::Write(value));
            }
        }
    }

    lines.expect("`end` after the declared ops")?;
    if lines.bytes() != b"end" && lines.text().trim() != "end" {
        return Err(lines.parse_err(format!(
            "expected `end` after {declared_ops} ops, found `{}`",
            lines.text().trim()
        )));
    }

    for op in &ops {
        match op {
            Op::Read(a) => {
                hash.write_u64(0);
                hash.write_u64(*a);
            }
            Op::Write(a) => {
                hash.write_u64(1);
                hash.write_u64(*a);
            }
            Op::Compute(c) => {
                hash.write_u64(2);
                hash.write_u64(*c);
            }
        }
    }

    Ok(Transaction {
        tx_id,
        pre_compute,
        ops,
    })
}

/// Convenience: a reader that counts raw bytes as they stream through,
/// used by tests to show the file is consumed incrementally.
pub struct CountingReader<R> {
    inner: R,
    bytes: u64,
}

impl<R> CountingReader<R> {
    /// Wrap a reader.
    pub fn new(inner: R) -> Self {
        Self { inner, bytes: 0 }
    }

    /// Bytes pulled through so far.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadScale;

    fn toy() -> WorkloadTrace {
        crate::by_name("intruder", 3, WorkloadScale::Test, 42).unwrap()
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let w = toy();
        let text = render(&w);
        let loaded = read_from(text.as_bytes()).unwrap();
        assert_eq!(loaded.workload, w);
        assert_eq!(loaded.fingerprint, w.fingerprint());
        assert_eq!(render(&loaded.workload), text);
    }

    #[test]
    fn validate_matches_read() {
        let w = toy();
        let text = render(&w);
        let summary = validate_from(text.as_bytes()).unwrap();
        assert_eq!(summary.name, "intruder");
        assert_eq!(summary.procs, 3);
        assert_eq!(summary.transactions, w.total_transactions());
        assert_eq!(summary.fingerprint, w.fingerprint());
        let refs: usize = w
            .threads
            .iter()
            .flat_map(|t| t.transactions.iter())
            .map(Transaction::memory_ops)
            .sum();
        assert_eq!(summary.memory_refs, refs);
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let w = toy();
        let mut text = String::from("# recorded by a human\n\n");
        for line in render(&w).lines() {
            text.push_str(line);
            text.push_str("\n# note\n\n");
        }
        let loaded = read_from(text.as_bytes()).unwrap();
        assert_eq!(loaded.workload, w);
    }

    #[test]
    fn rmw_sugar_expands_to_read_plus_write() {
        let text = "htmtrace v1\n\
                    procs 1\n\
                    workload rmwtoy\n\
                    fingerprint 0\n\
                    thread 0 txs 1\n\
                    tx 7 pre 0 ops 2\n\
                    m 640\n\
                    end\n\
                    eof\n";
        // Fingerprint is wrong on purpose; grab the computed one from the error.
        let err = read_from(text.as_bytes()).unwrap_err();
        let computed = match err {
            TraceError::FingerprintMismatch { computed, .. } => computed,
            other => panic!("expected fingerprint mismatch, got {other}"),
        };
        let fixed = text.replace("fingerprint 0", &format!("fingerprint {computed:016x}"));
        let loaded = read_from(fixed.as_bytes()).unwrap();
        let ops = &loaded.workload.threads[0].transactions[0].ops;
        assert_eq!(ops, &vec![Op::Read(640), Op::Write(640)]);
        // The expansion is hashed as r + w, i.e. identical to the explicit form.
        let explicit = fixed.replace("m 640", "r 640\nw 640");
        assert_eq!(
            read_from(explicit.as_bytes()).unwrap().workload,
            loaded.workload
        );
    }

    #[test]
    fn rmw_overflowing_declared_ops_is_a_parse_error() {
        let text = "htmtrace v1\nprocs 1\nworkload t\nfingerprint 0\n\
                    thread 0 txs 1\ntx 1 pre 0 ops 1\nm 64\nend\neof\n";
        match read_from(text.as_bytes()).unwrap_err() {
            TraceError::Parse { line, .. } => assert_eq!(line, 7),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn truncated_body_is_reported_with_line_number() {
        let w = toy();
        let text = render(&w);
        let cut = text.len() / 2;
        let cut = text[..cut].rfind('\n').unwrap() + 1;
        match read_from(&text.as_bytes()[..cut]).unwrap_err() {
            TraceError::Truncated { line, .. } => assert!(line > 4),
            other => panic!("expected truncation error, got {other}"),
        }
    }

    #[test]
    fn missing_eof_is_truncation() {
        let w = toy();
        let text = render(&w);
        let no_eof = text.strip_suffix("eof\n").unwrap();
        match read_from(no_eof.as_bytes()).unwrap_err() {
            TraceError::Truncated { expected, .. } => assert!(expected.contains("eof")),
            other => panic!("expected truncation error, got {other}"),
        }
    }

    #[test]
    fn edited_body_fails_the_fingerprint_check() {
        let w = toy();
        let text = render(&w);
        // Rewrite the first read's address; structure stays valid, hash changes.
        let line = text
            .lines()
            .find(|l| l.starts_with("r "))
            .unwrap()
            .to_string();
        let edited = text.replacen(&line, "r 1234567", 1);
        match read_from(edited.as_bytes()).unwrap_err() {
            TraceError::FingerprintMismatch { declared, computed } => {
                assert_eq!(declared, w.fingerprint());
                assert_ne!(computed, declared);
            }
            other => panic!("expected fingerprint mismatch, got {other}"),
        }
    }

    #[test]
    fn future_version_is_refused_up_front() {
        let text = "htmtrace v2\nprocs 1\nworkload t\nfingerprint 0\neof\n";
        match read_from(text.as_bytes()).unwrap_err() {
            TraceError::UnsupportedVersion { found } => assert_eq!(found, "v2"),
            other => panic!("expected version error, got {other}"),
        }
    }

    #[test]
    fn over_declared_procs_is_a_dedicated_error() {
        let w = toy();
        let text = render(&w).replace("procs 3", "procs 64");
        match read_from(text.as_bytes()).unwrap_err() {
            TraceError::ThreadCountMismatch { declared, found } => {
                assert_eq!(declared, 64);
                assert_eq!(found, 3);
            }
            other => panic!("expected thread-count mismatch, got {other}"),
        }
    }

    #[test]
    fn under_declared_procs_is_also_refused() {
        let w = toy();
        let text = render(&w).replace("procs 3", "procs 2");
        match read_from(text.as_bytes()).unwrap_err() {
            TraceError::ThreadCountMismatch { declared, found } => {
                assert_eq!(declared, 2);
                assert!(found > 2);
            }
            other => panic!("expected thread-count mismatch, got {other}"),
        }
    }

    #[test]
    fn non_sequential_thread_sections_are_rejected() {
        let text = "htmtrace v1\nprocs 2\nworkload t\nfingerprint 0\n\
                    thread 1 txs 0\nthread 0 txs 0\neof\n";
        match read_from(text.as_bytes()).unwrap_err() {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("sequential"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn trailing_content_after_eof_is_rejected() {
        let w = toy();
        let text = render(&w) + "r 640\n";
        match read_from(text.as_bytes()).unwrap_err() {
            TraceError::Parse { message, .. } => assert!(message.contains("trailing")),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn not_a_trace_file_is_a_parse_error_on_line_1() {
        match read_from("{\"json\": true}\n".as_bytes()).unwrap_err() {
            TraceError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn axis_name_is_stable_and_sanitized() {
        let w = toy();
        let loaded = read_from(render(&w).as_bytes()).unwrap();
        let expected = format!("trace-intruder-{:08x}", w.fingerprint() >> 32);
        assert_eq!(loaded.axis_name(), expected);
        let odd = LoadedTrace {
            workload: WorkloadTrace::new("My Trace.v2", vec![]),
            fingerprint: 0xabcd_ef01_2345_6789,
        };
        assert_eq!(odd.axis_name(), "trace-my-trace-v2-abcdef01");
    }

    #[test]
    fn file_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("htm-trace-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.trace");
        let w = toy();
        record_to_path(&path, &w).unwrap();
        let loaded = read_from_path(&path).unwrap();
        assert_eq!(loaded.workload, w);
        let summary = validate_path(&path).unwrap();
        assert_eq!(summary.fingerprint, w.fingerprint());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        match read_from_path("/nonexistent/trace/file.trace").unwrap_err() {
            TraceError::Io(_) => {}
            other => panic!("expected io error, got {other}"),
        }
    }
}
