//! Pinned behaviour of the `htmtrace v1` reader.
//!
//! Every malformed input below is checked against the exact `Display`
//! string of its error (variant, line number and message), through both
//! `read_from` and `validate_from`. The inputs that must still parse
//! (CRLF line ends, tabs, leading blanks, a `+7` operand, `u64::MAX`, no
//! newline after `eof`, a comment longer than the reader's chunk) are
//! checked against the workload they spell.
//!
//! The chunk-boundary properties then check that a source which hands
//! over 1–7 bytes per `read` gives the same result, or the same error, as
//! a whole slice, for generated workloads and for random cuts and edits
//! of their text.

use std::io::{self, BufReader, Read};

use htm_sim::rng::DeterministicRng;
use htm_tcc::txn::{Op, ThreadTrace, Transaction, WorkloadTrace};
use htm_workloads::trace::{self, read_from, validate_from, LoadedTrace, TraceSummary};
use htm_workloads::{by_name, WorkloadScale, CORPUS_WORKLOADS};

/// The two-thread toy of the module documentation.
fn toy() -> WorkloadTrace {
    toy_with(Op::Read(640))
}

fn toy_with(first: Op) -> WorkloadTrace {
    WorkloadTrace::new(
        "toy",
        vec![
            ThreadTrace::new(vec![Transaction::with_pre_compute(
                16384,
                12,
                vec![first, Op::Compute(3), Op::Write(640)],
            )]),
            ThreadTrace::default(),
        ],
    )
}

/// The canonical text of [`toy`]:
///
/// ```text
/// 1  htmtrace v1
/// 2  procs 2
/// 3  workload toy
/// 4  fingerprint …
/// 5  thread 0 txs 1
/// 6  tx 16384 pre 12 ops 3
/// 7  r 640
/// 8  c 3
/// 9  w 640
/// 10 end
/// 11 thread 1 txs 0
/// 12 eof
/// ```
fn base() -> String {
    trace::render(&toy())
}

/// Both entry points fail on `bytes` with the same message; return it.
fn error_of(bytes: &[u8]) -> String {
    let read = read_from(bytes).expect_err("read_from accepted a malformed trace");
    let validate = validate_from(bytes).expect_err("validate_from accepted a malformed trace");
    assert_eq!(read.to_string(), validate.to_string());
    read.to_string()
}

#[test]
fn malformed_inputs_fail_with_pinned_messages() {
    let text = base();
    // The fingerprint the module documentation shows for this toy.
    assert_eq!(toy().fingerprint(), 0x5f59_33f9_1e17_8e8a);
    let fp = format!("{:016x}", toy().fingerprint());
    let truncated_op = &text[..text.find("c 3\n").unwrap()];
    let cases: Vec<(&str, String, String)> = vec![
        (
            "empty file",
            String::new(),
            "trace truncated at line 1: expected `htmtrace v1` header \
             (file ends inside the declared structure)"
                .into(),
        ),
        (
            "not a trace file",
            "{\"json\": true}\n".into(),
            "trace parse error at line 1: not an htmtrace file (missing `htmtrace v1` header)"
                .into(),
        ),
        (
            "future version",
            text.replace("htmtrace v1", "htmtrace v2"),
            "unsupported trace format version `v2` (this build reads htmtrace v1)".into(),
        ),
        (
            "zero processors",
            text.replace("procs 2", "procs 0"),
            "trace parse error at line 2: processor count must be at least 1".into(),
        ),
        (
            "bad processor count",
            text.replace("procs 2", "procs two"),
            "trace parse error at line 2: invalid processor count `two`".into(),
        ),
        (
            "bad fingerprint",
            text.replace(&fp, "xyz"),
            "trace parse error at line 4: invalid fingerprint `xyz`".into(),
        ),
        (
            "truncated op",
            truncated_op.into(),
            "trace truncated at line 8: expected operation line (2 of 3 in current tx) \
             (file ends inside the declared structure)"
                .into(),
        ),
        (
            "truncated before a tx line",
            text[..text.find("tx 16384").unwrap()].into(),
            "trace truncated at line 6: expected `tx ID pre P ops N` line \
             (file ends inside the declared structure)"
                .into(),
        ),
        (
            "malformed tx line",
            text.replace("tx 16384 pre 12 ops 3", "tx 16384 pre 12"),
            "trace parse error at line 6: expected `tx ID pre P ops N`, found `tx 16384 pre 12`"
                .into(),
        ),
        (
            "bad tx id",
            text.replace("tx 16384", "tx 0x10"),
            "trace parse error at line 6: invalid tx id `0x10`".into(),
        ),
        (
            "bad operand",
            text.replace("r 640", "r 64x0"),
            "trace parse error at line 7: invalid operand `64x0`".into(),
        ),
        (
            "negative operand",
            text.replace("r 640", "r -7"),
            "trace parse error at line 7: invalid operand `-7`".into(),
        ),
        (
            "operand past u64::MAX",
            text.replace("r 640", "r 18446744073709551616"),
            "trace parse error at line 7: invalid operand `18446744073709551616`".into(),
        ),
        (
            "op line with a third token",
            text.replace("r 640", "r 640 7"),
            "trace parse error at line 7: expected `r|w|c|m VALUE`, found `r 640 7`".into(),
        ),
        (
            "op line with no operand",
            text.replace("r 640", "r"),
            "trace parse error at line 7: expected `r|w|c|m VALUE`, found `r`".into(),
        ),
        (
            "unknown op kind",
            text.replace("r 640", "q 640"),
            "trace parse error at line 7: unknown op kind `q`".into(),
        ),
        (
            "op kind in the wrong case",
            text.replace("r 640", "R 640"),
            "trace parse error at line 7: unknown op kind `R`".into(),
        ),
        (
            "`m` past the declared count",
            text.replace("w 640", "m 640"),
            "trace parse error at line 9: `m` expands to a read + a write and needs 2 \
             remaining declared ops"
                .into(),
        ),
        (
            "missing end",
            text.replace("end\n", ""),
            "trace parse error at line 10: expected `end` after 3 ops, found `thread 1 txs 0`"
                .into(),
        ),
        (
            "missing eof",
            text.strip_suffix("eof\n").unwrap().into(),
            "trace truncated at line 12: expected `eof` trailer \
             (file ends inside the declared structure)"
                .into(),
        ),
        (
            "something else where eof belongs",
            text.replace("eof\n", "fin\n"),
            "trace parse error at line 12: expected `eof`, found `fin`".into(),
        ),
        (
            "trailing content",
            text.clone() + "r 640\n",
            "trace parse error at line 13: trailing content after `eof`".into(),
        ),
        (
            "non-sequential thread",
            text.replace("thread 1 txs 0", "thread 2 txs 0"),
            "trace parse error at line 11: thread sections must be sequential: \
             expected thread 1, found thread 2"
                .into(),
        ),
        (
            "malformed thread line",
            text.replace("thread 1 txs 0", "thread 1"),
            "trace parse error at line 11: expected `thread 1 txs N`, found `thread 1`".into(),
        ),
        (
            "a tab in a header line",
            text.replace("procs 2", "procs\t2"),
            "trace parse error at line 2: expected `procs N`".into(),
        ),
        (
            "over-declared procs",
            text.replace("procs 2", "procs 3"),
            "trace declares procs 3 but contains 2 thread section(s)".into(),
        ),
        (
            "under-declared procs",
            text.replace("procs 2", "procs 1"),
            "trace declares procs 1 but contains 2 thread section(s)".into(),
        ),
    ];
    for (what, input, expected) in &cases {
        assert_eq!(&error_of(input.as_bytes()), expected, "case: {what}");
    }

    // The mismatch names the hash of the edited body.
    let edited = text.replace("w 640", "w 641");
    let mut body = toy();
    body.threads[0].transactions[0].ops[2] = Op::Write(641);
    assert_eq!(body.fingerprint(), 0x26c2_610c_7252_b5df);
    assert_eq!(
        error_of(edited.as_bytes()),
        format!(
            "trace fingerprint mismatch: header declares {fp} but the body hashes to \
             26c2610c7252b5df (file edited or corrupted)"
        ),
    );
}

#[test]
fn a_non_utf8_byte_in_a_comment_is_an_io_error() {
    let mut bytes = base().into_bytes();
    let at = bytes.len() - "eof\n".len();
    bytes.splice(at..at, b"# caf\xe9\n".iter().copied());
    assert_eq!(
        error_of(&bytes),
        "trace I/O error: stream did not contain valid UTF-8"
    );
}

/// `bytes` parses to exactly [`toy`] through both entry points.
fn assert_parses_to(bytes: &[u8], expected: &WorkloadTrace, what: &str) {
    let loaded = read_from(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(&loaded.workload, expected, "{what}");
    assert_eq!(loaded.fingerprint, expected.fingerprint(), "{what}");
    let summary = validate_from(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(summary.fingerprint, expected.fingerprint(), "{what}");
    assert_eq!(summary.name, expected.name, "{what}");
}

#[test]
fn tolerated_spellings_still_parse() {
    let text = base();
    let w = toy();
    assert_parses_to(text.replace('\n', "\r\n").as_bytes(), &w, "CRLF line ends");
    let (header, body) = text.split_at(text.find("thread 0").unwrap());
    assert_parses_to(
        (header.to_string() + &body.replace(' ', "\t")).as_bytes(),
        &w,
        "tabs between body tokens",
    );
    assert_parses_to(
        text.replace("r 640", "  \t r   640\t ")
            .replace("end", " end ")
            .as_bytes(),
        &w,
        "leading and trailing blanks",
    );
    assert_parses_to(text.replace("c 3", "c +3").as_bytes(), &w, "a `+` sign");
    assert_parses_to(
        text.replace("c 3", "c 0003").as_bytes(),
        &w,
        "leading zeros",
    );
    assert_parses_to(
        text.strip_suffix('\n').unwrap().as_bytes(),
        &w,
        "no newline after eof",
    );
    assert_parses_to(
        text.replace("end\n", "end\n\n\n# between\n   \n")
            .as_bytes(),
        &w,
        "blank lines and comments",
    );
    let long_comment = format!("# {}\n", "x".repeat(200_000));
    assert_parses_to(
        text.replace("r 640\n", &format!("r 640\n{long_comment}"))
            .as_bytes(),
        &w,
        "a comment longer than one chunk",
    );

    let max = toy_with(Op::Read(u64::MAX));
    let max_text = trace::render(&max);
    assert!(max_text.contains("r 18446744073709551615\n"));
    assert_parses_to(max_text.as_bytes(), &max, "u64::MAX operand");
}

/// A source that hands over 1–7 bytes per `read`, so lines straddle every
/// possible read boundary.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: DeterministicRng,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (1 + self.rng.gen_range(7) as usize)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn trickle(bytes: &[u8], seed: u64) -> BufReader<Trickle<'_>> {
    BufReader::with_capacity(
        1,
        Trickle {
            bytes,
            rng: DeterministicRng::new(seed),
        },
    )
}

type Outcome = (Result<LoadedTrace, String>, Result<TraceSummary, String>);

fn whole(bytes: &[u8]) -> Outcome {
    (
        read_from(bytes).map_err(|e| e.to_string()),
        validate_from(bytes).map_err(|e| e.to_string()),
    )
}

fn trickled(bytes: &[u8], seed: u64) -> Outcome {
    (
        read_from(trickle(bytes, seed)).map_err(|e| e.to_string()),
        validate_from(trickle(bytes, seed)).map_err(|e| e.to_string()),
    )
}

/// Bytes a random edit may write: digits, letters of the grammar, blanks,
/// line ends, a comment mark and a non-ASCII byte.
const EDIT_BYTES: &[u8] = b"0123456789rwcmtxpreodsnf #\t\r\n\xc3";

#[test]
fn a_trickling_source_reads_like_a_whole_slice() {
    let mut names = vec!["genome", "yada", "intruder"];
    names.extend(CORPUS_WORKLOADS);
    let mut rng = DeterministicRng::new(7);
    for (case, name) in names.iter().enumerate() {
        for procs in [1, 3] {
            let seed = case as u64 * 10 + procs as u64;
            let w = by_name(name, procs, WorkloadScale::Test, seed).unwrap();
            let text = trace::render(&w).into_bytes();
            let expected = whole(&text);
            assert_eq!(expected.0.as_ref().unwrap().workload, w, "{name}");
            assert_eq!(trickled(&text, seed), expected, "{name}");

            for _ in 0..8 {
                let cut = rng.gen_range(text.len() as u64 + 1) as usize;
                let cut_text = &text[..cut];
                assert_eq!(
                    trickled(cut_text, seed),
                    whole(cut_text),
                    "{name} cut at byte {cut}"
                );

                let mut edited = text.clone();
                let at = rng.gen_range(text.len() as u64) as usize;
                edited[at] = EDIT_BYTES[rng.gen_range(EDIT_BYTES.len() as u64) as usize];
                assert_eq!(
                    trickled(&edited, seed),
                    whole(&edited),
                    "{name} edited at byte {at}"
                );
            }
        }
    }
}

#[test]
fn lines_straddling_a_full_chunk_read_like_short_reads() {
    // Larger than the reader's chunk, so whole-slice reads cut lines at the
    // chunk's end and a long comment grows the buffer.
    let w = by_name("intruder", 2, WorkloadScale::Full, 3)
        .unwrap()
        .tiled(20);
    let text = trace::render(&w);
    assert!(text.len() > 256 * 1024, "{} bytes", text.len());
    let long_comment = format!("# {}\n", "y".repeat(150_000));
    let at = text.len() / 3;
    let at = text[..at].rfind('\n').unwrap() + 1;
    let commented = format!("{}{long_comment}{}", &text[..at], &text[at..]);
    for bytes in [text.as_bytes(), commented.as_bytes()] {
        let expected = whole(bytes);
        assert_eq!(expected.0.as_ref().unwrap().workload, w);
        assert_eq!(trickled(bytes, 11), expected);
    }
}
