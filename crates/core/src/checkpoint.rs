//! On-disk checkpointing: durable snapshots, auto-resume and time travel.
//!
//! [`htm_tcc::TccSystem`] knows how to serialize its complete machine state
//! into a raw payload ([`TccSystem::save_checkpoint`]) and to rebuild itself
//! from one — and the tcc test suite proves the round trip is *bit-exact*:
//! a checkpointed-and-resumed run produces the same [`RunOutcome`] as an
//! uninterrupted one, on every engine. This module owns everything **around**
//! that payload:
//!
//! * the durable file format — the payload framed by
//!   [`htm_sim::checkpoint::seal`] (magic, version, length, FNV-1a-64
//!   checksum) and written with [`atomic_write_bytes`] (temp file + `fsync` +
//!   atomic rename), so a crash at any instant leaves either the previous
//!   checkpoint or the new one, never a half-written file that parses;
//! * the naming scheme — `{key}.{cycle:020}.ckpt`, zero-padded so the
//!   lexicographic order of file names equals the numeric order of cycles;
//! * auto-resume — [`run_checkpointed`] restores the **newest valid**
//!   checkpoint for its key and continues; torn or corrupt files (detected by
//!   the frame's length and checksum) are skipped *loudly*, never silently
//!   trusted, and a checkpoint written by a different format version is a
//!   dedicated [`CheckpointError::UnsupportedVersion`] error rather than a
//!   skip — mixing formats is a user-visible condition, not noise;
//! * time travel — [`replay_to`] restores the nearest checkpoint at or
//!   before a target cycle and fast-forwards the machine to it, the
//!   debugging workflow for "what did the machine look like at the cycle of
//!   the anomaly?".
//!
//! The cross-process exactness contract is documented in `docs/DESIGN.md`
//! ("Checkpoint format & the cross-process exactness contract").

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use htm_sim::checkpoint::{self as frame, fnv1a64, CkptError, CHECKPOINT_VERSION};
use htm_sim::config::SimConfig;
use htm_sim::Cycle;
use htm_tcc::hooks::GatingHook;
use htm_tcc::stats::RunOutcome;
use htm_tcc::system::{EngineKind, SimError, TccSystem};
use htm_tcc::txn::WorkloadTrace;

/// File extension of every checkpoint file.
pub const CHECKPOINT_EXT: &str = "ckpt";

/// Where, how often, and under which name a run writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint files (created if missing).
    pub dir: PathBuf,
    /// Checkpoint interval in simulated cycles (must be at least 1).
    pub every: Cycle,
    /// Run identity: checkpoint files are named `{key}.{cycle:020}.ckpt`,
    /// so several runs (e.g. the cells of a sweep) can share one directory.
    pub key: String,
    /// Whether to auto-resume from the newest valid checkpoint for `key`
    /// (the default). When `false` the run starts from cycle 0 regardless of
    /// what is on disk — existing files are left alone and overwritten as
    /// the run passes their cycles again.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every` cycles under run identity `key`,
    /// with auto-resume enabled.
    pub fn new(dir: impl Into<PathBuf>, every: Cycle, key: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            every,
            key: key.into(),
            resume: true,
        }
    }
}

/// Errors of the on-disk checkpoint layer.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed (the path tells which file or
    /// directory; typical causes are a bad `--checkpoint-dir` or a full
    /// disk).
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A checkpoint file on disk was written by a different format version.
    /// This is a dedicated, pre-flight error — never a silent skip: resuming
    /// past an incompatible checkpoint would quietly redo work the user
    /// believes is saved.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A structurally valid checkpoint could not be applied to this run —
    /// it was taken on a different machine configuration or workload trace.
    Restore {
        /// The checkpoint file that failed to restore.
        path: PathBuf,
        /// What the restore validation rejected.
        detail: String,
    },
    /// `every` was zero: a checkpoint interval must be at least one cycle.
    ZeroInterval,
    /// The simulation itself failed (bad configuration, cycle-limit
    /// exceeded, …).
    Sim(SimError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O error at '{}': {source}", path.display())
            }
            CheckpointError::UnsupportedVersion {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint '{}' uses format version {found}, but this build reads version \
                 {expected}; delete the stale checkpoint files (or point --checkpoint-dir at a \
                 fresh directory) and re-run",
                path.display()
            ),
            CheckpointError::Restore { path, detail } => write!(
                f,
                "checkpoint '{}' cannot be restored into this run: {detail}",
                path.display()
            ),
            CheckpointError::ZeroInterval => {
                write!(f, "the checkpoint interval must be at least 1 cycle")
            }
            CheckpointError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

/// Unwraps a simulation failure; every other checkpoint failure becomes a
/// [`SimError::Checkpoint`] carrying its message.
impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Sim(sim) => sim,
            other => SimError::Checkpoint(other.to_string()),
        }
    }
}

/// What the checkpointed runner did besides simulating: where it resumed
/// from, how many checkpoints it wrote, and which on-disk files it had to
/// skip as corrupt. Callers (the binaries) surface `skipped` to the user —
/// that is the "skipped loudly" half of the durability contract.
#[derive(Debug, Clone, Default)]
pub struct CheckpointRunInfo {
    /// Cycle of the checkpoint the run resumed from (`None` = fresh start).
    pub resumed_from: Option<Cycle>,
    /// Checkpoints written during this run.
    pub checkpoints_written: u64,
    /// Files that matched this run's key but failed the frame validation
    /// (torn write, checksum mismatch, unreadable), with the reason each was
    /// skipped.
    pub skipped: Vec<(PathBuf, String)>,
}

/// The full file name of the checkpoint of run `key` at cycle `cycle`.
///
/// The cycle is zero-padded to 20 digits (the width of `u64::MAX`) so plain
/// lexicographic file-name order equals numeric cycle order.
#[must_use]
pub fn checkpoint_file_name(key: &str, cycle: Cycle) -> String {
    format!("{key}.{cycle:020}.{CHECKPOINT_EXT}")
}

/// The path of the checkpoint of run `key` at cycle `cycle` inside `dir`.
#[must_use]
pub fn checkpoint_path(dir: &Path, key: &str, cycle: Cycle) -> PathBuf {
    dir.join(checkpoint_file_name(key, cycle))
}

/// Parse a file name produced by [`checkpoint_file_name`] for `key` back
/// into its cycle. Returns `None` for files of other keys or other shapes.
#[must_use]
pub fn parse_checkpoint_cycle(file_name: &str, key: &str) -> Option<Cycle> {
    let rest = file_name.strip_prefix(key)?.strip_prefix('.')?;
    let digits = rest.strip_suffix(CHECKPOINT_EXT)?.strip_suffix('.')?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Write `bytes` to `path` durably and atomically: the bytes go to a
/// temporary file in the same directory, are `fsync`ed, and the temp file is
/// renamed over `path`; the directory is then `fsync`ed so the rename itself
/// survives a crash. A reader (or a crash) at any instant sees either the
/// old file or the complete new one — never a torn mixture.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("'{}' has no file name to write to", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = dir.join(tmp_name);
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, path)?;
    // Persist the rename: fsync the directory. Failing to sync the directory
    // is not fatal for correctness (the rename is still atomic, merely not
    // yet durable), so a filesystem that refuses directory fsync (some
    // network mounts) degrades gracefully instead of erroring.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// List the checkpoints of run `key` inside `dir`, sorted by cycle
/// ascending. A missing directory is an empty list, not an error.
pub fn list_checkpoints(dir: &Path, key: &str) -> io::Result<Vec<(Cycle, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(cycle) = parse_checkpoint_cycle(name, key) {
            found.push((cycle, entry.path()));
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// Delete every checkpoint of run `key` inside `dir` (used after a run
/// completes: its final artifacts are durable, so the intermediate
/// checkpoints are dead weight). Files that vanish concurrently are fine.
pub fn remove_checkpoints(dir: &Path, key: &str) -> io::Result<()> {
    for (_, path) in list_checkpoints(dir, key)? {
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Pre-flight scan of a checkpoint directory: every `*.ckpt` file whose
/// header parses must carry the current format version. Called **before any
/// cell runs** (mirroring the sweep's `SchemaMismatch` gate on
/// `sweep.jsonl`), so a directory of incompatible checkpoints is one clear
/// error up front instead of a per-cell surprise. Torn or garbage files are
/// *not* an error here — they are skipped loudly at resume time, where the
/// affected run can report them.
pub fn validate_checkpoint_dir(dir: &Path) -> Result<(), CheckpointError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: dir.to_path_buf(),
                source: e,
            })
        }
    };
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(CHECKPOINT_EXT) {
            continue;
        }
        // Only the fixed-size header is needed to read the version field.
        let blob = match fs::read(&path) {
            Ok(b) => b,
            // Unreadable now (e.g. being replaced) — the resume scan deals
            // with it.
            Err(_) => continue,
        };
        match frame::peek_version(&blob) {
            Ok(found) if found != CHECKPOINT_VERSION => {
                return Err(CheckpointError::UnsupportedVersion {
                    path,
                    found,
                    expected: CHECKPOINT_VERSION,
                });
            }
            // Current version, or too torn to even carry a version (the
            // resume scan will skip it loudly).
            Ok(_) | Err(_) => {}
        }
    }
    Ok(())
}

/// Find the newest checkpoint of run `key` (optionally at or before
/// `max_cycle`) whose frame validates, returning its cycle, path and raw
/// payload. Corrupt or unreadable candidates are recorded in `skipped` and
/// the scan falls back to the next-older file; a version mismatch is a hard
/// [`CheckpointError::UnsupportedVersion`].
pub fn latest_valid_payload(
    dir: &Path,
    key: &str,
    max_cycle: Option<Cycle>,
    skipped: &mut Vec<(PathBuf, String)>,
) -> Result<Option<(Cycle, PathBuf, Vec<u8>)>, CheckpointError> {
    let mut files = list_checkpoints(dir, key).map_err(|e| CheckpointError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    if let Some(max) = max_cycle {
        files.retain(|&(cycle, _)| cycle <= max);
    }
    for (cycle, path) in files.into_iter().rev() {
        let blob = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                skipped.push((path, format!("unreadable: {e}")));
                continue;
            }
        };
        match frame::unseal_current(&blob) {
            Ok(payload) => return Ok(Some((cycle, path, payload.to_vec()))),
            Err(CkptError::UnsupportedVersion { found, expected }) => {
                return Err(CheckpointError::UnsupportedVersion {
                    path,
                    found,
                    expected,
                });
            }
            Err(e) => skipped.push((path, e.to_string())),
        }
    }
    Ok(None)
}

/// Rebuild the machine from a checkpoint found by [`latest_valid_payload`],
/// or build it fresh when none was found. Returns the system and the cycle
/// it resumed from.
fn restore_or_new<H: GatingHook>(
    cfg: &SimConfig,
    workload: &WorkloadTrace,
    hook: H,
    found: Option<(Cycle, PathBuf, Vec<u8>)>,
) -> Result<(TccSystem<H>, Option<Cycle>), CheckpointError> {
    let Some((cycle, path, payload)) = found else {
        return Ok((TccSystem::new(cfg.clone(), workload.clone(), hook)?, None));
    };
    let sys = TccSystem::restore_checkpoint(cfg.clone(), workload.clone(), hook, &payload)
        .map_err(|e| CheckpointError::Restore {
            path,
            detail: e.to_string(),
        })?;
    Ok((sys, Some(cycle)))
}

/// Run a simulation to completion with periodic durable checkpoints,
/// auto-resuming from the newest valid checkpoint when one exists.
///
/// This is the checkpointed counterpart of
/// [`TccSystem::run_bounded`] and produces the **identical**
/// `(RunOutcome, hook)` pair: taking a checkpoint settles the lazy
/// accounting (bit-exact, see [`TccSystem::save_checkpoint`]) and advancing
/// in `every`-sized windows splits every engine jump additively (see
/// [`TccSystem::advance_until`]), so the artifacts of a checkpointed,
/// killed and resumed run are byte-identical to an uninterrupted one — on
/// both engines. `make_hook` must build a fresh hook with the run's
/// original parameters; on resume its mutable state is overwritten through
/// [`GatingHook::restore`].
pub fn run_checkpointed<H, F>(
    cfg: &SimConfig,
    workload: &WorkloadTrace,
    make_hook: F,
    engine: EngineKind,
    limit: Cycle,
    ckpt: &CheckpointConfig,
) -> Result<(RunOutcome, H, CheckpointRunInfo), CheckpointError>
where
    H: GatingHook,
    F: Fn() -> H,
{
    if ckpt.every == 0 {
        return Err(CheckpointError::ZeroInterval);
    }
    fs::create_dir_all(&ckpt.dir).map_err(|e| CheckpointError::Io {
        path: ckpt.dir.clone(),
        source: e,
    })?;
    let mut info = CheckpointRunInfo::default();
    let found = if ckpt.resume {
        latest_valid_payload(&ckpt.dir, &ckpt.key, None, &mut info.skipped)?
    } else {
        None
    };
    let (mut sys, resumed_from) = restore_or_new(cfg, workload, make_hook(), found)?;
    info.resumed_from = resumed_from;
    while !sys.is_complete() {
        if sys.now() >= limit {
            return Err(SimError::CycleLimitExceeded { limit }.into());
        }
        let target = sys.now().saturating_add(ckpt.every).min(limit);
        sys.advance_until_engine(target, engine);
        if !sys.is_complete() {
            let blob = frame::seal(&sys.save_checkpoint());
            let path = checkpoint_path(&ckpt.dir, &ckpt.key, sys.now());
            atomic_write_bytes(&path, &blob).map_err(|e| CheckpointError::Io {
                path: path.clone(),
                source: e,
            })?;
            info.checkpoints_written += 1;
        }
    }
    let (outcome, hook) = sys.into_parts();
    Ok((outcome, hook, info))
}

/// What [`replay_to`] found at the target cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The run identity that was replayed.
    pub key: String,
    /// The requested cycle.
    pub target: Cycle,
    /// The cycle actually reached (equal to `target` unless the run
    /// completes earlier).
    pub reached: Cycle,
    /// Whether every processor had finished by `reached`.
    pub completed: bool,
    /// Cycle of the checkpoint the replay restored (`None` = replayed from
    /// cycle 0; no usable checkpoint at or before `target` existed).
    pub resumed_from: Option<Cycle>,
    /// FNV-1a-64 digest of the machine's full checkpoint payload at
    /// `reached`. Engine-independent by the exactness invariant — two
    /// replays of the same run agree on this digest no matter which engine
    /// or which checkpoint each started from, so diverging digests localize
    /// a determinism bug to before `reached`.
    pub state_digest: u64,
}

/// Time travel: restore the nearest checkpoint of run `key` at or before
/// `target` and fast-forward the machine to exactly `target` (or run
/// completion, whichever is first). Returns the replay report and the list
/// of corrupt checkpoint files skipped during the scan.
pub fn replay_to<H, F>(
    cfg: &SimConfig,
    workload: &WorkloadTrace,
    make_hook: F,
    engine: EngineKind,
    dir: &Path,
    key: &str,
    target: Cycle,
) -> Result<(ReplayReport, Vec<(PathBuf, String)>), CheckpointError>
where
    H: GatingHook,
    F: Fn() -> H,
{
    let mut skipped = Vec::new();
    let found = latest_valid_payload(dir, key, Some(target), &mut skipped)?;
    let (mut sys, resumed_from) = restore_or_new(cfg, workload, make_hook(), found)?;
    sys.advance_until_engine(target, engine);
    let reached = sys.now();
    let completed = sys.is_complete();
    let state_digest = fnv1a64(&sys.save_checkpoint());
    Ok((
        ReplayReport {
            key: key.to_string(),
            target,
            reached,
            completed,
            resumed_from,
            state_digest,
        },
        skipped,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::policy::PolicySpec;
    use htm_workloads::{by_name, WorkloadScale};

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clockgate-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn machine() -> (SimConfig, WorkloadTrace, PolicySpec) {
        let cfg = SimConfig::table2(4);
        let workload = by_name("intruder", 4, WorkloadScale::Test, 7).expect("known workload");
        (cfg, workload, PolicySpec::ClockGate { w0: 8 })
    }

    #[test]
    fn file_names_round_trip_and_sort_by_cycle() {
        let name = checkpoint_file_name("genome-p8", 12_345);
        assert_eq!(parse_checkpoint_cycle(&name, "genome-p8"), Some(12_345));
        assert_eq!(parse_checkpoint_cycle(&name, "genome-p4"), None);
        assert_eq!(parse_checkpoint_cycle("genome-p8.ckpt", "genome-p8"), None);
        // Zero padding makes lexicographic order numeric.
        assert!(checkpoint_file_name("k", 9) < checkpoint_file_name("k", 10));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_file() {
        let dir = test_dir("atomic");
        let path = dir.join("x.ckpt");
        atomic_write_bytes(&path, b"one").unwrap();
        atomic_write_bytes(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "temp file was renamed away: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_equals_uninterrupted_run() {
        let (cfg, workload, spec) = machine();
        let hook = spec.build(&cfg);
        let (expected, _) = TccSystem::new(cfg.clone(), workload.clone(), hook)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap();

        for engine in [EngineKind::FastForward, EngineKind::Naive] {
            let dir = test_dir(&format!("equal-{}", engine.label()));
            let ckpt = CheckpointConfig::new(&dir, 500, "cell");
            let (outcome, _hook, info) = run_checkpointed(
                &cfg,
                &workload,
                || spec.build(&cfg),
                engine,
                1_000_000,
                &ckpt,
            )
            .unwrap();
            assert_eq!(outcome, expected, "engine {}", engine.label());
            assert!(info.checkpoints_written > 0, "run crossed interval bounds");
            assert_eq!(info.resumed_from, None);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_from_mid_run_checkpoint_is_bit_exact() {
        let (cfg, workload, spec) = machine();
        let hook = spec.build(&cfg);
        let (expected, _) = TccSystem::new(cfg.clone(), workload.clone(), hook)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap();

        // Simulate a killed run: advance partway, leave one checkpoint.
        let dir = test_dir("resume");
        let mut sys = TccSystem::new(cfg.clone(), workload.clone(), spec.build(&cfg)).unwrap();
        sys.advance_until(700);
        assert!(!sys.is_complete(), "workload still mid-flight at 700");
        let blob = frame::seal(&sys.save_checkpoint());
        atomic_write_bytes(&checkpoint_path(&dir, "cell", sys.now()), &blob).unwrap();
        drop(sys);

        let ckpt = CheckpointConfig::new(&dir, 500, "cell");
        let (outcome, _hook, info) = run_checkpointed(
            &cfg,
            &workload,
            || spec.build(&cfg),
            EngineKind::FastForward,
            1_000_000,
            &ckpt,
        )
        .unwrap();
        assert_eq!(info.resumed_from, Some(700));
        assert_eq!(outcome, expected, "resumed run diverged from uninterrupted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_checkpoint_is_skipped_loudly() {
        let (cfg, workload, spec) = machine();
        let dir = test_dir("corrupt");

        let mut sys = TccSystem::new(cfg.clone(), workload.clone(), spec.build(&cfg)).unwrap();
        sys.advance_until(600);
        let good_cycle = sys.now();
        let blob = frame::seal(&sys.save_checkpoint());
        atomic_write_bytes(&checkpoint_path(&dir, "cell", good_cycle), &blob).unwrap();

        // A newer, torn checkpoint (truncated mid-payload) and one with a
        // flipped payload byte (checksum mismatch).
        fs::write(
            checkpoint_path(&dir, "cell", good_cycle + 50),
            &blob[..blob.len() / 2],
        )
        .unwrap();
        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 0xff;
        fs::write(checkpoint_path(&dir, "cell", good_cycle + 100), &flipped).unwrap();

        let mut skipped = Vec::new();
        let found = latest_valid_payload(&dir, "cell", None, &mut skipped)
            .unwrap()
            .expect("good checkpoint found behind the corrupt ones");
        assert_eq!(found.0, good_cycle);
        assert_eq!(skipped.len(), 2, "both corrupt files reported: {skipped:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_version_is_a_dedicated_error() {
        let (cfg, workload, spec) = machine();
        let dir = test_dir("version");
        let mut sys = TccSystem::new(cfg, workload, spec.build(&SimConfig::table2(4))).unwrap();
        sys.advance_until(600);
        let stale = frame::seal_with_version(CHECKPOINT_VERSION + 1, &sys.save_checkpoint());
        atomic_write_bytes(&checkpoint_path(&dir, "cell", 600), &stale).unwrap();

        let mut skipped = Vec::new();
        let err = latest_valid_payload(&dir, "cell", None, &mut skipped).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion { found, .. }
                if found == CHECKPOINT_VERSION + 1),
            "{err}"
        );
        let err = validate_checkpoint_dir(&dir).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion { .. }),
            "{err}"
        );
        assert!(skipped.is_empty(), "a version mismatch is not a skip");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_to_restores_nearest_checkpoint_and_digests_deterministically() {
        let (cfg, workload, spec) = machine();
        let dir = test_dir("replay");
        let ckpt = CheckpointConfig::new(&dir, 400, "cell");
        let (_, _, info) = run_checkpointed(
            &cfg,
            &workload,
            || spec.build(&cfg),
            EngineKind::FastForward,
            1_000_000,
            &ckpt,
        )
        .unwrap();
        assert!(info.checkpoints_written >= 2, "need several checkpoints");

        let (from_ckpt, skipped) = replay_to(
            &cfg,
            &workload,
            || spec.build(&cfg),
            EngineKind::FastForward,
            &dir,
            "cell",
            900,
        )
        .unwrap();
        assert!(skipped.is_empty());
        assert_eq!(from_ckpt.reached, 900);
        assert!(
            from_ckpt.resumed_from.is_some(),
            "a checkpoint before 900 exists"
        );

        // Replaying from scratch (empty dir) must land on the same digest —
        // that is the whole point of the state digest.
        let empty = test_dir("replay-empty");
        let (from_zero, _) = replay_to(
            &cfg,
            &workload,
            || spec.build(&cfg),
            EngineKind::Naive,
            &empty,
            "cell",
            900,
        )
        .unwrap();
        assert_eq!(from_zero.resumed_from, None);
        assert_eq!(from_zero.state_digest, from_ckpt.state_digest);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn zero_interval_is_rejected() {
        let (cfg, workload, spec) = machine();
        let dir = test_dir("zero");
        let ckpt = CheckpointConfig {
            every: 0,
            ..CheckpointConfig::new(&dir, 1, "cell")
        };
        let err = match run_checkpointed(
            &cfg,
            &workload,
            || spec.build(&cfg),
            EngineKind::FastForward,
            1_000_000,
            &ckpt,
        ) {
            Err(e) => e,
            Ok(_) => panic!("a zero interval must be rejected"),
        };
        assert!(matches!(err, CheckpointError::ZeroInterval));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_runs_can_clean_their_checkpoints_up() {
        let (cfg, workload, spec) = machine();
        let dir = test_dir("cleanup");
        let ckpt = CheckpointConfig::new(&dir, 400, "cell");
        run_checkpointed(
            &cfg,
            &workload,
            || spec.build(&cfg),
            EngineKind::FastForward,
            1_000_000,
            &ckpt,
        )
        .unwrap();
        assert!(!list_checkpoints(&dir, "cell").unwrap().is_empty());
        remove_checkpoints(&dir, "cell").unwrap();
        assert!(list_checkpoints(&dir, "cell").unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
