//! The write-ahead log proper: segmented append, group-commit fsync,
//! background snapshots, and crash recovery.
//!
//! The [`Wal`] owns only the file side — frames, segments, sync and the
//! flusher thread. It holds no copy of the state the events build:
//! recovery, snapshots, [`Wal::projections`] and [`replay_dir`] are all
//! one fold of the segments on disk ([`walk_segments`]), seeded by the
//! newest usable snapshot.
//!
//! ## Durability model
//!
//! Every `append` issues the `write(2)` immediately — nothing buffers
//! in user space — so a killed process (SIGKILL, panic, OOM) loses at
//! most the final *partially written* frame, which recovery detects by
//! CRC and truncates away. The same fact makes a fold of the directory
//! exactly "what a crash right now would recover to". `fsync` only
//! matters for machine-level failures (power loss); the [`SyncPolicy`]
//! trades that window against throughput: `Always` syncs per append,
//! `Group` batches syncs behind a time/size threshold serviced by the
//! background flusher, `Os` leaves it to the kernel writeback. The
//! flusher syncs and writes snapshots *outside* the append lock (see
//! [`flusher_loop`]), so an appender waits for a sync only under
//! `Always`, at the `Group` size threshold, or at a rotation.
//!
//! ## Layout
//!
//! `<dir>/wal-<firstseq:020>.seg` — CRC-framed event records (see
//! [`crate::frame`]), seq-contiguous within and across segments.
//! Segments are never garbage-collected: the full log is the audit
//! trail (`scoutctl wal replay --until` answers "why did we promote
//! that model?" from genesis). `<dir>/snap-<seq:020>.snap` — one frame
//! wrapping the canonical [`Projections::render`] at `seq`, written
//! temp-then-rename so a crash mid-snapshot leaves the previous one
//! intact (and [`Wal::open`] deletes the orphaned temp file). Recovery
//! = newest parseable snapshot + contiguous tail replay; a snapshot is
//! an *accelerator*, never required.

use crate::event::Event;
use crate::frame::{encode_frame, scan_frames, ScanEnd, FRAME_HEADER};
use crate::projection::Projections;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many snapshots stay on disk; older ones are pruned.
const SNAPSHOTS_KEPT: usize = 2;

const POISONED: &str = "a thread panicked while holding the wal lock";

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every append. Maximum durability, minimum
    /// throughput.
    Always,
    /// Group commit: sync when `bytes` of unsynced frames accumulate
    /// or the oldest unsynced frame is `interval` old, whichever first.
    Group {
        /// Maximum age of an unsynced frame.
        interval: Duration,
        /// Unsynced-byte threshold that forces an immediate sync.
        bytes: usize,
    },
    /// Never sync explicitly; kernel writeback decides.
    Os,
}

impl SyncPolicy {
    /// The default group-commit window (5 ms / 256 KiB).
    pub fn group_default() -> SyncPolicy {
        SyncPolicy::Group {
            interval: Duration::from_millis(5),
            bytes: 256 * 1024,
        }
    }
}

/// Log tuning.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and snapshots.
    pub dir: PathBuf,
    /// Fsync policy.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one would exceed this.
    pub segment_bytes: u64,
    /// Write a snapshot at every sequence number that is a multiple of
    /// this (0 disables).
    pub snapshot_every: u64,
}

impl WalConfig {
    /// Defaults for `dir`: group commit, 8 MiB segments, snapshot every
    /// 4096 events.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            sync: SyncPolicy::group_default(),
            segment_bytes: 8 * 1024 * 1024,
            snapshot_every: 4096,
        }
    }
}

struct Inner {
    /// Shared with the flusher, which syncs it without holding the lock.
    file: Arc<File>,
    segment_len: u64,
    seq: u64,
    /// Bytes appended since open, and how many of them are known to be
    /// on stable storage. Both only grow, so a sync that finishes late
    /// (the flusher's runs unlocked) can never un-sync newer bytes.
    written: u64,
    synced: u64,
    /// When the oldest frame no sync has picked up yet was appended.
    dirty_since: Option<Instant>,
    /// The newest sequence number a snapshot is due at, for the flusher
    /// to take; appends that outrun a snapshot in progress coalesce.
    snapshot_due: Option<u64>,
    /// Set by `Drop`: the flusher writes any due snapshot, then exits.
    shutdown: bool,
}

/// The append side of the log. `Arc<Wal>` is shared by every producer;
/// appends serialize on one internal mutex (they are µs-scale:
/// encode + one `write(2)`).
pub struct Wal {
    cfg: WalConfig,
    inner: Arc<Mutex<Inner>>,
    cvar: Arc<Condvar>,
    flusher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.cfg.dir)
            .field("seq", &self.seq())
            .finish()
    }
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.seg"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.snap"))
}

/// `wal-*.seg` files sorted by first sequence number.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "wal-", ".seg")
}

/// `snap-*.snap` files sorted by sequence number.
fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "snap-", ".snap")
}

fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(mid) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        {
            if let Ok(n) = mid.parse::<u64>() {
                out.insert(n, path);
            }
        }
    }
    Ok(out.into_iter().collect())
}

/// The newest snapshot (optionally at or below `max_seq`) that reads
/// and parses cleanly. Damaged snapshots are skipped, falling back to
/// older ones and ultimately to genesis replay.
fn best_snapshot(dir: &Path, max_seq: Option<u64>) -> Option<Projections> {
    let snaps = list_snapshots(dir).ok()?;
    for (seq, path) in snaps.iter().rev() {
        if max_seq.is_some_and(|m| *seq > m) {
            continue;
        }
        let Ok(bytes) = fs::read(path) else {
            continue;
        };
        let scan = scan_frames(&bytes);
        let parsed = scan
            .payloads
            .first()
            .and_then(|&(s, e)| std::str::from_utf8(&bytes[s..e]).ok())
            .and_then(Projections::parse);
        match parsed {
            Some(p) => return Some(p),
            None => obs::counter("wal.recovery.bad_snapshot").inc(),
        }
    }
    None
}

/// A fold of the segments, and where their valid prefix ends.
struct Walk {
    proj: Projections,
    segments: Vec<(u64, PathBuf)>,
    /// Index of the segment the walk ended in and the length of its
    /// valid prefix (`None`: no segments).
    end: Option<(usize, u64)>,
    /// The walk ended at a torn or corrupt frame.
    torn: bool,
    /// The walk ended at an undecodable or non-contiguous event.
    bad_event: bool,
}

/// Fold the segments in `dir` into `proj` up to `until` (or the tip).
/// Segments the fold already covers are skipped unread, and the walk
/// stops at the first torn or corrupt frame, undecodable event or
/// sequence gap. Recovery and [`replay_dir`] both walk the log here.
fn walk_segments(dir: &Path, proj: Projections, until: Option<u64>) -> io::Result<Walk> {
    let segments = list_segments(dir)?;
    let mut walk = Walk {
        proj,
        segments: Vec::new(),
        end: None,
        torn: false,
        bad_event: false,
    };
    'walk: for (idx, (_, path)) in segments.iter().enumerate() {
        let covered = segments
            .get(idx + 1)
            .is_some_and(|(next_first, _)| *next_first <= walk.proj.seq + 1);
        if covered {
            continue; // entirely behind the snapshot
        }
        let bytes = fs::read(path)?;
        let scan = scan_frames(&bytes);
        walk.end = Some((idx, scan.valid_len as u64));
        walk.torn = scan.end != ScanEnd::Clean;
        for &(s, e) in &scan.payloads {
            if until.is_some_and(|u| walk.proj.seq >= u) {
                break 'walk;
            }
            let text = std::str::from_utf8(&bytes[s..e]).ok();
            // Behind-snapshot records only need their seq stamp — skip
            // the full JSON decode for the covered prefix.
            if let Some(seq) = text.and_then(Event::peek_seq) {
                if seq <= walk.proj.seq {
                    continue;
                }
            }
            match text.and_then(Event::decode) {
                Some((seq, ev)) if seq == walk.proj.seq + 1 => walk.proj.apply(seq, &ev),
                Some((seq, _)) if seq <= walk.proj.seq => {} // behind snapshot
                _ => {
                    walk.end = Some((idx, (s - FRAME_HEADER) as u64));
                    walk.bad_event = true;
                    break 'walk;
                }
            }
        }
        if walk.torn {
            break 'walk;
        }
    }
    walk.segments = segments;
    Ok(walk)
}

fn timed_sync(file: &File) -> io::Result<()> {
    let start = Instant::now();
    file.sync_data()?;
    obs::observe("wal.fsync_ms", start.elapsed().as_secs_f64() * 1e3);
    obs::counter("wal.fsyncs").inc();
    Ok(())
}

/// Sync under the log's lock, if anything is unsynced.
fn fsync_inner(inner: &mut Inner) -> io::Result<()> {
    if inner.synced == inner.written {
        return Ok(());
    }
    fsync_forced(inner)
}

/// Sync under the log's lock whatever the counters say (a rotation
/// must not trust a sync the flusher only counted as failed).
fn fsync_forced(inner: &mut Inner) -> io::Result<()> {
    timed_sync(&inner.file)?;
    inner.synced = inner.written;
    inner.dirty_since = None;
    Ok(())
}

/// Fold the log in `dir` up to `seq` and write it as a snapshot:
/// temp file, `sync_all`, rename, then prune to [`SNAPSHOTS_KEPT`].
fn write_snapshot(dir: &Path, seq: u64) -> io::Result<()> {
    let proj = replay_dir(dir, Some(seq), true)?;
    let rendered = proj.render();
    let mut framed = Vec::with_capacity(rendered.len() + FRAME_HEADER);
    encode_frame(rendered.as_bytes(), &mut framed);
    let path = snapshot_path(dir, proj.seq);
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    obs::counter("wal.snapshots").inc();
    // Prune old snapshots; the segments stay (full audit trail).
    for (_, old) in list_snapshots(dir)?.iter().rev().skip(SNAPSHOTS_KEPT) {
        fs::remove_file(old).ok();
    }
    Ok(())
}

/// The background half of the log, one thread per [`Wal`]. It writes
/// each due snapshot (under every policy; one at a time) and, under
/// [`SyncPolicy::Group`], syncs once the oldest unsynced frame is
/// `interval` old. Both run **without** the log's lock, on a shared
/// handle to the segment: what a request pays for the log is its own
/// `write(2)` and never somebody's `fdatasync` — 0.4 ms at the median
/// on an idle disk, 20–30 ms at p99 and 100+ ms at worst while the host
/// writes back someone else's data — nor a snapshot's fold and render,
/// tens of ms on a full served log.
fn flusher_loop(lock: &Mutex<Inner>, cvar: &Condvar, dir: &Path, sync: SyncPolicy) {
    let mut guard = lock.lock().expect(POISONED);
    loop {
        let snapshot = guard.snapshot_due.take();
        let group_due = match (sync, guard.dirty_since) {
            (SyncPolicy::Group { interval, .. }, Some(t0)) => t0.elapsed() >= interval,
            _ => false,
        };
        if snapshot.is_some() || group_due {
            let file = Arc::clone(&guard.file);
            let upto = guard.written;
            // The next append opens the next group.
            guard.dirty_since = None;
            drop(guard);
            let synced = timed_sync(&file).is_ok();
            if !synced {
                // Counted, not retried: the next group's sync covers
                // these bytes too if the disk recovers.
                obs::counter("wal.fsync_errors").inc();
            }
            // The snapshot must never get ahead of the durable log.
            if let Some(seq) = snapshot.filter(|_| synced) {
                if write_snapshot(dir, seq).is_err() {
                    obs::counter("wal.snapshot_errors").inc();
                }
            }
            guard = lock.lock().expect(POISONED);
            guard.synced = guard.synced.max(upto);
            continue;
        }
        if guard.shutdown {
            return;
        }
        guard = match (sync, guard.dirty_since) {
            (SyncPolicy::Group { interval, .. }, Some(t0)) => {
                let wait = interval.saturating_sub(t0.elapsed());
                cvar.wait_timeout(guard, wait).expect(POISONED).0
            }
            _ => cvar.wait(guard).expect(POISONED),
        };
    }
}

impl Wal {
    /// Open (creating if needed) the log in `cfg.dir`, recovering from
    /// newest-snapshot + tail replay. A torn or corrupt final frame is
    /// truncated away so appends continue from the last valid record. A
    /// brand-new log reports `seq() == 0`; the owner should append
    /// [`Event::Init`] first.
    pub fn open(cfg: WalConfig) -> io::Result<Wal> {
        fs::create_dir_all(&cfg.dir)?;
        // A snapshot killed before its rename leaves only its temp file.
        for (_, tmp) in list_numbered(&cfg.dir, "snap-", ".snap.tmp")? {
            fs::remove_file(tmp)?;
        }
        let seed = best_snapshot(&cfg.dir, None).unwrap_or_default();
        let walk = walk_segments(&cfg.dir, seed, None)?;
        if walk.torn {
            obs::counter("wal.recovery.torn_tail").inc();
        }
        if walk.bad_event {
            obs::counter("wal.recovery.bad_event").inc();
        }
        let seq = walk.proj.seq;
        let (path, segment_len) = match walk.end {
            Some((idx, valid_len)) => {
                let path = &walk.segments[idx].1;
                if walk.torn || walk.bad_event {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(valid_len)?;
                    f.sync_data()?;
                }
                // A damaged interior segment broke seq contiguity:
                // everything after it can never replay. Move it aside so
                // the on-disk invariant (contiguous segments) holds.
                for (_, later) in &walk.segments[idx + 1..] {
                    fs::rename(later, later.with_extension("seg.orphan"))?;
                    obs::counter("wal.recovery.orphaned_segments").inc();
                }
                (path.clone(), valid_len)
            }
            None => (segment_path(&cfg.dir, seq + 1), 0),
        };
        let file = Arc::new(OpenOptions::new().create(true).append(true).open(&path)?);
        obs::gauge("wal.seq").set(seq as f64);
        let inner = Arc::new(Mutex::new(Inner {
            file,
            segment_len,
            seq,
            written: 0,
            synced: 0,
            dirty_since: None,
            snapshot_due: None,
            shutdown: false,
        }));
        let cvar = Arc::new(Condvar::new());
        let flusher = {
            let (inner, cvar, dir, sync) = (
                Arc::clone(&inner),
                Arc::clone(&cvar),
                cfg.dir.clone(),
                cfg.sync,
            );
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop(&inner, &cvar, &dir, sync))?
        };
        Ok(Wal {
            cfg,
            inner,
            cvar,
            flusher: Some(flusher),
        })
    }

    /// Sequence number of the last appended (or recovered) event.
    pub fn seq(&self) -> u64 {
        self.inner.lock().expect(POISONED).seq
    }

    /// What a crash right now would recover to: a read-only fold of the
    /// log on disk (newest usable snapshot plus tail) up to [`Wal::seq`].
    /// Every append has issued its `write(2)` before it returns, so the
    /// fold sees it.
    ///
    /// # Panics
    ///
    /// If the log directory or a segment in it can no longer be read.
    pub fn projections(&self) -> Projections {
        replay_dir(&self.cfg.dir, Some(self.seq()), true).expect("read back the wal directory")
    }

    /// The canonical rendering of [`Wal::projections`].
    pub fn render_state(&self) -> String {
        self.projections().render()
    }

    /// Append one event, returning its sequence number. The record is
    /// written (visible to recovery after a process kill) before this
    /// returns; stable-storage sync follows the configured policy.
    pub fn append(&self, event: &Event) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect(POISONED);
        let seq = inner.seq + 1;
        let payload = event.encode(seq);
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER);
        encode_frame(payload.as_bytes(), &mut frame);
        if inner.segment_len > 0 && inner.segment_len + frame.len() as u64 > self.cfg.segment_bytes
        {
            self.rotate_locked(&mut inner, seq)?;
        }
        (&*inner.file).write_all(&frame)?;
        inner.segment_len += frame.len() as u64;
        inner.seq = seq;
        inner.written += frame.len() as u64;
        obs::counter("wal.appends").inc();
        obs::counter("wal.append_bytes").add(frame.len() as u64);
        obs::gauge("wal.seq").set(seq as f64);
        match self.cfg.sync {
            SyncPolicy::Always => fsync_inner(&mut inner)?,
            SyncPolicy::Group { bytes, .. } => {
                if inner.written - inner.synced >= bytes as u64 {
                    fsync_inner(&mut inner)?;
                } else if inner.dirty_since.is_none() {
                    // Wake the flusher once per group, not once per
                    // append: it sleeps out the rest of the interval.
                    inner.dirty_since = Some(Instant::now());
                    self.cvar.notify_one();
                }
            }
            SyncPolicy::Os => {}
        }
        if self.cfg.snapshot_every > 0 && seq.is_multiple_of(self.cfg.snapshot_every) {
            inner.snapshot_due = Some(seq);
            self.cvar.notify_one();
        }
        Ok(seq)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&self) -> io::Result<()> {
        fsync_inner(&mut self.inner.lock().expect(POISONED))
    }

    fn rotate_locked(&self, inner: &mut Inner, next_seq: u64) -> io::Result<()> {
        // Finish the old segment durably before starting the next so a
        // later power loss cannot hole-punch the middle of the log.
        fsync_forced(inner)?;
        let path = segment_path(&self.cfg.dir, next_seq);
        inner.file = Arc::new(OpenOptions::new().create(true).append(true).open(&path)?);
        inner.segment_len = 0;
        obs::counter("wal.rotations").inc();
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.shutdown = true;
        }
        self.cvar.notify_all();
        // Joins only after the flusher has written any due snapshot.
        if let Some(handle) = self.flusher.take() {
            handle.join().ok();
        }
        if let Ok(mut inner) = self.inner.lock() {
            fsync_inner(&mut inner).ok();
        }
    }
}

/// Replay the log in `dir` read-only, reconstructing the projections at
/// `until` (or the tip). With `use_snapshot` the newest usable snapshot
/// at or below `until` seeds the fold; without it the fold starts at
/// genesis — the independent reference the crash-recovery tests compare
/// against. Torn or corrupt tails end the replay at the last valid
/// record, exactly like recovery (but nothing on disk is modified).
pub fn replay_dir(dir: &Path, until: Option<u64>, use_snapshot: bool) -> io::Result<Projections> {
    let seed = if use_snapshot {
        best_snapshot(dir, until).unwrap_or_default()
    } else {
        Projections::new()
    };
    Ok(walk_segments(dir, seed, until)?.proj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::SimTime;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wal-log-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg(dir: &Path) -> WalConfig {
        WalConfig {
            sync: SyncPolicy::Os,
            segment_bytes: 512,
            snapshot_every: 0,
            ..WalConfig::new(dir)
        }
    }

    fn pred(incident: u64) -> Event {
        Event::PredictionServed {
            incident,
            team: "PhyNet".into(),
            text: format!("incident {incident} text"),
            model_version: 1,
            predicted: incident.is_multiple_of(2),
            confidence: 0.5,
            time: SimTime(incident * 3),
        }
    }

    #[test]
    fn append_reopen_recovers_identical_state() {
        let dir = tmp_dir("reopen");
        let rendered = {
            let wal = Wal::open(small_cfg(&dir)).unwrap();
            wal.append(&Event::Init {
                served_cap: 64,
                feedback_cap: 64,
            })
            .unwrap();
            for i in 1..=40 {
                wal.append(&pred(i)).unwrap();
            }
            wal.render_state()
        };
        let wal = Wal::open(small_cfg(&dir)).unwrap();
        assert_eq!(wal.seq(), 41);
        assert_eq!(wal.render_state(), rendered);
        // Appends continue with contiguous seqs after reopen.
        assert_eq!(wal.append(&pred(41)).unwrap(), 42);
        // And the independent genesis replay agrees.
        drop(wal);
        let replayed = replay_dir(&dir, None, false).unwrap();
        assert_eq!(replayed.seq, 42);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp_dir("rotate");
        {
            let wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 1..=50 {
                wal.append(&pred(i)).unwrap();
            }
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {segs:?}");
        let p = replay_dir(&dir, None, false).unwrap();
        assert_eq!(p.seq, 50);
        assert_eq!(p.counts["prediction_served"], 50);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = tmp_dir("torn");
        {
            let wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 1..=10 {
                wal.append(&pred(i)).unwrap();
            }
        }
        // Tear the last segment mid-frame.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&last).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&last)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let before = replay_dir(&dir, None, false).unwrap();
        let wal = Wal::open(small_cfg(&dir)).unwrap();
        assert_eq!(wal.seq(), before.seq);
        assert!(wal.seq() < 10, "final frame must have been dropped");
        assert_eq!(wal.render_state(), before.render());
        let next = wal.append(&pred(99)).unwrap();
        assert_eq!(next, before.seq + 1);
        drop(wal);
        let after = replay_dir(&dir, None, false).unwrap();
        assert_eq!(after.seq, next);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_accelerated_recovery_matches_genesis_replay() {
        let dir = tmp_dir("snap");
        let cfg = WalConfig {
            snapshot_every: 16,
            segment_bytes: 1024,
            sync: SyncPolicy::Os,
            ..WalConfig::new(&dir)
        };
        {
            let wal = Wal::open(cfg.clone()).unwrap();
            for i in 1..=60 {
                wal.append(&pred(i)).unwrap();
            }
        }
        assert!(
            !list_snapshots(&dir).unwrap().is_empty(),
            "expected snapshots"
        );
        let fast = replay_dir(&dir, None, true).unwrap();
        let slow = replay_dir(&dir, None, false).unwrap();
        assert_eq!(fast.render(), slow.render());
        // A freshly opened Wal agrees too.
        let wal = Wal::open(cfg).unwrap();
        assert_eq!(wal.render_state(), slow.render());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_removes_a_snapshot_killed_before_its_rename() {
        let dir = tmp_dir("snaptmp");
        {
            let wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 1..=20 {
                wal.append(&pred(i)).unwrap();
            }
        }
        let tmp = snapshot_path(&dir, 20).with_extension("snap.tmp");
        fs::write(&tmp, b"half a snapsh").unwrap();
        let wal = Wal::open(small_cfg(&dir)).unwrap();
        assert!(
            !tmp.exists(),
            "the killed snapshot's temp file survived open"
        );
        let genesis = replay_dir(&dir, None, false).unwrap();
        assert_eq!(wal.render_state(), genesis.render());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_or_genesis() {
        let dir = tmp_dir("badsnap");
        let cfg = WalConfig {
            snapshot_every: 8,
            sync: SyncPolicy::Os,
            ..WalConfig::new(&dir)
        };
        {
            let wal = Wal::open(cfg.clone()).unwrap();
            for i in 1..=30 {
                wal.append(&pred(i)).unwrap();
            }
        }
        let reference = replay_dir(&dir, None, false).unwrap();
        for (_, snap) in list_snapshots(&dir).unwrap() {
            fs::write(&snap, b"garbage, not a frame").unwrap();
        }
        let recovered = Wal::open(cfg).unwrap();
        assert_eq!(recovered.render_state(), reference.render());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_until_is_time_travel() {
        let dir = tmp_dir("until");
        {
            let wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 1..=20 {
                wal.append(&pred(i)).unwrap();
            }
        }
        let at_5 = replay_dir(&dir, Some(5), false).unwrap();
        assert_eq!(at_5.seq, 5);
        assert_eq!(at_5.served.records.len(), 5);
        let at_tip = replay_dir(&dir, Some(9999), false).unwrap();
        assert_eq!(at_tip.seq, 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_flusher_syncs_in_background() {
        let dir = tmp_dir("group");
        let cfg = WalConfig {
            sync: SyncPolicy::Group {
                interval: Duration::from_millis(2),
                bytes: 1 << 20,
            },
            snapshot_every: 0,
            ..WalConfig::new(&dir)
        };
        let wal = Wal::open(cfg).unwrap();
        for i in 1..=5 {
            wal.append(&pred(i)).unwrap();
        }
        // The flusher should drain the dirty window without an explicit
        // sync() from us.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let inner = wal.inner.lock().unwrap();
            if inner.synced == inner.written {
                break;
            }
            drop(inner);
            assert!(Instant::now() < deadline, "flusher never synced");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(wal);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_racing_the_unlocked_flusher_all_reach_the_log_in_order() {
        let dir = tmp_dir("race");
        let cfg = WalConfig {
            // An interval far below one sync keeps the flusher syncing
            // back to back, so most appends land while one is in flight.
            sync: SyncPolicy::Group {
                interval: Duration::from_micros(50),
                bytes: 1 << 20,
            },
            snapshot_every: 0,
            segment_bytes: 4096, // rotate under the flusher's feet too
            ..WalConfig::new(&dir)
        };
        let wal = Arc::new(Wal::open(cfg).unwrap());
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 1..=200 {
                        wal.append(&pred(i)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        wal.sync().unwrap();
        {
            let inner = wal.inner.lock().unwrap();
            assert_eq!(inner.synced, inner.written);
            assert_eq!(inner.seq, 400);
        }
        drop(wal);
        assert_eq!(replay_dir(&dir, None, false).unwrap().seq, 400);
        fs::remove_dir_all(&dir).ok();
    }
}
