//! Snapshots are written by the background flusher while producers keep
//! appending, so they race appends and segment rotations. Each one must
//! still be exact: the state at its sequence number, byte for byte.

use cloudsim::SimTime;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use wal::frame::scan_frames;
use wal::{replay_dir, Event, Projections, SyncPolicy, Wal, WalConfig};

const THREADS: u64 = 3;

fn snapshots_written() -> u64 {
    obs::global()
        .metrics
        .counter_value("wal.snapshots")
        .unwrap_or(0)
}

fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let seq = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
            Some((seq.parse().ok()?, path))
        })
        .collect();
    out.sort();
    out
}

fn served(thread: u64, i: u64) -> Event {
    Event::PredictionServed {
        incident: thread * 1_000_000 + i,
        team: "PhyNet".into(),
        text: format!("thread {thread} incident {i}"),
        model_version: 1,
        predicted: i.is_multiple_of(2),
        confidence: 0.5,
        time: SimTime(i),
    }
}

#[test]
fn snapshots_racing_appends_and_rotations_render_their_exact_prefix() {
    // The snapshot counter is process-wide; this is the binary's only
    // test, so its deltas are this test's snapshots.
    obs::enable();
    for every in [3, 5, 8] {
        let dir = std::env::temp_dir().join(format!(
            "wal-concurrent-snapshots-{every}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let before = snapshots_written();
        {
            let wal = Wal::open(WalConfig {
                sync: SyncPolicy::Os,
                segment_bytes: 1024,
                snapshot_every: every,
                ..WalConfig::new(&dir)
            })
            .unwrap();
            wal.append(&Event::Init {
                served_cap: 16,
                feedback_cap: 16,
            })
            .unwrap();
            let start = Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (wal, start) = (&wal, &start);
                    s.spawn(move || {
                        start.wait();
                        // Keep appending until the flusher has written at
                        // least three snapshots under this load.
                        let mut i = 0;
                        while i < 200 || snapshots_written() - before < 3 {
                            i += 1;
                            assert!(i < 1_000_000, "the flusher never wrote a snapshot");
                            wal.append(&served(t, i)).unwrap();
                        }
                    });
                }
            });
        }
        assert!(snapshots_written() - before >= 3);
        let snaps = snapshot_files(&dir);
        assert!(!snaps.is_empty(), "every={every}: no snapshot on disk");
        for (seq, path) in snaps {
            let bytes = std::fs::read(&path).unwrap();
            let scan = scan_frames(&bytes);
            let (s, e) = scan.payloads[0];
            let snap = Projections::parse(std::str::from_utf8(&bytes[s..e]).unwrap())
                .unwrap_or_else(|| panic!("every={every}: snap-{seq} does not parse"));
            assert_eq!(snap.seq, seq);
            assert_eq!(
                snap.render(),
                replay_dir(&dir, Some(seq), false).unwrap().render(),
                "every={every}: snap-{seq} differs from the genesis replay to {seq}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
