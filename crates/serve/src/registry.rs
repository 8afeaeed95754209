//! Versioned model registry with atomic hot-swap, a rollback timeline,
//! and pins.
//!
//! The paper keeps trained Scouts "in a highly available storage system
//! and serves them to the online component"; this is the in-process half
//! of that contract. Each team name maps to a slot holding the *current*
//! [`Arc<ModelEntry>`] — an immutable trained Scout plus a
//! process-unique version number — and a bounded stack of superseded
//! entries, retained so a bad promotion (or several in a row) can be
//! rolled back to **any** still-held version without retraining.
//! Readers clone the `Arc` under a briefly-held lock and then predict
//! entirely lock-free, so a reload (which builds the new Scouts
//! *outside* the lock and swaps the map in one write) never blocks an
//! in-flight prediction, and every prediction is attributable to
//! exactly one version.
//!
//! Every mutation is reported to the attached [`RegistryJournal`]
//! *inside* the write-lock window, so the journal (the WAL, in
//! production) observes mutations in exactly the order they took
//! effect. The journal is how the promotion timeline outlives the
//! process: the in-memory history stack holds at most
//! [`wal::HISTORY_CAP`] live entries, while the log keeps the full
//! forensic record.
//!
//! Invariants:
//!
//! * versions are process-unique and never reused — a rollback restores
//!   a prior entry *with its original version number*, so audit records
//!   stay attributable (after a crash, [`ModelRegistry::resume_versions_from`]
//!   re-arms the counter above everything the log ever assigned);
//! * a **pinned** team rejects `register` and is skipped by `load_dir`
//!   (operator override: "stop auto-promoting this team"), but rollback
//!   still works — pinning must never trap a regressed model in place;
//! * rolling back to version `v` discards every entry newer than `v`:
//!   the timeline never forks.

use featcache::FeatCache;
use scout::Scout;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use wal::{Timeline, Versioned};

/// Default per-model feature-chunk cache budget (bytes).
pub const DEFAULT_FEAT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// One registered model: immutable once published.
#[derive(Debug)]
pub struct ModelEntry {
    /// Team the Scout answers for (registry key).
    pub team: String,
    /// Process-unique, monotonically increasing version.
    pub version: u64,
    /// Where the model came from (file path or "trained-at-startup").
    pub source: String,
    /// The trained Scout.
    pub scout: Scout,
    /// Feature-chunk cache. `/v1/scouts/{team}/predict` reads through
    /// the entry's own; a fleet pass reads through the cache of the first
    /// entry of each featurization-fingerprint group (see
    /// [`fleet`](crate::fleet)), so same-fingerprint entries share one
    /// warm cache and the others' stay empty. Chunks hold nothing of the
    /// model and are keyed by the monitoring epoch, so no cache can serve
    /// a stale chunk whichever entry owns it.
    pub feat_cache: FeatCache,
}

/// One registry mutation, reported to the journal in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryChange {
    /// A model was published (register or reload).
    Promoted {
        /// Registry key.
        team: String,
        /// Assigned version.
        version: u64,
        /// Where the model came from.
        source: String,
    },
    /// A slot was rolled back to a prior version.
    RolledBack {
        /// Registry key.
        team: String,
        /// The demoted version.
        from: u64,
        /// The restored version.
        to: u64,
    },
    /// A pin was set or cleared.
    Pinned {
        /// Registry key.
        team: String,
        /// `true` = pinned.
        pinned: bool,
    },
    /// The bulk-reload epoch advanced.
    EpochChanged {
        /// The new epoch.
        epoch: u64,
    },
}

/// Observer of registry mutations (the WAL producer, in production).
/// Called with the registry's write lock held — implementations must be
/// quick and must not call back into the registry.
pub trait RegistryJournal: Send + Sync {
    /// One mutation committed.
    fn on_change(&self, change: &RegistryChange);
}

impl Versioned for ModelEntry {
    fn version(&self) -> u64 {
        self.version
    }
}

/// One team's slot: the serving model plus the rollback stack — the
/// same promotion stack the WAL's registry projection folds.
type Slot = Timeline<Arc<ModelEntry>>;

/// A reload, registration, or rollback failure, with enough context to
/// act on.
#[derive(Debug)]
pub struct RegistryError(pub String);

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RegistryError {}

/// The registry: team name → current model version plus its rollback
/// timeline.
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Slot>>,
    pinned: RwLock<BTreeSet<String>>,
    next_version: AtomicU64,
    epoch: AtomicU64,
    feat_cache_bytes: usize,
    journal: RwLock<Option<Arc<dyn RegistryJournal>>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("teams", &self.teams())
            .field("next_version", &self.next_version.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new()
    }
}

impl ModelRegistry {
    /// An empty registry with the default per-model feature-cache budget.
    pub fn new() -> ModelRegistry {
        ModelRegistry::with_feat_cache_bytes(DEFAULT_FEAT_CACHE_BYTES)
    }

    /// An empty registry whose models each get a feature-chunk cache of
    /// `bytes` (0 disables caching entirely).
    pub fn with_feat_cache_bytes(bytes: usize) -> ModelRegistry {
        ModelRegistry {
            models: RwLock::new(BTreeMap::new()),
            pinned: RwLock::new(BTreeSet::new()),
            next_version: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            feat_cache_bytes: bytes,
            journal: RwLock::new(None),
        }
    }

    /// The per-model feature-cache budget in bytes.
    pub fn feat_cache_bytes(&self) -> usize {
        self.feat_cache_bytes
    }

    /// Attach the mutation journal. Mutations from this point on are
    /// reported in commit order.
    pub fn set_journal(&self, journal: Arc<dyn RegistryJournal>) {
        *self.journal.write().unwrap() = Some(journal);
    }

    fn journal(&self, change: RegistryChange) {
        if let Some(j) = self.journal.read().unwrap().as_ref() {
            j.on_change(&change);
        }
    }

    /// Ensure future versions are assigned strictly above `next` — the
    /// crash-recovery hook that keeps versions process-unique *across*
    /// processes sharing one log.
    pub fn resume_versions_from(&self, next: u64) {
        self.next_version.fetch_max(next, Ordering::Relaxed);
    }

    /// The current bulk-reload epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Restore the epoch counter (crash recovery; not journaled).
    pub fn resume_epoch_from(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// The one publish step, run inside the caller's write-lock window:
    /// assign the next version, wrap `scout` in an entry with an empty
    /// feature cache, supersede the slot's current entry (or open the
    /// slot), and journal the promotion.
    fn publish_locked(
        &self,
        models: &mut BTreeMap<String, Slot>,
        team: &str,
        scout: Scout,
        source: &str,
    ) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(ModelEntry {
            team: team.to_string(),
            version,
            source: source.to_string(),
            scout,
            feat_cache: FeatCache::new(self.feat_cache_bytes),
        });
        models.entry(team.to_string()).or_default().supersede(entry);
        self.journal(RegistryChange::Promoted {
            team: team.to_string(),
            version,
            source: source.to_string(),
        });
        version
    }

    fn publish_version_gauge(team: &str, version: u64) {
        obs::gauge(&format!("serve.model.version.{team}")).set(version as f64);
    }

    /// Publish `scout` for `team`, returning the version it was
    /// assigned. Replaces any previous version atomically, pushing the
    /// replaced entry onto the rollback timeline; in-flight predictions
    /// against the old `Arc` are unaffected. Errs when the team is
    /// pinned.
    pub fn register(&self, team: &str, scout: Scout, source: &str) -> Result<u64, RegistryError> {
        if self.is_pinned(team) {
            return Err(RegistryError(format!(
                "team {team} is pinned; unpin before publishing a new model"
            )));
        }
        let mut models = self.models.write().unwrap();
        let version = self.publish_locked(&mut models, team, scout, source);
        drop(models);
        obs::counter("serve.models.registered").inc();
        Self::publish_version_gauge(team, version);
        Ok(version)
    }

    /// Roll `team` back one step: restore the most recently superseded
    /// entry (keeping its original version number). Works on pinned
    /// teams — a pin stops promotions, never recovery. Errs when the
    /// team is unknown or has no history.
    pub fn rollback(&self, team: &str) -> Result<u64, RegistryError> {
        self.rollback_to(team, None)
    }

    /// Roll `team` back to `version` (or one step with `None`),
    /// discarding every entry newer than the target. Errs when the team
    /// is unknown, the timeline is empty, or `version` is no longer in
    /// the retained timeline (older than the last [`wal::HISTORY_CAP`]
    /// promotions — the full history lives in the journal, but only
    /// retained entries still hold a loaded model).
    pub fn rollback_to(&self, team: &str, version: Option<u64>) -> Result<u64, RegistryError> {
        let mut models = self.models.write().unwrap();
        let slot = models
            .get_mut(team)
            .ok_or_else(|| RegistryError(format!("unknown team {team}")))?;
        if slot.history.is_empty() {
            return Err(RegistryError(format!(
                "no previous version for team {team}"
            )));
        }
        let Some(demoted) = slot.roll_back_to(version) else {
            let held: Vec<u64> = slot.history.iter().map(|e| e.version).collect();
            return Err(RegistryError(format!(
                "version {} is not in team {team}'s retained timeline {held:?}",
                version.unwrap_or_default()
            )));
        };
        let from = demoted.version;
        let to = slot.current.as_ref().map_or(0, |e| e.version);
        self.journal(RegistryChange::RolledBack {
            team: team.to_string(),
            from,
            to,
        });
        drop(models);
        obs::counter("serve.models.rollbacks").inc();
        obs::flight().alert(
            "rollback",
            &format!("team={team} restored v{to} from v{from}"),
        );
        Self::publish_version_gauge(team, to);
        Ok(to)
    }

    /// Versions in `team`'s retained rollback timeline, oldest first
    /// (not including the current version).
    pub fn history_of(&self, team: &str) -> Vec<u64> {
        self.models
            .read()
            .unwrap()
            .get(team)
            .map(|slot| slot.history.iter().map(|e| e.version).collect())
            .unwrap_or_default()
    }

    /// Pin `team`: reject `register` and skip it in `load_dir` until
    /// unpinned. Pinning an unknown team is allowed (it blocks the
    /// initial publish too).
    pub fn pin(&self, team: &str) {
        if self.pinned.write().unwrap().insert(team.to_string()) {
            self.journal(RegistryChange::Pinned {
                team: team.to_string(),
                pinned: true,
            });
        }
    }

    /// Remove a pin. No-op if not pinned.
    pub fn unpin(&self, team: &str) {
        if self.pinned.write().unwrap().remove(team) {
            self.journal(RegistryChange::Pinned {
                team: team.to_string(),
                pinned: false,
            });
        }
    }

    /// Is `team` pinned?
    pub fn is_pinned(&self, team: &str) -> bool {
        self.pinned.read().unwrap().contains(team)
    }

    /// The current model for `team` (exact match, then ASCII
    /// case-insensitive).
    pub fn get(&self, team: &str) -> Option<Arc<ModelEntry>> {
        let models = self.models.read().unwrap();
        let slot = match models.get(team) {
            Some(slot) => slot,
            None => models.iter().find(|(k, _)| k.eq_ignore_ascii_case(team))?.1,
        };
        slot.current.clone()
    }

    /// The current version number for `team`, if registered.
    pub fn version_of(&self, team: &str) -> Option<u64> {
        self.get(team).map(|e| e.version)
    }

    /// Registered team names, sorted.
    pub fn teams(&self) -> Vec<String> {
        self.models.read().unwrap().keys().cloned().collect()
    }

    /// Current entries, sorted by team.
    pub fn snapshot(&self) -> Vec<Arc<ModelEntry>> {
        self.models
            .read()
            .unwrap()
            .values()
            .filter_map(|slot| slot.current.clone())
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().unwrap().len()
    }

    /// Is the registry empty (server not ready)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load every `*.scout` file in `dir` (team name = file stem) and
    /// publish them all in one atomic swap, skipping pinned teams. On
    /// any failure the registry is left exactly as it was — a bad reload
    /// never degrades serving — and the error names the offending path
    /// (and, for format errors, the line; see `ml::persist`). Each
    /// successful call advances the reload epoch.
    pub fn load_dir(&self, dir: &Path) -> Result<Vec<(String, u64)>, RegistryError> {
        let _span = obs::span!("serve.registry.load_dir");
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| RegistryError(format!("cannot read model dir {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "scout"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(RegistryError(format!(
                "no *.scout files in {}",
                dir.display()
            )));
        }
        // Load (the expensive part) entirely outside the lock.
        let mut loaded: Vec<(String, Scout, String)> = Vec::new();
        for path in &paths {
            let team = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| {
                    RegistryError(format!("non-UTF-8 model file name {}", path.display()))
                })?
                .to_string();
            if self.is_pinned(&team) {
                obs::counter("serve.models.reload_skipped_pinned").inc();
                continue;
            }
            let scout = Scout::load(path)
                .map_err(|e| RegistryError(format!("cannot load {}: {e}", path.display())))?;
            loaded.push((team, scout, path.display().to_string()));
        }
        // Publish in one write-lock window.
        let mut published = Vec::with_capacity(loaded.len());
        {
            let mut models = self.models.write().unwrap();
            for (team, scout, source) in loaded {
                let version = self.publish_locked(&mut models, &team, scout, &source);
                published.push((team, version));
            }
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            self.journal(RegistryChange::EpochChanged { epoch });
        }
        for (team, version) in &published {
            Self::publish_version_gauge(team, *version);
        }
        obs::counter("serve.models.reloads").inc();
        Ok(published)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn empty_registry_reports_not_ready() {
        let r = ModelRegistry::new();
        assert!(r.is_empty());
        assert!(r.get("PhyNet").is_none());
        assert!(r.teams().is_empty());
        assert!(r.version_of("PhyNet").is_none());
        assert!(r.history_of("PhyNet").is_empty());
    }

    #[test]
    fn load_dir_on_missing_dir_names_the_path() {
        let r = ModelRegistry::new();
        let e = r
            .load_dir(Path::new("/nonexistent/scout-models"))
            .unwrap_err();
        assert!(e.0.contains("/nonexistent/scout-models"), "{e}");
    }

    #[test]
    fn load_dir_on_corrupt_file_names_the_path_and_keeps_registry() {
        let dir = std::env::temp_dir().join("serve-registry-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("PhyNet.scout");
        std::fs::write(&bad, "not a model\n").unwrap();
        let r = ModelRegistry::new();
        let e = r.load_dir(&dir).unwrap_err();
        assert!(e.0.contains("PhyNet.scout"), "{e}");
        assert!(r.is_empty(), "failed reload must not publish anything");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A forest too wide for the flattened tables is a load error naming
    /// the file, not a panic that takes the reloading thread down.
    #[test]
    fn load_dir_on_too_wide_forest_names_the_path_and_keeps_registry() {
        let dir = std::env::temp_dir().join(format!("serve-registry-wide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = scout::ScoutConfig::phynet().to_source();
        let model = format!(
            "scout-model v1\n[config]\n{config}[end]\n[build]\n[end]\n\
             [forest]\nforest 1\ntree 2 70000 1\nL 0.5 0.5\n[end]\n"
        );
        std::fs::write(dir.join("PhyNet.scout"), model).unwrap();
        let r = ModelRegistry::new();
        let e = r.load_dir(&dir).unwrap_err();
        assert!(e.0.contains("PhyNet.scout"), "{e}");
        assert!(e.0.contains("too wide"), "{e}");
        assert!(r.is_empty(), "failed reload must not publish anything");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_without_history_is_an_error() {
        let r = ModelRegistry::new();
        assert!(r.rollback("PhyNet").is_err());
    }

    #[test]
    fn rollback_to_unretained_version_is_an_error_naming_the_timeline() {
        let r = ModelRegistry::new();
        assert!(r.rollback_to("PhyNet", Some(3)).is_err());
    }

    #[test]
    fn pinned_team_rejects_register() {
        let r = ModelRegistry::new();
        r.pin("PhyNet");
        assert!(r.is_pinned("PhyNet"));
        r.unpin("PhyNet");
        assert!(!r.is_pinned("PhyNet"));
    }

    #[test]
    fn version_resume_moves_only_forward() {
        let r = ModelRegistry::new();
        r.resume_versions_from(10);
        r.resume_versions_from(5);
        assert_eq!(r.next_version.load(Ordering::Relaxed), 10);
        r.resume_epoch_from(3);
        assert_eq!(r.epoch(), 3);
    }

    #[derive(Default)]
    struct Recorder(Mutex<Vec<RegistryChange>>);

    impl RegistryJournal for Recorder {
        fn on_change(&self, change: &RegistryChange) {
            self.0.lock().unwrap().push(change.clone());
        }
    }

    #[test]
    fn pin_changes_are_journaled_once() {
        let r = ModelRegistry::new();
        let rec = Arc::new(Recorder::default());
        r.set_journal(Arc::clone(&rec) as Arc<dyn RegistryJournal>);
        r.pin("PhyNet");
        r.pin("PhyNet"); // no-op: already pinned
        r.unpin("PhyNet");
        r.unpin("PhyNet"); // no-op
        let changes = rec.0.lock().unwrap();
        assert_eq!(
            *changes,
            vec![
                RegistryChange::Pinned {
                    team: "PhyNet".into(),
                    pinned: true
                },
                RegistryChange::Pinned {
                    team: "PhyNet".into(),
                    pinned: false
                },
            ]
        );
    }
}
