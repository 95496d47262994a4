//! The request journal, which survives a killed daemon process.
//!
//! The daemon's durability story has two layers: finished jobs live in
//! the content-addressed result cache (each entry written atomically),
//! and *intent* lives here — an append-only JSONL journal recording
//! which campaigns were admitted (`begin`) and which were fully served
//! (`done`). Both records are flushed before the daemon proceeds, so
//! after the process dies the invariant holds: every admitted campaign
//! is either marked done (all its records are in the cache) or listed
//! as incomplete. Recovery simply re-runs the incomplete campaigns —
//! jobs that finished before the crash are cache hits, so no finished
//! work is ever recomputed.
//!
//! Limit: records are flushed to the operating system but never
//! `fsync`ed. They survive a process kill (SIGKILL, a panic, an abort),
//! because the kernel still holds the written data, but not an OS
//! crash or a power loss, which can drop or tear the journal's tail.
//!
//! The file tolerates a torn trailing line (a crash mid-append): lines
//! that do not parse are skipped. Opening the journal compacts it,
//! rewriting only the still-incomplete entries via temp file + rename.
//!
//! Error contract: `open`, `begin` and `done` return `io::Result`; the
//! daemon reports failed journal writes on stderr and keeps serving —
//! an I/O error here never panics or aborts the process.

use hirise_lab::json::{self, Json};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// An admitted-but-not-completed campaign found in the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// The request id (hex campaign digest).
    pub id: String,
    /// The campaign's canonical JSON, ready for re-parsing.
    pub spec_json: String,
}

/// The append-only intent journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens the journal at `path`, returning it plus the entries that
    /// were begun but never marked done (in original admission order).
    /// The file is compacted down to exactly those entries.
    pub fn open(path: &Path) -> io::Result<(Self, Vec<JournalEntry>)> {
        let mut incomplete: Vec<JournalEntry> = Vec::new();
        if let Ok(existing) = std::fs::read_to_string(path) {
            for line in existing.lines() {
                let Ok(value) = json::parse(line) else {
                    continue; // torn or corrupt line
                };
                let id = value.get("id").and_then(Json::as_str);
                match (value.get("op").and_then(Json::as_str), id) {
                    (Some("begin"), Some(id)) => {
                        if let Some(spec_json) = value.get("spec").and_then(Json::as_str) {
                            if !incomplete.iter().any(|e| e.id == id) {
                                incomplete.push(JournalEntry {
                                    id: id.to_string(),
                                    spec_json: spec_json.to_string(),
                                });
                            }
                        }
                    }
                    (Some("done"), Some(id)) => incomplete.retain(|e| e.id != id),
                    _ => {}
                }
            }
        }

        // Compact: the surviving begins, atomically.
        let tmp = path.with_extension("journal.tmp");
        {
            let mut file = File::create(&tmp)?;
            for entry in &incomplete {
                writeln!(file, "{}", begin_record(&entry.id, &entry.spec_json))?;
            }
            file.flush()?;
        }
        std::fs::rename(&tmp, path)?;

        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
            },
            incomplete,
        ))
    }

    /// Records that a campaign was admitted. Flushed before returning,
    /// so a crash any time after admission finds the intent on disk.
    pub fn begin(&mut self, id: &str, spec_json: &str) -> io::Result<()> {
        writeln!(self.file, "{}", begin_record(id, spec_json))?;
        self.file.flush()
    }

    /// Records that every job of a campaign is in the result cache.
    pub fn done(&mut self, id: &str) -> io::Result<()> {
        writeln!(self.file, "{{\"op\":\"done\",\"id\":\"{id}\"}}")?;
        self.file.flush()
    }

    /// The journal's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn begin_record(id: &str, spec_json: &str) -> String {
    let mut line = format!("{{\"op\":\"begin\",\"id\":\"{id}\",\"spec\":");
    // The spec rides as an escaped string, keeping journal lines flat
    // and the stored text byte-exact.
    json::write_escaped(&mut line, spec_json);
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hirise-serve-journal-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn incomplete_entries_survive_reopen_in_order() {
        let path = temp_journal("order");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, entries) = Journal::open(&path).unwrap();
            assert!(entries.is_empty());
            journal.begin("aaaa", r#"{"name":"a"}"#).unwrap();
            journal.begin("bbbb", r#"{"name":"b"}"#).unwrap();
            journal.begin("cccc", r#"{"name":"c"}"#).unwrap();
            journal.done("bbbb").unwrap();
        }
        let (_, entries) = Journal::open(&path).unwrap();
        assert_eq!(
            entries,
            vec![
                JournalEntry {
                    id: "aaaa".into(),
                    spec_json: r#"{"name":"a"}"#.into()
                },
                JournalEntry {
                    id: "cccc".into(),
                    spec_json: r#"{"name":"c"}"#.into()
                },
            ]
        );
        // Compaction dropped the done pair.
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(!content.contains("bbbb"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_skipped() {
        let path = temp_journal("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.begin("aaaa", r#"{"name":"a"}"#).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"op\":\"begin\",\"id\":\"bb");
        std::fs::write(&path, bytes).unwrap();

        let (_, entries) = Journal::open(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id, "aaaa");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_begins_collapse() {
        let path = temp_journal("dup");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.begin("aaaa", r#"{"name":"a"}"#).unwrap();
            journal.begin("aaaa", r#"{"name":"a"}"#).unwrap();
        }
        let (mut journal, entries) = Journal::open(&path).unwrap();
        assert_eq!(entries.len(), 1);
        journal.done("aaaa").unwrap();
        drop(journal);
        let (_, entries) = Journal::open(&path).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
