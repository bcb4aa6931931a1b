//! Indexed reading of JSONL telemetry WALs.
//!
//! A telemetry WAL is an append-only stream of [`ObsRecord`] lines whose
//! period-carrying events ([`crate::ObsEvent::period`]) are non-decreasing. The
//! sparse sidecar (`<wal>.jx`, [`jpmd_store::index`]) maps every
//! stride-th period-carrying record to its byte offset, so seeking to a
//! period is a binary search plus a short forward scan instead of a walk
//! from byte 0.
//!
//! Every helper here treats the index as a **hint**: the entry's target
//! line is re-parsed and its `seq` checked before the scan starts there,
//! and any mismatch (stale sidecar, rot, truncation) falls back to the
//! full scan. Wrong answers are impossible; only speed is at stake.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use jpmd_store::{index_path, IndexEntry, PeriodIndex, PeriodIndexWriter, StoreError};

use crate::ObsRecord;

/// What a seek found and what it cost.
#[derive(Debug, Clone)]
pub struct SeekOutcome {
    /// Byte offset and parsed record of the first period-carrying record
    /// at or past the requested period, when one exists.
    pub hit: Option<(u64, ObsRecord)>,
    /// Lines examined by the forward scan.
    pub lines_scanned: u64,
    /// Whether a verified index entry positioned the scan.
    pub used_index: bool,
}

/// Records returned by [`range_periods`] and what they cost.
#[derive(Debug, Clone)]
pub struct RangeOutcome {
    /// Period-carrying records with period in `[from, to]`, in stream
    /// order.
    pub records: Vec<ObsRecord>,
    /// Lines examined by the forward scan.
    pub lines_scanned: u64,
    /// Whether a verified index entry positioned the scan.
    pub used_index: bool,
}

/// Seeks to the first record whose period is `>= period`, using the
/// `<wal>.jx` sidecar when present and verified.
///
/// # Errors
///
/// Propagates I/O failures; a corrupt or stale index is not an error
/// (the seek falls back to a full scan).
pub fn seek_period(path: impl AsRef<Path>, period: u64) -> io::Result<SeekOutcome> {
    let path = path.as_ref();
    let start = index_start_for_period(path, period)?;
    scan_for_period(path, start, period)
}

/// [`seek_period`] with the index deliberately ignored: the baseline
/// the index's lines-scanned saving is measured against.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn seek_period_full_scan(path: impl AsRef<Path>, period: u64) -> io::Result<SeekOutcome> {
    scan_for_period(path.as_ref(), None, period)
}

/// Collects every period-carrying record with period in `[from, to]`
/// (inclusive), using the index to start near `from` and stopping as
/// soon as the stream moves past `to`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn range_periods(path: impl AsRef<Path>, from: u64, to: u64) -> io::Result<RangeOutcome> {
    let path = path.as_ref();
    let start = index_start_for_period(path, from)?;
    let mut reader = BufReader::new(File::open(path)?);
    if let Some(start) = start {
        reader.seek(SeekFrom::Start(start))?;
    }
    let mut outcome = RangeOutcome {
        records: Vec::new(),
        lines_scanned: 0,
        used_index: start.is_some(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        outcome.lines_scanned += 1;
        let Ok(record) = ObsRecord::from_line(line.trim_end()) else {
            continue; // a torn tail mid-file is the writer's problem, not ours
        };
        match record.event.period() {
            Some(p) if p > to => break, // periods are non-decreasing: done
            Some(p) if p >= from => outcome.records.push(record),
            _ => {}
        }
    }
    Ok(outcome)
}

/// The last `n` complete lines of `path`, reading blocks backward from
/// the end — O(n lines), not O(file). A trailing line with no
/// terminating newline (a torn write) is ignored.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn tail_lines(path: impl AsRef<Path>, n: usize) -> io::Result<Vec<String>> {
    const BLOCK: u64 = 64 * 1024;
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if n == 0 || len == 0 {
        return Ok(Vec::new());
    }
    let mut tail: Vec<u8> = Vec::new();
    let mut unread = len;
    while unread > 0 {
        let start = unread.saturating_sub(BLOCK);
        let mut block = vec![0u8; (unread - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(&mut block)?;
        block.extend_from_slice(&tail);
        tail = block;
        unread = start;
        // `n + 1` newlines guarantee n complete lines even when the
        // first split segment is a partial line from an unread block.
        if tail.iter().filter(|&&b| b == b'\n').count() > n {
            break;
        }
    }
    let text = String::from_utf8_lossy(&tail);
    let mut lines: Vec<&str> = text.split('\n').collect();
    lines.pop(); // "" after a final newline, or a torn/partial last line
    let first_complete = usize::from(unread > 0).min(lines.len());
    let complete = &lines[first_complete..];
    let skip = complete.len().saturating_sub(n);
    Ok(complete[skip..].iter().map(|s| s.to_string()).collect())
}

/// A polling tail over a live, append-only WAL: remembers its byte
/// offset between [`Follower::poll`] calls and returns only complete
/// lines appended since the last poll. A torn trailing write (no final
/// newline yet) is buffered and completed by a later poll; a file that
/// shrank (rotation/truncation) resets the follower to byte 0.
///
/// Built for `obs-tool follow`, but usable anywhere a process wants to
/// watch another process's telemetry stream without holding it open.
#[derive(Debug)]
pub struct Follower {
    path: std::path::PathBuf,
    offset: u64,
    partial: Vec<u8>,
}

impl Follower {
    /// A follower positioned at byte 0 (replays the whole existing file
    /// on the first poll, then follows).
    pub fn from_start(path: impl AsRef<Path>) -> Follower {
        Follower {
            path: path.as_ref().to_path_buf(),
            offset: 0,
            partial: Vec::new(),
        }
    }

    /// A follower positioned `last_lines` complete lines before the
    /// current end of file — the first poll returns that backlog, later
    /// polls return only new lines. Finds the position with backward
    /// block reads (O(`last_lines`), not O(file)), like [`tail_lines`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (a missing file is an error here; create
    /// the WAL before following it).
    pub fn from_end(path: impl AsRef<Path>, last_lines: usize) -> io::Result<Follower> {
        const BLOCK: u64 = 64 * 1024;
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut tail: Vec<u8> = Vec::new();
        let mut unread = len;
        while unread > 0 {
            let start = unread.saturating_sub(BLOCK);
            let mut block = vec![0u8; (unread - start) as usize];
            file.seek(SeekFrom::Start(start))?;
            file.read_exact(&mut block)?;
            block.extend_from_slice(&tail);
            tail = block;
            unread = start;
            if tail.iter().filter(|&&b| b == b'\n').count() > last_lines {
                break;
            }
        }
        // Complete lines start at byte 0 (when the scan reached it) or
        // right after a newline, and are terminated by a later newline.
        let newlines: Vec<usize> = tail
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i))
            .collect();
        let offset = match newlines.last() {
            None => unread, // no complete line in view: follow from here
            Some(&last_nl) => {
                let mut starts: Vec<u64> = Vec::new();
                if unread == 0 {
                    starts.push(0);
                }
                starts.extend(
                    newlines
                        .iter()
                        .filter(|&&nl| nl < last_nl)
                        .map(|&nl| unread + nl as u64 + 1),
                );
                if last_lines == 0 || starts.len() < last_lines {
                    // Either no backlog wanted, or fewer complete lines
                    // exist than asked for: start after the last newline
                    // (backlog = everything in view) respectively.
                    if last_lines == 0 {
                        unread + last_nl as u64 + 1
                    } else {
                        *starts.first().unwrap_or(&(unread + last_nl as u64 + 1))
                    }
                } else {
                    starts[starts.len() - last_lines]
                }
            }
        };
        Ok(Follower {
            path: path.to_path_buf(),
            offset,
            partial: Vec::new(),
        })
    }

    /// A follower positioned at the first record at-or-past `period`,
    /// using the `<wal>.jx` index when present and verified (the bool
    /// reports whether it was). When no such record exists yet the
    /// follower starts at the end of the file, waiting for it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn from_period(path: impl AsRef<Path>, period: u64) -> io::Result<(Follower, bool)> {
        let path = path.as_ref();
        let outcome = seek_period(path, period)?;
        match outcome.hit {
            Some((offset, _)) => Ok((
                Follower {
                    path: path.to_path_buf(),
                    offset,
                    partial: Vec::new(),
                },
                outcome.used_index,
            )),
            None => Ok((Follower::from_end(path, 0)?, outcome.used_index)),
        }
    }

    /// The follower's current byte offset (start of the next unread
    /// line, plus any buffered torn tail).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Complete lines appended since the last poll (or since the
    /// follower's start position). Empty when nothing new landed. A file
    /// that shrank resets the follower to byte 0 and replays from there.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including the file disappearing).
    pub fn poll(&mut self) -> io::Result<Vec<String>> {
        let mut file = File::open(&self.path)?;
        let len = file.metadata()?.len();
        if len < self.offset {
            self.offset = 0;
            self.partial.clear();
        }
        if len > self.offset {
            file.seek(SeekFrom::Start(self.offset))?;
            let mut fresh = Vec::with_capacity((len - self.offset) as usize);
            file.take(len - self.offset).read_to_end(&mut fresh)?;
            self.offset += fresh.len() as u64;
            self.partial.extend_from_slice(&fresh);
        }
        let Some(last_nl) = self.partial.iter().rposition(|&b| b == b'\n') else {
            return Ok(Vec::new());
        };
        let rest = self.partial.split_off(last_nl + 1);
        let complete = std::mem::replace(&mut self.partial, rest);
        let text = String::from_utf8_lossy(&complete);
        Ok(text
            .split('\n')
            .filter(|line| !line.is_empty())
            .map(str::to_string)
            .collect())
    }
}

/// Rebuilds the `<wal>.jx` sidecar for an existing WAL from scratch,
/// indexing every `stride`-th period-carrying record. Returns the number
/// of entries written.
///
/// # Errors
///
/// I/O failures, or typed [`StoreError`]s from the sidecar writer.
pub fn build_index(path: impl AsRef<Path>, stride: u32) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let mut writer = PeriodIndexWriter::create(index_path(path), stride)?;
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = String::new();
    let mut offset = 0u64;
    let mut indexable = 0u64;
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        if let Ok(record) = ObsRecord::from_line(line.trim_end()) {
            if let Some(period) = record.event.period() {
                if indexable.is_multiple_of(u64::from(stride)) {
                    writer.append(IndexEntry {
                        period,
                        seq: record.seq,
                        offset,
                    })?;
                }
                indexable += 1;
            }
        }
        offset += n as u64;
    }
    Ok(writer.entries())
}

/// A verified scan-start offset for `period`, from the sidecar: the
/// entry at-or-before `period`, only if the line at its offset still
/// parses and carries its seq. `None` (no sidecar, corrupt sidecar, or
/// failed verification) means scan from byte 0.
fn index_start_for_period(path: &Path, period: u64) -> io::Result<Option<u64>> {
    let ipath = index_path(path);
    if !ipath.exists() {
        return Ok(None);
    }
    let Ok(index) = PeriodIndex::load(&ipath) else {
        return Ok(None);
    };
    let Some(entry) = index.entry_at_or_before_period(period) else {
        return Ok(None);
    };
    Ok(verify_entry(path, entry)?.then_some(entry.offset))
}

/// True when the WAL line at `entry.offset` parses and carries
/// `entry.seq` — the staleness check that makes the index safe to trust.
fn verify_entry(path: &Path, entry: IndexEntry) -> io::Result<bool> {
    let mut reader = BufReader::new(File::open(path)?);
    reader.seek(SeekFrom::Start(entry.offset))?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(matches!(
        ObsRecord::from_line(line.trim_end()),
        Ok(record) if record.seq == entry.seq
    ))
}

fn scan_for_period(path: &Path, start: Option<u64>, period: u64) -> io::Result<SeekOutcome> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut offset = start.unwrap_or(0);
    if offset > 0 {
        reader.seek(SeekFrom::Start(offset))?;
    }
    let mut outcome = SeekOutcome {
        hit: None,
        lines_scanned: 0,
        used_index: start.is_some(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(outcome);
        }
        outcome.lines_scanned += 1;
        if let Ok(record) = ObsRecord::from_line(line.trim_end()) {
            if record.event.period().is_some_and(|p| p >= period) {
                outcome.hit = Some((offset, record));
                return Ok(outcome);
            }
        }
        offset += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsEvent;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jpmd-obs-wal-{tag}-{}.jsonl", std::process::id()))
    }

    fn period_record(seq: u64, period: u64) -> ObsRecord {
        ObsRecord {
            seq,
            t_wall_ms: None,
            shard: None,
            event: ObsEvent::Period {
                index: period,
                start_s: period as f64,
                end_s: period as f64 + 1.0,
                accesses: 10,
                hits: 8,
                misses: 2,
                disk_requests: 1,
                syncs: 0,
                energy_j: 1.0,
            },
        }
    }

    fn message_record(seq: u64) -> ObsRecord {
        ObsRecord {
            seq,
            t_wall_ms: None,
            shard: None,
            event: ObsEvent::Message {
                text: format!("m{seq}"),
            },
        }
    }

    /// Writes an alternating Message/Period stream with `periods`
    /// periods, one message before each.
    fn write_wal(path: &Path, periods: u64) {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
        let mut seq = 0;
        for p in 0..periods {
            writeln!(f, "{}", message_record(seq).to_line()).unwrap();
            seq += 1;
            writeln!(f, "{}", period_record(seq, p).to_line()).unwrap();
            seq += 1;
        }
        f.flush().unwrap();
    }

    #[test]
    fn seek_finds_the_same_record_with_and_without_index() {
        // A short WAL, and one of 50,000 periods on which the index must
        // cut the scan more than a hundredfold: at stride 256 it starts at
        // most 513 lines before the target, a full scan reads 90,002.
        for (periods, stride, target, min_ratio) in [(100, 8, 73, 4), (50_000, 256, 45_000, 100)] {
            let path = tmp(&format!("seek-{periods}"));
            write_wal(&path, periods);
            let entries = build_index(&path, stride).unwrap();
            assert!(entries >= periods / u64::from(stride), "{entries} entries");
            let full = seek_period_full_scan(&path, target).unwrap();
            let indexed = seek_period(&path, target).unwrap();
            assert!(indexed.used_index);
            assert!(!full.used_index);
            assert_eq!(indexed.hit, full.hit);
            let (_, record) = indexed.hit.unwrap();
            assert_eq!(record.event.period(), Some(target));
            assert!(
                indexed.lines_scanned * min_ratio < full.lines_scanned,
                "indexed scan ({}) must be over {min_ratio}x shorter than full ({})",
                indexed.lines_scanned,
                full.lines_scanned
            );
            std::fs::remove_file(index_path(&path)).ok();
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn seek_past_the_end_misses_cleanly() {
        let path = tmp("miss");
        write_wal(&path, 10);
        assert!(seek_period(&path, 99).unwrap().hit.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_index_falls_back_to_full_scan() {
        let path = tmp("stale");
        write_wal(&path, 50);
        build_index(&path, 4).unwrap();
        // Rewrite the WAL shorter: most entries now dangle or point at
        // mid-line bytes.
        write_wal(&path, 3);
        let out = seek_period(&path, 2).unwrap();
        assert_eq!(out.hit.unwrap().1.event.period(), Some(2));
        std::fs::remove_file(index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_is_inclusive_and_stops_early() {
        let path = tmp("range");
        write_wal(&path, 100);
        build_index(&path, 8).unwrap();
        let out = range_periods(&path, 10, 12).unwrap();
        let periods: Vec<u64> = out
            .records
            .iter()
            .map(|r| r.event.period().unwrap())
            .collect();
        assert_eq!(periods, vec![10, 11, 12]);
        assert!(out.used_index);
        assert!(
            out.lines_scanned < 40,
            "scan must stop after period 12, scanned {}",
            out.lines_scanned
        );
        std::fs::remove_file(index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_reads_last_lines_and_ignores_torn_tails() {
        let path = tmp("tail");
        write_wal(&path, 10);
        let lines = tail_lines(&path, 3).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            ObsRecord::from_line(&lines[2]).unwrap().event.period(),
            Some(9)
        );
        // Torn trailing write: ignored.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"seq\":999,").unwrap();
        drop(f);
        let lines = tail_lines(&path, 2).unwrap();
        assert_eq!(
            ObsRecord::from_line(&lines[1]).unwrap().event.period(),
            Some(9)
        );
        assert!(tail_lines(&path, 0).unwrap().is_empty());
        let all = tail_lines(&path, 10_000).unwrap();
        assert_eq!(all.len(), 20, "asking for more than exists returns all");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn follower_sees_appends_and_buffers_torn_tails() {
        let path = tmp("follow");
        write_wal(&path, 5);
        let mut follower = Follower::from_end(&path, 2).unwrap();
        // Backlog: the last 2 complete lines.
        let backlog = follower.poll().unwrap();
        assert_eq!(backlog.len(), 2);
        assert_eq!(
            ObsRecord::from_line(&backlog[1]).unwrap().event.period(),
            Some(4)
        );
        assert!(follower.poll().unwrap().is_empty());
        // Torn write: half a line now, the rest (plus another line) later.
        let full = period_record(100, 50).to_line();
        let (head, rest) = full.split_at(10);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{head}").unwrap();
        f.sync_all().unwrap();
        assert!(follower.poll().unwrap().is_empty(), "torn tail must wait");
        writeln!(f, "{rest}").unwrap();
        writeln!(f, "{}", message_record(101).to_line()).unwrap();
        drop(f);
        let lines = follower.poll().unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], full, "torn halves reassembled");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn follower_from_start_end_and_period() {
        let path = tmp("follow-pos");
        write_wal(&path, 20);
        build_index(&path, 4).unwrap();
        let mut all = Follower::from_start(&path);
        assert_eq!(all.poll().unwrap().len(), 40);

        let mut fresh = Follower::from_end(&path, 0).unwrap();
        assert!(fresh.poll().unwrap().is_empty());

        let (mut from_p, used_index) = Follower::from_period(&path, 15).unwrap();
        assert!(used_index);
        let lines = from_p.poll().unwrap();
        assert_eq!(
            ObsRecord::from_line(&lines[0]).unwrap().event.period(),
            Some(15)
        );
        // period 15..19 plus the message between each: 10 lines? Each
        // period record is followed by the next period's message.
        assert_eq!(lines.len(), 9);

        // Asking for more backlog than exists returns everything.
        let mut big = Follower::from_end(&path, 10_000).unwrap();
        assert_eq!(big.poll().unwrap().len(), 40);

        // Truncation resets to byte 0.
        write_wal(&path, 2);
        let replay = from_p.poll().unwrap();
        assert_eq!(replay.len(), 4);
        std::fs::remove_file(index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }
}
