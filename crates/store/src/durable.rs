//! Durable-file primitives shared by every on-disk container in the
//! workspace — store entries here, the harness's checkpoints, the
//! daemon's job registry: the bounds-checked byte cursor their decoders
//! read with, and the atomic writer they publish with.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A bounds-checked little-endian cursor over a container's bytes.
/// Running off the end yields the caller's torn-file error, built by
/// `torn` from a detail string — never a panic, never a mis-decode.
pub struct ByteReader<'a, F> {
    bytes: &'a [u8],
    pos: usize,
    torn: F,
}

impl<'a, E, F: Fn(String) -> E> ByteReader<'a, F> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8], torn: F) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            torn,
        }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The caller's torn-file error for `detail`.
    pub fn torn(&self, detail: impl Into<String>) -> E {
        (self.torn)(detail.into())
    }

    /// The next `n` bytes, or the torn error naming `what` if fewer remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], E> {
        if self.bytes.len() - self.pos < n {
            return Err(self.torn(format!(
                "file ends at byte {} while reading {what}",
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next little-endian `u64`, or the torn error.
    pub fn u64(&mut self, what: &str) -> Result<u64, E> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// The next little-endian `u128` (low word first), or the torn error.
    pub fn u128(&mut self, what: &str) -> Result<u128, E> {
        let s = self.take(16, what)?;
        Ok(u128::from_le_bytes(s.try_into().expect("16 bytes")))
    }

    /// The bytes of the next `count` 64-bit words, or the torn error (also
    /// when `count` words could not fit in memory at all).
    pub fn words(&mut self, count: u64, what: &str) -> Result<&'a [u8], E> {
        let n = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| self.torn(format!("{what} declares an absurd length")))?;
        self.take(n, what)
    }
}

/// A failed step of [`write_atomic`].
#[derive(Debug)]
pub struct WriteError {
    /// The path the step acted on.
    pub path: PathBuf,
    /// `create`, `write`, `fsync` or `rename`.
    pub step: &'static str,
    /// The OS error.
    pub error: io::Error,
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.step, self.path.display(), self.error)
    }
}

impl std::error::Error for WriteError {}

/// Writes `bytes` to `path` atomically: assembled under [`tmp_path`],
/// fsync'd, renamed over `path`, then the parent directory is synced
/// where the platform allows it. A SIGKILL at any point leaves either
/// the previous file or an orphaned temp — never a torn file under the
/// real name.
///
/// # Errors
///
/// The first step that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), WriteError> {
    let tmp = tmp_path(path);
    let fail = |path: &Path, step| {
        let path = path.to_path_buf();
        move |error| WriteError { path, step, error }
    };
    let mut file = File::create(&tmp).map_err(fail(&tmp, "create"))?;
    file.write_all(bytes).map_err(fail(&tmp, "write"))?;
    file.sync_data().map_err(fail(&tmp, "fsync"))?;
    drop(file);
    fs::rename(&tmp, path).map_err(fail(path, "rename"))?;
    if let Some(Ok(dir)) = path.parent().map(File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// The temp name [`write_atomic`] assembles `path` under:
/// `<name>.tmp.<pid>`. Process-unique, so two concurrent writers of one
/// path never clobber each other's half-written bytes (the loser's
/// rename republishes identical content). Directory scanners match
/// their own suffixes (`.cell`, `.ckpt`), which this name never ends in.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cursor_reads_fields_and_reports_the_tear() {
        let bytes = [7u8, 0, 0, 0, 0, 0, 0, 0, 0xaa, 0xbb];
        let mut r = ByteReader::new(&bytes, |d| d);
        assert_eq!(r.u64("word"), Ok(7));
        assert_eq!(r.pos(), 8);
        assert_eq!(
            r.u64("tail"),
            Err("file ends at byte 10 while reading tail".to_string())
        );
        assert_eq!(r.take(2, "pair"), Ok(&[0xaa, 0xbb][..]));
        assert_eq!(
            r.words(u64::MAX, "payload"),
            Err("payload declares an absurd length".to_string())
        );
    }

    #[test]
    fn atomic_writes_replace_and_leave_no_temp() {
        let dir = std::env::temp_dir().join("crisp-store-durable");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!tmp_path(&path).exists());
        let err = write_atomic(&dir.join("absent").join("f"), b"x").unwrap_err();
        assert_eq!(err.step, "create");
        std::fs::remove_dir_all(&dir).ok();
    }
}
