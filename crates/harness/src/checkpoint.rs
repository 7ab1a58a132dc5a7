//! The on-disk checkpoint container for mid-run simulator snapshots.
//!
//! A checkpoint file wraps one [`crisp_sim::SimSnapshot`] in a versioned,
//! integrity-checked binary envelope, mirroring the journal's philosophy
//! (no external dependencies, torn-tail tolerance) for binary state:
//!
//! ```text
//! magic "CRSPCKPT"           8 bytes
//! format version             u64 LE
//! spec fingerprint (low)     u64 LE   FNV-1a 128 of the cell's spec string
//! spec fingerprint (high)    u64 LE
//! snapshot cycle             u64 LE
//! section count              u64 LE
//! per section:
//!   name length (bytes)      u64 LE
//!   name bytes               zero-padded to an 8-byte boundary
//!   payload length (words)   u64 LE
//!   payload CRC-32           u64 LE   (IEEE, low 32 bits)
//!   payload words            u64 LE each
//! end marker "CRSPDONE"      8 bytes
//! ```
//!
//! Writes are atomic ([`crisp_store::write_atomic`]): a SIGKILL mid-write
//! leaves either the previous checkpoint or a temp orphan — never a
//! half-written file under the real name. Reads verify, in order: magic,
//! version, spec fingerprint, per-section CRC, and the end marker; a file
//! cut short at any byte is reported as [`CheckpointError::Torn`], never
//! mis-decoded.

use crisp_sim::SimSnapshot;
use crisp_store::{crc32, fnv1a128, write_atomic, ByteReader};
use std::fs;
use std::path::{Path, PathBuf};

/// Checkpoint container format version, bumped on incompatible changes.
///
/// Version 2 stores a 128-bit spec fingerprint as two u64 words (low,
/// high); version 1 files, with a single 64-bit word, are refused.
pub const CHECKPOINT_VERSION: u64 = 2;

const MAGIC: &[u8; 8] = b"CRSPCKPT";
const END_MARKER: &[u8; 8] = b"CRSPDONE";

/// Why a checkpoint could not be written or read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, fsync, rename, read, scan).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, contextualised.
        message: String,
    },
    /// The file ends before the declared content (a torn or truncated
    /// write — e.g. a crash that beat the rename).
    Torn {
        /// The checkpoint path.
        path: PathBuf,
        /// Where the truncation was detected.
        detail: String,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
        /// The checkpoint path.
        path: PathBuf,
    },
    /// The file uses a different container format version.
    VersionMismatch {
        /// The checkpoint path.
        path: PathBuf,
        /// Version found in the file.
        found: u64,
        /// Version this build writes and reads.
        expected: u64,
    },
    /// The file was written for a different cell/config spec — restoring
    /// it would resume the wrong experiment.
    FingerprintMismatch {
        /// The checkpoint path.
        path: PathBuf,
        /// Fingerprint found in the file.
        found: u128,
        /// Fingerprint of the spec attempting the restore.
        expected: u128,
    },
    /// A section's payload failed its CRC — bit rot or partial overwrite.
    SectionCrc {
        /// The checkpoint path.
        path: PathBuf,
        /// The corrupted section's name.
        section: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
            CheckpointError::Torn { path, detail } => write!(
                f,
                "checkpoint {} is torn ({detail}); discard it and resume from an older one",
                path.display()
            ),
            CheckpointError::BadMagic { path } => {
                write!(f, "checkpoint {}: not a checkpoint file", path.display())
            }
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {}: format version {found}, this build reads {expected}",
                path.display()
            ),
            CheckpointError::FingerprintMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {}: spec fingerprint {found:032x} does not match the running \
                 cell's {expected:032x} — it belongs to a different configuration",
                path.display()
            ),
            CheckpointError::SectionCrc { path, section } => write!(
                f,
                "checkpoint {}: section '{section}' failed its CRC check",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, what: &str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        message: format!("{what} failed: {e}"),
    }
}

fn encode(spec_fingerprint: u128, snapshot: &SimSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&spec_fingerprint.to_le_bytes());
    out.extend_from_slice(&snapshot.cycle.to_le_bytes());
    out.extend_from_slice(&(snapshot.sections.len() as u64).to_le_bytes());
    for (name, words) in &snapshot.sections {
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        while out.len() % 8 != 0 {
            out.push(0);
        }
        out.extend_from_slice(&(words.len() as u64).to_le_bytes());
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&u64::from(crc32(&payload)).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out.extend_from_slice(END_MARKER);
    out
}

/// Writes `snapshot` to `path` atomically, stamped with the FNV-1a
/// fingerprint of `spec`.
///
/// # Errors
///
/// Only [`CheckpointError::Io`] — encoding cannot fail.
pub fn write_checkpoint(
    path: &Path,
    spec: &str,
    snapshot: &SimSnapshot,
) -> Result<(), CheckpointError> {
    write_atomic(path, &encode(fnv1a128(spec.as_bytes()), snapshot))
        .map_err(|e| io_err(&e.path, e.step, e.error))
}

/// Reads and fully verifies the checkpoint at `path`, requiring it to
/// carry the fingerprint of `spec`.
///
/// # Errors
///
/// Every integrity failure is typed: [`CheckpointError::Torn`] for
/// truncation, [`CheckpointError::BadMagic`] /
/// [`CheckpointError::VersionMismatch`] /
/// [`CheckpointError::FingerprintMismatch`] for envelope mismatches, and
/// [`CheckpointError::SectionCrc`] for payload corruption.
pub fn read_checkpoint(path: &Path, spec: &str) -> Result<SimSnapshot, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    let mut r = ByteReader::new(&bytes, |detail| CheckpointError::Torn {
        path: path.to_path_buf(),
        detail,
    });
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = r.u64("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let fingerprint = r.u128("spec fingerprint")?;
    let expected = fnv1a128(spec.as_bytes());
    if fingerprint != expected {
        return Err(CheckpointError::FingerprintMismatch {
            path: path.to_path_buf(),
            found: fingerprint,
            expected,
        });
    }
    let cycle = r.u64("cycle")?;
    let n_sections = r.u64("section count")? as usize;
    let mut sections = Vec::new();
    for i in 0..n_sections {
        let name_len = r.u64("section name length")? as usize;
        let name_bytes = r.take(name_len, "section name")?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| r.torn(format!("section {i} name is not UTF-8")))?;
        let pad = (8 - name_len % 8) % 8;
        r.take(pad, "section name padding")?;
        let n_words = r.u64("section word count")?;
        let stored_crc = r.u64("section crc")?;
        let payload = r.words(n_words, &format!("section '{name}' payload"))?;
        if u64::from(crc32(payload)) != stored_crc {
            return Err(CheckpointError::SectionCrc {
                path: path.to_path_buf(),
                section: name,
            });
        }
        let words = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        sections.push((name, words));
    }
    let end = r.take(8, "end marker")?;
    if end != END_MARKER {
        return Err(r.torn("end marker missing or corrupt"));
    }
    Ok(SimSnapshot { cycle, sections })
}

/// File name for job `job_id`'s checkpoint at `cycle`, filesystem-safe.
pub fn checkpoint_file_name(job_id: &str, cycle: u64) -> String {
    let safe: String = job_id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{cycle:020}.ckpt")
}

/// Scans `dir` for checkpoints of `job_id` and returns the valid one with
/// the highest cycle, silently skipping torn, corrupt, mismatched or
/// orphaned temp files — exactly the debris a crash leaves behind.
///
/// # Errors
///
/// Only [`CheckpointError::Io`] if the directory itself cannot be read;
/// a missing directory yields `Ok(None)`.
pub fn newest_valid_checkpoint(
    dir: &Path,
    job_id: &str,
    spec: &str,
) -> Result<Option<(PathBuf, SimSnapshot)>, CheckpointError> {
    let prefix = checkpoint_file_name(job_id, 0);
    let prefix = &prefix[..prefix.len() - "00000000000000000000.ckpt".len()];
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, "scan", e)),
    };
    let mut best: Option<(PathBuf, SimSnapshot)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "scan", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(prefix) || !name.ends_with(".ckpt") {
            continue;
        }
        let path = entry.path();
        let Ok(snapshot) = read_checkpoint(&path, spec) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| snapshot.cycle > b.cycle) {
            best = Some((path, snapshot));
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SimSnapshot {
        SimSnapshot {
            cycle: 12_345,
            sections: vec![
                ("engine".to_string(), vec![1, 2, 3, u64::MAX, 0]),
                ("mem".to_string(), vec![]),
                ("bpu".to_string(), vec![42; 100]),
                ("stats".to_string(), vec![7, 8, 9]),
            ],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-harness-ckpt-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The golden snapshot's container bytes, one 8-byte field per line.
    /// Any change here is a format change: bump `CHECKPOINT_VERSION`.
    const GOLDEN_CHECKPOINT: &str = concat!(
        "43525350434b5054", // magic "CRSPCKPT"
        "0200000000000000", // version 2
        "d792b6ec41c16392", // spec fingerprint, low half
        "a311eaf19fafe905", // spec fingerprint, high half
        "0010000000000000", // cycle 4096
        "0200000000000000", // 2 sections
        "0600000000000000", // name length 6
        "656e67696e650000", // "engine" + 2 bytes padding
        "0200000000000000", // 2 words
        "b1dab50600000000", // payload CRC-32
        "0100000000000000", // 1
        "ffffffffffffffff", // u64::MAX
        "0300000000000000", // name length 3
        "6d656d0000000000", // "mem" + 5 bytes padding
        "0000000000000000", // 0 words
        "0000000000000000", // CRC-32 of the empty payload
        "43525350444f4e45", // end marker "CRSPDONE"
    );

    #[test]
    fn encoded_bytes_match_the_golden_container() {
        let snapshot = SimSnapshot {
            cycle: 4096,
            sections: vec![
                ("engine".to_string(), vec![1, u64::MAX]),
                ("mem".to_string(), vec![]),
            ],
        };
        let hex: String = encode(fnv1a128(b"fig1/pointer_chase"), &snapshot)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN_CHECKPOINT);
    }

    #[test]
    fn checkpoints_round_trip_exactly() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("cell.ckpt");
        let snap = sample_snapshot();
        write_checkpoint(&path, "fig7/mcf v1", &snap).unwrap();
        let read = read_checkpoint(&path, "fig7/mcf v1").unwrap();
        assert_eq!(read, snap);
        assert!(
            !crisp_store::tmp_path(&path).exists(),
            "tmp file must be renamed away on success"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_reads_as_torn_or_typed() {
        let dir = temp_dir("torn");
        let path = dir.join("cell.ckpt");
        let snap = sample_snapshot();
        write_checkpoint(&path, "spec", &snap).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the file at a spread of byte positions: every prefix must
        // fail with a *typed* error, never panic or mis-decode.
        for cut in [
            0,
            7,
            8,
            15,
            23,
            31,
            39,
            40,
            55,
            full.len() - 9,
            full.len() - 1,
        ] {
            let cut_path = dir.join(format!("cut-{cut}.ckpt"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let err = read_checkpoint(&cut_path, "spec").unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Torn { .. } | CheckpointError::BadMagic { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_mismatches_are_typed() {
        let dir = temp_dir("envelope");
        let path = dir.join("cell.ckpt");
        write_checkpoint(&path, "spec-a", &sample_snapshot()).unwrap();

        // Wrong spec: fingerprint mismatch.
        let err = read_checkpoint(&path, "spec-b").unwrap_err();
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("different configuration"));

        // Bumped version byte.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99;
        let vpath = dir.join("versioned.ckpt");
        std::fs::write(&vpath, &bytes).unwrap();
        let err = read_checkpoint(&vpath, "spec-a").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::VersionMismatch {
                path: vpath,
                found: 99,
                expected: CHECKPOINT_VERSION
            }
        );

        // Alien file.
        let apath = dir.join("alien.ckpt");
        std::fs::write(&apath, b"not a checkpoint at all").unwrap();
        let err = read_checkpoint(&apath, "spec-a").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_corruption_fails_the_section_crc() {
        let dir = temp_dir("crc");
        let path = dir.join("cell.ckpt");
        write_checkpoint(&path, "spec", &sample_snapshot()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first section's payload (header is
        // 6 u64s = 48 bytes; 'engine' name + pad = 8; len + crc = 16).
        let payload_start = 48 + 8 + 16;
        bytes[payload_start] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path, "spec").unwrap_err();
        assert_eq!(
            err,
            CheckpointError::SectionCrc {
                path: path.clone(),
                section: "engine".to_string()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_checkpoints_are_refused() {
        let dir = temp_dir("v1-refused");
        let path = dir.join("old.ckpt");
        let mut bytes = encode(fnv1a128(b"fig7/mcf"), &sample_snapshot());
        bytes[8] = 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_checkpoint(&path, "fig7/mcf").unwrap_err(),
            CheckpointError::VersionMismatch {
                path,
                found: 1,
                expected: CHECKPOINT_VERSION
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_valid_checkpoint_survives_crash_debris() {
        let dir = temp_dir("newest");
        let spec = "fig1/chase v1";
        let job = "fig1/chase";
        // Three generations of checkpoints...
        for cycle in [100u64, 500, 900] {
            let snap = SimSnapshot {
                cycle,
                sections: vec![("engine".to_string(), vec![cycle])],
            };
            write_checkpoint(&dir.join(checkpoint_file_name(job, cycle)), spec, &snap).unwrap();
        }
        // ...plus a crash's debris: a torn newer file under the real name
        // and an orphaned tmp from a write the rename never finished.
        let torn = dir.join(checkpoint_file_name(job, 1300));
        let good = std::fs::read(dir.join(checkpoint_file_name(job, 900))).unwrap();
        std::fs::write(&torn, &good[..good.len() / 2]).unwrap();
        std::fs::write(
            crisp_store::tmp_path(&dir.join(checkpoint_file_name(job, 1700))),
            b"partial",
        )
        .unwrap();
        // And a checkpoint from a *different* job that must not match.
        write_checkpoint(
            &dir.join(checkpoint_file_name("fig1/other", 9999)),
            "fig1/other v1",
            &SimSnapshot {
                cycle: 9999,
                sections: vec![],
            },
        )
        .unwrap();

        let (path, snap) = newest_valid_checkpoint(&dir, job, spec).unwrap().unwrap();
        assert_eq!(snap.cycle, 900, "picked {}", path.display());

        // A different spec invalidates everything.
        assert_eq!(newest_valid_checkpoint(&dir, job, "v2").unwrap(), None);
        // A missing directory is not an error.
        assert_eq!(
            newest_valid_checkpoint(&dir.join("absent"), job, spec).unwrap(),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
