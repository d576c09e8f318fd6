//! Durable-file mechanics shared by every on-disk format in the
//! workspace: the atomic writer, the `.prev` fallback read, and the
//! CRC-32 trailer.
//!
//! Each format (explore checkpoints, `hi-serve` job records, cache and
//! Pareto-front segments) supplies only its payload grammar and its own
//! diagnostic wording; how bytes reach the disk without tearing, and how
//! a reader recovers when they did not, is decided here once.
//!
//! * [`write_atomic`] stages the bytes in `<path>.tmp`, fsyncs, rotates
//!   any existing file to `<path>.prev`, then renames the stage into
//!   place. A crash at any instant leaves the old intact file, the new
//!   intact file, or an intact `.prev` — never a torn file under `path`.
//! * [`load_with_fallback`] reads `path`, and when that fails reads the
//!   `.prev` rotation, reporting what was wrong with the primary.
//! * [`seal`] appends a `crc32 <8 hex digits>` trailer over every byte
//!   before it; [`unseal`] verifies it and returns the covered body, so a
//!   truncated or bit-rotted file is detected before any field is
//!   trusted.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc32::crc32_ieee;

/// `<path><suffix>` in the same directory (`x.ck` → `x.ck.tmp`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// The rotation [`write_atomic`] keeps of the file it replaced:
/// `<path>.prev`.
pub fn prev_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

/// Writes `bytes` to `path` crash-safely: stage to `<path>.tmp`, fsync,
/// rotate any existing file to `<path>.prev`, rename into place.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = sibling(path, ".tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if path.exists() {
        // A failed rotation only costs the fallback copy; the rename
        // below still lands the new file atomically.
        let _ = std::fs::rename(path, prev_path(path));
    }
    std::fs::rename(&tmp, path)
}

/// Loads `path` with `load`, falling back to its [`prev_path`] rotation
/// when the primary is unreadable or corrupt.
///
/// `Ok((value, None))` is a clean primary load; `Ok((value,
/// Some(primary_err)))` means the rotation was loaded and `primary_err`
/// says what was wrong with the primary.
///
/// # Errors
///
/// `(primary_err, prev_err)` when neither copy loads.
pub fn load_with_fallback<T, E>(
    path: &Path,
    load: impl Fn(&Path) -> Result<T, E>,
) -> Result<(T, Option<E>), (E, E)> {
    match load(path) {
        Ok(value) => Ok((value, None)),
        Err(primary) => match load(&prev_path(path)) {
            Ok(value) => Ok((value, Some(primary))),
            Err(prev) => Err((primary, prev)),
        },
    }
}

/// Appends the `crc32 <8 hex digits>` trailer over every byte of `body`.
pub fn seal(mut body: String) -> String {
    let crc = crc32_ieee(body.as_bytes());
    body.push_str(&format!("crc32 {crc:08x}\n"));
    body
}

/// Why [`unseal`] refused a file. Each format renders its own wording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrailerError {
    /// The last non-empty line is not a `crc32 ` trailer (the file was
    /// truncated before or inside it).
    Missing,
    /// The trailer line (1-based `line`) does not hold 8 hex digits.
    Malformed {
        /// The trailer's line number.
        line: usize,
        /// What follows `crc32 ` on that line, trimmed.
        raw: String,
    },
    /// The body does not hash to the recorded CRC.
    Mismatch {
        /// The trailer's line number.
        line: usize,
        /// The CRC the trailer states.
        recorded: u32,
        /// The CRC the body hashes to.
        computed: u32,
    },
}

/// Verifies the trailer [`seal`] wrote and returns the body it covers:
/// every byte before the last non-empty line, which must read
/// `crc32 <8 hex digits>`.
///
/// # Errors
///
/// A [`TrailerError`] naming what is wrong with the trailer.
pub fn unseal(text: &str) -> Result<&str, TrailerError> {
    let mut trailer: Option<(usize, usize, &str)> = None;
    let mut offset = 0;
    for (index, line) in text.split_inclusive('\n').enumerate() {
        if !line.trim().is_empty() {
            trailer = Some((index + 1, offset, line.trim()));
        }
        offset += line.len();
    }
    let Some((line, start, rest)) = trailer
        .and_then(|(line, start, text)| Some((line, start, text.strip_prefix("crc32 ")?.trim())))
    else {
        return Err(TrailerError::Missing);
    };
    let recorded = u32::from_str_radix(rest, 16)
        .ok()
        .filter(|_| rest.len() == 8)
        .ok_or_else(|| TrailerError::Malformed {
            line,
            raw: rest.to_string(),
        })?;
    let body = &text[..start];
    let computed = crc32_ieee(body.as_bytes());
    if computed != recorded {
        return Err(TrailerError::Mismatch {
            line,
            recorded,
            computed,
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hi-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seal_and_unseal_roundtrip_the_body() {
        let sealed = seal("header\nend\n".to_string());
        assert!(sealed.starts_with("header\nend\ncrc32 "), "{sealed}");
        assert_eq!(unseal(&sealed), Ok("header\nend\n"));
        // Trailing blank lines do not move the trailer.
        assert_eq!(unseal(&format!("{sealed}\n\n")), Ok("header\nend\n"));
    }

    #[test]
    fn unseal_names_each_trailer_fault() {
        let sealed = seal("header\nend\n".to_string());
        assert_eq!(unseal(""), Err(TrailerError::Missing));
        assert_eq!(unseal("header\nend\n"), Err(TrailerError::Missing));
        let short = &sealed[..sealed.len() - 3];
        assert!(matches!(
            unseal(short),
            Err(TrailerError::Malformed { line: 3, .. })
        ));
        let rotted = sealed.replace("header", "heade!");
        assert!(matches!(
            unseal(&rotted),
            Err(TrailerError::Mismatch { line: 3, .. })
        ));
    }

    #[test]
    fn atomic_writes_rotate_and_the_fallback_reads_the_rotation() {
        let dir = tmpdir("rotate");
        let path = dir.join("state.rec");
        let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| e.to_string());
        write_atomic(&path, b"first").unwrap();
        assert_eq!(load_with_fallback(&path, read), Ok(("first".into(), None)));
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(prev_path(&path)).unwrap(), b"first");
        assert!(!sibling(&path, ".tmp").exists());
        // Primary gone: the rotation loads, with the primary's error.
        std::fs::remove_file(&path).unwrap();
        let (value, primary) = load_with_fallback(&path, read).unwrap();
        assert_eq!(value, "first");
        assert!(primary.is_some());
        // Both gone: both errors come back.
        std::fs::remove_file(prev_path(&path)).unwrap();
        assert!(load_with_fallback(&path, read).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
