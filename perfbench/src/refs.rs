//! Reference answers: what every input of every workload produced when
//! the benchmark was defined. Each run compares its answers (and, on the
//! traced run, its deterministic counters) against these, so a change
//! that alters a design, a power figure or an effort count shows up as a
//! failed operation instead of a speed-up.
//!
//! Format: one entry per line, `<key> <field>=<value> ...`; lines that
//! start with `| ` continue the previous entry with one line of its
//! verbatim result block. `#` starts a comment line. `--record`
//! rewrites the files; they are compiled into the binary.

use std::collections::BTreeMap;

/// One recorded input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefEntry {
    /// Named scalar fields (`fp`, `power_bits`, `sims`, ...).
    pub fields: BTreeMap<String, String>,
    /// A verbatim result block (fleet jobs), newline-terminated lines.
    pub block: String,
}

impl RefEntry {
    /// The unsigned integer field `name` (hex if it starts with `0x`).
    pub fn u64(&self, name: &str) -> Option<u64> {
        let v = self.fields.get(name)?;
        match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    }
}

/// Every recorded input of one workload, by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefTable {
    /// Entries by input key.
    pub entries: BTreeMap<String, RefEntry>,
}

impl RefTable {
    /// Parses a reference file; malformed lines are an error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries: BTreeMap<String, RefEntry> = BTreeMap::new();
        let mut last: Option<String> = None;
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("| ") {
                let key = last
                    .as_ref()
                    .ok_or(format!("line {}: block before any entry", i + 1))?;
                let entry = entries.get_mut(key).expect("last key was inserted");
                entry.block.push_str(rest);
                entry.block.push('\n');
                continue;
            }
            let mut words = line.split_whitespace();
            let key = words.next().expect("non-empty line has a word").to_string();
            let mut entry = RefEntry::default();
            for word in words {
                let (k, v) = word
                    .split_once('=')
                    .ok_or(format!("line {}: `{word}` is not field=value", i + 1))?;
                entry.fields.insert(k.to_string(), v.to_string());
            }
            if entries.insert(key.clone(), entry).is_some() {
                return Err(format!("line {}: duplicate key `{key}`", i + 1));
            }
            last = Some(key);
        }
        Ok(Self { entries })
    }

    /// Renders the table in the file format, with a header comment.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (key, entry) in &self.entries {
            out.push_str(key);
            for (k, v) in &entry.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for line in entry.block.lines() {
                out.push_str(&format!("| {line}\n"));
            }
        }
        out
    }
}

/// The compiled-in reference file of `workload`.
pub fn load(workload: &str) -> Result<RefTable, String> {
    let text = match workload {
        "paper_a1" => include_str!("../ref/paper_a1.ref"),
        "robust_ladder" => include_str!("../ref/robust_ladder.ref"),
        "fleet_serve" => include_str!("../ref/fleet_serve.ref"),
        other => return Err(format!("no reference file for `{other}`")),
    };
    RefTable::parse(text).map_err(|e| format!("{workload}.ref: {e}"))
}

/// Where `--record` writes the reference file of `workload`.
pub fn path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("ref")
        .join(format!("{workload}.ref"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_round_trips() {
        let mut table = RefTable::default();
        let mut entry = RefEntry::default();
        entry.fields.insert("fp".into(), "0x00ff".into());
        entry.fields.insert("sims".into(), "48".into());
        entry.block = "profile a\nsimulations 48\n".into();
        table.entries.insert("c0-100".into(), entry);
        table.entries.insert("f0.56".into(), RefEntry::default());
        let text = table.render("header");
        assert_eq!(RefTable::parse(&text).unwrap(), table);
        let e = &table.entries["c0-100"];
        assert_eq!(
            (e.u64("fp"), e.u64("sims"), e.u64("none")),
            (Some(255), Some(48), None)
        );
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(RefTable::parse("| orphan\n").is_err());
        assert!(RefTable::parse("k novalue\n").is_err());
        assert!(RefTable::parse("k a=1\nk a=2\n").is_err());
    }
}
