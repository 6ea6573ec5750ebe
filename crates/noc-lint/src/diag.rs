//! Diagnostics and their text/JSON rendering.

/// One lint finding, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Rule id (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a JSON array (hand-emitted: the linter is
/// dependency-free by design).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"path\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_str(&d.path),
            d.line,
            d.col,
            json_str(d.rule),
            json_str(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_col() {
        let d = Diagnostic {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            rule: "determinism",
            message: "bad".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/a.rs:3:7: [determinism] bad");
    }

    #[test]
    fn json_escapes() {
        let d = Diagnostic {
            path: "a.rs".into(),
            line: 1,
            col: 1,
            rule: "hot-loop-alloc",
            message: "use `.expect(\"why\")`".into(),
        };
        let j = to_json(&[d]);
        assert!(j.contains("\\\"why\\\""), "{j}");
        assert!(j.trim_start().starts_with('['));
    }

    #[test]
    fn empty_json_is_empty_array() {
        assert_eq!(to_json(&[]), "[]\n");
    }
}
