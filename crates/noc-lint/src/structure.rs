//! Structural recovery on top of the token stream: which tokens are
//! test-only code, and where the bodies of named functions lie.
//!
//! The linter's contracts apply to *simulator* code; `#[cfg(test)]`
//! modules, `#[test]` functions and integration-test files are free to
//! use `HashMap` and allocation. Both recoveries are plain
//! brace matching over the lexed tokens — no parsing required.

use crate::lexer::{Token, TokenKind};

/// Marks every token that belongs to a test item.
///
/// A test item is any item (fn, mod, impl, use, …) carrying an attribute
/// that mentions the identifier `test` — `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`. The item's extent is recovered by brace
/// matching: attributes are skipped, then the item runs to its matching
/// close brace (or to a top-level `;` for bodyless items).
pub fn test_token_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if mask[i]
            || !tokens[i].is_punct('#')
            || !matches!(tokens.get(i + 1), Some(t) if t.is_punct('['))
        {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = match_bracket(tokens, i + 1) else {
            break;
        };
        let is_test_attr = tokens[i + 2..attr_end].iter().any(|t| t.is_ident("test"));
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further stacked attributes (`#[test] #[should_panic]`).
        let mut j = attr_end + 1;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && matches!(tokens.get(j + 1), Some(t) if t.is_punct('['))
        {
            match match_bracket(tokens, j + 1) {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // Find the item's extent: first `{` brace-matched, or a `;`
        // before any `{` (e.g. `#[cfg(test)] use …;`).
        let mut end = j;
        let mut found = false;
        while end < tokens.len() {
            if tokens[end].is_punct(';') {
                found = true;
                break;
            }
            if tokens[end].is_punct('{') {
                end = match_brace(tokens, end).unwrap_or(tokens.len() - 1);
                found = true;
                break;
            }
            end += 1;
        }
        if !found {
            end = tokens.len() - 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Returns `(start, end)` token ranges (inclusive) of the bodies of all
/// functions whose name is in `names`, excluding tokens already masked
/// (test code).
pub fn fn_body_ranges(tokens: &[Token], mask: &[bool], names: &[&str]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !mask[i]
            && tokens[i].is_ident("fn")
            && tokens[i + 1].kind == TokenKind::Ident
            && names.contains(&tokens[i + 1].text.as_str())
        {
            // Scan to the body's opening brace; a `;` first means a
            // trait-method declaration with no body.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = match_brace(tokens, j).unwrap_or(tokens.len() - 1);
                ranges.push((j, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Index of the `]` matching the `[` at `open`.
fn match_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn inner() { bad(); } }\nfn after() {}";
        let lexed = lex(src);
        let mask = test_token_mask(&lexed.tokens);
        for (t, m) in lexed.tokens.iter().zip(&mask) {
            match t.text.as_str() {
                "live" | "after" => assert!(!m, "{} wrongly masked", t.text),
                "inner" | "bad" => assert!(m, "{} should be masked", t.text),
                _ => {}
            }
        }
    }

    #[test]
    fn stacked_test_attributes_mask_whole_fn() {
        let src = "#[test]\n#[should_panic(expected = \"x\")]\nfn t() { boom(); }\nfn live() {}";
        let lexed = lex(src);
        let mask = test_token_mask(&lexed.tokens);
        let boom = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("boom"))
            .expect("boom");
        let live = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live");
        assert!(mask[boom]);
        assert!(!mask[live]);
    }

    #[test]
    fn non_test_cfg_is_not_masked() {
        let src = "#[cfg(feature = \"x\")]\nfn gated() { body(); }";
        let lexed = lex(src);
        let mask = test_token_mask(&lexed.tokens);
        assert!(mask.iter().all(|m| !m));
    }

    #[test]
    fn fn_bodies_found_by_name() {
        let src = "fn step(&mut self) { alloc(); }\nfn other() { fine(); }";
        let lexed = lex(src);
        let mask = vec![false; lexed.tokens.len()];
        let ranges = fn_body_ranges(&lexed.tokens, &mask, &["step"]);
        assert_eq!(ranges.len(), 1);
        let (s, e) = ranges[0];
        let inside: Vec<_> = lexed.tokens[s..=e]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        assert!(inside.contains(&"alloc".to_string()));
        assert!(!inside.contains(&"fine".to_string()));
    }
}
