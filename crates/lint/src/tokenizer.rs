//! A minimal Rust lexer for lint purposes.
//!
//! Produces the identifier/punctuation token stream of a source file with
//! comments, string literals, char literals and lifetimes stripped — so a
//! rule that searches for `Instant::now` can never be fooled by a doc
//! comment, a format string, or an identifier like `InstantTransport`.
//!
//! It is *not* a full lexer: numeric literals are tokenized loosely and
//! keywords are ordinary identifiers. That is enough for token-sequence
//! pattern matching, which is all the rules need.
//!
//! Line comments are additionally scanned for `clash-lint:` directives
//! (see [`Directive`]), which the lint reports and never obeys. Block
//! comments are stripped and carry none.

/// One significant token: an identifier/number, or a single punctuation
/// character. Multi-character operators (`::`, `->`, `>>`) appear as
/// consecutive single-character tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: u32,
}

/// A line comment that starts with `clash-lint:` (after doc-comment
/// markers), whatever follows. The lint takes no suppressions, so every
/// such comment is a finding: exemptions are registered sites in
/// [`crate::policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    pub line: u32,
}

/// Lexer output: the stripped token stream plus any `clash-lint:` comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub directives: Vec<Directive>,
}

/// Lexes `src`, stripping comments/strings/lifetimes and collecting
/// `clash-lint:` line comments.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = chars.len();
    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let body: String = chars[start..j].iter().collect();
                if is_directive(&body) {
                    out.directives.push(Directive { line });
                }
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comment.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
            }
            '\'' => {
                i = skip_char_or_lifetime(&chars, i, &mut line);
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let ident: String = chars[start..j].iter().collect();
                // String-literal prefixes: r"..", r#".."#, b"..", br#".."#,
                // c"..", cr#".."#, and byte chars b'x'.
                let is_str_prefix = matches!(ident.as_str(), "r" | "b" | "br" | "c" | "cr");
                if is_str_prefix && j < n && (chars[j] == '"' || chars[j] == '#') {
                    if let Some(end) = skip_raw_or_plain_string(&chars, j, &mut line) {
                        i = end;
                        continue;
                    }
                }
                if ident == "b" && j < n && chars[j] == '\'' {
                    i = skip_char_or_lifetime(&chars, j, &mut line);
                    continue;
                }
                out.tokens.push(Token { text: ident, line });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.tokens.push(Token {
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
            }
            _ => {
                out.tokens.push(Token {
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Skips a plain `"..."` string starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(chars: &[char], open: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut j = open + 1;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// Skips a raw (`#`-guarded) or plain string whose body starts at `at`
/// (pointing at `"` or the first `#`). Returns `None` if this is not
/// actually a string start.
fn skip_raw_or_plain_string(chars: &[char], at: usize, line: &mut u32) -> Option<usize> {
    let n = chars.len();
    let mut hashes = 0usize;
    let mut j = at;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return None; // e.g. `r#raw_identifier`
    }
    if hashes == 0 {
        // A `b"..."`/`c"..."` string still processes escapes; `r"..."` does
        // not, but it also cannot contain `"` at all, so escape-skipping is
        // harmless there (backslash before a quote never occurs unescaped).
        return Some(skip_string(chars, j, line));
    }
    j += 1;
    while j < n {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
        } else if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && chars[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    Some(n)
}

/// Disambiguates `'a'` / `'\n'` / `b'x'` char literals from `'lifetime`
/// labels, starting at the opening quote. Char literals are skipped;
/// lifetimes are consumed without emitting a token.
fn skip_char_or_lifetime(chars: &[char], open: usize, line: &mut u32) -> usize {
    let n = chars.len();
    if open + 1 >= n {
        return n;
    }
    let next = chars[open + 1];
    if next == '\\' {
        // Escaped char literal: consume to the closing quote.
        let mut j = open + 2;
        while j < n && chars[j] != '\'' {
            if chars[j] == '\\' {
                j += 1;
            }
            j += 1;
        }
        return (j + 1).min(n);
    }
    if next.is_alphanumeric() || next == '_' {
        // `'x'` is a char literal; `'xs`, `'static` are lifetimes.
        let mut j = open + 1;
        while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        if j < n && chars[j] == '\'' && j == open + 2 {
            return j + 1; // single-char literal
        }
        return j; // lifetime or label: already consumed
    }
    // Punctuation char literal like '(' or '\u' handled above; ''' invalid.
    if next == '\n' {
        *line += 1;
    }
    let mut j = open + 2;
    if j < n && chars[j] == '\'' {
        j += 1;
    }
    j
}

/// True if a line-comment body is a `clash-lint:` directive: it starts
/// with the marker (after doc-comment markers); prose that merely
/// mentions the marker mid-sentence is not one.
fn is_directive(comment: &str) -> bool {
    comment
        .trim_start_matches(['/', '!'])
        .trim_start()
        .starts_with("clash-lint:")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r##"
            // Instant::now in a comment
            /* SystemTime in /* a nested */ block */
            let s = "Instant::now inside a string";
            let r = r#"thread_rng in a raw "string""#;
            let c = 'x';
            let b = b'\n';
            fn f<'a>(x: &'a str) {}
        "##;
        let t = texts(src);
        assert!(!t.contains(&"Instant".to_string()), "{t:?}");
        assert!(!t.contains(&"SystemTime".to_string()));
        assert!(!t.contains(&"thread_rng".to_string()));
        assert!(t.contains(&"str".to_string()));
    }

    #[test]
    fn identifiers_are_whole_tokens() {
        let t = texts("InstantTransport SimInstant Instant");
        assert_eq!(t, vec!["InstantTransport", "SimInstant", "Instant"]);
    }

    #[test]
    fn tracks_lines() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    /// The line of every directive `src` holds.
    fn directive_lines(src: &str) -> Vec<u32> {
        lex(src).directives.iter().map(|d| d.line).collect()
    }

    #[test]
    fn parses_allow_directive_with_reason() {
        let src = "let x = 1; // clash-lint: allow(no-wall-clock) -- bench timing only\n";
        assert_eq!(directive_lines(src), vec![1]);
        assert_eq!(texts(src), vec!["let", "x", "=", "1", ";"]);
    }

    #[test]
    fn directive_without_reason_is_flagged() {
        assert_eq!(
            directive_lines("\n// clash-lint: allow(no-wall-clock)\n"),
            vec![2]
        );
    }

    #[test]
    fn malformed_directive_is_flagged() {
        assert_eq!(
            directive_lines("// clash-lint: disable(no-wall-clock)\n"),
            vec![1]
        );
        assert_eq!(directive_lines("//! clash-lint:\n"), vec![1]);
    }

    #[test]
    fn multi_rule_directive() {
        let src = "// clash-lint: allow(no-wall-clock, det-collections) -- fixture\n";
        assert_eq!(directive_lines(src), vec![1]);
    }

    #[test]
    fn prose_mid_comment_is_not_a_directive() {
        let src = "// a `clash-lint:` comment is a finding\n/// see clash-lint: policy.rs\n";
        assert!(directive_lines(src).is_empty());
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let t = texts("let r#match = 1;");
        assert!(t.contains(&"match".to_string()));
    }

    #[test]
    fn block_comment_directive_is_ignored() {
        assert!(directive_lines("/* clash-lint: allow(no-wall-clock) -- nope */\n").is_empty());
    }
}
