//! Tokenizer for the SQL / procedural dialect.

use std::fmt;

use decorr_common::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are recognised by the parser, case-insensitively).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// String literal (quotes removed, embedded `''` unescaped).
    Str(String),
    /// `:name` — named parameter / host variable.
    NamedParam(String),
    /// `@name` (or `@@name`) — procedural variable such as `@price` or `@@fetch_status`.
    AtVariable(String),
    /// `?` — positional parameter.
    Positional,
    // Punctuation and operators.
    LParen,
    RParen,
    Comma,
    Semicolon,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Concat,
    /// End of input.
    Eof,
}

impl Token {
    /// If the token is an identifier, its lower-cased text.
    pub fn ident(&self) -> Option<String> {
        match self {
            Token::Ident(s) => Some(s.to_ascii_lowercase()),
            _ => None,
        }
    }

    /// True if the token is the given keyword (case insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            // `{:?}` keeps `2.0` a float literal when the text is lexed again.
            Token::Float(x) => write!(f, "{x:?}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::NamedParam(s) => write!(f, ":{s}"),
            Token::AtVariable(s) => write!(f, "{s}"),
            Token::Positional => write!(f, "?"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Concat => write!(f, "||"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Tokenizes an input string. `--` line comments and `/* … */` block comments are
/// skipped.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let chars: Vec<char> = input.chars().collect();
    let mut tokens = vec![];
    let mut i = 0;
    let n = chars.len();
    while i < n {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < n && chars[i + 1] == '-' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                i += 2;
                while i + 1 < n && !(chars[i] == '*' && chars[i + 1] == '/') {
                    i += 1;
                }
                if i + 1 >= n {
                    return Err(Error::Parse("unterminated block comment".into()));
                }
                i += 2;
            }
            '\'' => {
                // String literal with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= n {
                        return Err(Error::Parse("unterminated string literal".into()));
                    }
                    if chars[i] == '\'' {
                        if i + 1 < n && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                tokens.push(Token::Str(s));
            }
            '0'..='9' => {
                let start = i;
                while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                let mut is_float = false;
                if i < n && chars[i] == '.' && i + 1 < n && chars[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < n && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < n && (chars[i] == 'e' || chars[i] == 'E') {
                    let mut j = i + 1;
                    if j < n && (chars[j] == '+' || chars[j] == '-') {
                        j += 1;
                    }
                    if j < n && chars[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < n && chars[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text: String = chars[start..i].iter().filter(|c| **c != '_').collect();
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("invalid number '{text}'")))?;
                    tokens.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("invalid number '{text}'")))?;
                    tokens.push(Token::Int(v));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(chars[start..i].iter().collect()));
            }
            ':' => {
                i += 1;
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                if start == i {
                    return Err(Error::Parse("expected identifier after ':'".into()));
                }
                tokens.push(Token::NamedParam(
                    chars[start..i]
                        .iter()
                        .collect::<String>()
                        .to_ascii_lowercase(),
                ));
            }
            '@' => {
                let start = i;
                i += 1;
                if i < n && chars[i] == '@' {
                    i += 1;
                }
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::AtVariable(
                    chars[start..i]
                        .iter()
                        .collect::<String>()
                        .to_ascii_lowercase(),
                ));
            }
            '?' => {
                tokens.push(Token::Positional);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                // Accept both `=` and `==`.
                i += 1;
                if i < n && chars[i] == '=' {
                    i += 1;
                }
                tokens.push(Token::Eq);
            }
            '!' if i + 1 < n && chars[i + 1] == '=' => {
                tokens.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                i += 1;
                if i < n && chars[i] == '=' {
                    tokens.push(Token::LtEq);
                    i += 1;
                } else if i < n && chars[i] == '>' {
                    tokens.push(Token::NotEq);
                    i += 1;
                } else {
                    tokens.push(Token::Lt);
                }
            }
            '>' => {
                i += 1;
                if i < n && chars[i] == '=' {
                    tokens.push(Token::GtEq);
                    i += 1;
                } else {
                    tokens.push(Token::Gt);
                }
            }
            '|' if i + 1 < n && chars[i + 1] == '|' => {
                tokens.push(Token::Concat);
                i += 2;
            }
            other => {
                return Err(Error::Parse(format!(
                    "unexpected character '{other}' at offset {i}"
                )))
            }
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_query() {
        let tokens = tokenize("select custkey, service_level(custkey) from customer;").unwrap();
        assert_eq!(tokens[0], Token::Ident("select".into()));
        assert_eq!(tokens[2], Token::Comma);
        assert_eq!(tokens[4], Token::LParen);
        assert_eq!(*tokens.last().unwrap(), Token::Eof);
    }

    #[test]
    fn tokenizes_params_and_variables() {
        let tokens =
            tokenize("where custkey = :ckey and price > @Price and s = ? and f = @@FETCH_STATUS")
                .unwrap();
        assert!(tokens.contains(&Token::NamedParam("ckey".into())));
        assert!(tokens.contains(&Token::AtVariable("@price".into())));
        assert!(tokens.contains(&Token::Positional));
        assert!(tokens.contains(&Token::AtVariable("@@fetch_status".into())));
    }

    #[test]
    fn tokenizes_numbers_and_strings() {
        let tokens = tokenize("1000000 0.15 1e3 'Platinum' 'O''Brien'").unwrap();
        assert_eq!(tokens[0], Token::Int(1_000_000));
        assert_eq!(tokens[1], Token::Float(0.15));
        assert_eq!(tokens[2], Token::Float(1000.0));
        assert_eq!(tokens[3], Token::Str("Platinum".into()));
        assert_eq!(tokens[4], Token::Str("O'Brien".into()));
    }

    #[test]
    fn a_rendered_float_lexes_as_the_same_float() {
        for x in [0.0, 2.0, 0.15, 1e100, 1e-7] {
            let text = Token::Float(x).to_string();
            assert_eq!(tokenize(&text).unwrap()[0], Token::Float(x), "{text}");
        }
    }

    #[test]
    fn tokenizes_operators() {
        let tokens = tokenize("a <> b <= c >= d != e || f == g").unwrap();
        assert!(tokens.contains(&Token::NotEq));
        assert!(tokens.contains(&Token::LtEq));
        assert!(tokens.contains(&Token::GtEq));
        assert!(tokens.contains(&Token::Concat));
        assert!(tokens.contains(&Token::Eq));
    }

    #[test]
    fn skips_comments() {
        let tokens = tokenize("select 1 -- trailing comment\n /* block */ , 2").unwrap();
        let idents: Vec<&Token> = tokens
            .iter()
            .filter(|t| matches!(t, Token::Int(_)))
            .collect();
        assert_eq!(idents.len(), 2);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("select #").is_err());
        assert!(tokenize("/* unterminated").is_err());
    }
}
