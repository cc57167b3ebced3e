//! A recursive-descent parser for `.lsp` policy text: total (never
//! panics, which `tests/decoder_fuzz.rs` checks on mutated sources),
//! with recovery nodes — a malformed declaration is reported and skipped
//! to the next declaration keyword, so one typo yields one stable
//! diagnostic, not a cascade.

use crate::ast::{
    proto_of_keyword, service_of_keyword, Decl, DeclKind, Endpoint, Member, Program, RuleDecl,
    Verdict,
};
use crate::diag::Diag;
use crate::lexer::{lex, Token, TokenKind};

/// Keywords that open a top-level declaration. `tenant` doubles as a
/// rule clause, but clause position is always checked first, so here
/// it marks a declaration boundary for recovery.
const TOP_KEYWORDS: [&str; 6] = ["group", "chain", "tenant", "rule", "default", "on"];

/// Parses `src` into a [`Program`] plus diagnostics. Total: every
/// input yields a program (possibly empty) and deterministic,
/// source-ordered diagnostics; declarations that fail to parse are
/// dropped from the program.
pub fn parse(src: &str) -> (Program, Vec<Diag>) {
    let mut p = Parser {
        toks: lex(src),
        pos: 0,
        diags: Vec::new(),
        eof: Token {
            kind: TokenKind::Eof,
            line: 1,
            col: 1,
        },
    };
    let program = p.program();
    (program, p.diags)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    diags: Vec<Diag>,
    eof: Token,
}

/// A short description of a token for diagnostics.
fn describe(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => format!("`{s}`"),
        TokenKind::Num(n) => format!("number {n}"),
        TokenKind::Mac(m) => format!("MAC {m}"),
        TokenKind::Cidr(n) => format!("prefix {n}"),
        TokenKind::LBrace => "`{`".to_owned(),
        TokenKind::RBrace => "`}`".to_owned(),
        TokenKind::LBracket => "`[`".to_owned(),
        TokenKind::RBracket => "`]`".to_owned(),
        TokenKind::Eq => "`=`".to_owned(),
        TokenKind::Comma => "`,`".to_owned(),
        TokenKind::Colon => "`:`".to_owned(),
        TokenKind::Error(msg) => msg.clone(),
        TokenKind::Eof => "end of input".to_owned(),
    }
}

impl Parser {
    fn peek(&self) -> &Token {
        self.toks.get(self.pos).unwrap_or(&self.eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    /// Whether the current token opens a top-level declaration.
    fn at_top_keyword(&self) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(w) if TOP_KEYWORDS.contains(&w.as_str()))
    }

    fn error_here(&mut self, message: String) {
        let t = self.peek().clone();
        self.diags.push(Diag::error(t.line, t.col, message));
    }

    /// Recovery node: always consumes at least one token, then skips
    /// to the next declaration keyword (or end of input).
    fn recover(&mut self) {
        if !self.at_eof() {
            self.bump();
        }
        while !self.at_eof() && !self.at_top_keyword() {
            self.bump();
        }
    }

    /// Expects a bare name; reports and returns `None` otherwise.
    fn expect_name(&mut self, what: &str) -> Option<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Some(s)
            }
            other => {
                let msg = format!("expected {what}, found {}", describe(other));
                self.error_here(msg);
                None
            }
        }
    }

    /// Expects an exact punctuation token.
    fn expect(&mut self, kind: TokenKind, what: &str) -> bool {
        if self.peek().kind == kind {
            self.bump();
            true
        } else {
            let found = describe(&self.peek().kind);
            self.error_here(format!("expected {what}, found {found}"));
            false
        }
    }

    fn program(&mut self) -> Program {
        let mut decls = Vec::new();
        while !self.at_eof() {
            let line = self.peek().line;
            let parsed = match &self.peek().kind {
                TokenKind::Ident(w) => match w.as_str() {
                    "group" => self.group(),
                    "chain" => self.chain(),
                    "tenant" => self.tenant(),
                    "rule" => self.rule(),
                    "default" => self.default_decl(),
                    "on" => self.on_app(),
                    _ => {
                        self.error_here(format!(
                            "expected a declaration (group/chain/tenant/rule/default/on), \
                             found `{w}`"
                        ));
                        self.recover();
                        None
                    }
                },
                other => {
                    let msg = format!(
                        "expected a declaration (group/chain/tenant/rule/default/on), found {}",
                        describe(other)
                    );
                    self.error_here(msg);
                    self.recover();
                    None
                }
            };
            if let Some(kind) = parsed {
                decls.push(Decl { line, kind });
            }
        }
        Program { decls }
    }

    /// `group NAME = { member, ... }`
    fn group(&mut self) -> Option<DeclKind> {
        self.bump(); // `group`
        let name = self.expect_name("a group name").or_else(|| {
            self.recover();
            None
        })?;
        if !self.expect(TokenKind::Eq, "`=`") || !self.expect(TokenKind::LBrace, "`{`") {
            self.recover();
            return None;
        }
        let mut members = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::Mac(mac) => {
                    members.push(Member::Mac(*mac));
                    self.bump();
                }
                TokenKind::Cidr(net) => {
                    members.push(Member::Net(*net));
                    self.bump();
                }
                TokenKind::Eof => {
                    self.error_here(format!("unclosed `{{` in group `{name}`"));
                    return None;
                }
                other => {
                    let msg = format!(
                        "expected a MAC or CIDR member in group `{name}`, found {}",
                        describe(other)
                    );
                    self.error_here(msg);
                    self.recover();
                    return None;
                }
            }
            if self.peek().kind == TokenKind::Comma {
                self.bump();
            }
        }
        Some(DeclKind::Group { name, members })
    }

    /// `chain NAME = [ service, ... ]`
    fn chain(&mut self) -> Option<DeclKind> {
        self.bump(); // `chain`
        let name = self.expect_name("a chain name").or_else(|| {
            self.recover();
            None
        })?;
        if !self.expect(TokenKind::Eq, "`=`") || !self.expect(TokenKind::LBracket, "`[`") {
            self.recover();
            return None;
        }
        let mut services = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::RBracket => {
                    self.bump();
                    break;
                }
                TokenKind::Ident(w) => match service_of_keyword(w) {
                    Some(s) => {
                        services.push(s);
                        self.bump();
                    }
                    None => {
                        let msg = format!(
                            "unknown service `{w}` in chain `{name}` \
                             (ids/protoid/firewall/virusscan/inspect)"
                        );
                        self.error_here(msg);
                        self.recover();
                        return None;
                    }
                },
                TokenKind::Eof => {
                    self.error_here(format!("unclosed `[` in chain `{name}`"));
                    return None;
                }
                other => {
                    let msg = format!(
                        "expected a service name in chain `{name}`, found {}",
                        describe(other)
                    );
                    self.error_here(msg);
                    self.recover();
                    return None;
                }
            }
            if self.peek().kind == TokenKind::Comma {
                self.bump();
            }
        }
        Some(DeclKind::Chain { name, services })
    }

    /// `tenant NAME CIDR`
    fn tenant(&mut self) -> Option<DeclKind> {
        self.bump(); // `tenant`
        let name = self.expect_name("a tenant name").or_else(|| {
            self.recover();
            None
        })?;
        match self.peek().kind {
            TokenKind::Cidr(net) => {
                self.bump();
                Some(DeclKind::Tenant { name, net })
            }
            ref other => {
                let msg = format!(
                    "expected the tenant's CIDR prefix, found {}",
                    describe(other)
                );
                self.error_here(msg);
                self.recover();
                None
            }
        }
    }

    /// `rule NAME: clause* verdict`
    fn rule(&mut self) -> Option<DeclKind> {
        self.bump(); // `rule`
        let name = self.expect_name("a rule name").or_else(|| {
            self.recover();
            None
        })?;
        if !self.expect(TokenKind::Colon, "`:`") {
            self.recover();
            return None;
        }
        let mut rule = RuleDecl {
            name: name.clone(),
            from: None,
            to: None,
            proto: None,
            port: None,
            tenant: None,
            verdict: Verdict::Allow,
        };
        loop {
            let word = match &self.peek().kind {
                TokenKind::Ident(w) => w.clone(),
                other => {
                    let msg = format!(
                        "expected a clause or verdict in rule `{name}`, found {}",
                        describe(other)
                    );
                    self.error_here(msg);
                    self.recover();
                    return None;
                }
            };
            match word.as_str() {
                "from" => {
                    self.bump();
                    self.no_duplicate(rule.from.is_some(), &name, "from");
                    rule.from = Some(self.endpoint(&name)?);
                }
                "to" => {
                    self.bump();
                    self.no_duplicate(rule.to.is_some(), &name, "to");
                    rule.to = Some(self.endpoint(&name)?);
                }
                "proto" => {
                    self.bump();
                    self.no_duplicate(rule.proto.is_some(), &name, "proto");
                    rule.proto = Some(self.proto(&name)?);
                }
                "port" => {
                    self.bump();
                    self.no_duplicate(rule.port.is_some(), &name, "port");
                    rule.port = Some(self.port(&name)?);
                }
                "tenant" => {
                    self.bump();
                    self.no_duplicate(rule.tenant.is_some(), &name, "tenant");
                    rule.tenant = Some(self.expect_name("a tenant name").or_else(|| {
                        self.recover();
                        None
                    })?);
                }
                "allow" | "deny" | "via" | "limit" => {
                    rule.verdict = self.verdict(&name)?;
                    return Some(DeclKind::Rule(rule));
                }
                _ if TOP_KEYWORDS.contains(&word.as_str()) => {
                    // Next declaration started: the rule never got
                    // its verdict. Do not consume the keyword.
                    self.error_here(format!(
                        "rule `{name}` is missing a verdict (allow/deny/via/limit)"
                    ));
                    return None;
                }
                _ => {
                    self.error_here(format!("unknown clause `{word}` in rule `{name}`"));
                    self.recover();
                    return None;
                }
            }
        }
    }

    fn no_duplicate(&mut self, already: bool, rule: &str, clause: &str) {
        if already {
            let t = self.peek().clone();
            self.diags.push(Diag::error(
                t.line,
                t.col,
                format!("duplicate `{clause}` clause in rule `{rule}` (the later one wins)"),
            ));
        }
    }

    fn endpoint(&mut self, rule: &str) -> Option<Endpoint> {
        match &self.peek().kind {
            TokenKind::Ident(w) => {
                let w = w.clone();
                self.bump();
                Some(Endpoint::Name(w))
            }
            TokenKind::Cidr(net) => {
                let net = *net;
                self.bump();
                Some(Endpoint::Net(net))
            }
            TokenKind::Mac(mac) => {
                let mac = *mac;
                self.bump();
                Some(Endpoint::Mac(mac))
            }
            other => {
                let msg = format!(
                    "expected a group name, CIDR or MAC in rule `{rule}`, found {}",
                    describe(other)
                );
                self.error_here(msg);
                self.recover();
                None
            }
        }
    }

    fn proto(&mut self, rule: &str) -> Option<u8> {
        match &self.peek().kind {
            TokenKind::Ident(w) => match proto_of_keyword(w) {
                Some(p) => {
                    self.bump();
                    Some(p)
                }
                None => {
                    let msg = format!("unknown protocol `{w}` in rule `{rule}` (tcp/udp/icmp/N)");
                    self.error_here(msg);
                    self.recover();
                    None
                }
            },
            TokenKind::Num(n) if *n <= u8::MAX as u64 => {
                let p = *n as u8;
                self.bump();
                Some(p)
            }
            other => {
                let msg = format!(
                    "expected a protocol (tcp/udp/icmp or 0-255) in rule `{rule}`, found {}",
                    describe(other)
                );
                self.error_here(msg);
                self.recover();
                None
            }
        }
    }

    fn port(&mut self, rule: &str) -> Option<u16> {
        match self.peek().kind {
            TokenKind::Num(n) if n <= u16::MAX as u64 => {
                self.bump();
                Some(n as u16)
            }
            ref other => {
                let msg = format!(
                    "expected a port number (0-65535) in rule `{rule}`, found {}",
                    describe(other)
                );
                self.error_here(msg);
                self.recover();
                None
            }
        }
    }

    /// Parses a verdict; the caller saw its first keyword already.
    fn verdict(&mut self, owner: &str) -> Option<Verdict> {
        let word = match &self.peek().kind {
            TokenKind::Ident(w) => w.clone(),
            other => {
                let msg = format!(
                    "expected a verdict (allow/deny/via/limit) for `{owner}`, found {}",
                    describe(other)
                );
                self.error_here(msg);
                self.recover();
                return None;
            }
        };
        match word.as_str() {
            "allow" => {
                self.bump();
                Some(Verdict::Allow)
            }
            "deny" => {
                self.bump();
                Some(Verdict::Deny)
            }
            "via" => {
                self.bump();
                let chain = self.expect_name("a chain name after `via`").or_else(|| {
                    self.recover();
                    None
                })?;
                Some(Verdict::Via(chain))
            }
            "limit" => {
                self.bump();
                let n = match self.peek().kind {
                    TokenKind::Num(n) => {
                        self.bump();
                        n
                    }
                    ref other => {
                        let msg =
                            format!("expected a rate after `limit`, found {}", describe(other));
                        self.error_here(msg);
                        self.recover();
                        return None;
                    }
                };
                let unit = match &self.peek().kind {
                    TokenKind::Ident(u) => u.clone(),
                    other => {
                        let msg = format!(
                            "expected a rate unit (bps/kbps/mbps/gbps), found {}",
                            describe(other)
                        );
                        self.error_here(msg);
                        self.recover();
                        return None;
                    }
                };
                let scale: u64 = match unit.as_str() {
                    "bps" => 1,
                    "kbps" => 1_000,
                    "mbps" => 1_000_000,
                    "gbps" => 1_000_000_000,
                    _ => {
                        self.error_here(format!("unknown rate unit `{unit}` (bps/kbps/mbps/gbps)"));
                        self.recover();
                        return None;
                    }
                };
                let Some(bps) = n.checked_mul(scale) else {
                    self.error_here(format!("rate {n} {unit} overflows"));
                    self.recover();
                    return None;
                };
                self.bump();
                Some(Verdict::Limit { bps })
            }
            _ => {
                self.error_here(format!(
                    "expected a verdict (allow/deny/via/limit) for `{owner}`, found `{word}`"
                ));
                self.recover();
                None
            }
        }
    }

    /// `default allow|deny|via CHAIN` (the checker rejects `limit`).
    fn default_decl(&mut self) -> Option<DeclKind> {
        self.bump(); // `default`
        let verdict = self.verdict("the default decision")?;
        Some(DeclKind::Default { verdict })
    }

    /// `on app NAME allow|block`
    fn on_app(&mut self) -> Option<DeclKind> {
        self.bump(); // `on`
        match &self.peek().kind {
            TokenKind::Ident(w) if w == "app" => {
                self.bump();
            }
            other => {
                let msg = format!("expected `app` after `on`, found {}", describe(other));
                self.error_here(msg);
                self.recover();
                return None;
            }
        }
        let app = self.expect_name("an application name").or_else(|| {
            self.recover();
            None
        })?;
        match &self.peek().kind {
            TokenKind::Ident(w) if w == "allow" || w == "block" => {
                let block = w == "block";
                self.bump();
                Some(DeclKind::OnApp { app, block })
            }
            other => {
                let msg = format!(
                    "expected `allow` or `block` for app `{app}`, found {}",
                    describe(other)
                );
                self.error_here(msg);
                self.recover();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_services::ServiceType;

    #[test]
    fn parses_a_full_program() {
        let src = "\
# campus policy
group eng = { 0a:0b:0c:0d:0e:01, 10.1.0.0/24 }
chain web = [ ids, protoid ]
tenant lab 10.2.0.0/16
rule web-ids: from eng proto tcp port 80 via web
rule no-telnet: port 23 deny
rule capped: from 10.9.0.0/24 limit 10 mbps
default allow
on app bittorrent block
";
        let (prog, diags) = parse(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(prog.decls.len(), 8);
        let DeclKind::Chain { services, .. } = &prog.decls[1].kind else {
            panic!("expected chain, got {:?}", prog.decls[1]);
        };
        assert_eq!(
            services,
            &[
                ServiceType::IntrusionDetection,
                ServiceType::ProtocolIdentification
            ]
        );
        let DeclKind::Rule(r) = &prog.decls[3].kind else {
            panic!("expected rule");
        };
        assert_eq!(r.name, "web-ids");
        assert_eq!(r.proto, Some(6));
        assert_eq!(r.port, Some(80));
        assert_eq!(r.verdict, Verdict::Via("web".into()));
        let DeclKind::Rule(r) = &prog.decls[5].kind else {
            panic!("expected rule");
        };
        assert_eq!(r.verdict, Verdict::Limit { bps: 10_000_000 });
    }

    #[test]
    fn recovery_keeps_later_declarations() {
        let src = "\
rule broken: from !!!
rule ok: port 22 deny
";
        let (prog, diags) = parse(src);
        assert_eq!(prog.decls.len(), 1, "{prog:?}");
        assert!(matches!(&prog.decls[0].kind, DeclKind::Rule(r) if r.name == "ok"));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn missing_verdict_is_reported_once() {
        let src = "rule nohead: port 80\nrule tail: allow\n";
        let (prog, diags) = parse(src);
        assert_eq!(prog.decls.len(), 1);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("missing a verdict"), "{diags:?}");
    }

    #[test]
    fn diagnostics_carry_positions() {
        let (_, diags) = parse("tenant lab\n");
        assert_eq!(diags.len(), 1);
        // The missing-CIDR diagnostic points at the newline's EOF.
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn duplicate_clause_is_flagged() {
        let (prog, diags) = parse("rule r: port 1 port 2 deny\n");
        assert_eq!(prog.decls.len(), 1);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("duplicate `port`"), "{diags:?}");
        let DeclKind::Rule(r) = &prog.decls[0].kind else {
            panic!()
        };
        assert_eq!(r.port, Some(2), "later clause wins");
    }
}
