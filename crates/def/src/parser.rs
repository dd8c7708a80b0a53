//! Parser for the DEF subset.

use sfq_cells::{CellKind, CellLibrary};
use sfq_netlist::{CellId, Netlist};

use crate::error::DefError;
use crate::lexer::{position, tokenize, Spanned, Token};
use crate::resolve_pin;

/// Input-size caps for [`parse_def_with_limits`].
///
/// DEF files are attacker-controlled input in a batch flow; the caps bound
/// the memory the lexer and parser can be made to allocate before any
/// structural validation runs. The defaults are far above any real
/// benchmark (the SPORT-lab suite is a few MiB) while still making
/// pathological inputs fail fast with a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefLimits {
    /// Maximum input length in bytes.
    pub max_bytes: usize,
    /// Maximum number of lexical tokens.
    pub max_tokens: usize,
}

impl Default for DefLimits {
    fn default() -> Self {
        DefLimits {
            max_bytes: 64 * 1024 * 1024,
            max_tokens: 4_000_000,
        }
    }
}

impl DefLimits {
    /// No caps at all (the pre-hardening behavior).
    pub fn unbounded() -> Self {
        DefLimits {
            max_bytes: usize::MAX,
            max_tokens: usize::MAX,
        }
    }
}

/// Parses DEF `text` into a netlist backed by `library`, under the default
/// [`DefLimits`].
///
/// Accepts the subset produced by [`write_def`](crate::write_def) plus
/// common variations: placement attributes on components (ignored),
/// arbitrary `+`-attribute tails, comments, and flexible section order as
/// long as `NETS` comes after the cells it references.
///
/// # Errors
///
/// Returns a [`DefError`] with a source position for lexical errors,
/// malformed sections, unknown cell kinds, unknown component references,
/// pin-name violations, nets without a driver, count mismatches, and
/// inputs exceeding the default size caps.
pub fn parse_def(text: &str, library: CellLibrary) -> Result<Netlist, DefError> {
    parse_def_with_limits(text, library, DefLimits::default())
}

/// [`parse_def`] with explicit input-size caps.
///
/// # Errors
///
/// As [`parse_def`]; an input longer than `limits.max_bytes` or lexing to
/// more than `limits.max_tokens` tokens fails with a positioned
/// [`DefError`] before any netlist is built.
pub fn parse_def_with_limits(
    text: &str,
    library: CellLibrary,
    limits: DefLimits,
) -> Result<Netlist, DefError> {
    if text.len() > limits.max_bytes {
        return Err(DefError::new(
            1,
            1,
            format!(
                "input of {} bytes exceeds the {}-byte limit",
                text.len(),
                limits.max_bytes
            ),
        ));
    }
    let tokens = tokenize(text, limits.max_tokens)?;
    Parser {
        text,
        tokens,
        pos: 0,
        library,
    }
    .run()
}

/// Component and pin names to cell ids. A `BTreeMap` would put string
/// compares into every DEF parse.
#[expect(
    clippy::disallowed_types,
    reason = "name lookup only: the index is never iterated"
)]
type NameIndex = std::collections::HashMap<String, CellId>;

struct Parser<'a> {
    /// The source the tokens index into.
    text: &'a str,
    tokens: Vec<Spanned>,
    pos: usize,
    library: CellLibrary,
}

impl<'a> Parser<'a> {
    fn run(mut self) -> Result<Netlist, DefError> {
        let mut netlist = Netlist::new("unnamed", self.library.clone());
        let mut by_name = NameIndex::new();
        let mut net_counter = 0usize;

        while let Some(spanned) = self.peek().copied() {
            if spanned.token != Token::Word {
                return Err(self.err_at(&spanned, "expected a statement keyword"));
            }
            match spanned.text(self.text) {
                "VERSION" | "DIVIDERCHAR" | "BUSBITCHARS" | "UNITS" | "DIEAREA" => {
                    self.skip_statement();
                }
                "DESIGN" => {
                    self.next();
                    let name = self.expect_word("design name")?;
                    netlist.set_name(name);
                    self.expect_semi()?;
                }
                "COMPONENTS" => {
                    let declared = self.section_count("COMPONENTS")?;
                    let parsed = self.parse_components(&mut netlist, &mut by_name)?;
                    self.check_count(&spanned, "COMPONENTS", declared, parsed)?;
                }
                "PINS" => {
                    let declared = self.section_count("PINS")?;
                    let parsed = self.parse_pins(&mut netlist, &mut by_name)?;
                    self.check_count(&spanned, "PINS", declared, parsed)?;
                }
                "NETS" => {
                    let declared = self.section_count("NETS")?;
                    let parsed = self.parse_nets(&mut netlist, &by_name, &mut net_counter)?;
                    self.check_count(&spanned, "NETS", declared, parsed)?;
                }
                "END" => {
                    self.next();
                    let what = self.expect_word("END target")?;
                    if what == "DESIGN" {
                        return Ok(netlist);
                    }
                    return Err(self.err_at(&spanned, format!("unexpected END {what}")));
                }
                other => {
                    return Err(self.err_at(&spanned, format!("unknown statement `{other}`")));
                }
            }
        }
        Err(DefError::new(0, 0, "missing END DESIGN"))
    }

    // ---- section bodies -------------------------------------------------

    fn parse_components(
        &mut self,
        netlist: &mut Netlist,
        by_name: &mut NameIndex,
    ) -> Result<usize, DefError> {
        let mut count = 0usize;
        loop {
            let spanned = self
                .peek()
                .copied()
                .ok_or_else(|| DefError::new(0, 0, "unterminated COMPONENTS section"))?;
            match spanned.token {
                Token::Dash => {
                    self.next();
                    let name = self.expect_word("component name")?;
                    let kind_name = self.expect_word("component model")?;
                    let kind: CellKind = kind_name.parse().map_err(|_| {
                        self.err_at(&spanned, format!("unknown cell `{kind_name}`"))
                    })?;
                    if by_name.contains_key(name) {
                        return Err(self.err_at(&spanned, format!("duplicate component `{name}`")));
                    }
                    let id = netlist.add_cell(name, kind);
                    by_name.insert(name.to_owned(), id);
                    self.skip_to_semi()?; // placement / attributes ignored
                    count += 1;
                }
                Token::Word if spanned.text(self.text) == "END" => {
                    self.next();
                    self.expect_keyword("COMPONENTS")?;
                    return Ok(count);
                }
                _ => return Err(self.err_at(&spanned, "expected `-` item or END COMPONENTS")),
            }
        }
    }

    fn parse_pins(
        &mut self,
        netlist: &mut Netlist,
        by_name: &mut NameIndex,
    ) -> Result<usize, DefError> {
        let mut count = 0usize;
        loop {
            let spanned = self
                .peek()
                .copied()
                .ok_or_else(|| DefError::new(0, 0, "unterminated PINS section"))?;
            match spanned.token {
                Token::Dash => {
                    self.next();
                    let name = self.expect_word("pin name")?;
                    // Attributes: we care about + DIRECTION.
                    let mut direction: Option<&str> = None;
                    loop {
                        match self.peek().map(|s| s.token) {
                            Some(Token::Plus) => {
                                self.next();
                                let attr = self.expect_word("pin attribute")?;
                                if attr == "DIRECTION" {
                                    direction = Some(self.expect_word("direction")?);
                                } else {
                                    // Skip the attribute's operands.
                                    while let Some(s) = self.peek() {
                                        if matches!(s.token, Token::Plus | Token::Semi) {
                                            break;
                                        }
                                        self.next();
                                    }
                                }
                            }
                            Some(Token::Semi) => {
                                self.next();
                                break;
                            }
                            Some(_) => {
                                self.next(); // tolerate stray operands
                            }
                            None => {
                                return Err(self.err_here("unexpected end of file inside a pin"));
                            }
                        }
                    }
                    let kind = match direction {
                        Some("INPUT") => CellKind::InputPad,
                        Some("OUTPUT") => CellKind::OutputPad,
                        Some(other) => {
                            return Err(
                                self.err_at(&spanned, format!("unsupported direction `{other}`"))
                            )
                        }
                        None => {
                            return Err(self.err_at(&spanned, "pin missing + DIRECTION"));
                        }
                    };
                    if by_name.contains_key(name) {
                        return Err(self.err_at(&spanned, format!("duplicate pin `{name}`")));
                    }
                    let id = netlist.add_cell(name, kind);
                    by_name.insert(name.to_owned(), id);
                    count += 1;
                }
                Token::Word if spanned.text(self.text) == "END" => {
                    self.next();
                    self.expect_keyword("PINS")?;
                    return Ok(count);
                }
                _ => return Err(self.err_at(&spanned, "expected `-` item or END PINS")),
            }
        }
    }

    fn parse_nets(
        &mut self,
        netlist: &mut Netlist,
        by_name: &NameIndex,
        net_counter: &mut usize,
    ) -> Result<usize, DefError> {
        let mut count = 0usize;
        loop {
            let spanned = self
                .peek()
                .copied()
                .ok_or_else(|| DefError::new(0, 0, "unterminated NETS section"))?;
            match spanned.token {
                Token::Dash => {
                    self.next();
                    let net_name = self.expect_word("net name")?;
                    // Connections: ( comp pin ) or ( PIN padname ).
                    let mut driver: Option<(CellId, usize)> = None;
                    let mut sinks: Vec<(CellId, usize)> = Vec::new();
                    loop {
                        match self.peek().map(|s| s.token) {
                            Some(Token::LParen) => {
                                self.next();
                                let first = self.expect_word("component or PIN")?;
                                let (cell, is_output, pin) = if first == "PIN" {
                                    let pad = self.expect_word("pad name")?;
                                    let id = *by_name.get(pad).ok_or_else(|| {
                                        self.err_at(&spanned, format!("unknown pin `{pad}`"))
                                    })?;
                                    let is_out = netlist.cell(id).kind == CellKind::InputPad;
                                    (id, is_out, 0usize)
                                } else {
                                    let pin_name = self.expect_word("pin name")?;
                                    let id = *by_name.get(first).ok_or_else(|| {
                                        self.err_at(
                                            &spanned,
                                            format!("unknown component `{first}`"),
                                        )
                                    })?;
                                    let kind = netlist.cell(id).kind;
                                    let (is_out, pin) =
                                        resolve_pin(kind, pin_name).ok_or_else(|| {
                                            self.err_at(
                                                &spanned,
                                                format!("invalid pin `{pin_name}` for {kind}"),
                                            )
                                        })?;
                                    (id, is_out, pin)
                                };
                                self.expect_rparen()?;
                                if is_output {
                                    if driver.is_some() {
                                        return Err(self.err_at(
                                            &spanned,
                                            format!("net `{net_name}` has multiple drivers"),
                                        ));
                                    }
                                    driver = Some((cell, pin));
                                } else {
                                    sinks.push((cell, pin));
                                }
                            }
                            Some(Token::Semi) => {
                                self.next();
                                break;
                            }
                            Some(Token::Plus) => {
                                // Routing/attribute tail: ignore to semi.
                                self.skip_to_semi()?;
                                break;
                            }
                            _ => {
                                return Err(self.err_at(&spanned, "expected ( connection ) or `;`"));
                            }
                        }
                    }
                    let (dcell, dpin) = driver.ok_or_else(|| {
                        self.err_at(&spanned, format!("net `{net_name}` has no driver"))
                    })?;
                    netlist
                        .connect(net_name, dcell, dpin, &sinks)
                        .map_err(|e| self.err_at(&spanned, e.to_string()))?;
                    *net_counter += 1;
                    count += 1;
                }
                Token::Word if spanned.text(self.text) == "END" => {
                    self.next();
                    self.expect_keyword("NETS")?;
                    return Ok(count);
                }
                _ => return Err(self.err_at(&spanned, "expected `-` item or END NETS")),
            }
        }
    }

    // ---- cursor helpers --------------------------------------------------

    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Spanned> {
        let s = self.tokens.get(self.pos);
        if s.is_some() {
            self.pos += 1;
        }
        s
    }

    fn err_at(&self, spanned: &Spanned, message: impl Into<String>) -> DefError {
        let (line, column) = position(self.text, spanned.offset());
        DefError::new(line, column, message)
    }

    fn err_here(&self, message: impl Into<String>) -> DefError {
        match self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
        {
            Some(s) => self.err_at(s, message),
            None => DefError::new(0, 0, message),
        }
    }

    fn expect_word(&mut self, what: &str) -> Result<&'a str, DefError> {
        match self.next().copied() {
            Some(s) if s.token == Token::Word => Ok(s.text(self.text)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here(format!("expected {what}")))
            }
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), DefError> {
        let w = self.expect_word(keyword)?;
        if w == keyword {
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{keyword}`, found `{w}`")))
        }
    }

    fn expect_semi(&mut self) -> Result<(), DefError> {
        match self.next().map(|s| s.token) {
            Some(Token::Semi) => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here("expected `;`"))
            }
        }
    }

    fn expect_rparen(&mut self) -> Result<(), DefError> {
        match self.next().map(|s| s.token) {
            Some(Token::RParen) => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here("expected `)`"))
            }
        }
    }

    /// Reads `SECTION n ;` and returns `n`.
    fn section_count(&mut self, section: &str) -> Result<usize, DefError> {
        self.next(); // the section keyword
        let n = self.expect_word(&format!("{section} count"))?;
        let count: usize = n
            .parse()
            .map_err(|_| self.err_here(format!("invalid {section} count `{n}`")))?;
        self.expect_semi()?;
        Ok(count)
    }

    fn check_count(
        &self,
        spanned: &Spanned,
        section: &str,
        declared: usize,
        parsed: usize,
    ) -> Result<(), DefError> {
        if declared == parsed {
            Ok(())
        } else {
            Err(self.err_at(
                spanned,
                format!("{section} declares {declared} items but contains {parsed}"),
            ))
        }
    }

    /// Skips a simple `KEYWORD ... ;` statement.
    fn skip_statement(&mut self) {
        while let Some(s) = self.next() {
            if s.token == Token::Semi {
                break;
            }
        }
    }

    fn skip_to_semi(&mut self) -> Result<(), DefError> {
        while let Some(s) = self.next() {
            if s.token == Token::Semi {
                return Ok(());
            }
        }
        Err(self.err_here("unexpected end of file, expected `;`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
VERSION 5.8 ;
DIVIDERCHAR "/" ;
DESIGN demo ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 500000 500000 ) ;
COMPONENTS 3 ;
  - u1 DFF + PLACED ( 1000 2000 ) N ;
  - u2 SPLIT ;
  - u3 AND2 ;
END COMPONENTS
PINS 2 ;
  - pi0 + NET n0 + DIRECTION INPUT ;
  - po0 + NET n4 + DIRECTION OUTPUT ;
END PINS
NETS 5 ;
  - n0 ( PIN pi0 ) ( u1 a ) ;
  - n1 ( u1 q ) ( u2 a ) ;
  - n2 ( u2 q0 ) ( u3 a ) ;
  - n3 ( u2 q1 ) ( u3 b ) ;
  - n4 ( u3 q ) ( PIN po0 ) ;
END NETS
END DESIGN
"#;

    #[test]
    fn parses_the_full_sample() {
        let nl = parse_def(SAMPLE, CellLibrary::calibrated()).unwrap();
        assert_eq!(nl.name(), "demo");
        assert_eq!(nl.num_cells(), 5);
        assert_eq!(nl.num_nets(), 5);
        nl.validate().expect("parsed netlist is valid");
        let stats = nl.stats();
        assert_eq!(stats.num_gates, 3);
        assert_eq!(stats.num_pads, 2);
        assert_eq!(stats.num_connections, 3);
    }

    #[test]
    fn driver_inferred_from_pin_direction() {
        let nl = parse_def(SAMPLE, CellLibrary::calibrated()).unwrap();
        // n2 drives from u2 q0 to u3 a.
        let (_, n2) = nl.nets().find(|(_, n)| n.name == "n2").unwrap();
        assert_eq!(nl.cell(n2.driver.cell).name, "u2");
        assert_eq!(n2.driver.pin, 0);
        assert_eq!(nl.cell(n2.sinks[0].cell).name, "u3");
    }

    #[test]
    fn placement_is_ignored() {
        let nl = parse_def(SAMPLE, CellLibrary::calibrated()).unwrap();
        assert!(nl.find_cell("u1").is_some());
    }

    #[test]
    fn unknown_cell_kind_is_an_error() {
        let text = SAMPLE.replace("u3 AND2", "u3 NAND9");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("NAND9"), "{err}");
    }

    #[test]
    fn count_mismatch_is_an_error() {
        let text = SAMPLE.replace("COMPONENTS 3 ;", "COMPONENTS 4 ;");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("declares 4"), "{err}");
    }

    #[test]
    fn net_without_driver_is_an_error() {
        let text = SAMPLE.replace("- n1 ( u1 q ) ( u2 a ) ;", "- n1 ( u2 a ) ;");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("no driver"), "{err}");
    }

    #[test]
    fn net_with_two_drivers_is_an_error() {
        let text = SAMPLE.replace(
            "- n1 ( u1 q ) ( u2 a ) ;",
            "- n1 ( u1 q ) ( u3 q ) ( u2 a ) ;",
        );
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("multiple drivers"), "{err}");
    }

    #[test]
    fn unknown_component_reference_is_an_error() {
        let text = SAMPLE.replace("( u1 q )", "( zz q )");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("unknown component"), "{err}");
    }

    #[test]
    fn invalid_pin_for_kind_is_an_error() {
        // DFF has no `b` input.
        let text = SAMPLE.replace("( u1 a )", "( u1 b )");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("invalid pin"), "{err}");
    }

    #[test]
    fn missing_end_design_is_an_error() {
        let text = SAMPLE.replace("END DESIGN", "");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("END DESIGN"), "{err}");
    }

    #[test]
    fn pin_missing_direction_is_an_error() {
        let text = SAMPLE.replace("- pi0 + NET n0 + DIRECTION INPUT ;", "- pi0 + NET n0 ;");
        let err = parse_def(&text, CellLibrary::calibrated()).unwrap_err();
        assert!(err.message().contains("DIRECTION"), "{err}");
    }
}
