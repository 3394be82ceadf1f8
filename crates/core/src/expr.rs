//! The debugger's expression language.
//!
//! Two things are written in this language: the *enable conditions*
//! the compiler stores in the symbol table (§3.1 — the textual form of
//! `hgf_ir::Expr`), and the *conditional expressions specified by the
//! user* on breakpoints (§3.2, step 2; Figure 4 D). A Pratt parser
//! builds a small AST which evaluates against signal values fetched
//! through the simulator interface.
//!
//! Unlike RTL, the debugger is width-lenient: mixed-width operands are
//! zero-extended to the wider side, and `&&`/`||`/`!` treat any
//! nonzero value as true — matching what a software debugger user
//! expects to type.
//!
//! Evaluation is four-state native ([`DebugExpr::eval4`]): signal
//! values carry their unknown planes, literals may contain `x`/`z`
//! digits (`0bx1z0`, `32'hxxxx_beef`), and operators follow the
//! simulator's X-propagation rules. The two-state [`DebugExpr::eval`]
//! wraps it for contexts where an unknown result is an error.

use std::collections::BTreeSet;
use std::fmt;

use bits::{Bits, Bits4};

/// Binary operators, loosest precedence first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical OR (truthiness).
    LOr,
    /// Logical AND (truthiness).
    LAnd,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise AND.
    And,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Unsigned comparisons.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Signed comparisons (`<$` syntax, matching the IR's display).
    Lts,
    /// Signed less-or-equal.
    Les,
    /// Signed greater-than.
    Gts,
    /// Signed greater-or-equal.
    Ges,
    /// Shifts.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Ashr,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Bitwise NOT.
    Not,
    /// Logical NOT (truthiness).
    LNot,
    /// Negation.
    Neg,
    /// AND-reduction.
    RAnd,
    /// OR-reduction.
    ROr,
    /// XOR-reduction.
    RXor,
}

/// Parsed debugger expression.
#[derive(Debug, Clone, PartialEq)]
pub enum DebugExpr {
    /// Literal value (four-state: `8'hxz` is a literal too).
    Lit(Bits4),
    /// Signal or variable reference (dotted path allowed).
    Ref(String),
    /// Unary operation.
    Unary(UnOp, Box<DebugExpr>),
    /// Binary operation.
    Binary(BinOp, Box<DebugExpr>, Box<DebugExpr>),
    /// `mux(sel, a, b)`.
    Mux(Box<DebugExpr>, Box<DebugExpr>, Box<DebugExpr>),
    /// Bit slice `e[hi:lo]` or single bit `e[i]`.
    Slice(Box<DebugExpr>, u32, u32),
    /// Concatenation `{hi, lo}`.
    Cat(Box<DebugExpr>, Box<DebugExpr>),
}

/// Parse or evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// Syntax error with byte offset.
    Parse {
        /// Byte offset in the input.
        offset: usize,
        /// Explanation.
        message: String,
    },
    /// A referenced name did not resolve to a value.
    Unresolved(String),
    /// Structurally invalid operation (bad slice bounds).
    Invalid(String),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Parse { offset, message } => {
                write!(f, "parse error at offset {offset}: {message}")
            }
            ExprError::Unresolved(name) => write!(f, "cannot resolve {name}"),
            ExprError::Invalid(msg) => write!(f, "invalid expression: {msg}"),
        }
    }
}

impl std::error::Error for ExprError {}

impl DebugExpr {
    /// Parses an expression.
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::Parse`] on malformed input.
    pub fn parse(input: &str) -> Result<DebugExpr, ExprError> {
        let tokens = lex(input)?;
        let mut p = Parser { tokens, pos: 0 };
        let e = p.expr(0)?;
        if p.pos != p.tokens.len() {
            return Err(ExprError::Parse {
                offset: p.tokens[p.pos].1,
                message: "trailing tokens".into(),
            });
        }
        Ok(e)
    }

    /// Evaluates against a two-state resolver. The result must come
    /// out fully known: an `x`/`z` literal that survives into the value
    /// is an error here (use [`DebugExpr::eval4`] where unknowns are
    /// meaningful — the runtime's condition and watch paths do).
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::Unresolved`] for unknown names or
    /// [`ExprError::Invalid`] for bad slices and for results carrying
    /// `x`/`z` bits.
    pub fn eval(&self, resolve: &dyn Fn(&str) -> Option<Bits>) -> Result<Bits, ExprError> {
        let v = self.eval4(&|name| resolve(name).map(Bits4::known))?;
        match v.to_known() {
            Some(k) => Ok(k.clone()),
            None => Err(ExprError::Invalid(format!(
                "value {} has x/z bits in a two-state context",
                v.to_literal()
            ))),
        }
    }

    /// Evaluates against a four-state resolver. Unknown bits propagate
    /// by the same rules the simulator uses: known-dominant `&`/`|`,
    /// comparisons that go `x` unless decided by mutually-known bits,
    /// and an `x` mux select that merges both arms.
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::Unresolved`] for unknown names or
    /// [`ExprError::Invalid`] for bad slices.
    pub fn eval4(&self, resolve: &dyn Fn(&str) -> Option<Bits4>) -> Result<Bits4, ExprError> {
        eval4_tree(self, &|name: &String| {
            resolve(name).ok_or_else(|| ExprError::Unresolved(name.clone()))
        })
    }

    /// Resolves each distinct referenced name once, through `resolve`,
    /// and returns the expression in a form whose references are slots
    /// into that table. The runtime binds enables, conditions and
    /// watches when they are attached or inserted, so evaluating them
    /// every cycle looks no name up.
    pub(crate) fn bind<R>(&self, mut resolve: impl FnMut(&str) -> R) -> Bound<R> {
        let mut refs: Vec<(String, R)> = Vec::new();
        let root = self.bind_node(&mut |name| {
            refs.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
                refs.push((name.to_owned(), resolve(name)));
                refs.len() - 1
            })
        });
        Bound { root, refs }
    }

    fn bind_node(&self, slot: &mut dyn FnMut(&str) -> usize) -> Node {
        match self {
            DebugExpr::Lit(b) => Node::Lit(b.clone()),
            DebugExpr::Ref(name) => Node::Ref(slot(name)),
            DebugExpr::Unary(op, e) => Node::Unary(*op, Box::new(e.bind_node(slot))),
            DebugExpr::Binary(op, l, r) => Node::Binary(
                *op,
                Box::new(l.bind_node(slot)),
                Box::new(r.bind_node(slot)),
            ),
            DebugExpr::Mux(s, t, e) => Node::Mux(
                Box::new(s.bind_node(slot)),
                Box::new(t.bind_node(slot)),
                Box::new(e.bind_node(slot)),
            ),
            DebugExpr::Slice(e, hi, lo) => Node::Slice(Box::new(e.bind_node(slot)), *hi, *lo),
            DebugExpr::Cat(h, l) => {
                Node::Cat(Box::new(h.bind_node(slot)), Box::new(l.bind_node(slot)))
            }
        }
    }

    /// All referenced names.
    pub fn refs(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut BTreeSet<String>) {
        match self {
            DebugExpr::Lit(_) => {}
            DebugExpr::Ref(n) => {
                out.insert(n.clone());
            }
            DebugExpr::Unary(_, e) | DebugExpr::Slice(e, _, _) => e.collect(out),
            DebugExpr::Binary(_, l, r) | DebugExpr::Cat(l, r) => {
                l.collect(out);
                r.collect(out);
            }
            DebugExpr::Mux(s, t, e) => {
                s.collect(out);
                t.collect(out);
                e.collect(out);
            }
        }
    }
}

/// An expression whose references were resolved when it was bound
/// ([`DebugExpr::bind`]): each reference is a slot in `refs`, which
/// pairs the name with what it was bound to.
#[derive(Debug)]
pub(crate) struct Bound<R> {
    root: Node,
    refs: Vec<(String, R)>,
}

impl<R> Bound<R> {
    /// Evaluates like [`DebugExpr::eval4`], reading each reference
    /// through `read`, which gets the name and its binding. A `None`
    /// from `read` is an [`ExprError::Unresolved`] of that name.
    pub(crate) fn eval4(
        &self,
        read: &dyn Fn(&str, &R) -> Option<Bits4>,
    ) -> Result<Bits4, ExprError> {
        eval4_tree(&self.root, &|&slot: &usize| {
            let (name, binding) = &self.refs[slot];
            read(name, binding).ok_or_else(|| ExprError::Unresolved(name.clone()))
        })
    }
}

/// [`DebugExpr`] with every reference replaced by its slot in
/// [`Bound`]'s table.
#[derive(Debug)]
enum Node {
    Lit(Bits4),
    Ref(usize),
    Unary(UnOp, Box<Node>),
    Binary(BinOp, Box<Node>, Box<Node>),
    Mux(Box<Node>, Box<Node>, Box<Node>),
    Slice(Box<Node>, u32, u32),
    Cat(Box<Node>, Box<Node>),
}

/// One node of either expression form, children borrowed, so both
/// evaluate through the one [`eval4_tree`].
enum Shape<'a, T, R> {
    Lit(&'a Bits4),
    Ref(&'a R),
    Unary(UnOp, &'a T),
    Binary(BinOp, &'a T, &'a T),
    Mux(&'a T, &'a T, &'a T),
    Slice(&'a T, u32, u32),
    Cat(&'a T, &'a T),
}

/// An expression tree whose references are `Ref`s: names in a
/// [`DebugExpr`], slots in a bound [`Node`].
trait Tree: Sized {
    type Ref;
    fn shape(&self) -> Shape<'_, Self, Self::Ref>;
}

impl Tree for DebugExpr {
    type Ref = String;

    fn shape(&self) -> Shape<'_, Self, String> {
        match self {
            DebugExpr::Lit(b) => Shape::Lit(b),
            DebugExpr::Ref(name) => Shape::Ref(name),
            DebugExpr::Unary(op, e) => Shape::Unary(*op, e),
            DebugExpr::Binary(op, l, r) => Shape::Binary(*op, l, r),
            DebugExpr::Mux(s, t, e) => Shape::Mux(s, t, e),
            DebugExpr::Slice(e, hi, lo) => Shape::Slice(e, *hi, *lo),
            DebugExpr::Cat(h, l) => Shape::Cat(h, l),
        }
    }
}

impl Tree for Node {
    type Ref = usize;

    fn shape(&self) -> Shape<'_, Self, usize> {
        match self {
            Node::Lit(b) => Shape::Lit(b),
            Node::Ref(slot) => Shape::Ref(slot),
            Node::Unary(op, e) => Shape::Unary(*op, e),
            Node::Binary(op, l, r) => Shape::Binary(*op, l, r),
            Node::Mux(s, t, e) => Shape::Mux(s, t, e),
            Node::Slice(e, hi, lo) => Shape::Slice(e, *hi, *lo),
            Node::Cat(h, l) => Shape::Cat(h, l),
        }
    }
}

/// The four-state evaluator behind [`DebugExpr::eval4`] and
/// [`Bound::eval4`]; `leaf` reads one reference.
fn eval4_tree<T: Tree>(
    node: &T,
    leaf: &dyn Fn(&T::Ref) -> Result<Bits4, ExprError>,
) -> Result<Bits4, ExprError> {
    match node.shape() {
        Shape::Lit(b) => Ok(b.clone()),
        Shape::Ref(r) => leaf(r),
        Shape::Unary(op, e) => {
            let v = eval4_tree(e, leaf)?;
            Ok(match op {
                UnOp::Not => v.not(),
                UnOp::LNot => match v.truthiness() {
                    Some(t) => Bits4::known(Bits::from_bool(!t)),
                    None => Bits4::all_x(1),
                },
                UnOp::Neg => v.neg(),
                UnOp::RAnd => v.reduce_and(),
                UnOp::ROr => v.reduce_or(),
                UnOp::RXor => v.reduce_xor(),
            })
        }
        Shape::Binary(op, l, r) => {
            let a = eval4_tree(l, leaf)?;
            let b = eval4_tree(r, leaf)?;
            Ok(apply_bin4(op, &a, &b))
        }
        Shape::Mux(s, t, e) => match eval4_tree(s, leaf)?.truthiness() {
            Some(true) => eval4_tree(t, leaf),
            Some(false) => eval4_tree(e, leaf),
            // An x select merges both arms: agreeing known bits
            // survive, everything else goes x — the simulator's
            // X-select semantics (IEEE-1800 §11.4.11).
            None => {
                let tv = eval4_tree(t, leaf)?;
                let ev = eval4_tree(e, leaf)?;
                let w = tv.width().max(ev.width());
                Ok(Bits4::merge(&tv.resize(w), &ev.resize(w)))
            }
        },
        Shape::Slice(e, hi, lo) => {
            let v = eval4_tree(e, leaf)?;
            if hi < lo || hi >= v.width() {
                return Err(ExprError::Invalid(format!(
                    "slice [{hi}:{lo}] out of width {}",
                    v.width()
                )));
            }
            Ok(v.slice(hi, lo))
        }
        Shape::Cat(h, l) => {
            let hv = eval4_tree(h, leaf)?;
            let lv = eval4_tree(l, leaf)?;
            Ok(hv.concat(&lv))
        }
    }
}

/// Width-lenient four-state application: zero-extend to the wider
/// operand. `&&`/`||` are three-valued with dominance — a known-false
/// (resp. known-true) side decides the result even when the other side
/// is unknown.
fn apply_bin4(op: BinOp, a: &Bits4, b: &Bits4) -> Bits4 {
    use BinOp::*;
    match op {
        LAnd => {
            return match (a.truthiness(), b.truthiness()) {
                (Some(false), _) | (_, Some(false)) => Bits4::known(Bits::from_bool(false)),
                (Some(true), Some(true)) => Bits4::known(Bits::from_bool(true)),
                _ => Bits4::all_x(1),
            }
        }
        LOr => {
            return match (a.truthiness(), b.truthiness()) {
                (Some(true), _) | (_, Some(true)) => Bits4::known(Bits::from_bool(true)),
                (Some(false), Some(false)) => Bits4::known(Bits::from_bool(false)),
                _ => Bits4::all_x(1),
            }
        }
        Shl => return a.shl(b),
        Shr => return a.shr(b),
        Ashr => return a.ashr(b),
        _ => {}
    }
    let w = a.width().max(b.width());
    let (a, b) = (a.resize(w), b.resize(w));
    match op {
        Add => a.add(&b),
        Sub => a.sub(&b),
        Mul => a.mul(&b),
        Div => a.div(&b),
        Rem => a.rem(&b),
        And => a.and(&b),
        Or => a.or(&b),
        Xor => a.xor(&b),
        Eq => a.eq_bits(&b),
        Ne => a.ne_bits(&b),
        Lt => a.lt_unsigned(&b),
        Le => a.le_unsigned(&b),
        Gt => a.gt_unsigned(&b),
        Ge => a.ge_unsigned(&b),
        Lts => a.lt_signed(&b),
        Les => a.le_signed(&b),
        Gts => a.gt_signed(&b),
        Ges => a.ge_signed(&b),
        LAnd | LOr | Shl | Shr | Ashr => unreachable!("handled above"),
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(Bits4),
    Op(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, ExprError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                out.push((Tok::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, start));
                i += 1;
            }
            '[' => {
                out.push((Tok::LBracket, start));
                i += 1;
            }
            ']' => {
                out.push((Tok::RBracket, start));
                i += 1;
            }
            '{' => {
                out.push((Tok::LBrace, start));
                i += 1;
            }
            '}' => {
                out.push((Tok::RBrace, start));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, start));
                i += 1;
            }
            ':' => {
                out.push((Tok::Colon, start));
                i += 1;
            }
            '0'..='9' => {
                // Number: decimal, 0x..., 0b..., or Verilog-sized
                // (8'hff), with x/z digits allowed (0bx1z0, 8'hxz).
                // Scan the maximal number-ish token and let
                // Bits4::parse validate.
                let mut j = i + 1;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '\'' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[i..j];
                let mut bits = Bits4::parse(text).map_err(|e| ExprError::Parse {
                    offset: start,
                    message: e.to_string(),
                })?;
                // Unsized known literals widen to 64 bits so debugger
                // arithmetic doesn't wrap at surprising widths;
                // Verilog-sized literals (8'hff) keep their exact
                // width, as do unsized x/z literals (widening would
                // invent known-0 high bits the user never wrote).
                if !text.contains('\'') && bits.is_fully_known() && bits.width() < 64 {
                    bits = bits.resize(64);
                }
                out.push((Tok::Num(bits), start));
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '$' || d == '.' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push((
                    Tok::Ident(input[i..j].trim_end_matches('.').to_owned()),
                    start,
                ));
                i = j;
            }
            _ => {
                // Operators, longest first.
                const OPS: &[&str] = &[
                    "<=$", ">=$", ">>>", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "<$",
                    ">$", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
                ];
                let rest = &input[i..];
                let Some(op) = OPS.iter().find(|op| rest.starts_with(**op)) else {
                    return Err(ExprError::Parse {
                        offset: start,
                        message: format!("unexpected character {c:?}"),
                    });
                };
                out.push((Tok::Op((*op).to_owned()), start));
                i += op.len();
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(_, o)| *o)
            .unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ExprError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn error(&self, message: String) -> ExprError {
        ExprError::Parse {
            offset: self.offset(),
            message,
        }
    }

    fn binding_power(op: &str) -> Option<(u8, BinOp)> {
        let r = match op {
            "||" => (1, BinOp::LOr),
            "&&" => (2, BinOp::LAnd),
            "|" => (3, BinOp::Or),
            "^" => (4, BinOp::Xor),
            "&" => (5, BinOp::And),
            "==" => (6, BinOp::Eq),
            "!=" => (6, BinOp::Ne),
            "<" => (7, BinOp::Lt),
            "<=" => (7, BinOp::Le),
            ">" => (7, BinOp::Gt),
            ">=" => (7, BinOp::Ge),
            "<$" => (7, BinOp::Lts),
            "<=$" => (7, BinOp::Les),
            ">$" => (7, BinOp::Gts),
            ">=$" => (7, BinOp::Ges),
            "<<" => (8, BinOp::Shl),
            ">>" => (8, BinOp::Shr),
            ">>>" => (8, BinOp::Ashr),
            "+" => (9, BinOp::Add),
            "-" => (9, BinOp::Sub),
            "*" => (10, BinOp::Mul),
            "/" => (10, BinOp::Div),
            "%" => (10, BinOp::Rem),
            _ => return None,
        };
        Some(r)
    }

    fn expr(&mut self, min_bp: u8) -> Result<DebugExpr, ExprError> {
        let mut lhs = self.unary()?;
        while let Some(Tok::Op(op)) = self.peek() {
            let Some((bp, bin)) = Self::binding_power(op) else {
                break;
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.expr(bp + 1)?;
            lhs = DebugExpr::Binary(bin, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<DebugExpr, ExprError> {
        if let Some(Tok::Op(op)) = self.peek() {
            let un = match op.as_str() {
                "~" => Some(UnOp::Not),
                "!" => Some(UnOp::LNot),
                "-" => Some(UnOp::Neg),
                "&" => Some(UnOp::RAnd),
                "|" => Some(UnOp::ROr),
                "^" => Some(UnOp::RXor),
                _ => None,
            };
            if let Some(un) = un {
                self.pos += 1;
                let e = self.unary()?;
                return self.postfix(DebugExpr::Unary(un, Box::new(e)));
            }
        }
        let atom = self.atom()?;
        self.postfix(atom)
    }

    fn postfix(&mut self, mut e: DebugExpr) -> Result<DebugExpr, ExprError> {
        while self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            let hi = self.index()?;
            let lo = if self.peek() == Some(&Tok::Colon) {
                self.pos += 1;
                self.index()?
            } else {
                hi
            };
            self.expect(&Tok::RBracket, "]")?;
            e = DebugExpr::Slice(Box::new(e), hi, lo);
        }
        Ok(e)
    }

    fn index(&mut self) -> Result<u32, ExprError> {
        match self.bump() {
            Some(Tok::Num(b)) => match b.to_known() {
                Some(k) => Ok(k.to_u64() as u32),
                None => Err(self.error("slice index must be fully known".into())),
            },
            _ => Err(self.error("expected index".into())),
        }
    }

    fn atom(&mut self) -> Result<DebugExpr, ExprError> {
        match self.bump() {
            Some(Tok::Num(b)) => Ok(DebugExpr::Lit(b)),
            Some(Tok::Ident(name)) => {
                if name == "mux" && self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let s = self.expr(0)?;
                    self.expect(&Tok::Comma, ",")?;
                    let t = self.expr(0)?;
                    self.expect(&Tok::Comma, ",")?;
                    let e = self.expr(0)?;
                    self.expect(&Tok::RParen, ")")?;
                    return Ok(DebugExpr::Mux(Box::new(s), Box::new(t), Box::new(e)));
                }
                Ok(DebugExpr::Ref(name))
            }
            Some(Tok::LParen) => {
                let e = self.expr(0)?;
                self.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::LBrace) => {
                let h = self.expr(0)?;
                self.expect(&Tok::Comma, ",")?;
                let l = self.expr(0)?;
                self.expect(&Tok::RBrace, "}")?;
                Ok(DebugExpr::Cat(Box::new(h), Box::new(l)))
            }
            _ => Err(self.error("expected expression".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve<'a>(pairs: &'a [(&'a str, u64, u32)]) -> impl Fn(&str) -> Option<Bits> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, v, w)| Bits::from_u64(*v, *w))
        }
    }

    fn eval(src: &str, pairs: &[(&str, u64, u32)]) -> u64 {
        DebugExpr::parse(src)
            .unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
            .eval(&resolve(pairs))
            .unwrap_or_else(|e| panic!("eval {src:?}: {e}"))
            .to_u64()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("1 + 2 * 3", &[]), 7);
        assert_eq!(eval("(1 + 2) * 3", &[]), 9);
        assert_eq!(eval("10 - 2 - 3", &[]), 5);
        assert_eq!(eval("7 % 4 + 1", &[]), 4);
        assert_eq!(eval("8 / 2", &[]), 4);
    }

    #[test]
    fn signals_and_dotted_paths() {
        let env = [("io.a", 5, 8), ("dcmp.io.signaling", 1, 1)];
        assert_eq!(eval("io.a + 1", &env), 6);
        assert_eq!(eval("dcmp.io.signaling == 1", &env), 1);
    }

    #[test]
    fn paper_enable_condition_shape() {
        // The paper's example enable: data[0] % 2 (§3.1).
        let env = [("data_0", 3, 8)];
        assert_eq!(eval("data_0 % 2", &env), 1);
        // IR-rendered form: (( data_0 % 8'h2) == 8'h1).
        assert_eq!(eval("((data_0 % 8'h2) == 8'h1)", &env), 1);
    }

    #[test]
    fn logical_vs_bitwise() {
        let env = [("a", 2, 4), ("b", 4, 4)];
        assert_eq!(eval("a && b", &env), 1);
        assert_eq!(eval("a & b", &env), 0);
        assert_eq!(eval("a || 0", &env), 1);
        assert_eq!(eval("!a", &env), 0);
        assert_eq!(eval("~(a)", &env) & 0xF, 0b1101);
    }

    #[test]
    fn comparisons_and_signed() {
        let env = [("x", 0xFF, 8), ("y", 1, 8)];
        assert_eq!(eval("x > y", &env), 1);
        assert_eq!(eval("x <$ y", &env), 1, "0xff is -1 signed");
        assert_eq!(eval("x >=$ y", &env), 0);
        assert_eq!(eval("x != y", &env), 1);
    }

    #[test]
    fn widths_are_lenient() {
        let env = [("wide", 0x100, 12), ("narrow", 1, 2)];
        assert_eq!(eval("wide + narrow", &env), 0x101);
        assert_eq!(eval("narrow == 1", &env), 1);
    }

    #[test]
    fn slices_and_cat() {
        let env = [("x", 0b1011_0110, 8)];
        assert_eq!(eval("x[3:0]", &env), 0b0110);
        assert_eq!(eval("x[7]", &env), 1);
        assert_eq!(eval("{x[3:0], x[7:4]}", &env), 0b0110_1011);
        assert_eq!(eval("x[5:1][0]", &env), 1);
    }

    #[test]
    fn reductions_and_mux() {
        let env = [("x", 0b111, 3), ("c", 0, 1)];
        assert_eq!(eval("&x", &env), 1);
        assert_eq!(eval("^x", &env), 1);
        assert_eq!(eval("|x", &env), 1);
        assert_eq!(eval("mux(c, 1, 2)", &env), 2);
    }

    #[test]
    fn shifts() {
        let env = [("x", 0x80, 8)];
        assert_eq!(eval("x >> 4", &env), 0x08);
        assert_eq!(eval("x >>> 4", &env), 0xF8);
        assert_eq!(eval("1 << 3", &env), 8);
    }

    #[test]
    fn verilog_literals() {
        assert_eq!(eval("8'hff", &[]), 0xFF);
        assert_eq!(eval("4'b1010", &[]), 0b1010);
        assert_eq!(eval("0xff + 1", &[]), 0x100);
    }

    #[test]
    fn parse_errors() {
        for bad in ["", "1 +", "(1", "mux(1,2)", "x[", "@", "{1}", "1 2"] {
            assert!(DebugExpr::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unresolved_reported() {
        let e = DebugExpr::parse("ghost + 1").unwrap();
        assert_eq!(
            e.eval(&|_| None).unwrap_err(),
            ExprError::Unresolved("ghost".into())
        );
    }

    #[test]
    fn refs_collected() {
        let e = DebugExpr::parse("a.b + c && a.b").unwrap();
        let refs = e.refs();
        assert_eq!(refs.len(), 2);
        assert!(refs.contains("a.b"));
    }

    #[test]
    fn ir_display_round_trip() {
        // Whatever the IR prints must parse back identically in value.
        use hgf_ir::expr::{BinaryOp, Expr};
        let ir = Expr::binary(
            BinaryOp::And,
            Expr::binary(
                BinaryOp::Eq,
                Expr::binary(BinaryOp::Rem, Expr::var("data_0"), Expr::lit(2, 8)),
                Expr::lit(1, 8),
            ),
            Expr::var("_cond_1"),
        );
        let text = ir.to_string();
        let parsed = DebugExpr::parse(&text).unwrap();
        let env = [("data_0", 5, 8), ("_cond_1", 1, 1)];
        assert_eq!(parsed.eval(&resolve(&env)).unwrap().to_u64(), 1);
    }

    #[test]
    fn bad_slice_reported() {
        let e = DebugExpr::parse("x[9:0]").unwrap();
        let env = [("x", 1, 4)];
        assert!(matches!(e.eval(&resolve(&env)), Err(ExprError::Invalid(_))));
    }

    // ---- four-state evaluation ----

    fn resolve4<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<Bits4> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, lit)| Bits4::parse(lit).expect("test literal"))
        }
    }

    fn eval4(src: &str, pairs: &[(&str, &str)]) -> Bits4 {
        DebugExpr::parse(src)
            .unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
            .eval4(&resolve4(pairs))
            .unwrap_or_else(|e| panic!("eval4 {src:?}: {e}"))
    }

    #[test]
    fn four_state_literals_parse_and_round_trip() {
        // Breakpoint conditions are stored as text and re-parsed; the
        // literal a user types must survive display → parse unchanged.
        for lit in ["4'bx1z0", "8'hxz", "32'hxxxx_beef", "8'dx"] {
            let v = eval4(lit, &[]);
            let rendered = v.to_literal();
            let back = eval4(&rendered, &[]);
            assert_eq!(v, back, "{lit} -> {rendered} must round-trip");
        }
        assert_eq!(
            eval4("0bx1z0", &[]).width(),
            4,
            "unsized x literal keeps width"
        );
        assert_eq!(eval4("0bx1z0", &[]).to_literal(), "4'bx1z0");
    }

    #[test]
    fn four_state_known_dominance() {
        // Known-0 beats x through &, known-1 through |.
        assert!(eval4("sig & 8'h00", &[("sig", "8'hxx")]).value().is_zero());
        assert!(eval4("sig & 8'h00", &[("sig", "8'hxx")]).is_fully_known());
        let or = eval4("sig | 8'hff", &[("sig", "8'hxx")]);
        assert_eq!(or.to_known().unwrap().to_u64(), 0xFF);
        // Logical short-circuit: 0 && x is known false, 1 || x known true.
        assert_eq!(
            eval4("0 && sig", &[("sig", "1'bx")]).truthiness(),
            Some(false)
        );
        assert_eq!(
            eval4("1 || sig", &[("sig", "1'bx")]).truthiness(),
            Some(true)
        );
        assert_eq!(eval4("1 && sig", &[("sig", "1'bx")]).truthiness(), None);
    }

    #[test]
    fn four_state_comparisons_and_mux() {
        // A comparison decided by mutually-known bits stays known even
        // with x elsewhere (usable breakpoint conditions pre-reset).
        let v = eval4("sig == 8'h0f", &[("sig", "8'hx0")]);
        assert_eq!(v.truthiness(), Some(false), "low nibble 0 != f decides it");
        // Undecided comparison goes x — so a breakpoint condition over
        // an unreset register does NOT fire.
        let v = eval4("sig == 8'hff", &[("sig", "8'hxf")]);
        assert_eq!(v.truthiness(), None);
        assert!(!v.is_truthy_known());
        // x select merges arms: agreeing bits survive.
        let m = eval4("mux(c, 4'b1010, 4'b1011)", &[("c", "1'bx")]);
        assert_eq!(m.to_literal(), "4'b101x");
    }

    #[test]
    fn two_state_eval_rejects_unknown_results() {
        // The set_value path parses literals with the two-state eval: a
        // value that still has x/z bits must be an error, not silently
        // coerced (x reads as 1 in the value plane).
        let e = DebugExpr::parse("8'hxz").unwrap();
        assert!(matches!(e.eval(&|_| None), Err(ExprError::Invalid(_))));
        // But x that gets masked away is fine.
        let e = DebugExpr::parse("8'hxz & 8'h00").unwrap();
        assert_eq!(e.eval(&|_| None).unwrap().to_u64(), 0);
    }

    #[test]
    fn four_state_slice_cat_and_reductions() {
        let env = [("sig", "8'bx1z0_1010")];
        assert_eq!(eval4("sig[3:0]", &env).to_literal(), "4'ha");
        assert_eq!(eval4("sig[7:4]", &env).to_literal(), "4'bx1z0");
        assert_eq!(eval4("{sig[3:0], 4'hx}", &env).to_literal(), "8'hax");
        assert_eq!(eval4("&sig", &env).truthiness(), Some(false), "known 0 bit");
        assert_eq!(eval4("|sig", &env).truthiness(), Some(true), "known 1 bit");
        assert_eq!(eval4("^sig", &env).truthiness(), None);
        // An x slice index is a parse error, not a silent bit pick.
        assert!(DebugExpr::parse("sig[4'hx]").is_err());
    }

    #[test]
    fn bound_expressions_evaluate_like_parsed_ones() {
        let env = [("a", 5, 8), ("b", 3, 8), ("top.c", 1, 1)];
        let read = resolve(&env);
        for src in [
            "a + b * 2",
            "mux(top.c, a, b) == a",
            "{a[3:0], b[3:0]} ^ a",
            "!(a < b) && |b",
            "a - a + b",
        ] {
            let e = DebugExpr::parse(src).unwrap();
            let mut resolved = Vec::new();
            let bound = e.bind(|name| {
                resolved.push(name.to_owned());
                name.len()
            });
            let distinct: BTreeSet<String> = resolved.iter().cloned().collect();
            assert_eq!(
                resolved.len(),
                distinct.len(),
                "{src}: each name bound once"
            );
            assert_eq!(distinct, e.refs(), "{src}");
            let got = bound.eval4(&|name, len| {
                assert_eq!(name.len(), *len, "{src}: {name} read with its own binding");
                read(name).map(Bits4::known)
            });
            let want = e.eval4(&|name| read(name).map(Bits4::known));
            assert_eq!(got, want, "{src}");
        }
        let e = DebugExpr::parse("a + ghost").unwrap();
        assert_eq!(
            e.bind(|_| ())
                .eval4(&|name, _| read(name).map(Bits4::known)),
            Err(ExprError::Unresolved("ghost".into()))
        );
    }
}
