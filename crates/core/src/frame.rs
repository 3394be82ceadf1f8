//! Stack-frame reconstruction (§3.2 step 3, Figure 4 A).
//!
//! When a breakpoint hits, hgdb rebuilds a source-level frame from the
//! symbol table and live signal values: scoped locals (with their
//! SSA-version-correct mapping) and the instance's generator
//! variables, re-aggregated from flattened RTL signals into the
//! structured form the generator declared ("hgdb has the ability to
//! reconstruct structured variables from a list of flattened RTL
//! signals", §4.2 — the `PortBundle` of the FPU case study).

use bits::Bits4;

/// A (possibly structured) variable in a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct VarNode {
    /// Field name at this level (`io`, `out`, …).
    pub name: String,
    /// Leaf value, four-state so pre-reset frames show `x` digits;
    /// `None` for interior nodes and unavailable signals. Two-state
    /// backends always produce fully-known values here.
    pub value: Option<Bits4>,
    /// Child fields (bundle members).
    pub children: Vec<VarNode>,
}

impl VarNode {
    /// Finds a child by name.
    pub fn child(&self, name: &str) -> Option<&VarNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Resolves a dotted path below this node.
    pub fn lookup(&self, path: &str) -> Option<&VarNode> {
        let mut node = self;
        for seg in path.split('.') {
            node = node.child(seg)?;
        }
        Some(node)
    }

    /// Renders the tree as indented text (for the gdb-style CLI).
    pub fn render(&self, indent: usize, out: &mut String) {
        out.push_str(&" ".repeat(indent));
        out.push_str(&self.name);
        if let Some(v) = &self.value {
            match v.to_known() {
                Some(k) => out.push_str(&format!(" = {k} ({}'h{k:x})", k.width())),
                // The sized literal already carries the width and the
                // x/z digits; a hex echo would lose them.
                None => out.push_str(&format!(" = {}", v.to_literal())),
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render(indent + 2, out);
        }
    }
}

/// A reconstructed stack frame for one hit breakpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The breakpoint's symbol-table id.
    pub breakpoint_id: i64,
    /// Hierarchical instance path (the "thread", Figure 4 B).
    pub instance: String,
    /// Source file.
    pub filename: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Scoped locals: source name → value (SSA-version-correct,
    /// Listing 2 semantics), four-state so unresolved signals render
    /// as `x`. `None` values were unavailable in the backend (e.g. not
    /// recorded in a replay trace).
    pub locals: Vec<(String, Option<Bits4>)>,
    /// Generator variables of the owning instance, structured.
    pub generator: Vec<VarNode>,
}

impl Frame {
    /// Looks up a local by name.
    pub fn local(&self, name: &str) -> Option<&Bits4> {
        self.locals
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_ref())
    }

    /// Looks up a generator variable by dotted path.
    pub fn generator_var(&self, path: &str) -> Option<&Bits4> {
        let (head, rest) = match path.split_once('.') {
            Some((h, r)) => (h, Some(r)),
            None => (path, None),
        };
        let root = self.generator.iter().find(|n| n.name == head)?;
        let node = match rest {
            Some(rest) => root.lookup(rest)?,
            None => root,
        };
        node.value.as_ref()
    }

    /// Renders the frame as text for terminal debuggers.
    pub fn render(&self) -> String {
        let mut out = format!(
            "#{} {} at {}:{}:{}\n",
            self.breakpoint_id, self.instance, self.filename, self.line, self.col
        );
        if !self.locals.is_empty() {
            out.push_str("  locals:\n");
            for (name, value) in &self.locals {
                match value {
                    Some(v) => out.push_str(&format!("    {name} = {v}\n")),
                    None => out.push_str(&format!("    {name} = <unavailable>\n")),
                }
            }
        }
        if !self.generator.is_empty() {
            out.push_str("  generator variables:\n");
            for node in &self.generator {
                node.render(4, &mut out);
            }
        }
        out
    }
}

/// Re-aggregates flat `(dotted name, value)` pairs into a forest of
/// structured variables.
pub fn build_var_tree(vars: &[(String, Option<Bits4>)]) -> Vec<VarNode> {
    VarTemplate::new(
        vars.iter()
            .enumerate()
            .map(|(i, (name, _))| (name.as_str(), i)),
    )
    .fill(&|i| vars[i].1.clone())
}

/// The shape of a structured-variable forest, with the source of each
/// named node's value: [`build_var_tree`] without the values. The
/// runtime builds one per instance at attach, so a stop only reads the
/// values into a copy.
#[derive(Debug, Default)]
pub(crate) struct VarTemplate(Vec<TemplateNode>);

#[derive(Debug)]
struct TemplateNode {
    name: String,
    /// Where the value comes from; the last variable of this name wins.
    source: Option<usize>,
    children: Vec<TemplateNode>,
}

impl VarTemplate {
    /// Shapes `(dotted name, value source)` pairs into a forest.
    pub(crate) fn new<'a>(vars: impl IntoIterator<Item = (&'a str, usize)>) -> VarTemplate {
        let mut roots = Vec::new();
        for (name, source) in vars {
            let mut nodes = &mut roots;
            let mut segments = name.split('.').peekable();
            while let Some(segment) = segments.next() {
                let i = match nodes.iter().position(|n: &TemplateNode| n.name == segment) {
                    Some(i) => i,
                    None => {
                        nodes.push(TemplateNode {
                            name: segment.to_owned(),
                            source: None,
                            children: Vec::new(),
                        });
                        nodes.len() - 1
                    }
                };
                if segments.peek().is_none() {
                    nodes[i].source = Some(source);
                }
                nodes = &mut nodes[i].children;
            }
        }
        VarTemplate(roots)
    }

    /// The forest with each named node's value read from its source.
    pub(crate) fn fill(&self, read: &dyn Fn(usize) -> Option<Bits4>) -> Vec<VarNode> {
        fill(&self.0, read)
    }
}

fn fill(nodes: &[TemplateNode], read: &dyn Fn(usize) -> Option<Bits4>) -> Vec<VarNode> {
    nodes
        .iter()
        .map(|n| VarNode {
            name: n.name.clone(),
            value: n.source.and_then(read),
            children: fill(&n.children, read),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bits::Bits;

    fn v(x: u64, w: u32) -> Option<Bits4> {
        Some(Bits4::known(Bits::from_u64(x, w)))
    }

    #[test]
    fn flat_variables_stay_flat() {
        let tree = build_var_tree(&[("count".into(), v(3, 8)), ("en".into(), v(1, 1))]);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "count");
        assert_eq!(tree[0].value.as_ref().unwrap().value().to_u64(), 3);
        assert!(tree[0].children.is_empty());
    }

    #[test]
    fn bundles_reaggregate() {
        // The FPU case study's dcmp.io bundle (§4.2): flattened RTL
        // signals come back as a structured PortBundle.
        let tree = build_var_tree(&[
            ("io.a".into(), v(1, 8)),
            ("io.b".into(), v(2, 8)),
            ("io.signaling".into(), v(1, 1)),
            ("io.lt".into(), v(0, 1)),
        ]);
        assert_eq!(tree.len(), 1);
        let io = &tree[0];
        assert_eq!(io.name, "io");
        assert!(io.value.is_none());
        assert_eq!(io.children.len(), 4);
        assert_eq!(
            io.child("signaling")
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .value()
                .to_u64(),
            1
        );
        assert_eq!(
            io.lookup("a")
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .value()
                .to_u64(),
            1
        );
    }

    #[test]
    fn deep_nesting() {
        let tree = build_var_tree(&[
            ("dcmp.io.a".into(), v(7, 4)),
            ("dcmp.io.b".into(), v(9, 4)),
            ("dcmp.valid".into(), v(1, 1)),
        ]);
        assert_eq!(tree.len(), 1);
        let dcmp = &tree[0];
        assert_eq!(
            dcmp.lookup("io.a")
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .value()
                .to_u64(),
            7
        );
        assert_eq!(
            dcmp.lookup("valid")
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .value()
                .to_u64(),
            1
        );
        assert!(dcmp.lookup("io.ghost").is_none());
    }

    #[test]
    fn unknown_values_render_as_literals() {
        // A pre-reset frame shows x digits instead of a bogus number.
        let frame = Frame {
            breakpoint_id: 1,
            instance: "top".into(),
            filename: "gen.rs".into(),
            line: 3,
            col: 1,
            locals: vec![("count".into(), Some(Bits4::all_x(8)))],
            generator: build_var_tree(&[("io.word".into(), Some(Bits4::parse("8'hxf").unwrap()))]),
        };
        let text = frame.render();
        assert!(text.contains("count = 8'hxx"), "render:\n{text}");
        let mut tree_text = String::new();
        frame.generator[0].render(0, &mut tree_text);
        assert!(tree_text.contains("word = 8'hxf"), "render:\n{tree_text}");
    }

    #[test]
    fn interior_values_and_repeated_names() {
        // A name that is both a leaf and a bundle keeps its value and
        // its fields; a repeated name takes the last value.
        let tree = build_var_tree(&[
            ("io".into(), v(1, 4)),
            ("io.a".into(), v(2, 4)),
            ("io".into(), v(3, 4)),
        ]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].value.as_ref().unwrap().value().to_u64(), 3);
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(
            tree[0].children[0].value.as_ref().unwrap().value().to_u64(),
            2
        );
    }

    #[test]
    fn unavailable_values() {
        let tree = build_var_tree(&[("x".into(), None)]);
        assert!(tree[0].value.is_none());
    }

    #[test]
    fn frame_lookups_and_render() {
        let frame = Frame {
            breakpoint_id: 4,
            instance: "top.fpu".into(),
            filename: "fpu.rs".into(),
            line: 42,
            col: 9,
            locals: vec![("sum".into(), v(12, 8)), ("gone".into(), None)],
            generator: build_var_tree(&[("io.out".into(), v(3, 4)), ("toint".into(), v(9, 8))]),
        };
        assert_eq!(frame.local("sum").unwrap().value().to_u64(), 12);
        assert!(frame.local("gone").is_none());
        assert!(frame.local("ghost").is_none());
        assert_eq!(frame.generator_var("io.out").unwrap().value().to_u64(), 3);
        assert_eq!(frame.generator_var("toint").unwrap().value().to_u64(), 9);
        let text = frame.render();
        assert!(text.contains("top.fpu at fpu.rs:42:9"));
        assert!(text.contains("sum = 12"));
        assert!(text.contains("<unavailable>"));
        assert!(text.contains("io"));
    }
}
