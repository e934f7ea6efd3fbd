//! The XML node tree.

use std::fmt;

/// One XML node: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    Element(Element),
    Text(String),
}

impl XmlNode {
    /// Shorthand for a text node.
    pub fn text(s: impl Into<String>) -> XmlNode {
        XmlNode::Text(s.into())
    }

    /// Shorthand for an element node.
    pub fn elem(e: Element) -> XmlNode {
        XmlNode::Element(e)
    }

    /// This node as an element, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        }
    }

    /// Mutable element view.
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        }
    }

    /// Concatenated text content of this subtree.
    pub fn text_content(&self) -> String {
        match self {
            XmlNode::Text(s) => s.clone(),
            XmlNode::Element(e) => e.text_content(),
        }
    }

    /// Serialize without extra whitespace.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            XmlNode::Text(s) => push_escaped(out, s, false),
            XmlNode::Element(e) => e.write(out, indent, depth),
        }
    }
}

/// An XML element: name, attributes, ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    pub name: String,
    pub attributes: Vec<(String, String)>,
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Empty element.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder: add a child node.
    pub fn with_child(mut self, child: XmlNode) -> Element {
        self.children.push(child);
        self
    }

    /// Builder: add a child element holding a single text node.
    pub fn with_text_child(self, name: impl Into<String>, text: impl Into<String>) -> Element {
        self.with_child(XmlNode::Element(
            Element::new(name).with_child(XmlNode::text(text)),
        ))
    }

    /// Attribute lookup.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        match self.attributes.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.attributes.push((name, value)),
        }
    }

    /// Child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Text of the first child element with the given name.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.child(name).map(Element::text_content)
    }

    /// Concatenated descendant text.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            match c {
                XmlNode::Text(s) => out.push_str(s),
                XmlNode::Element(e) => out.push_str(&e.text_content()),
            }
        }
        out
    }

    /// Replace all children with a single text node.
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.children = vec![XmlNode::text(text)];
    }

    /// Number of child *elements*.
    pub fn element_count(&self) -> usize {
        self.child_elements().count()
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        pad(out, depth);
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attributes {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            push_escaped(out, v, true);
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            if indent.is_some() {
                out.push('\n');
            }
            return;
        }
        out.push('>');
        let only_text = self.children.iter().all(|c| matches!(c, XmlNode::Text(_)));
        if only_text {
            for c in &self.children {
                if let XmlNode::Text(s) = c {
                    push_escaped(out, s, false);
                }
            }
        } else {
            if indent.is_some() {
                out.push('\n');
            }
            for c in &self.children {
                c.write(out, indent, depth + 1);
            }
            pad(out, depth);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
        if indent.is_some() {
            out.push('\n');
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        f.write_str(&s)
    }
}

/// Append `s` to `out` with `&`, `<` and `>` (and, in an attribute
/// value, `"`) replaced by their entities; unescaped runs are copied as
/// slices.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("RowSet")
            .with_attr("table", "Orders")
            .with_child(XmlNode::Element(
                Element::new("Row")
                    .with_text_child("ItemId", "widget")
                    .with_text_child("Quantity", "15"),
            ))
            .with_child(XmlNode::Element(
                Element::new("Row").with_text_child("ItemId", "gadget"),
            ))
    }

    #[test]
    fn navigation() {
        let e = sample();
        assert_eq!(e.attr("table"), Some("Orders"));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.element_count(), 2);
        assert_eq!(e.children_named("Row").count(), 2);
        let row = e.child("Row").unwrap();
        assert_eq!(row.child_text("ItemId").as_deref(), Some("widget"));
        assert_eq!(row.child_text("Quantity").as_deref(), Some("15"));
    }

    #[test]
    fn text_content_concatenates() {
        let e = Element::new("a")
            .with_child(XmlNode::text("x"))
            .with_child(XmlNode::Element(
                Element::new("b").with_child(XmlNode::text("y")),
            ));
        assert_eq!(e.text_content(), "xy");
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a").with_attr("k", "1");
        e.set_attr("k", "2");
        e.set_attr("j", "3");
        assert_eq!(e.attr("k"), Some("2"));
        assert_eq!(e.attr("j"), Some("3"));
        assert_eq!(e.attributes.len(), 2);
    }

    #[test]
    fn set_text_replaces_children() {
        let mut e = sample();
        e.set_text("gone");
        assert_eq!(e.children.len(), 1);
        assert_eq!(e.text_content(), "gone");
    }

    #[test]
    fn serialization_escapes() {
        let e = Element::new("a")
            .with_attr("q", "say \"hi\" & <bye>")
            .with_child(XmlNode::text("1 < 2 & 3 > 2"));
        let xml = XmlNode::Element(e).to_xml();
        assert!(xml.contains("&quot;hi&quot;"));
        assert!(xml.contains("1 &lt; 2 &amp; 3 &gt; 2"));
    }

    /// `to_xml` and `to_pretty_xml` output is part of the dehydrated
    /// state and of every XML-typed column, so it is pinned byte for byte.
    #[test]
    fn serialization_golden() {
        let quoted = Element::new("a")
            .with_attr("q", "say \"hi\" & <bye> 'x'")
            .with_attr("empty", "")
            .with_child(XmlNode::text("1 < 2 & 3 > 2 \"q\" 'a'"));
        let mixed = Element::new("p")
            .with_attr("k", "v&w")
            .with_child(XmlNode::text("a & b "))
            .with_child(XmlNode::Element(
                Element::new("b").with_child(XmlNode::text("<x>")),
            ))
            .with_child(XmlNode::text(" 'tail' \"q\""))
            .with_child(XmlNode::Element(Element::new("br").with_attr("x", "1>0")))
            .with_child(XmlNode::Element(Element::new("i").with_child(
                XmlNode::Element(Element::new("j").with_attr("n", "\"&\"")),
            )));
        let golden = [
            (
                quoted,
                "<a q=\"say &quot;hi&quot; &amp; &lt;bye&gt; 'x'\" empty=\"\">\
                 1 &lt; 2 &amp; 3 &gt; 2 \"q\" 'a'</a>",
                "<a q=\"say &quot;hi&quot; &amp; &lt;bye&gt; 'x'\" empty=\"\">\
                 1 &lt; 2 &amp; 3 &gt; 2 \"q\" 'a'</a>\n",
            ),
            (
                mixed,
                "<p k=\"v&amp;w\">a &amp; b <b>&lt;x&gt;</b> 'tail' \"q\"\
                 <br x=\"1&gt;0\"/><i><j n=\"&quot;&amp;&quot;\"/></i></p>",
                "<p k=\"v&amp;w\">\na &amp; b   <b>&lt;x&gt;</b>\n 'tail' \"q\"  \
                 <br x=\"1&gt;0\"/>\n  <i>\n    <j n=\"&quot;&amp;&quot;\"/>\n  </i>\n</p>\n",
            ),
        ];
        for (e, xml, pretty) in golden {
            let node = XmlNode::Element(e.clone());
            assert_eq!(node.to_xml(), xml);
            assert_eq!(node.to_pretty_xml(), pretty);
            assert_eq!(e.to_string(), xml);
            assert_eq!(crate::parse(xml).unwrap(), e, "{xml}");
        }
    }

    #[test]
    fn self_closing_when_empty() {
        assert_eq!(XmlNode::Element(Element::new("e")).to_xml(), "<e/>");
    }

    #[test]
    fn pretty_print_has_structure() {
        let xml = XmlNode::Element(sample()).to_pretty_xml();
        assert!(xml.contains("\n  <Row>"));
        assert!(xml.starts_with("<RowSet"));
    }
}
