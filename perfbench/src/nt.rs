//! Line-level reading of the generated N-Triples files: one triple per
//! line, `<s> <p> <o> .` or `<s> <p> "literal" .`. The benchmark reads
//! the files this way, independently of the program's parser, to build
//! its request pool, its deltas and its correctness checks.

pub const RDF_TYPE: &str = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
const SCHEMA_PREDICATES: [&str; 3] = [
    RDF_TYPE,
    "<http://www.w3.org/2000/01/rdf-schema#subClassOf>",
    "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>",
];

/// One triple as written: subject and predicate with their angle
/// brackets, the object term verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line<'a> {
    pub subject: &'a str,
    pub predicate: &'a str,
    pub object: &'a str,
}

impl Line<'_> {
    pub fn has_literal_object(&self) -> bool {
        self.object.starts_with('"')
    }

    /// Whether the triple is a fact (not typing or schema).
    pub fn is_fact(&self) -> bool {
        !SCHEMA_PREDICATES.contains(&self.predicate)
    }
}

/// Splits one N-Triples line; `None` for blank lines, comments and
/// anything not shaped like a triple.
pub fn split(line: &str) -> Option<Line<'_>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (subject, rest) = line.split_once(' ')?;
    let (predicate, rest) = rest.split_once(' ')?;
    let object = rest.strip_suffix('.')?.trim_end();
    let iri = |t: &str| t.len() > 2 && t.starts_with('<') && t.ends_with('>');
    (iri(subject) && iri(predicate) && !object.is_empty()).then_some(Line {
        subject,
        predicate,
        object,
    })
}

/// The IRI inside `<…>`.
pub fn unbracket(term: &str) -> &str {
    term.trim_start_matches('<').trim_end_matches('>')
}

/// Every line of `text` that splits as a triple.
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    text.lines().filter_map(split)
}

/// Typed subjects (instances) in first-seen order, without brackets,
/// split into ordinary instances and hubs: instances that are the object
/// of more than `max_in` facts.
pub fn instances(text: &str, max_in: usize) -> (Vec<String>, Vec<String>) {
    let mut incoming: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for l in lines(text).filter(|l| l.is_fact() && l.object.starts_with('<')) {
        *incoming.entry(l.object).or_default() += 1;
    }
    let mut seen = std::collections::HashSet::new();
    let (hubs, ordinary): (Vec<&str>, Vec<&str>) = lines(text)
        .filter(|l| l.predicate == RDF_TYPE && seen.insert(l.subject))
        .map(|l| l.subject)
        .partition(|s| incoming.get(s).copied().unwrap_or(0) > max_in);
    let owned = |v: Vec<&str>| v.into_iter().map(|s| unbracket(s).to_owned()).collect();
    (owned(ordinary), owned(hubs))
}

/// Every IRI the file names as subject or IRI object.
pub fn iris(text: &str) -> std::collections::HashSet<String> {
    let mut out = std::collections::HashSet::new();
    for l in lines(text) {
        out.insert(unbracket(l.subject).to_owned());
        if l.object.starts_with('<') {
            out.insert(unbracket(l.object).to_owned());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_iri_and_literal_triples() {
        let l = split("<http://a/s> <http://a/p> <http://a/o> .").expect("triple");
        assert_eq!(l.object, "<http://a/o>");
        assert!(!l.has_literal_object());
        let l = split("<http://a/s> <http://a/p> \"two words\"@en .").expect("triple");
        assert_eq!(l.object, "\"two words\"@en");
        assert!(l.has_literal_object() && l.is_fact());
        assert_eq!(split("# comment"), None);
        assert_eq!(split("<http://a/s> <http://a/p>"), None);
    }

    #[test]
    fn instances_are_typed_subjects_in_file_order_hubs_apart() {
        let text = format!(
            "<http://a/x> {RDF_TYPE} <http://a/C> .\n<http://a/y> <http://a/p> \"v\" .\n\
             <http://a/w> {RDF_TYPE} <http://a/C> .\n<http://a/x> {RDF_TYPE} <http://a/D> .\n"
        );
        let none: Vec<String> = Vec::new();
        assert_eq!(
            instances(&text, 1),
            (vec!["http://a/x".to_owned(), "http://a/w".to_owned()], none)
        );
        let hub = format!("{text}<http://a/y> <http://a/p> <http://a/x> .\n<http://a/z> <http://a/p> <http://a/x> .\n");
        assert_eq!(
            instances(&hub, 1),
            (vec!["http://a/w".to_owned()], vec!["http://a/x".to_owned()])
        );
        assert!(iris(&text).contains("http://a/y"));
        assert!(iris(&text).contains("http://a/C"));
    }
}
