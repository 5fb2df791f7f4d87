//! Scores `paris align --sameas` output against the generated gold
//! standard.

use std::collections::{HashMap, HashSet};

use crate::nt;

const OWL_SAME_AS: &str = "<http://www.w3.org/2002/07/owl#sameAs>";

/// Reads a gold file: one `left TAB right` IRI pair per line, `#`
/// comments and blank lines skipped.
pub fn read_gold(text: &str) -> Result<HashMap<String, String>, String> {
    let mut gold = HashMap::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (left, right) = line
            .split_once('\t')
            .ok_or_else(|| format!("gold line {}: expected two tab-separated IRIs", number + 1))?;
        gold.insert(left.trim().to_owned(), right.trim().to_owned());
    }
    Ok(gold)
}

/// How one links file scored.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Score {
    /// Lines that are well-formed `owl:sameAs` links between known IRIs.
    pub links: usize,
    /// Links whose pair is in the gold standard.
    pub correct: usize,
    /// Pairs in the gold standard.
    pub gold: usize,
    /// Lines that do not parse, are not `owl:sameAs`, or name an IRI
    /// absent from the input KBs.
    pub bad_lines: usize,
}

impl Score {
    /// Correct links over all links emitted.
    pub fn precision(&self) -> f64 {
        self.correct as f64 / self.links.max(1) as f64
    }

    /// Correct links over all gold pairs.
    pub fn recall(&self) -> f64 {
        self.correct as f64 / self.gold.max(1) as f64
    }
}

/// Scores a links file. Every non-blank line must be a sameAs link from
/// an IRI of `left` to one of `right`.
pub fn score_links(
    links: &str,
    gold: &HashMap<String, String>,
    left: &HashSet<String>,
    right: &HashSet<String>,
) -> Score {
    let mut score = Score {
        gold: gold.len(),
        ..Score::default()
    };
    for line in links.lines().filter(|l| !l.trim().is_empty()) {
        let Some(t) = nt::split(line) else {
            score.bad_lines += 1;
            continue;
        };
        let (a, b) = (nt::unbracket(t.subject), nt::unbracket(t.object));
        if t.predicate != OWL_SAME_AS
            || !t.object.starts_with('<')
            || !left.contains(a)
            || !right.contains(b)
        {
            score.bad_lines += 1;
            continue;
        }
        score.links += 1;
        if gold.get(a).is_some_and(|g| g == b) {
            score.correct += 1;
        }
    }
    score
}

/// Scores served sameas answers: one `(left IRI, best match)` per
/// instance asked about, `None` where the daemon answered `null`.
pub fn score_answers<'a>(
    answers: impl IntoIterator<Item = (&'a str, Option<&'a str>)>,
    gold: &HashMap<String, String>,
) -> Score {
    let mut score = Score {
        gold: gold.len(),
        ..Score::default()
    };
    for (left, right) in answers {
        let Some(right) = right else { continue };
        score.links += 1;
        if gold.get(left).is_some_and(|g| g == right) {
            score.correct += 1;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn precision_and_recall_on_a_hand_built_gold_file() {
        let gold = read_gold(
            "# gold standard: <left IRI> TAB <right IRI>\n\
             http://l/1\thttp://r/1\nhttp://l/2\thttp://r/2\n\n\
             http://l/3\thttp://r/3\nhttp://l/4\thttp://r/4\n",
        )
        .expect("valid gold");
        assert_eq!(gold.len(), 4);
        let left = set(&[
            "http://l/1",
            "http://l/2",
            "http://l/3",
            "http://l/4",
            "http://l/5",
        ]);
        let right = set(&[
            "http://r/1",
            "http://r/2",
            "http://r/3",
            "http://r/4",
            "http://r/9",
        ]);
        let links = "\
<http://l/1> <http://www.w3.org/2002/07/owl#sameAs> <http://r/1> .
<http://l/2> <http://www.w3.org/2002/07/owl#sameAs> <http://r/3> .
<http://l/3> <http://www.w3.org/2002/07/owl#sameAs> <http://r/3> .
<http://l/5> <http://www.w3.org/2002/07/owl#sameAs> <http://r/9> .
";
        let s = score_links(links, &gold, &left, &right);
        assert_eq!(s.links, 4);
        assert_eq!(s.correct, 2);
        assert_eq!(s.bad_lines, 0);
        assert_eq!(s.precision(), 0.5);
        assert_eq!(s.recall(), 0.5);
    }

    #[test]
    fn malformed_and_unknown_links_are_counted() {
        let gold = read_gold("http://l/1\thttp://r/1\n").expect("valid gold");
        let left = set(&["http://l/1"]);
        let right = set(&["http://r/1"]);
        let links = "\
<http://l/1> <http://www.w3.org/2002/07/owl#sameAs> <http://r/1> .
<http://l/1> <http://www.w3.org/2002/07/owl#sameAs> <http://r/unknown> .
<http://l/1> <http://example.org/other> <http://r/1> .
not a triple
";
        let s = score_links(links, &gold, &left, &right);
        assert_eq!((s.links, s.correct, s.bad_lines), (1, 1, 3));
        assert_eq!((s.precision(), s.recall()), (1.0, 1.0));
        assert!(read_gold("no tab here\n").is_err());
    }

    #[test]
    fn served_answers_score_like_links() {
        let gold =
            read_gold("http://l/1\thttp://r/1\nhttp://l/2\thttp://r/2\n").expect("valid gold");
        let answers = [
            ("http://l/1", Some("http://r/1")),
            ("http://l/2", None),
            ("http://l/3", Some("http://r/3")),
        ];
        let s = score_answers(answers, &gold);
        assert_eq!((s.links, s.correct, s.gold), (2, 1, 2));
        assert_eq!((s.precision(), s.recall()), (0.5, 0.5));
    }
}
