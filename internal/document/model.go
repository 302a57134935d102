// Package document models the semi-structured input text of AggChecker: a
// hierarchy of sections with headlines, containing paragraphs of sentences
// (§2 of the paper, Figure 4). It parses HTML-lite markup, tokenizes
// sentences, and detects check-worthy claims — numbers that plausibly state
// an aggregate query result.
package document

import (
	"sync"

	"aggchecker/internal/nlp"
)

// Document is a parsed input text.
type Document struct {
	Title     string
	Root      *Section    // the section tree root (level 0, no headline)
	Sentences []*Sentence // all sentences in reading order
	Claims    []*Claim    // detected check-worthy claims, in reading order
}

// Section is a node of the document hierarchy. The root section has no
// headline; subsections correspond to h1…h6 (or nested heading levels).
type Section struct {
	Headline   string
	Level      int
	Parent     *Section
	Children   []*Section
	Paragraphs []*Paragraph

	headlineOnce   sync.Once
	headlineTokens []nlp.Token
}

// HeadlineTokens returns the tokenized headline, built on first use. Safe
// for concurrent use: one parsed document may be checked by several
// goroutines at once.
func (s *Section) HeadlineTokens() []nlp.Token {
	s.headlineOnce.Do(func() {
		if s.Headline != "" {
			s.headlineTokens = nlp.Tokenize(s.Headline)
		}
	})
	return s.headlineTokens
}

// Ancestors returns the chain of enclosing sections from the immediate
// parent to the root, including the receiver itself first (Algorithm 2
// walks this chain to collect headline keywords).
func (s *Section) Ancestors() []*Section {
	var out []*Section
	for cur := s; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// Paragraph is a sequence of sentences within one section.
type Paragraph struct {
	Section   *Section
	Sentences []*Sentence
}

// Sentence is a tokenized sentence with its heuristic phrase tree.
type Sentence struct {
	Text        string
	Tokens      []nlp.Token
	Paragraph   *Paragraph
	IndexInPara int
	GlobalIndex int

	treeOnce sync.Once
	tree     *nlp.PhraseTree
}

// Tree returns the phrase tree of the sentence, built on first use. Safe
// for concurrent use, like HeadlineTokens.
func (s *Sentence) Tree() *nlp.PhraseTree {
	s.treeOnce.Do(func() { s.tree = nlp.BuildPhraseTree(s.Tokens) })
	return s.tree
}

// Prev returns the preceding sentence in the same paragraph, or nil.
func (s *Sentence) Prev() *Sentence {
	if s.IndexInPara == 0 {
		return nil
	}
	return s.Paragraph.Sentences[s.IndexInPara-1]
}

// First returns the first sentence of the paragraph.
func (s *Sentence) First() *Sentence { return s.Paragraph.Sentences[0] }

// Claim is a detected check-worthy numeric mention (Definition 1): the
// claimed result of some aggregate query on the associated database.
type Claim struct {
	ID         int
	Sentence   *Sentence
	TokenIndex int // index of the number token within the sentence
	// TokenSpan is the number of tokens the numeric mention covers (2 for
	// "1.5 million"-style magnitude pairs, otherwise 1).
	TokenSpan int
	Claimed   nlp.ParsedNumber
}

// Text returns the surface form of the claimed value.
func (c *Claim) Text() string { return c.Claimed.Text }
