package document

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// TestParseHTMLNonASCIICase pins that tag matching is case-insensitive on
// ASCII only: characters whose lowercase form has a different byte length
// ("Ⱥ" is 2 bytes, "ⱥ" 3; "İ" lowercases to 3 bytes) must neither shift
// the headline's end nor panic.
func TestParseHTMLNonASCIICase(t *testing.T) {
	doc := ParseHTML("<h1>ȺȺȺȺȺȺȺȺȺȺ</h1>")
	if got := doc.Root.Children[0].Headline; got != "ȺȺȺȺȺȺȺȺȺȺ" {
		t.Errorf("headline = %q", got)
	}
	doc = ParseHTML("<H2>Kİ</H2><TITLE>İstanbul</TITLE>")
	if got := doc.Root.Children[0].Headline; got != "Kİ" {
		t.Errorf("headline = %q, want %q", got, "Kİ")
	}
	if doc.Title != "İstanbul" {
		t.Errorf("title = %q", doc.Title)
	}
}

// TestParseHTMLLinearTime guards against per-tag rescans of the rest of
// the input: each document below is about 1 MB of small tags, within the
// HTTP body limit, and parses in tens of milliseconds when every byte is
// looked at a bounded number of times.
func TestParseHTMLLinearTime(t *testing.T) {
	const n = 80000
	for name, src := range map[string]string{
		"headlines":       strings.Repeat("<h2>a</h2>", n),
		"titles":          strings.Repeat("<title>a</title>", n),
		"unclosed titles": strings.Repeat("<title>", n),
	} {
		start := time.Now()
		doc := ParseHTML(src)
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: ParseHTML of %d bytes took %v", name, len(src), d)
		}
		if name == "headlines" && len(doc.Root.Children) != n {
			t.Errorf("%s: %d sections, want %d", name, len(doc.Root.Children), n)
		}
	}
}

// checkParsed asserts the invariants every parsed document keeps,
// whatever its input: claims point at tokens of their sentence, every
// sentence's phrase tree builds, and valid UTF-8 input yields a valid
// UTF-8 title and headlines.
func checkParsed(t *testing.T, src string, doc *Document) {
	t.Helper()
	for _, c := range doc.Claims {
		if c.TokenIndex < 0 || c.TokenSpan < 1 || c.TokenIndex+c.TokenSpan > len(c.Sentence.Tokens) {
			t.Fatalf("claim %d spans tokens [%d,%d) of a %d-token sentence",
				c.ID, c.TokenIndex, c.TokenIndex+c.TokenSpan, len(c.Sentence.Tokens))
		}
	}
	for _, s := range doc.Sentences {
		if s.Tree() == nil {
			t.Fatalf("no phrase tree for sentence %q", s.Text)
		}
	}
	if !utf8.ValidString(src) {
		return
	}
	if !utf8.ValidString(doc.Title) {
		t.Fatalf("title %q is not valid UTF-8", doc.Title)
	}
	var walk func(*Section)
	walk = func(sec *Section) {
		if !utf8.ValidString(sec.Headline) {
			t.Fatalf("headline %q is not valid UTF-8", sec.Headline)
		}
		for _, ch := range sec.Children {
			walk(ch)
		}
	}
	walk(doc.Root)
}

// FuzzParseHTML feeds arbitrary bytes to the HTML-lite parser, the parser
// behind every HTTP check body that looks like markup. Seeds live under
// testdata/fuzz/FuzzParseHTML; `make fuzz-smoke` runs the fuzzer.
func FuzzParseHTML(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		checkParsed(t, src, ParseHTML(src))
	})
}

// FuzzParseText is FuzzParseHTML for the markdown-lite text parser (seeds
// under testdata/fuzz/FuzzParseText).
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		checkParsed(t, src, ParseText(src))
	})
}
