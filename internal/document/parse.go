package document

import (
	"strings"

	"aggchecker/internal/nlp"
)

// ParseHTML parses HTML-lite markup into a Document: <h1>…<h6> open
// (sub)sections, <p>…</p> delimit paragraphs, <title> sets the document
// title, all other tags are stripped. This covers the corpus format; the
// paper likewise consumes "HTML markup highlighting the text structure".
// Claims are detected afterwards via DetectClaims.
func ParseHTML(src string) *Document {
	doc := &Document{Root: &Section{Level: 0}}
	cur := doc.Root

	var paraBuf strings.Builder
	flushPara := func() {
		text := strings.TrimSpace(paraBuf.String())
		paraBuf.Reset()
		if text == "" {
			return
		}
		addParagraph(doc, cur, text)
	}

	// Tags and close tags are matched case-insensitively in lower, an
	// ASCII-lowercased copy of src whose every offset is an offset into src
	// (Unicode lowercasing can change a string's byte length). It is built
	// once: lowering the rest of the input per tag is quadratic.
	lower := lowerASCII(src)
	// noTitleEnd records that no "</title>" follows some earlier <title>,
	// so no later one can find one either and the search is not repeated.
	noTitleEnd := false
	i := 0
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			paraBuf.WriteString(src[i:])
			break
		}
		paraBuf.WriteString(src[i : i+lt])
		i += lt
		gt := strings.IndexByte(src[i:], '>')
		if gt < 0 {
			// Malformed trailing '<': treat as text.
			paraBuf.WriteString(src[i:])
			break
		}
		tag := strings.TrimSpace(lower[i+1 : i+gt])
		body, lowerBody := src[i+gt+1:], lower[i+gt+1:]
		switch {
		case tag == "title" && !noTitleEnd:
			end := strings.Index(lowerBody, "</title>")
			noTitleEnd = end < 0
			if end >= 0 {
				doc.Title = decodeEntities(strings.TrimSpace(body[:end]))
				i += gt + 1 + end + len("</title>")
				continue
			}
		case len(tag) == 2 && tag[0] == 'h' && tag[1] >= '1' && tag[1] <= '6':
			flushPara()
			level := int(tag[1] - '0')
			closeTag := "</" + tag + ">"
			end := strings.Index(lowerBody, closeTag)
			headline := body
			consumed := len(body)
			if end >= 0 {
				headline = body[:end]
				consumed = end + len(closeTag)
			}
			cur = openSection(doc, cur, level, decodeEntities(strings.TrimSpace(stripTags(headline))))
			i += gt + 1 + consumed
			continue
		case tag == "p":
			flushPara()
		case tag == "/p":
			flushPara()
		default:
			// Unknown tag (including </h*> leftovers): strip. Block-level
			// separators still flush the paragraph.
			if tag == "br" || tag == "br/" || tag == "hr" || strings.HasPrefix(tag, "/h") {
				flushPara()
			}
		}
		i += gt + 1
	}
	flushPara()
	DetectClaims(doc)
	return doc
}

// ParseText parses plain text with markdown-lite structure: lines starting
// with "#", "##", … are headlines; blank lines separate paragraphs.
func ParseText(src string) *Document {
	doc := &Document{Root: &Section{Level: 0}}
	cur := doc.Root
	var para []string
	flush := func() {
		if len(para) == 0 {
			return
		}
		addParagraph(doc, cur, strings.Join(para, " "))
		para = para[:0]
	}
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			flush()
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			flush()
			level := 0
			for level < len(trimmed) && trimmed[level] == '#' {
				level++
			}
			headline := strings.TrimSpace(trimmed[level:])
			if doc.Title == "" && level == 1 {
				doc.Title = headline
			}
			cur = openSection(doc, cur, level, headline)
			continue
		}
		para = append(para, trimmed)
	}
	flush()
	DetectClaims(doc)
	return doc
}

// openSection attaches a new section of the given level below the correct
// ancestor of cur and returns it.
func openSection(doc *Document, cur *Section, level int, headline string) *Section {
	parent := cur
	for parent.Level >= level && parent.Parent != nil {
		parent = parent.Parent
	}
	sec := &Section{Headline: headline, Level: level, Parent: parent}
	parent.Children = append(parent.Children, sec)
	return sec
}

// addParagraph splits text into sentences and appends the paragraph.
func addParagraph(doc *Document, sec *Section, text string) {
	text = decodeEntities(text)
	para := &Paragraph{Section: sec}
	for _, st := range nlp.SplitSentences(text) {
		s := &Sentence{
			Text:        st,
			Tokens:      nlp.Tokenize(st),
			Paragraph:   para,
			IndexInPara: len(para.Sentences),
			GlobalIndex: len(doc.Sentences),
		}
		para.Sentences = append(para.Sentences, s)
		doc.Sentences = append(doc.Sentences, s)
	}
	if len(para.Sentences) > 0 {
		sec.Paragraphs = append(sec.Paragraphs, para)
	}
}

// lowerASCII lowercases the ASCII letters of s byte for byte, leaving every
// other byte as it is, so the result has the same length and offsets as s.
func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func stripTags(s string) string {
	var sb strings.Builder
	in := false
	for _, r := range s {
		switch {
		case r == '<':
			in = true
		case r == '>':
			in = false
		case !in:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`,
	"&#39;", "'", "&apos;", "'", "&nbsp;", " ",
)

func decodeEntities(s string) string { return entityReplacer.Replace(s) }
