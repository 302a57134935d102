package db

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// LoadJSONL reads a table from JSON-lines data: one JSON object per line,
// keys become columns (union over all lines, in first-seen order). A column
// is numeric when every present, non-null value is a JSON number; booleans
// and strings make it text. Missing keys and JSON nulls are NULL.
func LoadJSONL(r io.Reader, tableName string) (*Table, error) {
	return loadTable(r, tableName, jsonlFormat{})
}

// jsonlFormat is the JSON-lines fileFormat: records are decoded objects,
// converted by key.
type jsonlFormat struct{}

func (jsonlFormat) kind() string { return "jsonl" }

// decode splits JSON lines into objects and collects the key union in
// first-seen order. A line that does not decode is an error, except an
// unterminated final one (a torn write), which is the undecoded tail. An
// unterminated line that does decode is one whole object: appending cannot
// change it (anything but whitespace after it fails to decode), so it is
// never open.
func (jsonlFormat) decode(data []byte, table string) (decoded[map[string]any], error) {
	var dec decoded[map[string]any]
	seen := make(map[string]bool)
	for line, off := 1, 0; off < len(data); line++ {
		end := len(data)
		if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			end = off + i + 1
		}
		if text := bytes.TrimSpace(data[off:end]); len(text) > 0 {
			var obj map[string]any
			if err := json.Unmarshal(text, &obj); err != nil {
				err = fmt.Errorf("db: jsonl for %s: line %d: %w", table, line, err)
				if data[end-1] == '\n' {
					return dec, err
				}
				dec.tailErr = err
				break
			}
			dec.recs = append(dec.recs, obj)
			// Per-line key order is lost by map decoding; sort new keys so
			// the column order is deterministic.
			var fresh []string
			for k := range obj {
				if !seen[k] {
					seen[k] = true
					fresh = append(fresh, k)
				}
			}
			sort.Strings(fresh)
			dec.cols = append(dec.cols, fresh...)
		}
		off = end
		dec.done = off
	}
	if len(dec.recs) == 0 {
		if dec.tailErr != nil {
			return dec, dec.tailErr
		}
		return dec, fmt.Errorf("db: jsonl for %s is empty", table)
	}
	return dec, nil
}

// value converts the object's value under column c's name; a missing key
// or a JSON null is NULL, and a text column takes any value, formatted.
func (jsonlFormat) value(c *Column, _ int, obj map[string]any) (float64, string, error) {
	v := obj[c.Name]
	f, isNum := v.(float64)
	switch {
	case v == nil:
		return math.NaN(), "", nil
	case c.Kind == KindFloat && !isNum:
		return 0, "", fmt.Errorf("column %s: value %v is not a number", c.Name, v)
	case c.Kind == KindFloat:
		return f, "", nil
	case isNum:
		return 0, strconv.FormatFloat(f, 'g', -1, 64), nil
	}
	if str, isStr := v.(string); isStr {
		return 0, str, nil
	}
	data, _ := json.Marshal(v) // a bool, array or object: decoded JSON always re-encodes
	return 0, string(data), nil
}
