package db

import (
	"math"
	"math/bits"

	"aggchecker/internal/vec"
)

// This file implements per-block zone maps: small immutable summaries of
// fixed-size row runs inside each sealed storage block, computed once at
// snapshot publication and exposed through the block-access contract. Scan
// kernels consult them to skip row runs that provably cannot contain a
// predicate literal (equality on dictionary codes via a per-zone domain
// bitset, numeric equality via a min/max range test) and to hoist NULL
// branches out of runs whose null count is zero. Zones never span a sealed
// block, so append-only commits extend the zone list without touching
// sealed entries — the property that lets delta scans prune too.

// ZoneRows is the default zone-map granularity: the maximum number of rows
// one zone summarizes. It matches the execution kernel's block size so each
// kernel block of a zero-copy scan maps to exactly one zone. Tables keep
// this granularity until the compactor reseals them, when a sampled prune
// estimate may pick ZoneRowsFine or ZoneRowsCoarse instead.
const ZoneRows = 4096

// ZoneRowsFine and ZoneRowsCoarse are the alternative granularities the
// compactor chooses between: fine zones pay for themselves on clustered
// columns where most zones refute most literals; coarse zones cut summary
// overhead on columns whose zones almost never prune.
const (
	ZoneRowsFine   = 1024
	ZoneRowsCoarse = 16384
)

// maxZoneDomainDict caps the dictionary size for which per-zone domain
// bitsets are built. Beyond it the bitsets would rival the column storage
// itself (one bit per dictionary entry per zone), so high-cardinality
// string columns carry min/max-less zones that never prune; equality
// pruning on them would rarely pay for the memory anyway.
const maxZoneDomainDict = 1 << 15

// ZoneSpan is one zone-map row range of a table. All columns of a table
// share the same spans (they are derived from the sealed block layout
// alone), so scan pipelines can segment a table once and index every
// column's ZoneEntry list by the same position.
type ZoneSpan struct {
	Start, End int
}

// Rows returns the number of rows the span covers.
func (z ZoneSpan) Rows() int { return z.End - z.Start }

// ZoneEntry summarizes rows [Start, End) of one column.
type ZoneEntry struct {
	Start, End int
	// NullCount is the number of NULL rows in the zone.
	NullCount int
	// Min and Max bound the non-NULL values of a numeric column
	// (Min=+Inf, Max=-Inf when every row is NULL); unused for strings.
	Min, Max float64
	// domain is the dictionary-code presence bitset of a string column:
	// bit c is set when code c occurs in the zone. hasDomain distinguishes
	// "no codes present" from "bitset not built" (dictionary too large).
	domain    []uint64
	hasDomain bool
}

// Rows returns the number of rows the zone covers.
func (z *ZoneEntry) Rows() int { return z.End - z.Start }

// AllNull reports whether every row of the zone is NULL.
func (z *ZoneEntry) AllNull() bool { return z.NullCount == z.Rows() }

// MayContainFloat reports whether a numeric equality predicate on v could
// match inside the zone. NaN never matches (NULL semantics).
func (z *ZoneEntry) MayContainFloat(v float64) bool {
	return v >= z.Min && v <= z.Max
}

// MayContainCode reports whether dictionary code c could occur in the
// zone. Codes minted after the zone was sealed cannot appear in it, so a
// built bitset answers exactly; without a bitset the zone claims nothing.
func (z *ZoneEntry) MayContainCode(c int32) bool {
	if c < 0 {
		return false
	}
	if !z.hasDomain {
		return true
	}
	w := int(c >> 6)
	if w >= len(z.domain) {
		return false
	}
	return z.domain[w]&(1<<(uint(c)&63)) != 0
}

// Domain returns the dictionary-code presence bitset of a string-column
// zone and whether one was built (large dictionaries skip the bitset). The
// returned slice is immutable. It exists so persistent stores can serialize
// zones and hand them back through MakeZoneEntry on restore.
func (z *ZoneEntry) Domain() ([]uint64, bool) { return z.domain, z.hasDomain }

// MakeZoneEntry reconstructs a zone entry from persisted fields. hasDomain
// distinguishes an empty-but-built bitset (all rows NULL: refutes every
// code) from an absent one (claims nothing).
func MakeZoneEntry(start, end, nullCount int, min, max float64, domain []uint64, hasDomain bool) ZoneEntry {
	return ZoneEntry{Start: start, End: end, NullCount: nullCount, Min: min, Max: max, domain: domain, hasDomain: hasDomain}
}

// zoneSpansFor chunks the sealed blocks into zone spans of at most zoneRows
// rows, reusing the prev spans covering [0, from) (always a block boundary:
// commits seal whole blocks).
func zoneSpansFor(blocks []Block, from int, prev []ZoneSpan, zoneRows int) []ZoneSpan {
	if zoneRows <= 0 {
		zoneRows = ZoneRows
	}
	spans := prev
	for _, b := range blocks {
		if b.End <= from {
			continue
		}
		for lo := b.Start; lo < b.End; lo += zoneRows {
			hi := lo + zoneRows
			if hi > b.End {
				hi = b.End
			}
			spans = append(spans, ZoneSpan{Start: lo, End: hi})
		}
	}
	return spans
}

// chooseZoneRows picks the zone granularity for a table about to be
// resealed by sampling how refutable its current zones are: the probability
// that a zone refutes a uniformly drawn equality literal, estimated per
// column from the existing summaries and maximized over columns (one
// well-clustered column is enough to make fine zones pay). High estimates
// choose ZoneRowsFine, middling ones keep the default, near-zero ones fall
// back to ZoneRowsCoarse.
func chooseZoneRows(tv *TableView) int {
	best := 0.0
	for _, c := range tv.cols {
		if p := colPruneEstimate(c); p > best {
			best = p
		}
	}
	switch {
	case best >= 0.75:
		return ZoneRowsFine
	case best >= 0.25:
		return ZoneRows
	default:
		return ZoneRowsCoarse
	}
}

// colPruneEstimate estimates the chance one zone of the column refutes a
// uniformly drawn equality literal: for dictionary columns, one minus the
// mean fraction of the dictionary present per zone; for numeric columns,
// one minus the mean fraction of the column's global value range a zone's
// min/max covers. Zones that are entirely NULL refute everything and score
// 1. Columns without usable summaries score 0 (never force fine zones).
func colPruneEstimate(c *ColView) float64 {
	if len(c.zones) == 0 {
		return 0
	}
	if c.Kind == KindString {
		dictLen := len(c.dict)
		if dictLen == 0 {
			return 0
		}
		sum, n := 0.0, 0
		for i := range c.zones {
			z := &c.zones[i]
			if !z.hasDomain {
				continue
			}
			n++
			if z.AllNull() {
				sum += 1
				continue
			}
			pop := 0
			for _, w := range z.domain {
				pop += bits.OnesCount64(w)
			}
			sum += 1 - float64(pop)/float64(dictLen)
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	gmin, gmax := math.Inf(1), math.Inf(-1)
	for i := range c.zones {
		z := &c.zones[i]
		if z.AllNull() {
			continue
		}
		gmin = math.Min(gmin, z.Min)
		gmax = math.Max(gmax, z.Max)
	}
	if !(gmax > gmin) {
		return 0 // constant, empty, or all-NULL column: range tests never prune
	}
	sum := 0.0
	for i := range c.zones {
		z := &c.zones[i]
		if z.AllNull() {
			sum += 1
			continue
		}
		sum += 1 - (z.Max-z.Min)/(gmax-gmin)
	}
	return sum / float64(len(c.zones))
}

// floatZones summarizes vals over the given spans starting at span index
// first, appending to prev.
func floatZones(vals []float64, spans []ZoneSpan, first int, prev []ZoneEntry) []ZoneEntry {
	zones := prev
	for _, sp := range spans[first:] {
		z := ZoneEntry{Start: sp.Start, End: sp.End}
		run := vals[sp.Start:sp.End]
		z.Min, z.Max = vec.MinMaxF64(run)
		for _, v := range run {
			if v != v {
				z.NullCount++
			}
		}
		zones = append(zones, z)
	}
	return zones
}

// codeZones summarizes dictionary codes over the given spans starting at
// span index first, appending to prev. dictLen is the dictionary size at
// publication time; codes in sealed rows are always below it.
func codeZones(codes []int32, dictLen int, spans []ZoneSpan, first int, prev []ZoneEntry) []ZoneEntry {
	zones := prev
	buildDomain := dictLen <= maxZoneDomainDict
	words := (dictLen + 63) / 64
	for _, sp := range spans[first:] {
		z := ZoneEntry{Start: sp.Start, End: sp.End, Min: math.Inf(1), Max: math.Inf(-1)}
		run := codes[sp.Start:sp.End]
		if buildDomain {
			z.domain = make([]uint64, words)
			z.hasDomain = true
			for _, c := range run {
				if c < 0 {
					z.NullCount++
					continue
				}
				z.domain[c>>6] |= 1 << (uint(c) & 63)
			}
		} else {
			// Without a domain bitset the loop only counts NULLs.
			z.NullCount = len(run) - vec.CountNonNegI32(run)
		}
		zones = append(zones, z)
	}
	return zones
}
