package experiments

import (
	"fmt"
	"io"

	"aggchecker/internal/core"
)

// RunDesignAblations measures the impact of the reproduction's own design
// choices (the deviations documented in DESIGN.md §4), beyond the paper's
// ablations: the Bernoulli restriction prior versus the paper-literal
// formula, hard versus soft expectation maximization, and the
// distinct-evidence gate's cousin knobs (score scaling and smoothing).
func RunDesignAblations(o Options) []AccuracyRow {
	type variant struct {
		name  string
		apply func(*core.Config)
	}
	variants := []variant{
		{"Current configuration", func(c *core.Config) {}},
		{"Paper-literal restriction priors", func(c *core.Config) {
			c.Model.PaperLiteralPriors = true
		}},
		{"No score scaling (flat keyword evidence)", func(c *core.Config) {
			c.Model.ScoreScale = 1
		}},
		{"Double smoothing (0.04)", func(c *core.Config) {
			c.Model.Smoothing = 0.04
		}},
		{"Fragment synonyms off", func(c *core.Config) {
			c.Fragments.UseSynonyms = false
		}},
	}
	var rows []AccuracyRow
	for _, v := range variants {
		cfg := o.BaseConfig()
		v.apply(&cfg)
		rows = append(rows, AccuracyRow{Name: v.name, Result: RunAutomated(o.Cases, cfg)})
	}
	return rows
}

// PrintDesignAblations renders the ablation table.
func PrintDesignAblations(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "Design ablations (reproduction-specific choices, DESIGN.md §4).\n")
	fmt.Fprintf(w, "%-44s %8s %8s %8s %8s\n", "Variant", "Top-1", "Top-5", "Recall", "Prec")
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			r.Name, r.Result.TopK(1), r.Result.TopK(5),
			100*r.Result.Confusion.Recall(), 100*r.Result.Confusion.Precision())
	}
}
