// Package expt is the experiment engine behind every table and figure
// reproduction of Hildrum–Kubiatowicz–Rao–Zhao (SPAA 2002).
//
// Each experiment is a registered Def: a table skeleton plus independent
// cells (typically one per swept parameter value). A Def runs through the
// worker-pool Runner, which derives each cell's RNG stream from
// (run seed, experiment name, cell index) via stats.StreamSeed and merges
// rows in cell order — so output is byte-identical for any worker count.
// The registry (Experiments, Match) lets CLIs select experiment subsets by
// ID or name regexp; emit.go renders results as text, JSON or CSV.
//
// There is one entry point per number: a definition's Run (or the Runner
// over the registry). The tests, the CLIs and the README's sample tables all
// go through it.
package expt

import (
	"fmt"
	"strings"
)

// Table is a titled grid of stringified results.
type Table struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a row of values, stringifying each.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
