// Package report renders the reproduction's tables and figures as aligned
// text (for the CLI and EXPERIMENTS.md) and CSV (for external plotting).
// Breakdown figures render as stacked percentage bars in the visual style of
// the paper's Figures 4-16; what-if curves render as series tables and an
// ASCII chart like Figure 17.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"breakband/internal/core/breakdown"
	"breakband/internal/core/whatif"
	"breakband/internal/stats"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; cells beyond the header count panic (a report bug).
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, want %d", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := len(t.Headers)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes around cells
// containing commas).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	write := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	write(t.Headers)
	for _, r := range t.Rows {
		write(r)
	}
	return b.String()
}

// barGlyphs cycles distinct fills for stacked-bar segments.
var barGlyphs = []byte{'#', '=', '+', ':', '.', '%', '*', 'o', '-'}

// Bar renders one breakdown as a stacked percentage bar with a legend, e.g.
//
//	LLP_post (175.42 ns)
//	[######==+++:::::::::::::::::::::::::.....]
//	 # MD setup 15.8%  = Barrier for MD 9.9%  ...
func Bar(b breakdown.Breakdown, width int) string {
	if width <= 0 {
		width = 60
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%.2f ns)\n[", b.Title, b.TotalNs)
	used := 0
	cells := make([]int, len(b.Parts))
	for i, p := range b.Parts {
		// A component estimated as a difference of noisy means can come
		// out negative: it gets no cells but keeps its legend entry.
		n := max(0, int(math.Round(p.Pct/100*float64(width))))
		if used+n > width {
			n = width - used
		}
		cells[i] = n
		used += n
	}
	// Distribute rounding leftovers to the largest part.
	if used < width && len(cells) > 0 {
		maxI := 0
		for i, n := range cells {
			if n > cells[maxI] {
				maxI = i
			}
		}
		cells[maxI] += width - used
	}
	for i, n := range cells {
		sb.Write(bytesRepeat(barGlyphs[i%len(barGlyphs)], n))
	}
	sb.WriteString("]\n ")
	for i, p := range b.Parts {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%c %s %.2f%% (%.2f ns)", barGlyphs[i%len(barGlyphs)], p.Label, p.Pct, p.Ns)
	}
	sb.WriteByte('\n')
	return sb.String()
}

func bytesRepeat(c byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// Bars renders several breakdowns, one bar each.
func Bars(bs []breakdown.Breakdown, width int) string {
	var sb strings.Builder
	for i, b := range bs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(Bar(b, width))
	}
	return sb.String()
}

// HistogramText renders a stats.Histogram vertically, in the spirit of the
// paper's Figure 7 probability-density plot.
func HistogramText(h *stats.Histogram, width int) string {
	if width <= 0 {
		width = 50
	}
	maxD := 0.0
	for i := range h.Counts {
		if d := h.Density(i); d > maxD {
			maxD = d
		}
	}
	var sb strings.Builder
	bw := h.BinWidth()
	for i, n := range h.Counts {
		lo := h.Lo + float64(i)*bw
		bar := 0
		if maxD > 0 {
			bar = int(math.Round(h.Density(i) / maxD * float64(width)))
		}
		fmt.Fprintf(&sb, "%8.1f-%-8.1f |%s %d\n", lo, lo+bw, strings.Repeat("#", bar), n)
	}
	if h.Under > 0 {
		fmt.Fprintf(&sb, "   < %-10.1f (%d under range)\n", h.Lo, h.Under)
	}
	if h.Over > 0 {
		fmt.Fprintf(&sb, "   > %-10.1f (%d over range; the paper's Figure 7 also notes its max off-scale)\n", h.Hi, h.Over)
	}
	return sb.String()
}

// SeriesTable renders what-if series as a reduction-by-component table
// (Figure 17's data).
func SeriesTable(title string, series []whatif.Series) *Table {
	t := &Table{Title: title, Headers: []string{"reduction"}}
	for _, s := range series {
		t.Headers = append(t.Headers, s.Name)
	}
	if len(series) == 0 {
		return t
	}
	for i, r := range series[0].Reductions {
		row := []string{fmt.Sprintf("%.0f%%", r*100)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.2f%%", s.SpeedupPct[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// SeriesChart renders the series as a coarse ASCII line chart (speedup vs
// reduction), matching Figure 17's visual form.
func SeriesChart(title string, series []whatif.Series, height int) string {
	if height <= 0 {
		height = 12
	}
	maxY := 0.0
	for _, s := range series {
		for _, v := range s.SpeedupPct {
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	cols := len(series[0].Reductions)
	const colW = 8
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = bytesRepeat(' ', cols*colW)
	}
	marks := "abcdefghijklmn"
	for si, s := range series {
		for ci, v := range s.SpeedupPct {
			row := height - 1 - int(math.Round(v/maxY*float64(height-1)))
			col := ci*colW + colW/2
			if grid[row][col] == ' ' {
				grid[row][col] = marks[si%len(marks)]
			} else {
				grid[row][col] = '*' // overlapping points
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (y: speedup %%, max %.2f%%; * = overlap)\n", title, maxY)
	for i, row := range grid {
		y := maxY * float64(height-1-i) / float64(height-1)
		fmt.Fprintf(&sb, "%6.1f%% |%s\n", y, string(row))
	}
	sb.WriteString("        +" + strings.Repeat("-", cols*colW) + "\n         ")
	for _, r := range series[0].Reductions {
		fmt.Fprintf(&sb, "%-*s", colW, fmt.Sprintf("%.0f%%", r*100))
	}
	sb.WriteString("  (overhead reduction)\n")
	for si, s := range series {
		fmt.Fprintf(&sb, "         %c = %s\n", marks[si%len(marks)], s.Name)
	}
	return sb.String()
}

// SortedKeys returns a map's keys sorted, for deterministic report output.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
