package bench

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Render writes a figure as an aligned text table: one row per X value,
// one column per series — the same rows/series the paper plots.
func Render(w io.Writer, fig *Figure) {
	fmt.Fprintf(w, "== %s: %s\n", fig.ID, fig.Title)
	for _, n := range fig.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if len(fig.Series) == 0 {
		fmt.Fprintln(w, "   (no data)")
		return
	}
	rows := cells(fig)
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for _, row := range rows {
		var b strings.Builder
		b.WriteString("   ")
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		fmt.Fprintln(w, b.String())
	}
	fmt.Fprintf(w, "   (y: %s)\n\n", fig.YLabel)
}

// Markdown renders a figure as a Markdown table (orchestra-bench -markdown).
func Markdown(fig *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", fig.ID, fig.Title)
	for _, n := range fig.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	if len(fig.Notes) > 0 {
		b.WriteString("\n")
	}
	rows := cells(fig)
	b.WriteString("| " + strings.Join(rows[0], " | ") + " |\n|---|")
	b.WriteString(strings.Repeat("---|", len(fig.Series)) + "\n")
	for _, row := range rows[1:] {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	fmt.Fprintf(&b, "\n*(y: %s)*\n\n", fig.YLabel)
	return b.String()
}

// cells lays a figure out as a table: a header of the X label and the
// series labels, then one row per X value in order, "-" where a series
// has no point.
func cells(fig *Figure) [][]string {
	header := []string{fig.XLabel}
	ys := map[float64][]string{}
	for i, s := range fig.Series {
		header = append(header, s.Label)
		for _, p := range s.Points {
			if ys[p.X] == nil {
				ys[p.X] = slices.Repeat([]string{"-"}, len(fig.Series))
			}
			if ys[p.X][i] == "-" {
				ys[p.X][i] = trimFloat(p.Y)
			}
		}
	}
	xs := make([]float64, 0, len(ys))
	for x := range ys {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	rows := [][]string{header}
	for _, x := range xs {
		rows = append(rows, append([]string{trimFloat(x)}, ys[x]...))
	}
	return rows
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}
