package bench

import (
	"fmt"
	"io"
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

	// Collect the union of X values in order.
	xsSet := map[float64]bool{}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := []string{fig.XLabel}
	for _, s := range fig.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range fig.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintf(w, "   (y: %s)\n\n", fig.YLabel)
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

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		b.WriteString("   ")
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%*s", widths[i], cell))
		}
		fmt.Fprintln(w, b.String())
	}
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
	xsSet := map[float64]bool{}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	b.WriteString("| " + fig.XLabel + " |")
	for _, s := range fig.Series {
		b.WriteString(" " + s.Label + " |")
	}
	b.WriteString("\n|---|")
	for range fig.Series {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, x := range xs {
		b.WriteString("| " + trimFloat(x) + " |")
		for _, s := range fig.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			b.WriteString(" " + cell + " |")
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\n*(y: %s)*\n\n", fig.YLabel)
	return b.String()
}
