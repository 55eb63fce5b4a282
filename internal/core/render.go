package core

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table renders the relation as an aligned text table in the style of the
// paper's figures: a sign column followed by one column per attribute,
// general tuples first, classes marked ∀ (universal quantification over the
// class) and leaves bare. The output is deterministic.
func (r *Relation) Table() string {
	order := r.generalFirst()
	headers := append([]string{""}, r.schema.Names()...)
	rows := make([][]string, 0, len(order))
	for _, n := range order {
		t := r.rows[n]
		row := make([]string, 0, 1+len(t.Item))
		if t.Sign {
			row = append(row, "+")
		} else {
			row = append(row, "-")
		}
		for i, id := range r.rowIDs(n) {
			if v := t.Item[i]; r.schema.attrs[i].Domain.IsLeafID(int(id)) {
				row = append(row, v)
			} else {
				row = append(row, "∀"+v)
			}
		}
		rows = append(rows, row)
	}
	return renderTable(r.name, headers, rows)
}

// renderTable lays out a titled, aligned text table.
func renderTable(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	pad := func(s string, w int) string {
		return s + strings.Repeat(" ", w-utf8.RuneCountInString(s))
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		b.WriteString(strings.TrimRight(strings.Join(parts, "  "), " "))
		b.WriteString("\n")
	}
	line(headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteString("\n")
	for _, row := range rows {
		line(row)
	}
	return b.String()
}
